"""The README's library quick tour runs as written, and its comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_quick_tour_runs_and_its_comments_hold():
    scope = {}
    exec(compile(_quick_tour(), f"{README}: quick tour", "exec"), scope)
    verdict = scope["verdict"]  # -> Fails, with a counterexample
    assert not verdict.holds and verdict.counterexample is not None
    # on-path spends (50, 50/3, 50/3, 50/3), for both players
    trace = scope["result"].trace
    assert len(trace) == 4
    for spends, expected in zip(trace, (50.0, 50.0 / 3.0, 50.0 / 3.0, 50.0 / 3.0)):
        assert max(abs(w - expected) for w in spends) <= 1e-2, trace
    # the simulation estimates the exact payoffs
    payoffs, estimate = scope["payoffs"], scope["estimate"]
    for exact, mean, error in zip(payoffs, estimate.means, estimate.std_errors):
        assert abs(mean - exact) <= 4.0 * error
