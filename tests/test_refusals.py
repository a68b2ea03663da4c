"""Refusals that no other test reaches, one table: each call, and the error
class and message it ends in, or what it returns instead."""

import json

import pytest

from dynblotto import (
    ContestSpec,
    ContractError,
    History,
    InputError,
    Objective,
    deviation_gains,
    deviation_grid,
    history_from_winners,
    is_guaranteed_loser,
    remaining_budget,
    solve_backward,
    stage_equilibrium,
    validate_spec,
)
from dynblotto.cli import load_config, parse_winner_schedule

WP = Objective.WIN_PROBABILITY
SPEC = ContestSpec([1, 1, 1], [10, 20], objective=WP)
ENDED = History().extend((5.0, 5.0), 0).extend((5.0, 5.0), 0)  # A has won two of three


def _config(tmp_path, payload):
    path = tmp_path / "contest.json"
    path.write_text(json.dumps(payload))
    return load_config(str(path))


# name -> (call, then the error class and a match for its message, or None
# and the value returned); a call that takes tmp_path reads a config
REFUSALS = {
    "winner-out-of-range": (lambda: history_from_winners(SPEC, (5,)),
                            InputError, r"^winner 5 out of range$"),
    "three-player-solve": (lambda: solve_backward(ContestSpec([1, 1, 1], [1, 1, 1], objective=WP)),
                           InputError, r"^the backward solver handles two-player contests$"),
    "stage-at-the-end": (lambda: stage_equilibrium(SPEC, ENDED),
                         ContractError, r"^stage solve requested at a terminal history$"),
    "loser-at-the-end": (lambda: is_guaranteed_loser(SPEC, ENDED, 1), ContractError,
                         r"^guaranteed-loser rule applies to nonterminal histories only$"),
    "budget-of-player-5": (lambda: remaining_budget(SPEC, History(), 5),
                           InputError, r"^player index 5 out of range$"),
    "infinite-value": (lambda: ContestSpec([1, float("inf"), 1], [10, 20]),
                       InputError, r"^values\[1\] must be a finite real number, got inf$"),
    "shock-on-battle-3-of-2": (lambda: ContestSpec([1, 1], [10, 20], shocks={(0, 3): 1.0}),
                               InputError, r"^shock references unknown battle 3$"),
    "infinite-shock": (lambda: ContestSpec([1, 1], [10, 20], shocks={(1, 2): float("inf")}),
                       InputError,
                       r"^shock amount of \(1, 2\) must be a finite real number, got inf$"),
    "value-of-0": (lambda: validate_spec(ContestSpec([0, 1, 1, 1], [10, 20])),
                   None, ["non-positive value at battle 1"]),
    "grid-at-the-end": (lambda: deviation_grid(SPEC, ENDED, 0),
                        ContractError, r"^deviations are undefined at terminal histories$"),
    "gains-at-the-end": (lambda: deviation_gains(SPEC, ENDED, 0, [0.0]),
                         ContractError, r"^deviations are undefined at terminal histories$"),
    "gains-of-player-5": (lambda: deviation_gains(SPEC, History(), 5, [0.0]),
                          InputError, r"^player index 5 out of range$"),
    "player-that-is-no-object": (
        lambda tmp_path: _config(tmp_path, {"players": [{"budget": 10}, 20],
                                            "battles": [{"value": 1}] * 3}),
        InputError, r"^config field players\[1\] must be an object$"),
    "empty-history-token": (lambda: parse_winner_schedule("A,,B"), None, (0, 1)),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_each_refusal_names_its_input(name, tmp_path):
    call, error, expected = REFUSALS[name]
    run = (lambda: call(tmp_path)) if call.__code__.co_argcount else call
    if error is None:
        assert run() == expected
    else:
        with pytest.raises(error, match=expected):
            run()
