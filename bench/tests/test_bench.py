"""Tests of the benchmark itself: deterministic inputs, checks that reject
corrupted reports, the tail percentile rule and the tracer's bookkeeping.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dynblotto import cli  # noqa: E402
from dynblotto import core, strategies  # noqa: E402
from tracer import Tracer  # noqa: E402

EV, WP = workloads.EV, workloads.WP


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        ops, warmups = workloads.generate(workload, seed)
        workloads.write_configs(ops + warmups, directory)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_specs_differ_from_timed_specs(workload):
    ops, warmups = workloads.generate(workload, 3)
    timed = {json.dumps(op.config, sort_keys=True) for op in ops if op.config}
    assert all(json.dumps(op.config, sort_keys=True) not in timed for op in warmups)


def test_solve_specs_are_distinct_and_half_the_vectors_mirror():
    ops = workloads.solve_stream(5)
    contests = [op for op in ops if op.command == "solve"]
    specs = [json.dumps(op.config, sort_keys=True) for op in contests]
    assert len(set(specs)) == len(specs)
    by_vector = {}
    for op in contests:
        by_vector.setdefault(op.record["vector"], []).append(op)
    doubled = [v for v in by_vector.values() if len(v) == 2]
    assert len(doubled) / len(by_vector) == 0.5
    for first, second in doubled:
        assert first.config["battles"] == second.config["battles"]
        assert first.config["players"] == second.config["players"][::-1]
    assert [op.record["demo"] for op in ops[:4]] == list(workloads.DEMOS)


def test_simulate_ops_record_path_class_and_trials():
    ops = workloads.simulate_cycle(1)
    for op in ops:
        many = op.record["path_class"] == "many-path"
        assert op.record["trials"] == (workloads.MANY_PATH_TRIALS if many
                                       else workloads.FEW_PATH_TRIALS)
        assert ("--trials", str(op.record["trials"])) == op.flags[:2]
    assert {op.record["objective"] for op in ops} == {EV, WP}


@pytest.mark.parametrize("cycle", (workloads.exact_cycle, workloads.simulate_cycle))
def test_seeds_share_contests_up_to_a_scale(cycle):
    for first, second in zip(cycle(1), cycle(2)):
        assert first.config["battles"] == second.config["battles"]
        a, b = ([p["budget"] for p in op.config["players"]] for op in (first, second))
        factor = b[0] / a[0]
        assert b == pytest.approx([x * factor for x in a], rel=1e-3)
        shocks = [(s["amount"] * factor, t["amount"])
                  for s, t in zip(first.config.get("shocks", ()), second.config.get("shocks", ()))]
        assert all(want == pytest.approx(got, abs=0.05) for want, got in shocks)


def test_passes_follow_seconds_and_solve_runs_once():
    assert workloads.passes("exact", 30) == 5
    assert workloads.passes("simulate", 30) == 2
    assert workloads.passes("simulate", 1) == 1
    assert workloads.passes("solve", 600) == 1


# ---------------------------------------------------------------------------
# output checks


def run_op(op, tmp_path):
    paths = workloads.write_configs([op], tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(op.argv(paths.get(op.name)))
    return status, json.loads(out.getvalue())


def verdict(op, status, report, checker=None):
    checker = checker or checks.Checker()
    return checker.check(op, status, json.dumps(report), "", None)


def small(command, values, budgets, objective, alpha=1.0, flags=(), **extra):
    config = workloads.contest(values, budgets, objective, alpha)
    return workloads._op(f"{command}-test", command, config, flags, **extra)


@pytest.mark.parametrize("objective", (EV, WP))
def test_evaluate_check_rejects_a_corrupted_payoff(objective, tmp_path):
    op = small("evaluate", [1.0, 2.0, 1.5, 1.2], [40.0, 60.0], objective)
    status, report = run_op(op, tmp_path)
    assert verdict(op, status, report) is None
    report["payoffs"][0] += 1e-9
    assert "reference" in verdict(op, status, report)


def test_oracles_agree_with_each_other():
    spec = checks.spec_from_config(
        workloads.contest([1.0, 2.0, 1.0, 2.0], [50.0, 70.0, 60.0], WP))
    profile = checks.proportional_profile(3)
    brute = checks.brute_force_payoffs(profile, spec)
    merged = checks.merged_state_payoffs(spec)
    assert merged == pytest.approx(brute, abs=1e-12)
    ev = checks.spec_from_config(workloads.contest([1.0, 2.0, 1.5], [30.0, 70.0], EV, 2.0))
    assert checks.closed_form_payoffs(ev) == pytest.approx(
        checks.brute_force_payoffs(checks.proportional_profile(2), ev), abs=1e-12)


def test_check_verifies_counterexample_gains(tmp_path):
    op = small("check", [1.0, 1.2, 0.9], [10.0, 90.0], EV, alpha=2.0)
    status, report = run_op(op, tmp_path)
    assert status == 2 and verdict(op, status, report) is None
    report["counterexample"]["gain"] *= 1.001
    assert "reference" in verdict(op, status, report)


def test_check_rejects_a_refutation_at_alpha_one(tmp_path):
    op = small("check", [1.0, 1.2, 0.9], [30.0, 50.0], EV)
    status, report = run_op(op, tmp_path)
    assert status == 0 and verdict(op, status, report) is None
    report.update(holds=False)
    assert "alpha <= 1" in verdict(op, 2, report)
    assert "exit status" in verdict(op, 2, dict(report, holds=True))


def test_simulate_check_rejects_a_shifted_mean_and_a_changed_rerun(tmp_path):
    op = small("simulate", [1.0, 2.0, 1.0, 2.0], [50.0, 70.0], WP,
               flags=("--trials", "4000", "--seed", "9"), trials=4000, sim_seed=9)
    status, report = run_op(op, tmp_path)
    checker = checks.Checker()
    assert verdict(op, status, report, checker) is None
    assert verdict(op, status, report, checker) is None  # identical rerun
    changed = dict(report, means=[report["means"][0] + 1e-15] + report["means"][1:])
    assert "rerun" in verdict(op, status, changed, checker)
    shifted = dict(report, means=[m + 10 * s for m, s in zip(report["means"], report["std_errors"])])
    assert "standard errors" in verdict(op, status, shifted)


def test_solve_check_rejects_residuals_and_unmirrored_spends(tmp_path):
    first = small("solve", [1.0, 1.0, 1.0], [40.0, 70.0], WP,
                  vector=0, mirror_side=0, value_repeats=True)
    second = workloads.Op("solve-test-mirror", "solve",
                          workloads.contest([1.0, 1.0, 1.0], [70.0, 40.0], WP),
                          (), dict(first.record, mirror_side=1))
    status_a, report_a = run_op(first, tmp_path)
    status_b, report_b = run_op(second, tmp_path)
    checker = checks.Checker()
    assert verdict(first, status_a, report_a, checker) is None
    assert verdict(second, status_b, report_b, checker) is None
    assert "residual" in verdict(first, status_a, dict(report_a, root_residual=1e-3))
    checker = checks.Checker()
    verdict(first, status_a, report_a, checker)
    bad = dict(report_b, root_allocations=report_b["root_allocations"][::-1])
    assert "mirrored" in verdict(second, status_b, bad, checker)


def test_demo_and_failure_checks():
    op = workloads.Op("demo-prop1", "demo", None, (), {"demo": "prop1"})
    assert "fails_as_expected" in verdict(op, 0, {"fails_as_expected": False})
    assert verdict(op, 0, {"fails_as_expected": True}) is None
    checker = checks.Checker()
    assert "exit status 1" in checker.check(op, 1, "", "error: boom\n", None)
    assert "raised" in checker.check(op, None, "", "", "ValueError: x")
    assert "not JSON" in checker.check(op, 0, "{", "", None)


# ---------------------------------------------------------------------------
# metrics and tracing


def test_tail_percentile_keeps_ten_ops_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert run.tail_latency(values) == (90.0, 90)
    assert run.tail_latency(values[:20]) == (10.0, 50)
    assert run.tail_latency(values[:10]) == (10.0, 100)


def test_tracer_counts_nested_calls_and_restores_functions(tmp_path):
    original = core.terminal_status
    op = small("evaluate", [1.0, 2.0, 1.5], [40.0, 60.0], WP)
    paths = workloads.write_configs([op], tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert strategies.terminal_status is core.terminal_status is not original
        core.terminal_status(checks.spec_from_config(op.config), checks.History())
        with contextlib.redirect_stdout(io.StringIO()):
            status = tracer.run_op(0, op.name, lambda: cli.main(op.argv(paths[op.name])))
    finally:
        tracer.uninstall()
    assert status == 0
    assert strategies.terminal_status is core.terminal_status is original
    metrics = tracer.metrics()
    assert metrics["evaluation.expected_payoffs.calls"][0] == 1  # the call outside the op is not counted
    assert metrics["evaluation.wp.allocations_per_eval"][0] == metrics[
        "strategies.allocations_at.calls"][0] > 0
    assert metrics["core.terminal_status.calls"][0] > metrics["strategies.allocations_at.calls"][0]
    layer_total = sum(tracer.self_seconds.values())
    assert layer_total == pytest.approx(tracer.ops[0]["seconds"], rel=1e-9)
