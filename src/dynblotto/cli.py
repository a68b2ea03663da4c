"""Config-driven command line front end.

Commands: evaluate, simulate, solve, check, demo.  Contests are described by
a JSON config file; reports are emitted as JSON (default) or CSV.  Exit
status is 0 on success, 2 when `check` refutes proportionality (so scripts
can branch on it), and 1 on errors, an unknown config field among them, or
when standard output closes before the report is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    ContestError,
    ContestSpec,
    CsfParams,
    History,
    InputError,
    Objective,
    validate_spec,
)
from .equilibrium import SolverSettings, solve_backward, stage_equilibrium
from .evaluation import SamplingPlan, check_proportionality, expected_payoffs
from .montecarlo import simulate
from .strategies import history_from_winners, proportional_profile

@dataclass(frozen=True)
class RunSettings:
    solver: SolverSettings = SolverSettings()
    seed: int = 0  # simulate only
    trials: int = 10000  # simulate only
    history: tuple = ()  # evaluate and check: winner schedule addressing a subgame
    output: str = "json"
    demo: Optional[str] = None


def _require(condition, message):
    if not condition:
        raise InputError(message)


def _number(raw) -> float:
    """A JSON number as a float; booleans and strings are refused."""
    if isinstance(raw, (bool, str)):
        raise ValueError(raw)
    return float(raw)


def _integer(raw) -> int:
    """An integral JSON number as an int; booleans, strings and fractions are refused."""
    if isinstance(raw, (bool, str)) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(raw)
    return int(raw)


def _read(entry, key: str, where: str, convert=_number, default=None):
    """`convert(entry[key])`, or `default` when the key is absent and a default is given.

    Raises InputError naming the field `where` when the entry is not a JSON
    object, the field is missing, or its value does not convert.
    """
    if not isinstance(entry, dict):
        raise InputError(f"config field {where.rpartition('.')[0]} must be an object")
    if key not in entry:
        _require(default is not None, f"config field {where} is missing")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError, OverflowError):  # an integer too large for a float
        kind = "an integer" if convert is _integer else "a number"
        raise InputError(f"config field {where} must be {kind}, got {entry[key]!r}") from None


def _known(entry, where: str, *keys) -> None:
    """Refuse a field of the JSON object `entry`, at `where`, that is not in `keys`."""
    for key in entry if isinstance(entry, dict) else ():
        _require(key in keys, f"config field {where}{key} is unknown")


def _list(raw, key: str) -> list:
    entries = raw.get(key, [])
    _require(isinstance(entries, list), f"config field {key} must be a list")
    return entries


def load_config(path: str):
    """Load and validate a contest config; returns (spec, run settings).

    Defaults: Tullock success function (alpha=1, beta=1), no shocks,
    grid_points=200, tolerance=1e-6, seed=0 (read by simulate).  Malformed
    fields and fields the schema does not know raise InputError naming the
    field; so do a file that is not UTF-8 text, JSON nested too deeply to
    parse and an integer literal longer than Python reads.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise InputError(f"config is not UTF-8 text: byte {err.start}: {err.reason}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"config parse failure at line {err.lineno}, column {err.colno}: {err.msg}")
    except ValueError as err:  # an integer literal past int's digit limit
        raise InputError(f"config parse failure: {err}") from None
    except RecursionError:
        raise InputError("config parse failure: JSON nested too deeply") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    _known(raw, "", "players", "battles", "csf", "objective", "shocks", "solver", "seed")
    _require("players" in raw, "config needs a 'players' list")
    _require("battles" in raw, "config needs a 'battles' list")
    budgets, values = [], []
    for i, entry in enumerate(_list(raw, "players")):
        _known(entry, f"players[{i}].", "budget")
        budgets.append(_read(entry, "budget", f"players[{i}].budget"))
    for t, entry in enumerate(_list(raw, "battles")):
        _known(entry, f"battles[{t}].", "value")
        values.append(_read(entry, "value", f"battles[{t}].value"))
    csf_raw = raw.get("csf", {})
    _known(csf_raw, "csf.", "alpha", "beta")
    csf = CsfParams(
        _read(csf_raw, "alpha", "csf.alpha", default=1.0),
        _read(csf_raw, "beta", "csf.beta", default=1.0),
    )
    objective_name = raw.get("objective", "expected_value")
    try:
        objective = Objective(objective_name)
    except (TypeError, ValueError):
        choices = ", ".join(o.value for o in Objective)
        raise InputError(
            f"config field objective must be one of {choices}, got {objective_name!r}"
        ) from None
    shocks = {}
    for k, entry in enumerate(_list(raw, "shocks")):
        where = f"shocks[{k}]"
        _known(entry, f"{where}.", "player", "battle", "amount")
        key = (_read(entry, "player", f"{where}.player", _integer),
               _read(entry, "battle", f"{where}.battle", _integer))
        _require(key not in shocks, f"config field {where} repeats the shock of player "
                                    f"{key[0]} at battle {key[1]}")
        shocks[key] = _read(entry, "amount", f"{where}.amount")
    spec = ContestSpec(values, budgets, csf, objective, shocks)
    violations = validate_spec(spec)
    if violations:
        raise InputError("invalid contest: " + "; ".join(violations))
    solver_raw = raw.get("solver", {})
    _known(solver_raw, "solver.", "grid_points", "tolerance")
    grid_points = _read(solver_raw, "grid_points", "solver.grid_points", _integer, 200)
    tolerance = _read(solver_raw, "tolerance", "solver.tolerance", default=1e-6)
    try:
        solver = SolverSettings(grid_points, tolerance)
    except InputError as err:  # it names the field
        raise InputError(f"config field {err}") from None
    seed = _read(raw, "seed", "seed", _integer, 0)
    _require(seed >= 0, f"config field seed must be a nonnegative integer, got {seed}")
    return spec, RunSettings(solver=solver, seed=seed)


def parse_winner_schedule(text: str) -> tuple:
    """Parse a --history flag: comma-separated player letters (A,B,...) or indices,
    in ASCII; any other token raises InputError."""
    if not text:
        return ()
    winners = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.isascii() and token.isdigit():
            winners.append(int(token))
        elif token.isascii() and len(token) == 1 and token.isalpha():
            winners.append(ord(token.upper()) - ord("A"))
        else:
            raise InputError(f"cannot parse winner {token!r} in history")
    return tuple(winners)


def _history_payload(history: History) -> dict:
    return {
        "winners": list(history.winner_schedule()),
        "allocations": [list(record.allocations) for record in history.records],
    }


def _run_evaluate(spec, settings):
    profile = proportional_profile(spec.n)
    history = history_from_winners(spec, settings.history)
    payoffs = expected_payoffs(profile, spec, history)
    return {
        "command": "evaluate",
        "profile": "proportional",
        "objective": spec.objective.value,
        "history": _history_payload(history),
        "payoffs": list(payoffs),
    }, 0


def _run_simulate(spec, settings):
    profile = proportional_profile(spec.n)
    result = simulate(profile, spec, settings.seed, settings.trials)
    return {
        "command": "simulate",
        "profile": "proportional",
        "seed": result.seed,
        "trials": result.trials,
        "means": list(result.means),
        "std_errors": list(result.std_errors),
    }, 0


def _run_solve(spec, settings):
    result = solve_backward(spec, settings.solver)
    return {
        "command": "solve",
        "trace": [list(spends) for spends in result.trace],
        "trace_winners": list(result.trace_winners),
        "root_allocations": list(result.root.allocations),
        "root_residual": result.root.residual,
        "profile": "stage_equilibrium",
    }, 0


def _verdict_payload(verdict) -> dict:
    payload = {
        "holds": verdict.holds,
        "histories_checked": verdict.histories_checked,
        "max_gain": verdict.max_gain,
    }
    if verdict.counterexample is not None:
        ce = verdict.counterexample
        payload["counterexample"] = {
            "history": _history_payload(ce.history),
            "player": ce.player,
            "delta": ce.delta,
            "gain": ce.gain,
        }
    return payload


def _run_check(spec, settings):
    plan = SamplingPlan(tolerance=settings.solver.tolerance)
    if settings.history:
        plan = replace(plan, histories=(history_from_winners(spec, settings.history),))
    verdict = check_proportionality(spec, plan)
    report = {"command": "check"}
    report.update(_verdict_payload(verdict))
    return report, (0 if verdict.holds else 2)


def _demo_example1(settings):
    spec = ContestSpec([1, 1, 1], [100, 100], objective=Objective.WIN_PROBABILITY)
    result = solve_backward(spec, settings.solver)
    reference = 100.0 / 3.0
    computed = [list(spends) for spends in result.trace]
    error = max(abs(w - reference) for spends in result.trace for w in spends)
    return {
        "demo": "example1",
        "description": "three equal battles, equal budgets: equilibrium play is proportional",
        "computed_on_path_spends": computed,
        "reference_per_battle_spend": reference,
        "max_abs_error": error,
        "matches_reference": error <= 1e-2,
    }


def _demo_example2(settings):
    spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=Objective.WIN_PROBABILITY)
    result = solve_backward(spec, settings.solver)
    reference = [50.0, 50.0 / 3.0, 50.0 / 3.0, 50.0 / 3.0]
    computed = [list(spends) for spends in result.trace]
    error = max(
        abs(w - reference[t]) for t, spends in enumerate(result.trace) for w in spends
    )
    verdict = check_proportionality(spec)
    return {
        "demo": "example2",
        "description": "double-value opening battle: equilibrium spends half the budget "
        "up front, more than the proportional 40",
        "computed_on_path_spends": computed,
        "reference_on_path_spends": reference,
        "max_abs_error": error,
        "matches_reference": error <= 1e-2,
        "proportional_play": _verdict_payload(verdict),
    }


def _demo_example3(settings):
    spec = ContestSpec([1, 1, 1, 2], [100, 100], objective=Objective.WIN_PROBABILITY)
    split = history_from_winners(spec, (0, 1))
    stage3 = stage_equilibrium(spec, split, settings=settings.solver)
    after3 = split.extend(stage3.allocations, 0)
    stage4 = stage_equilibrium(spec, after3, settings=settings.solver)
    budgets = [100.0 - split.spent(i) - stage3.allocations[i] for i in range(2)]
    verdict = check_proportionality(spec)
    return {
        "demo": "example3",
        "description": "double-value closing battle: after a split of the first two "
        "battles, everything rides on the last battle",
        "computed_battle3_spends": list(stage3.allocations),
        "reference_battle3_spends": [0.0, 0.0],
        "computed_battle4_spends": list(stage4.allocations),
        "reference_battle4_spends": budgets,
        "matches_reference": max(stage3.allocations) <= 1e-2
        and max(abs(stage4.allocations[i] - budgets[i]) for i in range(2)) <= 1e-2,
        "proportional_play": _verdict_payload(verdict),
    }


def _demo_prop1(settings):
    spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=Objective.WIN_PROBABILITY)
    alternating = history_from_winners(spec, (0, 1))
    plan = SamplingPlan(histories=(alternating,))
    verdict = check_proportionality(spec, plan)
    return {
        "demo": "prop1",
        "description": "three small battles before one decisive battle: saving the "
        "budget for the last battle beats proportional play",
        "proportional_play": _verdict_payload(verdict),
        "fails_as_expected": not verdict.holds,
    }


DEMOS = {
    "example1": _demo_example1,
    "example2": _demo_example2,
    "example3": _demo_example3,
    "prop1": _demo_prop1,
}


def _run_demo(spec, settings):
    _require(settings.demo in DEMOS, f"unknown demo {settings.demo!r}")
    return DEMOS[settings.demo](settings), 0


COMMANDS = {
    "evaluate": _run_evaluate,
    "simulate": _run_simulate,
    "solve": _run_solve,
    "check": _run_check,
    "demo": _run_demo,
}


def run(command: str, spec: Optional[ContestSpec], settings: RunSettings):
    """Execute one command; returns (report dict, exit status)."""
    _require(spec is not None or command == "demo", f"command {command!r} needs a config")
    _require(command in COMMANDS, f"unknown command {command!r}")
    return COMMANDS[command](spec, settings)


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, value))


def format_report(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if output == "csv":
        rows = []
        _flatten("", report, rows)
        lines = ["key,value"]
        for key, value in rows:
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{key},{value}")
        return "\n".join(lines)
    raise InputError(f"unknown output format {output!r}")


@functools.cache  # built once per process: argparse sizes the terminal per argument
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynblotto", description="Dynamic multi-battle Blotto contests."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        if command == "demo":
            p.add_argument("name", choices=tuple(DEMOS))
        else:
            p.add_argument("--config", required=True, help="path to a contest config (JSON)")
        if command == "simulate":
            p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
            p.add_argument("--trials", type=int, default=RunSettings.trials)
        if command in ("evaluate", "check"):
            p.add_argument(
                "--history",
                default="",
                help="winner schedule addressing a subgame, e.g. 'A,B,A' (proportional "
                "on-path spends assumed)",
            )
        p.add_argument("--output", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = None
        settings = RunSettings()
        if args.command != "demo":
            spec, settings = load_config(args.config)
        seed = getattr(args, "seed", None)
        settings = replace(
            settings,
            seed=seed if seed is not None else settings.seed,
            trials=getattr(args, "trials", settings.trials),
            history=parse_winner_schedule(getattr(args, "history", "")),
            output=args.output,
            demo=getattr(args, "name", None),
        )
        report, status = run(args.command, spec, settings)
    except (ContestError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:  # a check walks every winner sequence: n^m of them at the last battle
        size = "" if spec is None else f" of {spec.m} battles and {spec.n} players"
        print(f"error: out of memory in {args.command} on a contest{size}", file=sys.stderr)
        return 1
    try:
        print(format_report(report, settings.output))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: write nothing more, not even at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
