"""Output checks for benchmark ops, run outside the timed region.

Every captured report is checked against a reference the benchmark builds
itself from dynblotto's public per-battle operations (`terminal_status`,
`terminal_payoff`, `allocations_at`, `csf_probability`, `History.extend`),
never from the evaluator, simulator or solver whose output is checked.
A failed check makes the op count as failed; nothing is filtered out.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from dynblotto import (
    ContestSpec,
    CsfParams,
    History,
    Objective,
    allocations_at,
    csf_probability,
    one_shot_deviation,
    proportional_profile,
    remaining_budget,
    terminal_payoff,
    terminal_status,
)


# Payoff agreement with a reference, relative to the payoff scale (1 for
# win probability, the larger of 1 and the payoff for expected value).
AGREEMENT = 1e-12
# `check` refutes proportional play on gains above the CLI's default tolerance.
CHECK_TOLERANCE = 1e-6
# Proportional play is deviation-proof for alpha <= 1 under expected value.
CONCAVE_MAX_GAIN = 1e-9
# Monte Carlo means must lie within this many standard errors of the exact payoff.
STANDARD_ERRORS = 4.0
# The CLI's default solver tolerance; solve root residuals must not exceed it.
SOLVER_TOLERANCE = 1e-6
# Mirrored solve specs must swap their root spends to within this share of
# the contest's total budget.  Budgets are in arbitrary units (the success
# function is homogeneous), so the tolerance scales with them.
MIRROR_TOLERANCE = 1e-6
BUDGET_SLACK = 1e-9


def spec_from_config(config: dict) -> ContestSpec:
    csf = config.get("csf", {})
    shocks = {
        (entry["player"], entry["battle"]): entry["amount"] for entry in config.get("shocks", ())
    }
    return ContestSpec(
        [b["value"] for b in config["battles"]],
        [p["budget"] for p in config["players"]],
        CsfParams(csf.get("alpha", 1.0), csf.get("beta", 1.0)),
        Objective(config.get("objective", "expected_value")),
        shocks,
    )


def brute_force_payoffs(profile, spec: ContestSpec, history: Optional[History] = None) -> list:
    """Recursive enumeration over battle winners from the public per-battle operations."""
    history = history if history is not None else History()
    if terminal_status(spec, history).terminal:
        return list(terminal_payoff(spec, history))
    allocations = allocations_at(profile, spec, history)
    out = [0.0] * spec.n
    for winner in range(spec.n):
        p = csf_probability(allocations, spec.csf, winner)
        if p == 0.0:
            continue
        sub = brute_force_payoffs(profile, spec, history.extend(allocations, winner))
        for i in range(spec.n):
            out[i] += p * sub[i]
    return out


def merged_state_payoffs(spec: ContestSpec) -> list:
    """Exact payoffs of proportional play, enumerating contest states, not paths.

    Proportional spends depend on a history only through the battles played,
    the standings and what each player has spent, so histories that agree on
    those share one subtree.  With integer battle values that merges the
    3**12 paths of a twelve-battle, three-player contest into a few thousand
    states.
    """
    profile = proportional_profile(spec.n)
    memo = {}

    def value(history: History) -> list:
        key = (
            len(history),
            history.won_values(spec),
            tuple(history.spent(i) for i in range(spec.n)),
        )
        cached = memo.get(key)
        if cached is not None:
            return cached
        if terminal_status(spec, history).terminal:
            out = list(terminal_payoff(spec, history))
        else:
            allocations = allocations_at(profile, spec, history)
            out = [0.0] * spec.n
            for winner in range(spec.n):
                p = csf_probability(allocations, spec.csf, winner)
                if p == 0.0:
                    continue
                sub = value(history.extend(allocations, winner))
                for i in range(spec.n):
                    out[i] += p * sub[i]
        memo[key] = out
        return out

    return value(History())


def closed_form_payoffs(spec: ContestSpec) -> Optional[list]:
    """Proportional-play payoffs of a shock-free expected-value contest.

    Every battle is fought with spends proportional to the starting budgets,
    so player i wins each with probability W_i**alpha / sum_j W_j**alpha.
    Returns None where that does not apply.
    """
    if spec.objective is not Objective.EXPECTED_VALUE or spec.shocks:
        return None
    if any(w <= 0.0 for w in spec.budgets):
        return None
    scores = [w**spec.csf.alpha for w in spec.budgets]
    total = sum(spec.values)
    return [total * s / sum(scores) for s in scores]


def _agree(got: float, want: float, tolerance: float = AGREEMENT) -> bool:
    return math.isfinite(got) and abs(got - want) <= tolerance * max(1.0, abs(want))


def _history_from_payload(payload: dict) -> History:
    history = History()
    for allocations, winner in zip(payload["allocations"], payload["winners"]):
        history = history.extend(allocations, winner)
    return history


def oracle_gain(spec: ContestSpec, history: History, player: int, delta: float) -> float:
    """Deviator's payoff change from spending `delta` more than proportional at `history`.

    Evaluated, like the library's definition, in the contest as known at the
    history: shocks announced for later battles are not visible yet.
    """
    known = spec.truncate_shocks(len(history) + 1)
    played = len(history)
    budget = remaining_budget(known, history, player)
    spend = budget * known.values[played] / known.suffix_value(played)
    base = proportional_profile(known.n)
    deviated = one_shot_deviation(base, player, history, spend + delta)
    return (brute_force_payoffs(deviated, known, history)[player]
            - brute_force_payoffs(base, known, history)[player])


class Checker:
    """Checks op outcomes; keeps references and earlier reports between calls.

    References are cached per op name, since workloads that cycle run the
    same op several times.  A simulate op seen before must reproduce its
    earlier report bit for bit; the second side of a mirrored solve pair is
    checked against the first.
    """

    def __init__(self):
        self._references = {}
        self._first_reports = {}
        self._mirror_roots = {}
        self.counts = {"reference_checks": 0, "repeat_checks": 0, "mirror_checks": 0}

    def check(self, op, status: Optional[int], stdout: str, stderr: str,
              error: Optional[str]) -> Optional[str]:
        """Reason the op failed, or None if its output is correct."""
        if error is not None:
            return f"raised {error}"
        allowed = (0, 2) if op.command == "check" else (0,)
        if status not in allowed:
            lines = stderr.strip().splitlines()
            return f"exit status {status}: {lines[-1] if lines else 'no message'}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as err:
            return f"report is not JSON: {err}"
        try:
            return getattr(self, f"_check_{op.command}")(op, status, report)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            return f"malformed report: {type(err).__name__}: {err}"

    def _reference(self, op, build):
        if op.name not in self._references:
            self._references[op.name] = build()
        return self._references[op.name]

    def _check_evaluate(self, op, status, report):
        spec = spec_from_config(op.config)

        def build():
            closed = closed_form_payoffs(spec)
            if closed is not None:
                return closed
            return brute_force_payoffs(proportional_profile(spec.n), spec)

        want = self._reference(op, build)
        got = report["payoffs"]
        self.counts["reference_checks"] += 1
        if len(got) != spec.n:
            return f"{len(got)} payoffs for {spec.n} players"
        for i, (g, w) in enumerate(zip(got, want)):
            if not _agree(g, w):
                return f"payoff of player {i} is {g!r}, reference {w!r}"
        return None

    def _check_check(self, op, status, report):
        spec = spec_from_config(op.config)
        holds = report["holds"]
        if status != (0 if holds else 2):
            return f"exit status {status} with holds={holds}"
        if report["histories_checked"] < 1:
            return "no history checked"
        concave_ev = spec.objective is Objective.EXPECTED_VALUE and spec.csf.alpha <= 1.0
        if holds:
            if "counterexample" in report:
                return "holds but reports a counterexample"
            if report["max_gain"] > CHECK_TOLERANCE:
                return f"holds with max_gain {report['max_gain']!r}"
            if concave_ev and report["max_gain"] > CONCAVE_MAX_GAIN:
                return f"alpha <= 1 max_gain {report['max_gain']!r} above {CONCAVE_MAX_GAIN}"
            return None
        if concave_ev:
            return "refuted proportional play under expected value with alpha <= 1"
        ce = report["counterexample"]
        history = _history_from_payload(ce["history"])
        want = oracle_gain(spec, history, ce["player"], ce["delta"])
        self.counts["reference_checks"] += 1
        scale = 1.0 if spec.objective is Objective.WIN_PROBABILITY else sum(spec.values)
        if abs(ce["gain"] - want) > AGREEMENT * max(1.0, scale):
            return f"counterexample gain {ce['gain']!r}, reference {want!r}"
        if want <= CHECK_TOLERANCE:
            return f"counterexample gain {want!r} is not above the tolerance"
        if report["max_gain"] != ce["gain"]:
            return "max_gain differs from the counterexample's gain"
        return None

    def _check_simulate(self, op, status, report):
        earlier = self._first_reports.setdefault(op.name, report)
        if earlier is not report:
            self.counts["repeat_checks"] += 1
            if earlier != report:
                return "rerun with the same seed gave a different report"
            return None
        spec = spec_from_config(op.config)
        if report["trials"] != op.record["trials"] or report["seed"] != op.record["sim_seed"]:
            return "report trials or seed differ from the request"

        def build():
            closed = closed_form_payoffs(spec)
            return closed if closed is not None else merged_state_payoffs(spec)

        exact = self._reference(op, build)
        self.counts["reference_checks"] += 1
        means, errors = report["means"], report["std_errors"]
        if len(means) != spec.n or len(errors) != spec.n:
            return "wrong number of means or standard errors"
        for i, (mean, se, want) in enumerate(zip(means, errors, exact)):
            if not (math.isfinite(mean) and se >= 0.0):
                return f"player {i}: mean {mean!r}, standard error {se!r}"
            if abs(mean - want) > STANDARD_ERRORS * se + AGREEMENT * max(1.0, abs(want)):
                return (f"player {i}: mean {mean!r} is more than {STANDARD_ERRORS:g} "
                        f"standard errors ({se!r}) from the exact {want!r}")
        return None

    def _check_solve(self, op, status, report):
        spec = spec_from_config(op.config)
        residual = report["root_residual"]
        if not residual <= SOLVER_TOLERANCE:
            return f"root residual {residual!r} above the tolerance {SOLVER_TOLERANCE}"
        trace = report["trace"]
        if not 1 <= len(trace) <= spec.m:
            return f"trace of {len(trace)} battles for a {spec.m}-battle contest"
        spent = [0.0, 0.0]
        for spends in trace:
            for i, w in enumerate(spends):
                spent[i] += w
                if w < 0.0 or spent[i] > spec.budgets[i] + BUDGET_SLACK:
                    return f"player {i} spends {w!r}, over budget or negative"
        side = op.record.get("mirror_side")
        if side is None:
            return None
        vector = op.record["vector"]
        root = report["root_allocations"]
        other = self._mirror_roots.setdefault(vector, {}).get(1 - side)
        self._mirror_roots[vector][side] = root
        if other is None:
            return None
        self.counts["mirror_checks"] += 1
        tolerance = MIRROR_TOLERANCE * sum(spec.budgets)
        if abs(root[0] - other[1]) > tolerance or abs(root[1] - other[0]) > tolerance:
            return f"mirrored budgets give root spends {root!r} and {other!r}"
        return None

    def _check_demo(self, op, status, report):
        flag = "fails_as_expected" if op.record["demo"] == "prop1" else "matches_reference"
        if report[flag] is not True:
            return f"demo {op.record['demo']}: {flag} is {report[flag]!r}"
        return None
