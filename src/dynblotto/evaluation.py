"""Exact payoff evaluation and deviation analysis.

Payoffs of a pure strategy profile are computed exactly by one depth-first
walk over contest states (battles played, standings, spends): each node
branches on who wins the next battle, weighted by the contest success
function, and win-probability branches end as soon as someone clinches.
Under expected value with proportional play below the root, spends do not
depend on who won, so a node's children share one next state and the walk
collapses to one node per battle.  On top of the evaluator sit the one-shot
deviation gain, the Tullock closed form for that gain, and the per-battle
marginal gain used to characterize proportional play.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    BUDGET_TOLERANCE,
    ContestSpec,
    ContractError,
    EnumerationCapError,
    History,
    InputError,
    Objective,
    _csf_distribution,
    _proportional_spend,
    _status,
    remaining_budget,
    terminal_payoff,
    terminal_status,
)
from .strategies import (
    Proportional,
    StrategyProfile,
    _below_root,
    _state_allocations,
    allocations_at,
    one_shot_deviation,
    proportional_profile,
)

# Most winner sequences a branching exact walk may enumerate.
LEAF_CAP = 10**7


def _check_cap(spec: ContestSpec, history: History, cap: int) -> None:
    depth = spec.m - len(history)
    if spec.n**depth > cap:
        raise EnumerationCapError(
            f"{spec.n}**{depth} winner sequences exceed the cap of {cap} leaves; "
            "use montecarlo.simulate for an estimate"
        )


def expected_payoffs(
    profile: StrategyProfile,
    spec: ContestSpec,
    history: Optional[History] = None,
) -> tuple:
    """Exact per-player expected payoff of the profile from the given history.

    One depth-first walk over contest states (battles played, standings,
    spends), each node branching on who wins the next battle with its
    contest success probability.  Zero-probability branches are skipped, and
    under win probability a branch ends as soon as someone clinches.

    Under expected value each battle's value is credited at the node where
    it is fought.  When every strategy below the root is `Proportional`, the
    spends never depend on who won, so all children of a node share one next
    state: the walk follows that single state, one node per battle, and the
    payoff is the root standings plus the sum over battles of v_t * p_t.

    Strategies that read more than the state (`Tabular`, or a `Deviation`
    below the root) get the History of each node; it is only built when the
    profile holds such a strategy.  LEAF_CAP caps the winner sequences of a
    branching walk, so it never refuses the one-node-per-battle walk.
    """
    root = history if history is not None else History()
    win_prob = spec.objective is Objective.WIN_PROBABILITY
    below = tuple(_below_root(s, len(root)) for s in profile.strategies)
    markov = all(type(s) is Proportional for s in below)
    if win_prob or not markov:  # only a branching walk can outgrow the cap
        _check_cap(spec, root, LEAF_CAP)
    if terminal_status(spec, root).terminal:
        return terminal_payoff(spec, root)
    n, m, csf, values = spec.n, spec.m, spec.csf, spec.values
    root_standings = root.won_values(spec)
    accumulated = [0.0] * n if win_prob else list(root_standings)

    def walk(played, standings, spent, h, q, allocations=None) -> None:
        # A stretch of single next states is a loop, not a recursion, so the
        # one-node-per-battle walk takes contests of any length.
        while True:
            if win_prob:
                status = _status(spec, played, standings)
                if status.terminal:
                    share = q / len(status.winners)
                    for i in status.winners:
                        accumulated[i] += share
                    return
            elif played == m:
                return  # every battle's value was credited where it was fought
            if allocations is None:
                allocations = _state_allocations(below, spec, played, standings, spent, h)
            probs = _csf_distribution(allocations, csf)
            spent = tuple(s + w for s, w in zip(spent, allocations))
            value = values[played]
            if not win_prob:
                for i, p in enumerate(probs):
                    accumulated[i] += q * p * value
            if win_prob or not markov:
                break
            played, allocations = played + 1, None
        for winner, p in enumerate(probs):
            if p > 0.0:
                branch = list(standings)
                branch[winner] += value
                child = None if markov else h.extend(allocations, winner)
                walk(played + 1, tuple(branch), spent, child, q * p)

    # The root goes through the public per-battle rule, which checks the
    # profile and plays any deviation at the root; the walk takes over below.
    spent = tuple(root.spent(i) for i in range(n))
    walk(len(root), root_standings, spent, root, 1.0, allocations_at(profile, spec, root))
    return tuple(accumulated)


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of one one-shot deviation from proportional play."""

    history: History
    player: int
    delta: float  # offset from the proportional spend at the upcoming battle
    gain: float  # deviator's payoff change (positive means profitable)
    closed_form: Optional[float] = None  # Tullock reference loss, when applicable


def deviation_grid(spec: ContestSpec, history: History, player: int, points: int = 21) -> tuple:
    """Evenly spaced feasible deviation offsets, endpoints included.

    Feasibility: the deviated spend must stay inside [0, remaining budget], so
    with budget a and proportional spend a/k the offsets range over
    [-a/k, a - a/k].
    """
    if terminal_status(spec, history).terminal:
        raise ContractError("deviations are undefined at terminal histories")
    budget = remaining_budget(spec, history, player)
    if budget <= 0.0:
        return (0.0,)
    spend = _proportional_spend(spec, len(history), budget)
    lo, hi = -spend, budget - spend
    if points < 2:
        return (0.0,)
    return tuple(lo + (hi - lo) * j / (points - 1) for j in range(points))


def deviation_gains(
    spec: ContestSpec,
    history: History,
    player: int,
    deltas: Sequence[float],
) -> list:
    """Deviation reports for several offsets, sharing one baseline evaluation.

    Payoffs are evaluated in the contest as known at the history: shocks
    announced for later battles are not visible when the deviation is chosen,
    so they do not enter either side of the comparison.
    """
    if terminal_status(spec, history).terminal:
        raise ContractError("deviations are undefined at terminal histories")
    known = spec.truncate_shocks(len(history) + 1)
    base = proportional_profile(known.n)
    budget = remaining_budget(known, history, player)
    played = len(history)
    x_next = known.values[played]
    k = known.suffix_value(played) / x_next
    spend = _proportional_spend(known, played, budget)
    baseline = expected_payoffs(base, known, history)[player]

    tullock = known.csf.alpha == 1.0
    expected_value = known.objective is Objective.EXPECTED_VALUE
    opponents = sum(remaining_budget(known, history, j) for j in range(known.n) if j != player)

    reports = []
    for delta in deltas:
        delta = float(delta)
        deviated_spend = spend + delta
        if not -BUDGET_TOLERANCE <= deviated_spend <= budget + BUDGET_TOLERANCE:
            raise InputError(
                f"deviation {delta} puts the spend {deviated_spend} outside [0, {budget}]"
            )
        profile = one_shot_deviation(base, player, history, deviated_spend)
        value = expected_payoffs(profile, known, history)[player]
        closed = None
        if tullock and expected_value:
            closed = closed_form_gain(budget, opponents, k, delta, x_next)
        reports.append(DeviationReport(history, player, delta, value - baseline, closed))
    return reports


def deviation_gain(spec: ContestSpec, history: History, player: int, delta: float) -> DeviationReport:
    """Payoff change from a single one-shot deviation off proportional play."""
    return deviation_gains(spec, history, player, (delta,))[0]


def closed_form_gain(a: float, b: float, k: float, delta: float, x_next: float) -> float:
    """Exact payoff loss from a one-shot deviation under the Tullock function.

    For a deviator with budget a facing opponents with total budget b, when
    the upcoming battle is worth 1/k of all remaining value, deviating by
    `delta` from the proportional spend a/k costs

        x_next * b * delta**2 * k**3
        / ((a+b) * (a*(k-1) + b*(k-1) - delta*k) * (a+b+delta*k))

    which is nonnegative on the whole feasible range.
    """
    if a < 0 or b < 0:
        raise InputError("budgets must be nonnegative")
    if k < 1.0 - 1e-12:
        raise InputError(f"value ratio k must be at least 1, got {k}")
    spend = (a / k if a else 0.0) + delta
    if not -BUDGET_TOLERANCE <= spend <= a + BUDGET_TOLERANCE:
        raise InputError(f"deviated spend {spend} outside [0, {a}]")
    if delta == 0.0 or b == 0.0:
        return 0.0
    numerator = x_next * b * delta**2 * k**3
    denominator = (a + b) * (a * (k - 1) + b * (k - 1) - delta * k) * (a + b + delta * k)
    return numerator / denominator


def marginal_gain(spec: ContestSpec, allocations: Sequence[float], player: int, k: float) -> float:
    """Derivative of the player's expected stage value in their own spend.

    The battle is worth k value units; `allocations` are the spends actually
    fielded at it.  With S the opponents' combined CSF score the derivative is

        alpha * k * w**(alpha-1) * S / (w**alpha + S)**2

    and the scale parameter beta cancels.
    """
    allocations = tuple(float(w) for w in allocations)
    if not 0 <= player < len(allocations):
        raise InputError(f"player index {player} out of range")
    if sum(allocations) <= 0.0:
        raise InputError("marginal gain is singular when nobody spends")
    alpha = spec.csf.alpha
    w = allocations[player]
    if w == 0.0 and alpha < 1.0:
        raise InputError("marginal gain is singular at a zero spend when alpha < 1")
    score_others = sum(v**alpha for j, v in enumerate(allocations) if j != player)
    return alpha * k * w ** (alpha - 1.0) * score_others / (w**alpha + score_others) ** 2
