"""Exact payoff evaluation and deviation analysis.

Payoffs are computed exactly, one row per way to play the root battle.
Under expected value with proportional play below the root, spends never
depend on who won, so a row follows one budget path and each battle adds
its value times its success probabilities.  Every other walk plays the
contest through the per-battle loop of `strategies` (`_levels`) over
contest states (row, standings, spent, mass): each battle branches on
every winner, weighted by the contest success function, in one set of
array operations over the live states of every row; ended children bank
their payoffs as they are born, and live children with equal (row,
standings, spent) merge.  A one-shot deviation sweep is rows
too, the proportional baseline and one per offset, and many sweeps
share one walk: at states of one depth, or under expected value at
states of any depths, each row from its own battle.  On top sit the
Tullock closed form for the deviation gain and the per-battle marginal
gain used to characterize proportional play.

For arbitrary contests, `check_proportionality` sweeps one-shot deviations
from proportional play over sampled histories and reports the first
profitable one, with one verdict loop over groups of states for both
objectives.  It relies only on this exact evaluator, never on the backward
solver of `equilibrium`, so the two engines stay independent checks of
each other.
"""

from __future__ import annotations

import logging
import math
import numbers
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .core import (
    BUDGET_TOLERANCE,
    ContestSpec,
    ContractError,
    EnumerationCapError,
    History,
    InputError,
    Objective,
    _battle_spends,
    _count,
    _csf_distributions,
    _finite,
    _formal_budgets,
    _hashed_rows,
    _proportional_spend,
    _proportional_spends,
    _remaining_budgets,
    _state,
    _winner_counts,
    check_history,
    remaining_budget,
    terminal_payoff,
    terminal_status,
)
from .strategies import (
    PROPORTIONAL,
    Proportional,
    StrategyProfile,
    _below_root,
    _every_winner,
    _hash_merge,
    _levels,
    allocations_at,
    history_from_winners,
)

# Most winner sequences an exact evaluation may enumerate.
LEAF_CAP = 10**7

# Most states of one battle played at once.  A larger level is finished in
# parts of this size, one after another, so memory stays bounded.
PART = 2**16

_log = logging.getLogger("dynblotto")


def _check_cap(spec: ContestSpec, played: int, cap: int) -> None:
    depth = spec.m - played
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

    The root goes through `allocations_at`, which checks the profile and
    plays any deviation at the root; `_level_walk` plays the battles below
    over contest states.  A deviation deeper than the root raises
    InputError: evaluate from its history instead.  Under expected value
    with proportional play below the root, spends never depend on who won,
    so the payoff is the root standings plus the sum over battles of v_t *
    p_t along one budget path.  Every other walk branches on who wins each
    battle with its contest success probability, skips zero-probability
    branches, ends a win-probability state as soon as someone clinches,
    and is capped at LEAF_CAP winner sequences.
    """
    root = history if history is not None else History()
    terminal = terminal_status(spec, root).terminal
    below = tuple(_below_root(s, len(root)) for s in profile.strategies)
    if terminal:
        return terminal_payoff(spec, root)
    spends = np.array([allocations_at(profile, spec, root)])
    walk = _level_walk(spec, len(root), *_state(spec, root)[:2], spends, below)
    return tuple(walk[0].tolist())


def _level_walk(spec: ContestSpec, played, standings, spent, root_spends, below) -> np.ndarray:
    """Exact payoffs of R ways to play a battle: an R x n array.

    Row r starts at the nonterminal state after `played` battles with
    standings `standings[r]` and spends `spent[r]`, spends `root_spends[r]`
    at the next battle and plays the strategies `below` after it.  Under
    expected value with proportional play below, spends never depend on who
    won, so a row follows one budget path: each battle adds v_t times its
    success probabilities to the root standings.  There `played` may also
    be one start per row, each row reading the contest as known at its
    start, as `deviation_gains` does: its budget ceilings stay `spec`'s
    after `played[r]` battles, which are those of
    `spec.truncate_shocks(played[r] + 1)` at every battle left.  A row that
    starts later than another is walked alongside from the first start and
    set to its own state at its own start.  Every other walk, capped
    at LEAF_CAP winner sequences, goes through `strategies._levels` with
    the row as key, probability mass as weight and `_hash_merge`, and
    ended states bank their payoffs unmerged: `np.add.at` adds up repeats.
    Levels of more than PART states are finished in parts
    that end where a row's states end, so every row pays bit for bit what
    it pays alone.
    """
    win_prob = spec.objective is Objective.WIN_PROBABILITY
    count, tally = len(root_spends), {"merged": 0, "parts": 0}
    if not win_prob and all(type(s) is Proportional for s in below):
        if np.ndim(played):  # rows begun by each battle; a later one joins at its own start
            depth, ceilings = int(played.min()), spec._ceilings[played]
            joins = {t: np.flatnonzero(played == t) for t in set(played.tolist()) - {depth}}
            states = np.searchsorted(np.sort(played), np.arange(depth, spec.m), "right").tolist()
            states.append(count)
        else:
            depth, joins, states, ceilings = played, {}, [count] * (spec.m - played + 1), None
        out, spends, given = standings.copy(), root_spends, spent
        for played in range(depth, spec.m):
            if played > depth:  # formal budgets, which are the remaining ones under expected value
                ceiling = spec._ceilings[played] if ceilings is None else ceilings
                spends = _proportional_spend(spec, played, np.maximum(ceiling - spent, 0.0))
            rows = joins.get(played)
            if rows is not None:
                out[rows], spent[rows], spends[rows] = standings[rows], given[rows], root_spends[rows]
            out += _csf_distributions(spends, spec.csf) * spec.values[played]
            spent = spent + spends
    else:
        depth = played
        _check_cap(spec, depth, LEAF_CAP)
        out, states = np.zeros((count, spec.n)), [0] * (spec.m - depth + 1)
        root = (standings, spent, np.ones(count), np.arange(count))
        for played, live, ended in _levels(spec, below, depth, root, _every_winner, root_spends,
                                           merge=_hash_merge, part=PART, tally=tally):
            states[played - depth] += len(live[0]) + (0 if ended is None else len(ended[0]))
            if ended is not None:
                totals, _, mass, rows, won = ended
                if win_prob:  # the leaders split the prize
                    np.add.at(out, rows, won * (mass / _winner_counts(won))[:, None])
                else:
                    np.add.at(out, rows, totals * mass[:, None])
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "exact walk: %d rows, states per battle %s, %d states merged, "
            "%d parts of split battles",
            count, states, tally["merged"], tally["parts"],
        )
    return out


def _path_depths(spec: ContestSpec, cap: Optional[int], seed: int):
    """The depths an expected-value check sweeps, from one walk of the proportional path.

    Under expected value proportional spends never read who won, so every
    state of a depth reached under proportional play has spent alike, and
    the path is walked as one row with `strategies._levels`' arithmetic.
    Returns the spends before each depth (a D x n array), each depth's
    count of winner sequences of positive probability, cut to `cap` by a
    sorted sample of one `random.Random(seed)` draw per depth as `_swept_states`
    cuts them, and a function that gives the winner schedule of a depth's
    first state.
    """
    rng = random.Random(seed)
    spent, counts, winners, picks = [np.zeros((1, spec.n))], [1], [], []
    for played in range(spec.m - 1):  # the formal budgets are the remaining ones
        spends = _proportional_spend(spec, played, _formal_budgets(spec, played, spent[-1]))
        winners.append(np.flatnonzero(_csf_distributions(spends, spec.csf)[0] > 0.0).tolist())
        count = counts[-1] * len(winners[-1])  # children: parent-major, winners ascending
        pick = sorted(rng.sample(range(count), cap)) if cap is not None and count > cap else None
        if pick == []:  # a cap of 0: the root alone
            break
        picks.append(pick)
        counts.append(count if pick is None else cap)
        spent.append(spent[-1] + spends)

    def first(depth: int) -> list:
        schedule, index = [], 0
        for played in reversed(range(depth)):
            index = index if picks[played] is None else picks[played][index]
            index, j = divmod(index, len(winners[played]))
            schedule.append(winners[played][j])
        return schedule[::-1]

    return np.concatenate(spent), counts, first


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
    [-a/k, a - a/k].  `points`, a nonnegative integer, below 2 gives (0.0,).
    """
    if not _count(points):
        raise InputError(f"points must be a nonnegative integer, got {points!r}")
    if terminal_status(spec, history).terminal:
        raise ContractError("deviations are undefined at terminal histories")
    budget = remaining_budget(spec, history, player)
    budgets = np.array([budget])
    grid = _offset_grids(budgets, _proportional_spend(spec, len(history), budgets), points)[0]
    return tuple(grid.tolist()) if budget > 0.0 else (0.0,)


def _spend_slack(budget):
    """How far outside [0, budget] a deviated spend may lie and still be
    feasible: BUDGET_TOLERANCE plus 8 ulps of the budget.  A grid's top
    point and the spend it gives round by up to about 3 ulps, more than
    BUDGET_TOLERANCE once budgets run into the millions."""
    return BUDGET_TOLERANCE + 8 * np.spacing(budget)


def _offset_grids(budgets, spends, points: int) -> np.ndarray:
    """`deviation_grid` at many budgets, given the proportional spends there,
    one row each; zeros where it is (0.0,)."""
    if points < 2:
        return np.zeros((budgets.size, 1))
    lo, hi = -spends, budgets - spends
    grids = lo[:, None] + (hi - lo)[:, None] * np.arange(points) / (points - 1)
    grids[budgets <= 0.0] = 0.0
    return grids


def deviation_gains(
    spec: ContestSpec,
    history: History,
    player: int,
    deltas: Sequence[float],
) -> list:
    """Deviation reports for several offsets, from one walk.

    The walk has a row that plays proportionally at the history and a row
    per offset, in which the player's spend there is the proportional one
    plus the offset, clamped into [0, budget].  Every row plays
    proportionally below the history, so each gain is its row's payoff
    minus the proportional row's.

    Payoffs are evaluated in the contest as known at the history: shocks
    announced for later battles are not visible when the deviation is chosen,
    so they do not enter either side of the comparison.  Each offset must be
    a finite real number.
    """
    if terminal_status(spec, history).terminal:
        raise ContractError("deviations are undefined at terminal histories")
    if not 0 <= player < spec.n:
        raise InputError(f"player index {player} out of range")
    known = spec.truncate_shocks(len(history) + 1)
    deltas = [_finite(d, f"delta {j} must be a finite real number") for j, d in enumerate(deltas)]
    gains = _sweeps(known, len(history), *_state(known, history)[:2], np.array([player]),
                    np.array([deltas]))[0]
    closed = _closed_forms(known, history, player, deltas)
    return [DeviationReport(history, player, *r) for r in zip(deltas, gains.tolist(), closed)]


def _baselines(spec: ContestSpec, played, standings, spent) -> tuple:
    """(budgets, proportional spends) at states after `played` battles, one
    row each: the remaining budgets, or with one start per state the formal
    ones, which are the remaining ones under expected value."""
    if np.ndim(played):
        budgets = _formal_budgets(spec, played, spent)
        return budgets, _proportional_spends(spec, played, budgets)
    budgets = _remaining_budgets(spec, played, standings, spent)
    return budgets, _proportional_spend(spec, played, budgets)


def _sweeps(spec: ContestSpec, played, standings, spent, players, deltas) -> np.ndarray:
    """The K x P gains of K sweeps of P offsets after `played` battles, from one walk.

    Sweep k has the rows of `deviation_gains` for player `players[k]` at the
    state (`standings[k]`, `spent[k]`) and the offsets `deltas[k]`.  Rows do
    not touch each other in the walk, so a sweep gains bit for bit what it
    gains alone.  Under expected value the walk starts from zero standings,
    which nothing in it reads, so sweeps with equal spends gain alike.
    There `played` may also be one battle count per sweep, and sweep k then
    reads the contest as known at its state, as `deviation_gains` does
    (see `_level_walk`).
    """
    if spec.objective is Objective.EXPECTED_VALUE:
        standings = np.zeros_like(standings)
    (count, width), n = deltas.shape, spec.n
    budgets, baseline = _baselines(spec, played, standings, spent)
    if np.ndim(played):
        played = np.repeat(played, width + 1)
    sweep = np.arange(count)
    budget = budgets[sweep, players][:, None]
    deviated = baseline[sweep, players][:, None] + deltas
    slack = _spend_slack(budget)
    outside = ~((deviated >= -slack) & (deviated <= budget + slack))
    if outside.any():
        k, j = divmod(int(np.argmax(outside)), width)
        raise InputError(f"deviation {deltas[k, j]} puts the spend {deviated[k, j]} "
                         f"outside [0, {budget[k, 0]}]")
    rows = np.repeat(baseline[:, None], width + 1, axis=1)  # the proportional row, then P more
    rows[sweep, 1:, players] = np.minimum(np.maximum(deviated, 0.0), budget)
    standings, spent = (np.repeat(a, width + 1, axis=0) for a in (standings, spent))
    walk = _level_walk(spec, played, standings, spent, rows.reshape(-1, n), (PROPORTIONAL,) * n)
    payoffs = walk.reshape(count, width + 1, n)[sweep, :, players]
    return payoffs[:, 1:] - payoffs[:, :1]


def _closed_forms(known: ContestSpec, history: History, player: int, deltas) -> list:
    """`closed_form_gain` of each offset under Tullock expected value, else Nones."""
    if known.csf.alpha != 1.0 or known.objective is not Objective.EXPECTED_VALUE:
        return [None] * len(deltas)
    played = len(history)
    budgets = _state(known, history)[3][0].tolist()
    opponents = sum(b for j, b in enumerate(budgets) if j != player)
    x_next = known.values[played]
    k = known.suffix_value(played) / x_next
    return [closed_form_gain(budgets[player], opponents, k, delta, x_next) for delta in deltas]


# ---------------------------------------------------------------------------
# proportionality checking (any player count, any objective)


@dataclass(frozen=True)
class SamplingPlan:
    """Which histories and deviations check_proportionality sweeps.

    User-supplied histories are checked first (so a known counterexample is
    the one reported), then all winner sequences reachable under proportional
    play, breadth-first through battle m - 1, subsampled per depth when a
    level exceeds max_per_depth.  A field of the wrong type or range raises
    InputError naming it.
    """

    max_per_depth: Optional[int] = None
    histories: tuple = ()
    delta_points: int = 21
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        def refuse(name, what):
            raise InputError(f"sampling plan {name} must be {what}, got {getattr(self, name)!r}")

        if self.max_per_depth is not None and not _count(self.max_per_depth):
            refuse("max_per_depth", "None or a nonnegative integer")
        if not _count(self.delta_points):
            refuse("delta_points", "a nonnegative integer")
        if not (isinstance(self.tolerance, numbers.Real) and self.tolerance >= 0):  # not nan
            refuse("tolerance", "a nonnegative number")
        if not (isinstance(self.histories, Sequence)
                and all(isinstance(h, History) for h in self.histories)):
            refuse("histories", "a sequence of History objects")
        if not isinstance(self.seed, numbers.Integral):
            refuse("seed", "an integer")


@dataclass(frozen=True)
class ProportionalityVerdict:
    holds: bool
    histories_checked: int
    max_gain: float
    counterexample: Optional[DeviationReport] = None


def _swept_states(spec: ContestSpec, plan: SamplingPlan):
    """Yields (battles played, standings, spent, sources) of the states to sweep.

    One state per row; a source is the state's History or winner schedule.
    The plan's histories come one by one, then the states reachable under
    proportional play, a depth at a time from `strategies._levels` with
    equal ones kept apart, each depth cut to `plan.max_per_depth` by a
    sorted sample of one seeded draw.  A contest of more than LEAF_CAP
    winner sequences raises EnumerationCapError before that walk, as the
    root's sweep would.
    """
    for history in plan.histories:
        yield len(history), *_state(spec, history)[:2], (history,)
    _check_cap(spec, 0, LEAF_CAP)
    rng, cap = random.Random(plan.seed), plan.max_per_depth

    def sample(played, count):
        if played and cap is not None and count > cap:
            return sorted(rng.sample(range(count), cap))
        return slice(None)

    def branch(played, probs, weight, winners):
        parent, winner, weight, winners = _every_winner(played, probs, weight, winners)
        return parent, winner, weight, np.column_stack((winners, winner))

    root = (np.zeros((1, spec.n)), np.zeros((1, spec.n)), np.ones(1), np.zeros((1, 0), int))
    for played, (standings, spent, _, winners), _ in _levels(
        spec, (PROPORTIONAL,) * spec.n, 0, root, branch, select=sample
    ):
        if not len(winners):
            return
        yield played, standings, spent, winners
        if played == spec.m - 1:
            return


def _checked_groups(spec: ContestSpec, plan: SamplingPlan):
    """Yields the groups of states `check_proportionality` sweeps, in order.

    A group is (the spec as known there, battles played, standings, spent,
    first, tallies, history), one row per distinct state: `first[k]` is the
    number of the group's winner sequences before state k's first,
    `history(k)` builds state k's History, and a tally is (depth, states,
    distinct states) of the check's DEBUG record.  Under expected value one
    group holds every state, the plan's histories that have not ended and
    then the depths of `_path_depths`: battles played are one start per
    state, read in `spec` itself, whose formal budgets are the ones as
    known there, and each state has its tally, (start, winner sequences it
    stands for, 1).  Under win probability a group is a plan history or a
    depth of `_swept_states`, its distinct (standings, spent) in order of
    first occurrence, with one tally for the whole depth.
    """
    if spec.objective is Objective.EXPECTED_VALUE:
        histories = [h for h in plan.histories if len(h) < spec.m]  # the rest have ended
        path, counts, schedule = _path_depths(spec, plan.max_per_depth, plan.seed)
        starts = np.array([len(h) for h in histories] + list(range(len(counts))))
        spent = np.concatenate([_state(spec, h)[1] for h in histories] + [path])
        counts = [1] * len(histories) + counts

        def history(k):
            if k < len(histories):
                return histories[k]
            return history_from_winners(spec, schedule(k - len(histories)))

        first = [0, *accumulate(counts[:-1])]
        tallies = [(start, count, 1) for start, count in zip(starts.tolist(), counts)]
        yield spec, starts, np.zeros_like(spent), spent, first, tallies, history
        return
    for played, standings, spent, sources in _swept_states(spec, plan):
        if isinstance(sources[0], History) and terminal_status(spec, sources[0]).terminal:
            continue
        first = _hashed_rows(standings, spent)[0]  # in order of first occurrence

        def history(k, sources=sources, first=first):
            source = sources[first[k]]
            return source if isinstance(source, History) else history_from_winners(
                spec, source.tolist())

        yield (spec.truncate_shocks(played + 1), played, standings[first], spent[first], first,
               [(played, len(sources), first.size)], history)


def check_proportionality(
    spec: ContestSpec, plan: SamplingPlan = SamplingPlan()
) -> ProportionalityVerdict:
    """Is the proportional profile robust to one-shot deviations?

    Sweeps the feasible deviation grid for every player at every sampled
    history, history after history and player after player; returns Fails
    on the first gain above tolerance, otherwise Holds with the largest gain
    observed.  The plan's own histories are checked before any sweep.
    States of one depth that a sweep reads alike gain alike, so only the
    first of them is swept and its gains stand for all.  Under expected
    value a sweep reads spent alone, which the states of a depth share, so
    one walk of the proportional path gives every depth, and the sweeps of
    every state, each row from its own state's battle, go into walks of
    PART rows.  Under win probability a sweep reads (standings, spent), and
    the sweeps of a depth's distinct states go into walks of at most PART
    rows: its first sweep alone, so a refutation there costs one sweep,
    then 2, 4, 8, ... sweeps, doubling on from depth to depth.  Each group
    of `_checked_groups` is swept by the one loop below, in batches of
    `_sweeps`.
    """
    for history in plan.histories:
        check_history(spec, history)
    ev = spec.objective is Objective.EXPECTED_VALUE
    n, checked, max_gain, verdict, size = spec.n, 0, -math.inf, None, 2
    states, distinct, sweeps, walks, rows = [0] * spec.m, [0] * spec.m, 0, 0, 0
    for known, played, standings, spent, first, tallies, history_of in _checked_groups(spec, plan):
        budgets, baseline = _baselines(known, played, standings, spent)
        grids = _offset_grids(budgets.ravel(), baseline.ravel(), plan.delta_points)
        fit, start = max(1, PART // (grids.shape[1] + 1)), 0  # sweeps in a walk of PART rows
        while start < len(grids) and verdict is None:
            # expected value fills walks; win probability sweeps a depth's first state alone
            stop = min(start + (fit if ev else min(size if start else 1, fit)), len(grids))
            sweep = np.arange(start, stop)
            state = sweep // n
            gains = _sweeps(known, played[state] if ev else played, standings[state],
                            spent[state], sweep % n, grids[start:stop])
            sweeps, walks, rows = sweeps + sweep.size, walks + 1, rows + gains.size + sweep.size
            over = np.flatnonzero(gains > plan.tolerance)
            if over.size:
                k, j = divmod(int(over[0]), gains.shape[1])
                state, player = divmod(start + k, n)
                history = history_of(state)
                delta, gain = float(grids[start + k, j]), float(gains[k, j])
                closed = _closed_forms(spec.truncate_shocks(len(history) + 1), history, player,
                                       [delta])[0]
                report = DeviationReport(history, player, delta, gain, closed)
                verdict = ProportionalityVerdict(False, checked + int(first[state]) + 1, gain,
                                                 report)
            elif gains.max() > max_gain:
                max_gain = float(gains.max())
            size, start = 2 * size if start else size, stop
        # the tallies of the states walked: a win-probability depth has one, for all its states
        for depth, count, kinds in tallies[:-(-stop // n)]:
            states[depth] += count
            distinct[depth] += kinds
        if verdict is not None:
            break
        checked += sum(count for _, count, _ in tallies)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("proportionality check: states per depth %s, distinct per depth %s, "
                   "%d sweeps, %d walks, %d rows, refuted at depth %s", states, distinct,
                   sweeps, walks, rows,
                   None if verdict is None else len(verdict.counterexample.history))
    if verdict is None:
        verdict = ProportionalityVerdict(True, checked, 0.0 if max_gain == -math.inf else max_gain)
    return verdict


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
    spend, slack = (a / k if a else 0.0) + delta, float(_spend_slack(a))
    if not -slack <= spend <= a + slack:
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
    allocations = _battle_spends(allocations, player)
    if sum(allocations) <= 0.0:
        raise InputError("marginal gain is singular when nobody spends")
    alpha = spec.csf.alpha
    w = allocations[player]
    if w == 0.0 and alpha < 1.0:
        raise InputError("marginal gain is singular at a zero spend when alpha < 1")
    score_others = sum(v**alpha for j, v in enumerate(allocations) if j != player)
    return alpha * k * w ** (alpha - 1.0) * score_others / (w**alpha + score_others) ** 2
