"""Seeded Monte Carlo simulation of contests under a strategy profile.

Used to cross-validate the exact evaluator and to estimate payoffs when
enumeration would be too large.  Reproducibility contract: all randomness
comes from one PCG64 generator seeded with the caller's seed.  Trial t
consumes row t of the (trials x battles) uniforms that one
`rng.random((trials, battles))` call would draw, one uniform per battle in
order, and the battle winner is the inverse-CDF draw over the contest
success function in fixed player order.  The rows are drawn a block of
trials at a time, in trial order; they are the same rows.  Because each
trial owns its row, trials are independent of execution order.

Each block is played battle by battle over contest states (standings,
spends).  Every battle keeps the states that trials reached, and each state
and winner is played once per simulation, through the per-battle step of
`strategies` that the exact evaluator plays too; trials whose states become
equal share one state from then on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    ContestSpec,
    History,
    InputError,
    Objective,
    _csf_distributions,
    _statuses,
)
from .strategies import (
    Proportional,
    StrategyProfile,
    _below_root,
    _children,
    _level_spends,
    allocations_at,
)


# Trials per block: a block plays all its battles before the next one starts.
BLOCK = 2**14
# Where a (state, winner) code leads before any trial has reached it.
NEW = np.iinfo(np.intp).min


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    means: tuple  # per-player mean terminal payoff
    std_errors: tuple  # per-player standard error of the mean
    seed: int


def simulate(
    profile: StrategyProfile, spec: ContestSpec, seed: int, trials: int
) -> SimulationResult:
    """Play the contest `trials` times and return sample means and standard errors.

    Deterministic given (seed, profile, spec).  Strategies are pure, so
    trials in the same contest state play the same spends.  A trial's
    winner is the number of its state's first n-1 success thresholds that
    its uniform reaches, and each code (state, winner) is played once for
    all trials, so the Python work grows with the distinct states per
    battle, not with the trials or the length of a path.  The means and
    standard errors are numpy's `mean` and `std(ddof=1)` of the (trials x
    players) payoffs, to the bit, without that matrix.

    A profile holding a strategy that reads more than the state
    (`Tabular`, or a `Deviation` below the root) gets the History of each
    state and merges none.
    """
    # per-trial indices are int32
    if not isinstance(trials, numbers.Integral) or not 1 <= trials <= 2**31 - 1:
        raise InputError(f"trials must be an integer from 1 to {2**31 - 1}, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    n, m = spec.n, spec.m
    # The root goes through the public per-battle rule, which checks the
    # profile and plays any deviation at the root; the kernel takes over below.
    spends = np.array([allocations_at(profile, spec, History())])
    below = tuple(_below_root(s, 0) for s in profile.strategies)
    histories = None
    if not all(type(s) is Proportional for s in below):
        histories = np.full(1, History(), object)
    levels = [_Level(spec, played, below, histories is not None) for played in range(m)]
    levels[0].file(np.zeros((1, n)), np.zeros((1, n)), histories, spends)
    outcomes = []  # (payoff rows banked through the block, block of terminal payoffs)
    ends = np.empty(trials, np.int32)  # each trial's row among the terminal payoffs
    rng = np.random.default_rng(seed)
    for start in range(0, trials, BLOCK):
        uniforms = rng.random((min(BLOCK, trials - start), m)).T.copy()  # a row per battle
        rows = np.arange(uniforms.shape[1])  # the block's trials still playing
        ids = np.zeros(rows.size, np.intp)  # their states
        for played, level in enumerate(levels):
            draws = uniforms[played].take(rows)
            codes = ids * n  # + the winner: searchsorted(thresholds, draw, "right") <= n-1
            for j in range(n - 1):
                codes += draws >= level.thresholds[:, j].take(ids)
            ids = level.to.take(codes)
            if ids.min() == NEW:
                seen = np.zeros(level.size * n, bool)
                seen[codes[ids == NEW]] = True
                born = np.flatnonzero(seen)
                parent, winner = np.divmod(born, n)
                standings, spent, histories, _, group = _children(
                    spec, played, parent, winner,
                    level.keys[:, :n], level.keys[:, n:], level.spends, level.histories,
                )
                level.to.reshape(-1)[born] = _targets(
                    levels, outcomes, spec, played + 1, standings, spent, histories
                )[group]
                ids = level.to.take(codes)
            if ids.min() < 0:  # indices, not masks: ended trials lie scattered
                done, keep = np.flatnonzero(ids < 0), np.flatnonzero(ids >= 0)
                ends[start + rows.take(done)] = -1 - ids.take(done)
                rows, ids = rows.take(keep), ids.take(keep)
                if not rows.size:
                    break

    payoffs = np.concatenate([paid for _, paid in outcomes])
    means = _trial_order_sums(payoffs, ends) / trials
    if trials > 1:
        deviations = payoffs - means  # a trial's squared deviation is its payoff's
        squares = _trial_order_sums(deviations * deviations, ends)
        std_errors = np.sqrt(squares / (trials - 1)) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)


class _Level:
    """The states that reach battle `played` + 1, numbered as trials first reach them.

    Row i of `keys` holds state i's standings and spent side by side, of
    `spends` and `thresholds` its spends and cumulative success thresholds,
    of `to` where each winner leads (NEW until a trial gets there), and of
    `histories` its History if strategies read one; the arrays double when
    full.  Without Histories, `hashes` are the sorted hashes of the first
    `indexed` keys and `order` their states.
    """

    def __init__(self, spec, played, below, with_histories):
        self.spec, self.played, self.below, n = spec, played, below, spec.n
        self.size = self.indexed = 0
        self.hashes, self.order = np.empty(0, np.uint64), np.empty(0, np.intp)
        self.keys, self.to = np.empty((0, 2 * n)), np.empty((0, n), np.intp)
        self.spends, self.thresholds = np.empty((0, n)), np.empty((0, n))
        self.histories = np.empty(0, object) if with_histories else None

    def file(self, standings, spent, histories, spends=None):
        """The state of each of these distinct live states; `spends` are the root's.

        Without Histories that is the state whose key has the same bytes, as
        `core._distinct_rows` compares them, if there is one: a binary search
        of the keys' hashes finds it.  Otherwise it is a new state.  (Were two
        keys' hashes equal, an equal state could be missed; that keeps two
        equal states apart, as `_distinct_rows` may, and changes no result.)
        """
        keys = np.column_stack((standings, spent))
        ids = np.full(len(keys), -1)
        if histories is None and self.size:
            if self.indexed < self.size:  # index the states filed since the last search
                hashes = _hashes(self.keys[self.indexed : self.size])
                sort = hashes.argsort()
                at = self.hashes.searchsorted(hashes[sort])
                self.hashes = np.insert(self.hashes, at, hashes[sort])
                self.order = np.insert(self.order, at, self.indexed + sort)
                self.indexed = self.size
            hashes = _hashes(keys)
            rows = hashes.argsort()  # searched in order, for locality
            at = self.hashes.searchsorted(hashes[rows])
            rows, at = rows[at < self.indexed], at[at < self.indexed]
            same = self.hashes[at] == hashes[rows]  # equal bytes but for a collision
            rows, state = rows[same], self.order[at[same]]
            equal = (self.keys[state].view(np.uint64) == keys[rows].view(np.uint64)).all(axis=1)
            ids[rows[equal]] = state[equal]
        new = ids < 0
        if spends is None:
            spends, probs = _level_spends(
                self.below, self.spec, self.played, standings[new], spent[new], histories
            )
        else:
            probs = _csf_distributions(spends, self.spec.csf)
        start, self.size = self.size, self.size + len(spends)
        if self.size > len(self.to):
            capacity = max(2 * len(self.to), self.size)
            for name in ("keys", "spends", "thresholds", "to", "histories"):
                old = getattr(self, name)
                if old is not None:
                    setattr(self, name, np.empty((capacity,) + old.shape[1:], old.dtype))
                    getattr(self, name)[:start] = old[:start]
        ids[new], added = np.arange(start, self.size), slice(start, self.size)
        self.keys[added], self.spends[added], self.to[added] = keys[new], spends, NEW
        self.thresholds[added] = probs.cumsum(axis=1)
        if histories is not None:
            self.histories[added] = histories
        return ids


def _hashes(keys):
    """A 64-bit hash of the bytes of each row of `keys`, a word at a time."""
    hashes = np.zeros(len(keys), np.uint64)
    for column in np.ascontiguousarray(keys).view(np.uint64).T:
        hashes = (hashes ^ column) * 0x9E3779B97F4A7C15
        hashes ^= hashes >> 32
    return hashes


def _targets(levels, outcomes, spec, played, standings, spent, histories):
    """Where each of these distinct states, which have played `played` battles, leads.

    An ended state banks its payoff and leads to -1 - its row among all
    `outcomes`; a live one leads to its state in `levels[played]`.
    """
    ended, winners = _statuses(spec, played, standings)
    target = np.empty(len(standings), np.intp)
    if ended.any():
        won = winners[ended]
        expected_value = spec.objective is Objective.EXPECTED_VALUE
        paid = standings[ended] if expected_value else won / won.sum(axis=1, keepdims=True)
        banked = outcomes[-1][0] if outcomes else 0
        target[ended] = -1 - np.arange(banked, banked + len(paid))
        outcomes.append((banked + len(paid), paid))
        if ended.all():
            return target
        standings, spent = standings[~ended], spent[~ended]
        histories = None if histories is None else histories[~ended]
    target[~ended] = levels[played].file(standings, spent, histories)
    return target


def _trial_order_sums(table, ends):
    """Per column, the sum of table.take(ends, axis=0) in trial order, as numpy's
    axis-0 sum adds it; the first trial of a block carries the sum so far."""
    columns, totals = table.T.copy(), np.zeros(table.shape[1])
    for start in range(0, ends.size, BLOCK):
        block = ends[start : start + BLOCK].astype(np.intp)  # take would cast per call
        for j, column in enumerate(columns):
            terms = column.take(block)
            terms[0] += totals[j]
            totals[j] = np.add.accumulate(terms)[-1]
    return totals
