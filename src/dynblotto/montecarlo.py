"""Seeded Monte Carlo simulation of contests under a strategy profile.

Used to cross-validate the exact evaluator and to estimate payoffs when
enumeration would be too large.  Reproducibility contract: all randomness
comes from one PCG64 generator seeded with the caller's seed, which draws a
(trials x battles) matrix of uniforms up front.  Trial t consumes row t, one
uniform per battle in order, and the battle winner is the inverse-CDF draw
over the contest success function in fixed player order.  Because each trial
owns its row, trials are independent of execution order and could be
partitioned across workers without changing the result.

The trials are played battle by battle over contest states (standings,
spends).  Each trial still playing holds the id of its state; each distinct
state is played once per battle, through the per-battle step of
`strategies` that the exact evaluator plays too, and trials whose states
become equal share one state from then on.
"""

from __future__ import annotations

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


# Trials per block of the per-trial array work.
BLOCK = 2**16


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
    trials in the same contest state play the same spends.  Before each
    battle, every distinct state of the trials still playing gets its
    spends and its success-probability thresholds.  A trial's winner is the
    number of its state's first n-1 thresholds that its uniform for the
    battle reaches.  Its next state is numbered (state, winner) through a
    table of states x players entries, and children with equal standings and
    spends are merged.  A child that has ended banks its payoff for its
    trials.  So the Python work grows with the distinct states per battle,
    not with the trials or the length of a path.

    A profile holding a strategy that reads more than the state
    (`Tabular`, or a `Deviation` below the root) gets the History of each
    state and merges none.
    """
    if trials < 1:
        raise InputError("trials must be a positive integer")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    n, m = spec.n, spec.m
    expected_value = spec.objective is Objective.EXPECTED_VALUE
    # The root goes through the public per-battle rule, which checks the
    # profile and plays any deviation at the root; the kernel takes over below.
    spends = np.array([allocations_at(profile, spec, History())])
    probs = _csf_distributions(spends, spec.csf)
    below = tuple(_below_root(s, 0) for s in profile.strategies)
    histories = None
    if not all(type(s) is Proportional for s in below):
        histories = np.empty(1, object)
        histories[0] = History()
    rng = np.random.default_rng(seed)
    uniforms = rng.random((trials, m))

    standings = np.zeros((1, n))  # one row per state
    spent = np.zeros((1, n))
    rows = np.arange(trials, dtype=np.int32)  # the trials still playing, in trial order
    ids = np.zeros(trials, np.int32)  # their states
    ends = np.empty(trials, np.int32)  # each trial's row among the banked payoffs
    outcomes, banked = [], 0  # blocks of terminal payoffs, and their rows in all
    for played in range(m):
        # Each trial's code (state, winner), written over its state id.  The
        # winner is searchsorted(thresholds, draw, side="right") clipped to
        # n-1.  Blocks of trials keep the temporary arrays small.
        thresholds = np.cumsum(probs, axis=1).T.copy()
        seen = np.zeros(len(spends) * n, bool)
        blocks = [slice(start, start + BLOCK) for start in range(0, ids.size, BLOCK)]
        for block in blocks:
            state = ids[block]
            draws = uniforms[rows[block], played]
            codes = state * n
            for j in range(n - 1):
                codes += draws >= thresholds[j].take(state)
            seen[codes] = True
            ids[block] = codes

        born = np.flatnonzero(seen)
        parent, winner = np.divmod(born, n)
        standings, spent, histories, _, group = _children(
            spec, played, parent, winner, standings, spent, spends, histories
        )
        # A live child's next id is its place among the live ones; an ended
        # child's is -1 - the row of its payoff among all banked payoffs.
        ended, winners = _statuses(spec, played + 1, standings)
        target = np.cumsum(~ended, dtype=np.int32) - 1
        if ended.any():
            won = winners[ended]
            paid = standings[ended] if expected_value else won / won.sum(axis=1, keepdims=True)
            target[ended] = -1 - np.arange(banked, banked + len(paid), dtype=np.int32)
            outcomes.append(paid)
            banked += len(paid)
            live = ~ended
            standings, spent = standings[live], spent[live]
            histories = None if histories is None else histories[live]
        lookup = np.empty(seen.size, np.int32)
        lookup[born] = target[group]
        for block in blocks:
            ids[block] = lookup.take(ids[block])
        if ended.any():
            over = ids < 0
            ends[rows[over]] = -1 - ids[over]
            rows, ids = rows[~over], ids[~over]
            if not rows.size:
                break
        spends, probs = _level_spends(below, spec, played + 1, standings, spent, histories)

    del uniforms, rows, ids
    payoffs = np.concatenate(outcomes).take(ends, axis=0)  # one row per trial, in trial order
    means = payoffs.mean(axis=0)
    if trials > 1:
        std_errors = payoffs.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)
