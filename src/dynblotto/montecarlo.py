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
state is evaluated once per battle, with the same rules and floats as the
per-battle operations of `core` and `strategies`, and trials whose states
become equal share one state from then on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContestSpec,
    History,
    InputError,
    _csf_distribution,
    _distinct_rows,
    _payoff,
    _status,
    _undecided,
)
from .strategies import (
    Proportional,
    StrategyProfile,
    _below_root,
    _state_allocations,
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
    battle, every distinct state of the trials still playing is evaluated
    once: a terminal state banks its payoff for its trials, any other gets
    its spends and its success-probability thresholds.  A trial's winner is
    the number of its state's first n-1 thresholds that its uniform for the
    battle reaches.  Its next state is numbered (state, winner) through a
    table of states x players entries, and children with equal standings and
    spends are merged.  So the Python work grows with the distinct states
    per battle, not with the trials or the length of a path.

    Under proportional play the standings sway the spends only once someone
    trails hopelessly, so states where nobody does share one evaluation per
    distinct spent vector.  A profile holding a strategy that reads more
    than the state (`Tabular`, or a `Deviation` below the root) gets the
    History of each state and merges none.
    """
    if trials < 1:
        raise InputError("trials must be a positive integer")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    n, m = spec.n, spec.m
    # The root goes through the public per-battle rule, which checks the
    # profile and plays any deviation at the root; the kernel takes over below.
    root_allocations = allocations_at(profile, spec, History())
    below = tuple(_below_root(s, 0) for s in profile.strategies)
    markov = all(type(s) is Proportional for s in below)
    rng = np.random.default_rng(seed)
    uniforms = rng.random((trials, m))

    standings = np.zeros((1, n))  # one row per state
    spent = np.zeros((1, n))
    histories = None if markov else [History()]
    rows = np.arange(trials, dtype=np.int32)  # the trials still playing, in trial order
    ids = np.zeros(trials, np.int32)  # their states
    ends = np.empty(trials, np.int32)  # each trial's terminal payoff, a row of `outcomes`
    outcomes = []
    for played in range(m + 1):
        if played == 0:
            spends = np.array([root_allocations])
            probs = np.array([_csf_distribution(root_allocations, spec.csf)])
        else:
            spends, probs, ended = _evaluate(
                spec, below, markov, played, standings, spent, histories, outcomes
            )
            if ended.max() >= 0:
                done = ended.take(ids)
                over = done >= 0
                ends[rows[over]] = done[over]
                rows, ids = rows[~over], ids[~over]
                if not rows.size:
                    break

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
        child_standings = standings[parent]
        child_standings[np.arange(born.size), winner] += spec.values[played]
        child_spent = spent[parent] + spends[parent]
        if markov:
            first, merged = _distinct_rows(np.concatenate((child_standings, child_spent), axis=1))
            standings, spent = child_standings[first], child_spent[first]
        else:
            merged = np.arange(born.size)
            histories = [
                histories[p].extend(spends[p], w)
                for p, w in zip(parent.tolist(), winner.tolist())
            ]
            standings, spent = child_standings, child_spent
        lookup = np.empty(seen.size, np.int32)
        lookup[born] = merged
        for block in blocks:
            ids[block] = lookup.take(ids[block])

    del uniforms, rows, ids
    payoffs = np.array(outcomes).take(ends, axis=0)  # one row per trial, in trial order
    means = payoffs.mean(axis=0)
    if trials > 1:
        std_errors = payoffs.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)


def _evaluate(spec, below, markov, played, standings, spent, histories, outcomes):
    """Spends and win probabilities of every state after `played` battles.

    A terminal state appends its payoff to `outcomes` instead: `ended` holds
    its row there, and -1 for every other state.
    """
    count = len(standings)
    spends, probs = np.zeros((count, spec.n)), np.zeros((count, spec.n))
    ended = np.full(count, -1, np.int32)
    undecided = _undecided(spec, played, standings) if markov else False
    undecided = np.broadcast_to(undecided, count)
    shared = np.flatnonzero(undecided)
    if shared.size:
        # Proportional spends of an undecided state read only its spent
        # vector, so each distinct one is evaluated once, at any such state.
        first, group = _distinct_rows(spent[shared])
        state = standings[shared[0]].tolist()
        allocations = [
            _state_allocations(below, spec, played, state, paid, None)
            for paid in spent[shared[first]].tolist()
        ]
        spends[shared] = np.array(allocations)[group]
        probs[shared] = np.array([_csf_distribution(a, spec.csf) for a in allocations])[group]
    for sid in np.flatnonzero(~undecided).tolist():
        state, paid = standings[sid].tolist(), spent[sid].tolist()
        status = _status(spec, played, state)
        if status.terminal:
            ended[sid] = len(outcomes)
            outcomes.append(_payoff(spec, status, state))
            continue
        history = None if markov else histories[sid]
        allocations = _state_allocations(below, spec, played, state, paid, history)
        spends[sid] = allocations
        probs[sid] = _csf_distribution(allocations, spec.csf)
    return spends, probs, ended

