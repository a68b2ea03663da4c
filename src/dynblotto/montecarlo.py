"""Seeded Monte Carlo simulation of contests under a strategy profile.

Used to cross-validate the exact evaluator and to estimate payoffs when
enumeration would be too large.  Reproducibility contract: all randomness
comes from one PCG64 generator seeded with the caller's seed, and a result
is reproducible bit for bit given (seed, profile, spec) on one numpy
version.  NEP 19 does not promise that `Generator.binomial` keeps its
stream across numpy releases, so another release may report other means.

The trials are not played one by one.  The contest is played battle by
battle over its distinct live states (standings, spends), each carrying the
number of trials that reached it.  A battle splits each state's count over
the winners by a chain of binomial draws, j-major: for winner j = 0..n-2 in
turn, one vectorised `rng.binomial` call over all live states, in the order
`strategies._children` gives them, draws winner j's share of the trials
still left with success probability p_j / (p_j + ... + p_{n-1}); the last
player gets what is left.  The nonzero cells of the split, in row-major
order, are the children, played through the per-battle step of `strategies`
that the exact evaluator plays too: equal children merge and their counts
add up.  Ended states bank their payoff with their count.  So the work
grows with the distinct states per battle, not with the trials.
"""

from __future__ import annotations

import logging
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
    StrategyProfile,
    _below_root,
    _children,
    _level_spends,
    allocations_at,
)

_log = logging.getLogger("dynblotto")


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

    Deterministic given (seed, profile, spec).  The means and standard
    errors are sums over the banked terminal payoffs, weighted by their
    trial counts, so a trial count costs no time.
    """
    if not isinstance(trials, numbers.Integral) or not 1 <= trials <= 2**31 - 1:
        raise InputError(f"trials must be an integer from 1 to {2**31 - 1}, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    _, payoffs, counts = _terminal_counts(profile, spec, seed, trials)
    weights = counts.astype(float)
    means = weights @ payoffs / trials
    if trials > 1:
        deviations = payoffs - means
        std_errors = np.sqrt(weights @ (deviations * deviations) / (trials - 1)) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)


def _terminal_counts(profile, spec, seed, trials):
    """The terminal states that `trials` plays of the contest reach, and how many reach each.

    Returns the standings and the payoff row of each banked terminal state,
    in the order they were banked, and its trial count.  Strategies are
    pure and read only the contest state, so trials in the same state play
    the same spends and one state stands for all of them.  A deviation
    after the first battle raises InputError (`strategies._below_root`).
    """
    n = spec.n
    # The root goes through the public per-battle rule, which checks the
    # profile and plays any deviation at the root; the kernel takes over below.
    spends = np.array([allocations_at(profile, spec, History())])
    probs = _csf_distributions(spends, spec.csf)
    below = tuple(_below_root(s, 0) for s in profile.strategies)
    standings, spent, counts = np.zeros((1, n)), np.zeros((1, n)), np.array([trials])
    rng = np.random.default_rng(seed)
    finals, payoffs, banked = [], [], []
    states, merged = [], 0
    for played in range(spec.m):
        if played:
            spends, probs = _level_spends(below, spec, played, standings, spent)
        states.append(len(counts))
        split, left = np.empty((len(counts), n), np.int64), counts
        for j in range(n - 1):
            tail = probs[:, j:].sum(axis=1)
            share = np.divide(probs[:, j], tail, out=np.zeros(len(tail)), where=tail > 0.0)
            split[:, j] = rng.binomial(left, np.clip(share, 0.0, 1.0))
            left = left - split[:, j]
        split[:, n - 1] = left
        parent, winner = np.nonzero(split)
        standings, spent, first, group = _children(
            spec, played, parent, winner, standings, spent, spends
        )
        merged += parent.size - first.size
        counts = np.bincount(group, split[parent, winner]).astype(np.int64)  # exact below 2^53
        ended, winners = _statuses(spec, played + 1, standings)
        if ended.any():
            won = winners[ended]
            finals.append(standings[ended])
            if spec.objective is Objective.EXPECTED_VALUE:
                payoffs.append(standings[ended])
            else:
                payoffs.append(won / won.sum(axis=1, keepdims=True))
            banked.append(counts[ended])
            if ended.all():
                break
            live = ~ended
            standings, spent, counts = standings[live], spent[live], counts[live]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "simulation: %d trials, states per battle %s, %d states merged, %d binomial calls",
            trials, states, merged, len(states) * (n - 1),
        )
    return np.concatenate(finals), np.concatenate(payoffs), np.concatenate(banked)
