"""Seeded Monte Carlo simulation of contests under a strategy profile.

Used to cross-validate the exact evaluator and to estimate payoffs when
enumeration would be too large.  Reproducibility contract: all randomness
comes from one PCG64 generator seeded with the caller's seed, and a result
is reproducible bit for bit given (seed, profile, spec) on one numpy
version.  NEP 19 does not promise that `Generator.binomial` keeps its
stream across numpy releases, so another release may report other means.

The trials are not played one by one.  The contest is played battle by
battle over its distinct live states (standings, spends), each carrying the
number of trials that reached it, through the per-battle loop of
`strategies` (`_levels`) that exact evaluation plays too.  A battle splits
each state's count over the winners by a chain of binomial draws, j-major
(`strategies._binomial_split`), in the order the loop gives the states;
equal children merge and their counts add up, and ended states bank their
payoff with their count.  So the work grows with the distinct states per
battle, not with the trials.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ContestSpec, History, InputError, _payoffs
from .strategies import StrategyProfile, _below_root, _binomial_split, _levels, allocations_at

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
    if isinstance(trials, bool) or not (isinstance(trials, numbers.Integral)
                                        and 1 <= trials <= 2**31 - 1):
        raise InputError(f"trials must be an integer from 1 to {2**31 - 1}, got {trials}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
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
    # profile and plays any deviation at the root; the loop takes over below.
    spends = np.array([allocations_at(profile, spec, History())])
    below = tuple(_below_root(s, 0) for s in profile.strategies)
    root = (np.zeros((1, n)), np.zeros((1, n)), np.array([trials]), None)
    split = partial(_binomial_split, np.random.default_rng(seed))
    banked, states, tally = [], [], {"merged": 0, "parts": 0}
    for _, live, ended in _levels(spec, below, 0, root, split, spends, tally=tally):
        if ended is not None:
            banked.append(ended)
        if len(live[0]):
            states.append(len(live[0]))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "simulation: %d trials, states per battle %s, %d states merged, %d binomial calls",
            trials, states, tally["merged"], len(states) * (n - 1),
        )
    finals, counts, winners = (np.concatenate([e[i] for e in banked]) for i in (0, 2, 4))
    return finals, _payoffs(spec, finals, winners), counts
