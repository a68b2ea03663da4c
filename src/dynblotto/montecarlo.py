"""Seeded Monte Carlo simulation of contests under a strategy profile.

Used to cross-validate the exact evaluator and to estimate payoffs when
enumeration would be too large.  Reproducibility contract: all randomness
comes from one PCG64 generator seeded with the caller's seed, which draws a
(trials x battles) matrix of uniforms up front.  Trial t consumes row t, one
uniform per battle in order, and the battle winner is the inverse-CDF draw
over the contest success function in fixed player order.  Because each trial
owns its row, trials are independent of execution order and could be
partitioned across workers without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContestSpec,
    History,
    InputError,
    _csf_distribution,
    terminal_payoff,
    terminal_status,
)
from .strategies import StrategyProfile, allocations_at


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

    Deterministic given (seed, profile, spec).  Trials sharing a winner
    sequence also share allocations (strategies are pure), so the simulation
    walks the history tree once, splitting the trial population at each battle
    instead of replaying trials one by one.  The walk keeps an explicit stack
    of (history, trial rows), so contests of any length are simulated.
    """
    if trials < 1:
        raise InputError("trials must be a positive integer")
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    uniforms = rng.random((trials, spec.m))
    payoffs = np.zeros((trials, spec.n))

    stack = [(History(), np.arange(trials))]
    while stack:
        history, trial_rows = stack.pop()
        if terminal_status(spec, history).terminal:
            payoffs[trial_rows] = terminal_payoff(spec, history)
            continue
        allocations = allocations_at(profile, spec, history)
        probs = _csf_distribution(allocations, spec.csf)
        thresholds = np.cumsum(probs)
        draws = uniforms[trial_rows, len(history)]
        winners = np.searchsorted(thresholds, draws, side="right")
        np.clip(winners, 0, spec.n - 1, out=winners)
        for w in reversed(range(spec.n)):  # player 0's branch is walked first
            rows = trial_rows[winners == w]
            if rows.size:
                stack.append((history.extend(allocations, w), rows))
    means = payoffs.mean(axis=0)  # numpy pairwise summation: order independent
    if trials > 1:
        std_errors = payoffs.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)
