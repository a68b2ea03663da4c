"""Shared test helpers: independent oracles and random contest generators."""

import random

import numpy as np

from dynblotto import (
    ContestSpec,
    CsfParams,
    History,
    InputError,
    Objective,
    SimulationResult,
    allocations_at,
    csf_probability,
    proportional_profile,
    terminal_payoff,
    terminal_status,
)


def brute_force_payoffs(profile, spec, history=None):
    """Independent payoff oracle: recursive enumeration over battle winners.

    Deliberately built from the public per-battle operations only, so it
    shares no code path with the streaming evaluator it cross-checks.
    """
    history = history if history is not None else History()
    status = terminal_status(spec, history)
    if status.terminal:
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


def history_tree_simulate(profile, spec, seed, trials):
    """Reference simulation: walk the tree of Histories, splitting the trials.

    The History walk that `montecarlo.simulate` replaced, built from the
    public per-battle operations only.  It draws the same uniforms and picks
    winners by the same inverse-CDF rule, so its result must equal
    `simulate`'s bit for bit.
    """
    if trials < 1 or seed < 0:
        raise InputError("trials must be positive and seed nonnegative")
    uniforms = np.random.default_rng(seed).random((trials, spec.m))
    payoffs = np.zeros((trials, spec.n))
    stack = [(History(), np.arange(trials))]
    while stack:
        history, trial_rows = stack.pop()
        if terminal_status(spec, history).terminal:
            payoffs[trial_rows] = terminal_payoff(spec, history)
            continue
        allocations = allocations_at(profile, spec, history)
        probs = [csf_probability(allocations, spec.csf, i) for i in range(spec.n)]
        thresholds = np.cumsum(probs)
        draws = uniforms[trial_rows, len(history)]
        winners = np.searchsorted(thresholds, draws, side="right")
        np.clip(winners, 0, spec.n - 1, out=winners)
        for w in reversed(range(spec.n)):
            rows = trial_rows[winners == w]
            if rows.size:
                stack.append((history.extend(allocations, w), rows))
    means = payoffs.mean(axis=0)
    if trials > 1:
        std_errors = payoffs.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        std_errors = np.zeros(spec.n)
    return SimulationResult(trials, tuple(means.tolist()), tuple(std_errors.tolist()), seed)


def history_bfs_histories(spec, plan):
    """Reference for the histories `check_proportionality` sweeps: a History BFS.

    The breadth-first walk over Histories that `equilibrium._sampled_histories`
    replaced, built from the public per-battle operations only: the plan's
    own histories, then the root and every nonterminal history reachable
    under proportional play through battle m - 1, depth by depth.  A depth
    of more than `plan.max_per_depth` histories is cut to a sorted sample
    drawn by one `random.Random(plan.seed)`.  Returns a list.
    """
    out = list(plan.histories)
    profile = proportional_profile(spec.n)
    rng = random.Random(plan.seed)
    level = [History()]
    out.extend(level)
    for _ in range(spec.m - 1):
        deeper = []
        for history in level:
            allocations = allocations_at(profile, spec, history)
            for winner in range(spec.n):
                if csf_probability(allocations, spec.csf, winner) > 0.0:
                    successor = history.extend(allocations, winner)
                    if not terminal_status(spec, successor).terminal:
                        deeper.append(successor)
        if plan.max_per_depth is not None and len(deeper) > plan.max_per_depth:
            picked = sorted(rng.sample(range(len(deeper)), plan.max_per_depth))
            deeper = [deeper[i] for i in picked]
        level = deeper
        out.extend(level)
    return out


def random_battle_values(rng, m, lo=0.5, hi=3.0):
    """Battle values in [lo, hi] with no battle worth the rest combined."""
    while True:
        values = [rng.uniform(lo, hi) for _ in range(m)]
        total = sum(values)
        if all(v < total - v for v in values):
            return values


def random_ev_spec(rng, alphas=(1.0,), betas=(1.0,), with_shocks=False,
                   ns=(2, 3, 4), ms=(3, 4, 5)):
    """Random expected-value contest in the property-suite parameter ranges."""
    n = rng.choice(ns)
    m = rng.choice(ms)
    values = random_battle_values(rng, m)
    budgets = [rng.uniform(0.0, 100.0) for _ in range(n)]
    shocks = {}
    if with_shocks:
        for _ in range(rng.randint(1, n)):
            shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-20.0, 20.0)
    csf = CsfParams(rng.choice(alphas), rng.choice(betas))
    return ContestSpec(values, budgets, csf, Objective.EXPECTED_VALUE, shocks)
