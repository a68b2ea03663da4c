"""Shared test helpers: independent oracles and random contest generators."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from dynblotto import (
    ContestSpec,
    CsfParams,
    History,
    Objective,
    ProportionalityVerdict,
    Tabular,
    allocations_at,
    csf_probability,
    deviation_gains,
    deviation_grid,
    proportional_profile,
    terminal_payoff,
    terminal_status,
)
from dynblotto.equilibrium import VALUE_NODES


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


def exact_payoffs(spec, history=None, deviation=None):
    """Exact payoff oracle: proportional play from `history`, in Fractions.

    For integer alpha, where every step is rational.  Built from the rules
    alone, with no code of the package: before battle t a player holds the
    starting budget plus its shocks through battle t minus its spends, at
    least 0, and under win probability nothing once even winning all value
    left cannot reach a tie.  Proportional play spends that budget times
    battle t's share of the value left.  Player i wins the battle with
    probability f(w_i) / sum f(w), f(w) = beta w^alpha, or 1/n when no one
    scores.  The contest ends after the last battle, or under win
    probability once a total exceeds every rival's plus all value left; the
    payoff is the won value, or one unit split by the top totals.
    `deviation` = (player, delta) moves that player's spend at `history` by
    delta, clamped into [0, budget].  Returns one Fraction per player.
    """
    alpha = int(spec.csf.alpha)
    if alpha != spec.csf.alpha:
        raise ValueError(f"the exact oracle takes integer exponents, got {spec.csf.alpha}")
    beta, values = Fraction(spec.csf.beta), [Fraction(v) for v in spec.values]
    n, m = len(spec.budgets), len(values)
    wp = spec.objective is Objective.WIN_PROBABILITY
    ceilings = []  # each player's budget plus shocks through battle t + 1, before battle t + 1
    for t in range(m):
        ceilings.append([Fraction(b) + sum((Fraction(a) for (i, battle), a in spec.shocks
                                            if i == player and battle <= t + 1), Fraction(0))
                         for player, b in enumerate(spec.budgets)])

    def walk(t, standings, spent, deviation):
        rest = sum(values[t:], Fraction(0))
        if t == m:
            top = max(standings)
            winners = [i for i, s in enumerate(standings) if s == top]
        else:
            winners = [i for i, s in enumerate(standings) if wp and all(
                s > r + rest for j, r in enumerate(standings) if j != i)]
        if winners:
            if not wp:
                return list(standings)
            return [Fraction(1, len(winners)) if i in winners else Fraction(0) for i in range(n)]
        budgets = [max(c - s, Fraction(0)) for c, s in zip(ceilings[t], spent)]
        if wp:
            budgets = [Fraction(0) if s + rest < max(standings) else b
                       for s, b in zip(standings, budgets)]
        spends = [b * values[t] / rest for b in budgets]
        if deviation is not None:
            player, delta = deviation
            spends[player] = min(max(spends[player] + Fraction(delta), 0), budgets[player])
        scores = [beta * w**alpha for w in spends]
        total = sum(scores, Fraction(0))
        odds = [score / total for score in scores] if total else [Fraction(1, n)] * n
        out = [Fraction(0)] * n
        for winner, p in enumerate(odds):
            if p:
                won = [s + values[t] * (i == winner) for i, s in enumerate(standings)]
                below = walk(t + 1, won, [s + w for s, w in zip(spent, spends)], None)
                out = [o + p * v for o, v in zip(out, below)]
        return out

    standings, spent = [Fraction(0)] * n, [Fraction(0)] * n
    for t, record in enumerate(() if history is None else history.records):
        standings[record.winner] += values[t]
        spent = [s + Fraction(w) for s, w in zip(spent, record.allocations)]
    return walk(0 if history is None else len(history.records), standings, spent, deviation)


def terminal_distribution(profile, spec, history=None, weight=1.0, out=None):
    """Independent oracle for simulation: the probability of each terminal state.

    The enumeration of `brute_force_payoffs`, built from the public
    per-battle operations only, with the mass of every terminal history
    added to its final standings (won-value totals) and payoff vector.
    Returns a dict of (standings tuple, payoff tuple) -> probability.
    """
    history = history if history is not None else History()
    out = {} if out is None else out
    if terminal_status(spec, history).terminal:
        final = (history.won_values(spec), terminal_payoff(spec, history))
        out[final] = out.get(final, 0.0) + weight
        return out
    allocations = allocations_at(profile, spec, history)
    for winner in range(spec.n):
        p = csf_probability(allocations, spec.csf, winner)
        if p > 0.0:
            successor = history.extend(allocations, winner)
            terminal_distribution(profile, spec, successor, weight * p, out)
    return out


def reference_status(spec, played, standings):
    """Reference for `core._statuses`: the rule for one state, from its definition.

    Returns (terminal, winners).  After the last battle the top totals win.
    Before it, under win probability, a player whose total strictly exceeds
    every rival's total plus all value left clinches; under expected value
    nothing ends.
    """
    if played == spec.m:
        best = max(standings)
        return True, tuple(i for i, v in enumerate(standings) if v == best)
    if spec.objective is Objective.EXPECTED_VALUE:
        return False, ()
    for i, total in enumerate(standings):
        if total > max(v for j, v in enumerate(standings) if j != i) + spec.suffix_value(played):
            return True, (i,)
    return False, ()


def reference_hopeless(spec, played, standings, player):
    """Reference for `core._hopeless`: the player cannot reach a tie by winning all that is left."""
    rival = max(v for j, v in enumerate(standings) if j != player)
    return standings[player] + spec.suffix_value(played) < rival


def reference_budget(spec, played, standings, spent, player):
    """Reference for `core._remaining_budgets`, from the definition.

    The starting budget plus the player's shocks through the upcoming
    battle (none after the last) minus the spends, clamped at 0; 0 for a
    hopeless player under win probability.
    """
    if spec.objective is Objective.WIN_PROBABILITY and reference_hopeless(
            spec, played, standings, player):
        return 0.0
    through = min(played + 1, spec.m)
    shocks = sum(amount for (i, battle), amount in spec.shocks if i == player and battle <= through)
    return max(spec.budgets[player] + shocks - spent[player], 0.0)


def reference_csf(spends, params):
    """Reference for `core._csf_distributions` on one state: f(w_i) / sum f, or 1/n if that is 0."""
    scores = [w**params.alpha for w in spends]
    total = sum(scores)
    if total == 0.0:
        return [1.0 / len(scores)] * len(scores)
    return [s / total for s in scores]


def chi_square_sf(statistic, dof):
    """P(X >= statistic) for X chi-square with a positive integer `dof`, in closed form.

    With h = statistic / 2 it is the sum of h^k e^-h / Gamma(k + 1) over
    k = 0, 1, ..., dof/2 - 1 for even dof, and erfc(sqrt(h)) plus that sum
    over k = 1/2, 3/2, ..., dof/2 - 1 for odd dof.
    """
    half = statistic / 2.0
    if half == 0.0:
        return 1.0
    if dof % 2 == 0:
        total, ks = 0.0, range(dof // 2)
    else:
        total, ks = math.erfc(math.sqrt(half)), (i + 0.5 for i in range((dof - 1) // 2))
    return total + sum(math.exp(k * math.log(half) - half - math.lgamma(k + 1.0)) for k in ks)


def history_bfs_histories(spec, plan):
    """Reference for the histories `check_proportionality` sweeps: a History BFS.

    A breadth-first walk over Histories, built from the public per-battle
    operations only, where `equilibrium._swept_states` walks arrays: the plan's
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


def per_history_check(spec, plan):
    """Reference for `check_proportionality`: one sweep per (history, player).

    The loop the batched check replaced: over `history_bfs_histories`,
    skipping terminal ones, every player's `deviation_grid` goes through one
    `deviation_gains` call, history after history and player after player.
    The first gain above the tolerance refutes; otherwise the verdict holds
    with the largest gain seen.
    """
    checked, max_gain = 0, -math.inf
    for history in history_bfs_histories(spec, plan):
        if terminal_status(spec, history).terminal:
            continue
        checked += 1
        for player in range(spec.n):
            deltas = deviation_grid(spec, history, player, plan.delta_points)
            for report in deviation_gains(spec, history, player, deltas):
                if report.gain > max_gain:
                    max_gain = report.gain
                if report.gain > plan.tolerance:
                    return ProportionalityVerdict(False, checked, report.gain, report)
    return ProportionalityVerdict(True, checked, 0.0 if max_gain == -math.inf else max_gain)


def random_table(rng, spec, player, root=None):
    """A `Tabular` for `player` with a random spend at every state below `root`.

    Each state reachable from the root gets an entry under its standings,
    at random budgets; equal standings reached by other winners add
    entries to the same key, so the nearest-budget lookup has a choice.
    """
    root = root if root is not None else History()
    table = Tabular(player=player)
    start = root.won_values(spec)
    for played in range(len(root), spec.m):
        for tail in itertools.product(range(spec.n), repeat=played - len(root)):
            standings = list(start)
            for t, winner in enumerate(tail, start=len(root)):
                standings[winner] += spec.values[t]
            budgets = tuple(rng.uniform(0.0, 100.0) for _ in range(spec.n))
            table.record(played + 1, standings, budgets, rng.uniform(0.0, 60.0))
    return table


def random_battle_values(rng, m, lo=0.5, hi=3.0):
    """Battle values in [lo, hi] with no battle worth the rest combined.

    Needs m >= 3: with one or two battles some battle is always worth at
    least the rest.
    """
    if m < 3:
        raise ValueError(f"no {m} battle values avoid a dictatorial battle; m must be at least 3")
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


def reference_payoff_vec(branch, b_a, b_b, alpha):
    """Reference for `equilibrium._BranchValue.payoff_vec` at budgets b_a, b_b.

    For a branch whose rows all read one class.  The stage kernel shares the
    scores b^alpha and their total between branches, writes the coin value
    only into both-broke cells and evaluates the spline in place; this is the
    same arithmetic written out plainly, operation for operation, so the two
    must agree bit for bit.  Returns a full array for every branch.
    """
    (class_value,) = branch.classes  # the one class every row reads
    if class_value.linear is not None and class_value.linear[0] == class_value.linear[1]:
        # a terminal class: the same payoff whoever wins
        return np.full(np.shape(b_a), class_value.linear[1], dtype=float)
    score_a, score_b = b_a**alpha, b_b**alpha
    total = score_a + score_b
    if class_value.linear is not None:
        # a decisive class: both go all in, and A wins the battle with the
        # CSF share of the budgets left
        win, lose = class_value.linear
        p_a = np.divide(score_a, total, out=np.full(total.shape, 0.5), where=total > 0.0)
        return lose + (win - lose) * p_a
    # the spline over the share q of the class's own player, looked up on
    # the graded nodes: q's node index is arccos(1 - 2 q) (VALUE_NODES - 1) / pi
    own = score_b if class_value.mirrored else score_a
    q = np.divide(own, total, out=np.zeros_like(total), where=total > 0.0)
    n = VALUE_NODES
    nodes = (1.0 - np.cos(np.pi * np.arange(n // 2) / (n - 1))) / 2.0
    nodes = np.concatenate((nodes, [0.5], 1.0 - nodes[::-1]))
    idx = np.minimum((np.arccos(1.0 - 2.0 * q) * ((n - 1) / np.pi)).astype(int), n - 2)
    s = q - nodes[idx]
    spline = class_value.spline
    value = ((spline.d[idx] * s + spline.c[idx]) * s + spline.b[idx]) * s + spline.a[idx]
    if class_value.mirrored:
        value = 1.0 - value
    return np.where(total > 0.0, value, class_value.coin)


def reference_stage_payoff(game, w_a, w_b):
    """Reference for `equilibrium._StageGame.payoff`: its earlier formula.

    Player A's payoff at spends w_a, w_b (equal rank, row axis first), with
    each branch valued by `reference_payoff_vec`.
    """
    shape = (-1,) + (1,) * (np.ndim(w_a) - 1)
    b_a = np.maximum(game.budgets[0].reshape(shape) - w_a, 0.0)
    b_b = np.maximum(game.budgets[1].reshape(shape) - w_b, 0.0)
    b_a, b_b = np.broadcast_arrays(b_a, b_b)
    win = reference_payoff_vec(game.branches[0], b_a, b_b, game.alpha)
    lose = reference_payoff_vec(game.branches[1], b_a, b_b, game.alpha)
    score_a = w_a**game.alpha
    denom = score_a + w_b**game.alpha
    p_a = np.divide(score_a, denom, out=np.full(denom.shape, 0.5), where=denom > 0.0)
    return p_a * win + (1.0 - p_a) * lose
