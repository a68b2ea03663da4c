"""Numerical equilibrium analysis.

Two engines live here.  For two-player win-probability contests, a backward
induction solver computes stage equilibria by iterated best response: each
best response is located by a coarse grid scan refined with golden-section
search, and continuation values come from per-stage value tables.  A
continuation value depends only on the battle index, the standings (won-value
totals), and the two remaining budgets; since the contest success function is
homogeneous, it depends on the budgets only through their ratio, so each
(battle, standings) class stores one cubic spline of the equilibrium value
over the budget ratio.

For arbitrary contests, `check_proportionality` sweeps one-shot deviations
from proportional play over sampled histories and reports the first
profitable one.  It relies only on the exact evaluator, never on the solver,
so the two engines stay independent checks of each other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ContestSpec,
    ContractError,
    ConvergenceError,
    History,
    InputError,
    Objective,
    _csf_distribution,
    _payoff,
    _status,
    remaining_budget,
    terminal_status,
)
from .evaluation import DeviationReport, deviation_gains, deviation_grid
from .strategies import (
    StrategyProfile,
    Tabular,
    allocations_at,
    proportional_profile,
)


@dataclass(frozen=True)
class SolverSettings:
    grid_points: int = 200  # coarse scan points per best response
    tolerance: float = 1e-6  # stop when best-response payoff improvements fall below
    budget_step: float = 0.25  # tabular strategy budget grid
    max_iterations: int = 500
    value_nodes: int = 321  # budget-ratio nodes per continuation value table
    refine_tolerance: float = 1e-6  # golden-section window width on the spend
    move_tolerance: float = 1e-4  # additional stability requirement on iterates


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class BestResponseResult:
    allocation: float
    value: float
    flat: bool  # objective was constant; the proportional point was returned


@dataclass(frozen=True)
class StageSolution:
    allocations: tuple
    residual: float  # largest best-response improvement at the returned point
    iterations: int
    flat: tuple
    residual_history: tuple
    history: Optional[History] = None


@dataclass(frozen=True)
class SamplingPlan:
    """Which histories and deviations check_proportionality sweeps.

    User-supplied histories are checked first (so a known counterexample is
    the one reported), then all winner sequences reachable under proportional
    play, breadth-first up to depth_cap, subsampled per depth when a level
    exceeds max_per_depth.
    """

    depth_cap: Optional[int] = None
    max_per_depth: Optional[int] = None
    histories: tuple = ()
    delta_points: int = 21
    tolerance: float = 1e-6
    seed: int = 0


@dataclass(frozen=True)
class ProportionalityVerdict:
    holds: bool
    histories_checked: int
    max_gain: float
    counterexample: Optional[DeviationReport] = None


@dataclass(frozen=True)
class BackwardSolveResult:
    profile: StrategyProfile
    trace: tuple  # on-path allocations, one (w_A, w_B) pair per battle
    solutions: dict  # winner schedule -> StageSolution
    trace_winners: tuple

    @property
    def root(self) -> StageSolution:
        return self.solutions[()]


# ---------------------------------------------------------------------------
# cubic-spline value tables over the budget ratio


class _UniformSpline:
    """Natural cubic spline on uniform nodes over [0, 1]."""

    def __init__(self, ys: Sequence[float]):
        ys = np.asarray(ys, dtype=float)
        n = len(ys)
        h = 1.0 / (n - 1)
        # second derivatives from the natural-spline tridiagonal system
        m = np.zeros(n)
        if n > 2:
            rhs = (ys[2:] - 2 * ys[1:-1] + ys[:-2]) * (6.0 / h / h)
            diag = np.full(n - 2, 4.0)
            # Thomas algorithm; sub- and super-diagonals are all ones
            for i in range(1, n - 2):
                w = 1.0 / diag[i - 1]
                diag[i] -= w
                rhs[i] -= w * rhs[i - 1]
            sol = np.zeros(n - 2)
            sol[-1] = rhs[-1] / diag[-1]
            for i in range(n - 4, -1, -1):
                sol[i] = (rhs[i] - sol[i + 1]) / diag[i]
            m[1:-1] = sol
        self.h = h
        self.n = n
        self.a = ys[:-1].copy()
        self.b = (ys[1:] - ys[:-1]) / h - h * (2 * m[:-1] + m[1:]) / 6.0
        self.c = m[:-1] / 2.0
        self.d = (m[1:] - m[:-1]) / (6.0 * h)
        self._lists = (self.a.tolist(), self.b.tolist(), self.c.tolist(), self.d.tolist())

    def value(self, x: float) -> float:
        if x <= 0.0:
            x = 0.0
        elif x >= 1.0:
            x = 1.0
        i = int(x * (self.n - 1))
        if i > self.n - 2:
            i = self.n - 2
        s = x - i * self.h
        a, b, c, d = self._lists
        return ((d[i] * s + c[i]) * s + b[i]) * s + a[i]

    def value_vec(self, xs: np.ndarray) -> np.ndarray:
        xs = np.clip(xs, 0.0, 1.0)
        idx = np.minimum((xs * (self.n - 1)).astype(int), self.n - 2)
        s = xs - idx * self.h
        return ((self.d[idx] * s + self.c[idx]) * s + self.b[idx]) * s + self.a[idx]


def _terminal_value_from_totals(spec: ContestSpec, played: int, totals) -> Optional[tuple]:
    """Player payoffs if the class (battle count, totals) is terminal, else None."""
    status = _status(spec, played, totals)
    return _payoff(spec, status, totals) if status.terminal else None


class _BranchValue:
    """Player payoffs at one successor class, as a function of the budgets."""

    def __init__(self, const=None, spline=None, mirrored=False, coin=0.5, callback=None):
        self.const = const  # (payoff_A, payoff_B) for terminal classes
        self.spline = spline
        self.mirrored = mirrored
        self.coin = coin  # A's value when both players are broke
        self.callback = callback  # scalar fallback: (b_a, b_b) -> (payoff_A, payoff_B)

    @property
    def vectorized(self) -> bool:
        return self.callback is None

    def _value_a(self, b_a: float, b_b: float) -> float:
        total = b_a + b_b
        if total <= 0.0:
            return self.coin
        if self.mirrored:
            return 1.0 - self.spline.value(b_b / total)
        return self.spline.value(b_a / total)

    def payoff(self, player: int, b_a: float, b_b: float) -> float:
        if self.const is not None:
            return self.const[player]
        if self.callback is not None:
            return self.callback(b_a, b_b)[player]
        value_a = self._value_a(b_a, b_b)
        return value_a if player == 0 else 1.0 - value_a

    def payoff_vec(self, player: int, b_a: np.ndarray, b_b: np.ndarray) -> np.ndarray:
        if self.const is not None:
            return np.full(np.broadcast(b_a, b_b).shape, self.const[player], dtype=float)
        total = b_a + b_b
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(total > 0.0, (b_b if self.mirrored else b_a) / np.where(total > 0.0, total, 1.0), 0.0)
        value = self.spline.value_vec(ratio)
        if self.mirrored:
            value = 1.0 - value
        value = np.where(total > 0.0, value, self.coin)
        return value if player == 0 else 1.0 - value


# ---------------------------------------------------------------------------
# stage solves


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section search for the maximum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    dist = hi - lo
    if dist <= tol:
        mid = (lo + hi) / 2.0
        return mid, f(mid)
    steps = int(math.ceil(math.log(tol / dist) / math.log(invphi)))
    c = lo + invphi2 * dist
    d = lo + invphi * dist
    yc = f(c)
    yd = f(d)
    for _ in range(max(steps - 1, 0)):
        if yc > yd:
            hi = d
            d, yd = c, yc
            dist *= invphi
            c = lo + invphi2 * dist
            yc = f(c)
        else:
            lo = c
            c, yc = d, yd
            dist *= invphi
            d = lo + invphi * dist
            yd = f(d)
    if yc > yd:
        mid = (lo + d) / 2.0
    else:
        mid = (c + hi) / 2.0
    return mid, f(mid)


class _StageGame:
    """One battle with budget-dependent continuation values for both players."""

    def __init__(self, spec, played, budgets, branches, settings):
        self.spec = spec
        self.played = played
        self.budgets = budgets
        self.branches = branches  # (value if A wins, value if B wins)
        self.settings = settings
        self.alpha = spec.csf.alpha
        x = spec.values[played]
        self.proportional = tuple(b * x / spec.suffix_value(played) for b in budgets)

    def _spend_pair(self, player, own, opp):
        return (own, opp) if player == 0 else (opp, own)

    def value(self, player: int, own: float, opp: float) -> float:
        """Player's payoff from spending `own` against an opponent spend `opp`."""
        w_a, w_b = self._spend_pair(player, own, opp)
        if own == 0.0 and opp == 0.0:
            p_own = 0.5
        else:
            scores = (w_a**self.alpha, w_b**self.alpha)
            p_own = scores[player] / (scores[0] + scores[1])
        b_a = max(self.budgets[0] - w_a, 0.0)
        b_b = max(self.budgets[1] - w_b, 0.0)
        win = self.branches[player].payoff(player, b_a, b_b)
        lose = self.branches[1 - player].payoff(player, b_a, b_b)
        return p_own * win + (1.0 - p_own) * lose

    def _value_vec(self, player: int, own: np.ndarray, opp: float) -> np.ndarray:
        own_scores = own**self.alpha
        opp_score = opp**self.alpha
        denom = own_scores + opp_score
        p_own = np.where(denom > 0.0, own_scores / np.where(denom > 0.0, denom, 1.0), 0.5)
        if player == 0:
            b_a = np.maximum(self.budgets[0] - own, 0.0)
            b_b = max(self.budgets[1] - opp, 0.0)
        else:
            b_a = max(self.budgets[0] - opp, 0.0)
            b_b = np.maximum(self.budgets[1] - own, 0.0)
        win = self.branches[player].payoff_vec(player, b_a, b_b)
        lose = self.branches[1 - player].payoff_vec(player, b_a, b_b)
        return p_own * win + (1.0 - p_own) * lose

    def best_response(self, player: int, opp: float) -> BestResponseResult:
        budget = self.budgets[player]
        if budget <= 0.0:
            return BestResponseResult(0.0, self.value(player, 0.0, opp), False)
        grid = np.linspace(0.0, budget, self.settings.grid_points)
        if self.branches[0].vectorized and self.branches[1].vectorized:
            values = self._value_vec(player, grid, opp)
        else:
            values = np.array([self.value(player, w, opp) for w in grid])
        best = int(np.argmax(values))  # first maximum: smallest spend wins ties
        spread = float(values.max() - values.min())
        if spread <= 1e-12 * max(1.0, abs(float(values.max()))):
            prop = self.proportional[player]
            return BestResponseResult(prop, self.value(player, prop, opp), True)
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        w_star, v_star = _golden_max(
            lambda w: self.value(player, w, opp), lo, hi, self.settings.refine_tolerance
        )
        if values[best] >= v_star:
            w_star, v_star = float(grid[best]), float(values[best])
        return BestResponseResult(float(w_star), float(v_star), False)

    def _value_submatrix(self, box_a, box_b, points):
        """Player A's payoff on a spend grid over the given boxes."""
        grid_a = np.linspace(box_a[0], box_a[1], points)
        grid_b = np.linspace(box_b[0], box_b[1], points)
        if self.branches[0].vectorized and self.branches[1].vectorized:
            w_a = grid_a[:, None]
            w_b = grid_b[None, :]
            score_a = w_a**self.alpha
            score_b = w_b**self.alpha
            denom = score_a + score_b
            p_a = np.where(denom > 0.0, score_a / np.where(denom > 0.0, denom, 1.0), 0.5)
            b_a = np.maximum(self.budgets[0] - w_a, 0.0)
            b_b = np.maximum(self.budgets[1] - w_b, 0.0)
            b_a, b_b = np.broadcast_arrays(b_a, b_b)
            win = self.branches[0].payoff_vec(0, b_a, b_b)
            lose = self.branches[1].payoff_vec(0, b_a, b_b)
            values = p_a * win + (1.0 - p_a) * lose
        else:
            values = np.array(
                [[self.value(0, float(wa), float(wb)) for wb in grid_b] for wa in grid_a]
            )
        return grid_a, grid_b, values

    def saddle_bracket(self):
        """Grid minimax bounds on the zero-sum stage value (player A)."""
        points = self.settings.grid_points
        if not (self.branches[0].vectorized and self.branches[1].vectorized):
            points = min(points, 61)
        _, _, values = self._value_submatrix((0.0, self.budgets[0]), (0.0, self.budgets[1]), points)
        return float(values.min(axis=1).max()), float(values.max(axis=0).min())

    def _zoom_saddle(self):
        """Locate the zero-sum saddle by grid minimax on shrinking boxes.

        The best-response map can rotate around the saddle without
        contracting, so fixed-point iteration alone is not reliable; minimax
        over a full spend grid is, and zooming the box recovers precision.
        """
        vectorized = self.branches[0].vectorized and self.branches[1].vectorized
        points = 65 if vectorized else 17
        margin = 2
        box_a = (0.0, self.budgets[0])
        box_b = (0.0, self.budgets[1])
        w_a = w_b = 0.0
        for _ in range(16):
            grid_a, grid_b, values = self._value_submatrix(box_a, box_b, points)
            i = int(np.argmax(values.min(axis=1)))
            j = int(np.argmin(values.max(axis=0)))
            w_a, w_b = float(grid_a[i]), float(grid_b[j])
            step_a = (box_a[1] - box_a[0]) / (points - 1)
            step_b = (box_b[1] - box_b[0]) / (points - 1)
            box_a = (max(0.0, w_a - margin * step_a), min(self.budgets[0], w_a + margin * step_a))
            box_b = (max(0.0, w_b - margin * step_b), min(self.budgets[1], w_b + margin * step_b))
            if max(box_a[1] - box_a[0], box_b[1] - box_b[0]) <= self.settings.refine_tolerance:
                break
        return [w_a, w_b]

    def solve(self) -> StageSolution:
        """Stage equilibrium by iterated simultaneous best responses.

        Starts from the proportional point.  If that iteration stalls (the
        best-response map can rotate or jump between near-equal optima), the
        solve restarts from a zoomed grid-minimax saddle of the zero-sum stage
        and polishes from there; the returned residual is still the
        best-response improvement certificate.
        """
        try:
            return self._iterate([float(v) for v in self.proportional])
        except ConvergenceError:
            return self._iterate(self._zoom_saddle())

    def _iterate(self, start) -> StageSolution:
        """Damped best-response iteration from `start`.

        A step is accepted only if it meaningfully reduces the residual (the
        largest best-response payoff improvement); candidate steps try a
        ladder of step lengths and keep the best, which breaks best-response
        cycles.  Stops once the residual is inside tolerance and either the
        iterate has settled or no step helps any further.
        """
        settings = self.settings
        w = list(start)
        current = [self.value(0, w[0], w[1]), self.value(1, w[1], w[0])]
        br0 = self.best_response(0, w[1])
        br1 = self.best_response(1, w[0])
        residuals = []
        inside = 0  # consecutive iterations with the residual inside tolerance
        for iteration in range(1, settings.max_iterations + 1):
            flats = (br0.flat, br1.flat)
            residual = max(br0.value - current[0], br1.value - current[1], 0.0)
            residuals.append(residual)
            movement = max(abs(br0.allocation - w[0]), abs(br1.allocation - w[1]))
            inside = inside + 1 if residual <= settings.tolerance else 0
            # Prefer a settled iterate, but a persistent in-tolerance residual is
            # enough: stages where a best response jumps between two near-equal
            # optima never stop moving, yet any such point is an
            # epsilon-equilibrium with epsilon below tolerance.
            if inside and (movement <= settings.move_tolerance or inside >= 10):
                return StageSolution(tuple(w), residual, iteration, flats, tuple(residuals))
            # Damped steps toward the best responses.  Keep the step length that
            # shrinks the residual the most: the full step can rotate around the
            # fixed point with almost no contraction when the best-response
            # slopes multiply to about -1, while the half step contracts fast.
            best = None
            eta = 1.0
            for _ in range(8):
                cand = [
                    w[0] + eta * (br0.allocation - w[0]),
                    w[1] + eta * (br1.allocation - w[1]),
                ]
                cand_vals = [self.value(0, cand[0], cand[1]), self.value(1, cand[1], cand[0])]
                cand_br0 = self.best_response(0, cand[1])
                cand_br1 = self.best_response(1, cand[0])
                cand_res = max(cand_br0.value - cand_vals[0], cand_br1.value - cand_vals[1], 0.0)
                if best is None or cand_res < best[0]:
                    best = (cand_res, cand, cand_vals, cand_br0, cand_br1)
                if cand_res < residual * 0.7:
                    break
                eta /= 2.0
            # demand a meaningful decrease; jitter-sized gains count as a stall
            if best[0] < residual * (1.0 - 1e-6) - 1e-18:
                _, w, current, br0, br1 = best
            else:
                # numerical floor: no step reduces the residual any further
                if residual <= settings.tolerance:
                    return StageSolution(tuple(w), residual, iteration, flats, tuple(residuals))
                raise ConvergenceError(
                    f"stage solve stalled at residual {residual:.3e}",
                    allocations=tuple(w),
                    residual=residual,
                )
        raise ConvergenceError(
            f"stage solve did not converge in {settings.max_iterations} iterations "
            f"(residual {residuals[-1]:.3e})",
            allocations=tuple(w),
            residual=residuals[-1],
        )


# ---------------------------------------------------------------------------
# backward-induction value tables


class _ValueTables:
    """Equilibrium continuation values for a two-player win-probability contest."""

    def __init__(self, spec: ContestSpec, settings: SolverSettings):
        if spec.objective is not Objective.WIN_PROBABILITY:
            raise InputError("the backward solver handles win-probability contests")
        if spec.n != 2:
            raise InputError("the backward solver handles two-player contests")
        if spec.shocks:
            raise InputError(
                "the backward solver requires a fixed-budget contest; "
                "budget shocks break the budget-ratio reduction"
            )
        self.spec = spec
        self.settings = settings
        self.splines = {}  # (played, totals) -> _UniformSpline for player A's value
        self.bracket_gap = 0.0  # worst minimax gap accepted at a degenerate node
        self._coin = {}
        self._levels = self._reachable_classes()
        for played in range(spec.m - 1, 0, -1):
            for totals in self._levels.get(played, ()):
                if self._lookup(played, totals) is None:
                    self._build_class(played, totals)

    @staticmethod
    def _key(totals) -> tuple:
        return (round(totals[0], 9), round(totals[1], 9))

    def _reachable_classes(self) -> dict:
        spec = self.spec
        levels = {0: [(0.0, 0.0)]}
        frontier = [(0.0, 0.0)]
        for played in range(spec.m - 1):
            value = spec.values[played]
            nxt = set()
            for v_a, v_b in frontier:
                for totals in ((v_a + value, v_b), (v_a, v_b + value)):
                    if _terminal_value_from_totals(spec, played + 1, totals) is None:
                        nxt.add(self._key(totals))
            frontier = sorted(nxt)
            levels[played + 1] = frontier
        return levels

    def _lookup(self, played, totals):
        key = self._key(totals)
        spline = self.splines.get((played, key))
        if spline is not None:
            return spline, False
        mirror = self.splines.get((played, (key[1], key[0])))
        if mirror is not None:
            return mirror, True
        return None

    def coin_value(self, played, totals) -> float:
        """Player A's value when both players are broke: every battle is a coin flip."""
        key = (played, self._key(totals))
        if key in self._coin:
            return self._coin[key]
        terminal = _terminal_value_from_totals(self.spec, played, totals)
        if terminal is not None:
            value = terminal[0]
        else:
            x = self.spec.values[played]
            value = 0.5 * self.coin_value(played + 1, (totals[0] + x, totals[1])) + 0.5 * self.coin_value(
                played + 1, (totals[0], totals[1] + x)
            )
        self._coin[key] = value
        return value

    def branch(self, played, totals) -> _BranchValue:
        """Value object for the class reached after `played` battles."""
        terminal = _terminal_value_from_totals(self.spec, played, totals)
        if terminal is not None:
            return _BranchValue(const=terminal)
        found = self._lookup(played, totals)
        if found is None:
            raise ContractError(f"no value table for battle {played + 1} standings {totals}")
        spline, mirrored = found
        return _BranchValue(spline=spline, mirrored=mirrored, coin=self.coin_value(played, totals))

    def stage_game(self, played, totals, budgets) -> _StageGame:
        x = self.spec.values[played]
        branches = (
            self.branch(played + 1, (totals[0] + x, totals[1])),
            self.branch(played + 1, (totals[0], totals[1] + x)),
        )
        return _StageGame(self.spec, played, budgets, branches, self.settings)

    def _build_class(self, played, totals) -> None:
        nodes = np.linspace(0.0, 1.0, self.settings.value_nodes)
        values = np.empty(len(nodes))
        for j, r in enumerate(nodes):
            game = self.stage_game(played, totals, (float(r), float(1.0 - r)))
            try:
                solution = game.solve()
                values[j] = game.value(0, solution.allocations[0], solution.allocations[1])
            except ConvergenceError:
                # No settled pure stage point at this budget ratio; the
                # zero-sum stage value is still bracketed by grid minimax,
                # and the bracket midpoint is accurate enough for the table.
                low, high = game.saddle_bracket()
                gap = high - low
                if gap > 1e-3:
                    raise
                self.bracket_gap = max(self.bracket_gap, gap)
                values[j] = (low + high) / 2.0
        self.splines[(played, self._key(totals))] = _UniformSpline(values)


@lru_cache(maxsize=8)
def _tables_for(spec: ContestSpec, settings: SolverSettings) -> _ValueTables:
    return _ValueTables(spec, settings)


# ---------------------------------------------------------------------------
# public solver operations


def _continuation_branches(spec, history, continuation):
    """Wrap a user continuation (successor History -> payoff vector) as branches."""

    def make(winner):
        def callback(b_a, b_b):
            budgets = (
                remaining_budget(spec, history, 0),
                remaining_budget(spec, history, 1),
            )
            allocations = (budgets[0] - b_a, budgets[1] - b_b)
            successor = history.extend(allocations, winner)
            return tuple(continuation(successor))

        return _BranchValue(callback=callback)

    return (make(0), make(1))


def _stage_game_at(spec, history, continuation, settings) -> _StageGame:
    if spec.n != 2:
        raise InputError("stage solves are available for two-player contests")
    if spec.objective is not Objective.WIN_PROBABILITY:
        raise InputError("stage solves apply to win-probability contests")
    if terminal_status(spec, history).terminal:
        raise ContractError("stage solve requested at a terminal history")
    played = len(history)
    budgets = (remaining_budget(spec, history, 0), remaining_budget(spec, history, 1))
    if continuation is None:
        if spec.m > 5:
            raise InputError("built-in continuation tables are limited to five battles")
        tables = _tables_for(spec, settings)
        totals = history.won_values(spec)
        return tables.stage_game(played, totals, budgets)
    branches = _continuation_branches(spec, history, continuation)
    return _StageGame(spec, played, budgets, branches, settings)


def best_response(
    spec: ContestSpec,
    history: History,
    player: int,
    opponents_allocation,
    continuation=None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> BestResponseResult:
    """Best spend for one player against a fixed opponent spend at this history.

    Located by a coarse grid scan plus golden-section refinement; a flat
    objective returns the proportional point, flagged.
    """
    game = _stage_game_at(spec, history, continuation, settings)
    if isinstance(opponents_allocation, (int, float)):
        opp = float(opponents_allocation)
    else:
        values = [float(v) for v in opponents_allocation]
        if len(values) != 1:
            raise InputError("two-player contests take a single opponent allocation")
        opp = values[0]
    if not 0 <= player < 2:
        raise InputError(f"player index {player} out of range")
    return game.best_response(player, opp)


def stage_equilibrium(
    spec: ContestSpec,
    history: History,
    continuation=None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> StageSolution:
    """Mutual best responses for one battle, from the proportional starting point."""
    game = _stage_game_at(spec, history, continuation, settings)
    solution = game.solve()
    return StageSolution(
        solution.allocations,
        solution.residual,
        solution.iterations,
        solution.flat,
        solution.residual_history,
        history=history,
    )


def solve_backward(
    spec: ContestSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> BackwardSolveResult:
    """Backward-induction solve of a two-player win-probability contest.

    Returns a tabular strategy profile covering every winner schedule
    reachable under mutual equilibrium play, plus the deterministic on-path
    allocation trace.  The trace follows the path where the currently trailing
    player wins each battle, which keeps the contest alive as long as
    possible.
    """
    if spec.m > 5:
        raise InputError("solve_backward is limited to five battles")
    tables = _tables_for(spec, settings)
    tabulars = tuple(Tabular(player=i, budget_step=settings.budget_step) for i in range(2))
    solutions = {}

    def descend(played, winners, totals, budgets):
        if _terminal_value_from_totals(spec, played, totals) is not None or played == spec.m:
            return
        game = tables.stage_game(played, totals, budgets)
        solution = game.solve()
        solutions[winners] = solution
        for i in range(2):
            tabulars[i].record(played + 1, winners, budgets, solution.allocations[i])
        value = spec.values[played]
        spends = solution.allocations
        next_budgets = (max(budgets[0] - spends[0], 0.0), max(budgets[1] - spends[1], 0.0))
        descend(played + 1, winners + (0,), (totals[0] + value, totals[1]), next_budgets)
        descend(played + 1, winners + (1,), (totals[0], totals[1] + value), next_budgets)

    descend(0, (), (0.0, 0.0), tuple(spec.budgets))

    trace = []
    trace_winners = []
    winners = ()
    totals = (0.0, 0.0)
    while winners in solutions:
        solution = solutions[winners]
        trace.append(solution.allocations)
        trailing = 0 if totals[0] <= totals[1] else 1
        value = spec.values[len(winners)]
        totals = (totals[0] + value, totals[1]) if trailing == 0 else (totals[0], totals[1] + value)
        trace_winners.append(trailing)
        winners = winners + (trailing,)

    profile = StrategyProfile(tabulars)
    return BackwardSolveResult(profile, tuple(trace), solutions, tuple(trace_winners))


# ---------------------------------------------------------------------------
# proportionality checking (any player count, any objective)


def _sampled_histories(spec: ContestSpec, plan: SamplingPlan):
    for history in plan.histories:
        yield history
    depth_cap = plan.depth_cap if plan.depth_cap is not None else spec.m - 1
    profile = proportional_profile(spec.n)
    rng = random.Random(plan.seed)
    level = [History()]
    depth = 0
    while level and depth <= depth_cap:
        for history in level:
            yield history
        if depth == depth_cap:
            break
        nxt = []
        for history in level:
            if terminal_status(spec, history).terminal:
                continue
            allocations = allocations_at(profile, spec, history)
            probs = _csf_distribution(allocations, spec.csf)
            for winner, p in enumerate(probs):
                if p > 0.0:
                    successor = history.extend(allocations, winner)
                    if not terminal_status(spec, successor).terminal:
                        nxt.append(successor)
        if plan.max_per_depth is not None and len(nxt) > plan.max_per_depth:
            nxt = [nxt[i] for i in sorted(rng.sample(range(len(nxt)), plan.max_per_depth))]
        level = nxt
        depth += 1


def check_proportionality(
    spec: ContestSpec, plan: SamplingPlan = SamplingPlan()
) -> ProportionalityVerdict:
    """Is the proportional profile robust to one-shot deviations?

    Sweeps the feasible deviation grid for every player at every sampled
    history; returns Fails on the first gain above tolerance, otherwise Holds
    with the largest gain observed.
    """
    checked = 0
    max_gain = -math.inf
    for history in _sampled_histories(spec, plan):
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
    if max_gain == -math.inf:
        max_gain = 0.0
    return ProportionalityVerdict(True, checked, max_gain, None)
