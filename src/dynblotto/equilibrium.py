"""Numerical equilibrium analysis.

Two engines live here.  For two-player win-probability contests, a backward
induction solver computes stage equilibria.  Such a stage is zero-sum (the
two win probabilities add up to one), so its equilibrium is a saddle point
of player A's payoff over the two spends, and one search finds it: grid
minimax on shrinking boxes, where A takes the argmax of the row minima and
B the argmin of the column maxima.  The search runs batched over (node x
spend_A x spend_B).  Each point it returns carries a best-response
certificate, the largest payoff gain either player finds by a scan over the
whole budget refined by the same search with the opponent's spend pinned.

Continuation values come from per-stage value tables.  A continuation value
depends only on the battle index, the standings (won-value totals), and the
two remaining budgets; since the contest success function is homogeneous, it
depends on the budgets only through their ratio, so each (battle, standings)
class stores one cubic spline of the equilibrium value over the budget
ratio, and all budget-ratio nodes of a class are solved in one batch.

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
from typing import Optional, Sequence

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
    _proportional_spend,
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
    grid_points: int = 200  # spends per best-response scan over the whole budget
    tolerance: float = 1e-6  # largest best-response gain accepted on the solved path
    budget_step: float = 0.25  # tabular strategy budget grid
    value_nodes: int = 321  # budget-ratio nodes per continuation value table
    refine_tolerance: float = 1e-6  # spend box width at which the saddle search stops


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
    iterations: int  # rounds of the shrinking-box saddle search
    flat: tuple  # per player: payoff flat in the own spend, so proportional is played
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
    """Player A's payoff at one successor class, as a function of the budgets."""

    def __init__(self, const=None, spline=None, mirrored=False, coin=0.5, callback=None):
        self.const = const  # (payoff_A, payoff_B) for terminal classes
        self.spline = spline
        self.mirrored = mirrored
        self.coin = coin  # A's value when both players are broke
        self.callback = callback  # user continuation: (b_a, b_b) -> (payoff_A, payoff_B)

    def payoff_vec(self, b_a: np.ndarray, b_b: np.ndarray) -> np.ndarray:
        if self.const is not None:
            return np.full(np.shape(b_a), self.const[0], dtype=float)
        if self.callback is not None:
            pairs = zip(np.ravel(b_a).tolist(), np.ravel(b_b).tolist())
            return np.reshape([self.callback(x, y)[0] for x, y in pairs], np.shape(b_a))
        total = b_a + b_b
        own = b_b if self.mirrored else b_a
        ratio = np.divide(own, total, out=np.zeros_like(total), where=total > 0.0)
        value = self.spline.value_vec(ratio)
        if self.mirrored:
            value = 1.0 - value
        return np.where(total > 0.0, value, self.coin)


# ---------------------------------------------------------------------------
# stage solves

# The saddle search's first round scans each player's whole budget on a
# coarse grid; each later round scans a box of MARGIN grid steps either side
# of the previous round's spend.  Table nodes are solved in chunks of at most
# NODE_CHUNK, which bounds the (node x spend_A x spend_B) payoff array.
FIRST_POINTS = 33
ZOOM_POINTS = 17
MARGIN = 2
NODE_CHUNK = 40
BRACKET_BOUND = 1e-3  # largest minimax bracket gap accepted at a table node
FLAT = 1e-12  # relative payoff spread below which a best-response scan is flat


def _grid(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """`points` evenly spaced spends from lo to hi, both exact, one row per node."""
    t = np.linspace(0.0, 1.0, points)
    return lo[:, None] * (1.0 - t) + hi[:, None] * t


@dataclass(frozen=True)
class _StagePoints:
    """Saddle-search results at every node of a stage batch."""

    spends: tuple  # (A's spends, B's spends)
    value: np.ndarray  # A's payoff at the spends
    gains: tuple  # each player's best-response improvement at the spends
    flats: tuple  # each player's scan was flat and the proportional spend is played
    rounds: int


class _StageGame:
    """One battle of one class at a batch of budget pairs (nodes).

    A two-player win-probability stage is zero-sum: B's payoff is one minus
    A's.  So everything is computed on A's payoff over the two spends, with
    arrays that lead with the node axis.
    """

    def __init__(self, spec, played, totals, budgets, branches, settings):
        self.played = played
        self.totals = totals
        self.budgets = tuple(np.atleast_1d(np.asarray(b, dtype=float)) for b in budgets)
        self.branches = branches  # (A's value if A wins, A's value if B wins)
        self.settings = settings
        self.alpha = spec.csf.alpha
        self.proportional = tuple(_proportional_spend(spec, played, b) for b in self.budgets)
        self._nodes = np.arange(len(self.budgets[0]))

    def where(self) -> str:
        a, b = self.totals
        return f"stage solve at battle {self.played + 1}, standings {a:.6g}-{b:.6g}"

    def payoff(self, w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
        """Player A's payoff; w_a and w_b have equal rank and broadcast together."""
        shape = (-1,) + (1,) * (np.ndim(w_a) - 1)
        b_a = np.maximum(self.budgets[0].reshape(shape) - w_a, 0.0)
        b_b = np.maximum(self.budgets[1].reshape(shape) - w_b, 0.0)
        b_a, b_b = np.broadcast_arrays(b_a, b_b)
        win = self.branches[0].payoff_vec(b_a, b_b)
        lose = self.branches[1].payoff_vec(b_a, b_b)
        score_a = w_a**self.alpha
        denom = score_a + w_b**self.alpha
        p_a = np.divide(score_a, denom, out=np.full(denom.shape, 0.5), where=denom > 0.0)
        return p_a * win + (1.0 - p_a) * lose

    def _own_payoff(self, player, own, opp):
        return self.payoff(own, opp) if player == 0 else 1.0 - self.payoff(opp, own)

    def _zoom(self, boxes, points):
        """Grid minimax on shrinking boxes; returns (spends, rounds).

        `boxes` holds a (lo, hi) array pair per player.  Each round A takes the
        argmax of the row minima of A's payoff and B the argmin of the column
        maxima, the first one on ties, so ties go to the smallest spend.  The
        boxes then shrink to MARGIN grid steps around those spends, until they
        are narrower than refine_tolerance.  A zero-width box pins a spend.
        """
        rounds = 0
        while True:
            rounds += 1
            grids = [_grid(lo, hi, points if np.any(hi > lo) else 1) for lo, hi in boxes]
            values = self.payoff(grids[0][:, :, None], grids[1][:, None, :])
            picks = (values.min(axis=2).argmax(axis=1), values.max(axis=1).argmin(axis=1))
            spends = [grid[self._nodes, pick] for grid, pick in zip(grids, picks)]
            steps = [(hi - lo) / (points - 1) for lo, hi in boxes]
            widest = 2 * MARGIN * max(float(np.max(step)) for step in steps)
            if widest <= self.settings.refine_tolerance:
                return spends, rounds
            boxes = [
                (np.maximum(w - MARGIN * step, 0.0), np.minimum(w + MARGIN * step, budget))
                for w, step, budget in zip(spends, steps, self.budgets)
            ]
            points = ZOOM_POINTS

    def best_responses(self, player: int, opp: np.ndarray):
        """Each node's best spend for `player` against the opponent spends `opp`.

        A scan of grid_points spends over the whole budget, then the saddle
        search on the grid steps either side of the scan's best, with the
        opponent's box pinned at `opp`.  A flat scan plays the proportional
        spend.  Returns (spends, the player's payoffs, flat flags).
        """
        budget = self.budgets[player]
        grid = _grid(np.zeros_like(budget), budget, self.settings.grid_points)
        values = self._own_payoff(player, grid[:, :, None], opp[:, None, None])[:, :, 0]
        best = values.argmax(axis=1)  # first maximum: smallest spend wins ties
        top = values[self._nodes, best]
        flat = (top - values.min(axis=1) <= FLAT * np.maximum(1.0, np.abs(top))) & (budget > 0.0)
        last = grid.shape[1] - 1
        boxes = [(opp, opp), (opp, opp)]
        boxes[player] = (
            grid[self._nodes, np.maximum(best - 1, 0)],
            grid[self._nodes, np.minimum(best + 1, last)],
        )
        spend = self._zoom(boxes, ZOOM_POINTS)[0][player]
        spend = np.where(flat, self.proportional[player], spend)
        return spend, self._own_payoff(player, spend, opp), flat

    def _certificate(self, spends):
        return self.best_responses(0, spends[1]), self.best_responses(1, spends[0])

    def solve(self) -> _StagePoints:
        """Saddle points of every node, with their best-response certificates."""
        spends, rounds = self._zoom([(np.zeros_like(b), b) for b in self.budgets], FIRST_POINTS)
        responses = self._certificate(spends)
        flats = tuple(response[2] for response in responses)
        if any(flat.any() for flat in flats):
            # a player whose payoff is flat in the own spend plays proportional
            spends = [np.where(f, p, w) for f, p, w in zip(flats, self.proportional, spends)]
            responses = self._certificate(spends)
        value = self.payoff(*spends)
        gains = (
            np.maximum(responses[0][1] - value, 0.0),
            np.maximum(responses[1][1] - (1.0 - value), 0.0),
        )
        return _StagePoints(tuple(spends), value, gains, flats, rounds)


def _path_solution(game: _StageGame, history: Optional[History] = None) -> StageSolution:
    """The stage equilibrium of a one-node game; its residual must meet the tolerance."""
    points = game.solve()
    allocations = tuple(float(w[0]) for w in points.spends)
    residual = float(max(gain[0] for gain in points.gains))
    if residual > game.settings.tolerance:
        raise ConvergenceError(
            f"{game.where()}: best-response residual {residual:.3e} "
            f"above the tolerance {game.settings.tolerance:.1e}",
            allocations=allocations,
            residual=residual,
        )
    flats = tuple(bool(flat[0]) for flat in points.flats)
    return StageSolution(allocations, residual, points.rounds, flats, history)


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
        return _StageGame(self.spec, played, totals, budgets, branches, self.settings)

    def _build_class(self, played, totals) -> None:
        nodes = np.linspace(0.0, 1.0, self.settings.value_nodes)
        values = []
        for shares in np.array_split(nodes, -(-len(nodes) // NODE_CHUNK)):
            game = self.stage_game(played, totals, (shares, 1.0 - shares))
            points = game.solve()
            # The stage value lies in [value - B's gain, value + A's gain]: a
            # wide bracket means the stage has no pure saddle at that node.
            gap = points.gains[0] + points.gains[1]
            worst = int(np.argmax(gap))
            if gap[worst] > BRACKET_BOUND:
                raise ConvergenceError(
                    f"{game.where()}: minimax bracket gap {gap[worst]:.3e} above "
                    f"{BRACKET_BOUND:.0e} at A's budget share {shares[worst]:.4g}",
                    allocations=tuple(float(w[worst]) for w in points.spends),
                    residual=float(gap[worst]),
                )
            values.append(points.value + (points.gains[0] - points.gains[1]) / 2.0)
        self.splines[(played, self._key(totals))] = _UniformSpline(np.concatenate(values))


@lru_cache(maxsize=8)
def _tables_for(spec: ContestSpec, settings: SolverSettings) -> _ValueTables:
    return _ValueTables(spec, settings)


# ---------------------------------------------------------------------------
# public solver operations


def _continuation_branches(spec, history, budgets, continuation):
    """Wrap a user continuation (successor History -> payoff vector) as branches."""

    def make(winner):
        def callback(b_a, b_b):
            allocations = (budgets[0] - b_a, budgets[1] - b_b)
            return tuple(continuation(history.extend(allocations, winner)))

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
    totals = history.won_values(spec)
    if continuation is None:
        if spec.m > 5:
            raise InputError("built-in continuation tables are limited to five battles")
        return _tables_for(spec, settings).stage_game(played, totals, budgets)
    branches = _continuation_branches(spec, history, budgets, continuation)
    return _StageGame(spec, played, totals, budgets, branches, settings)


def best_response(
    spec: ContestSpec,
    history: History,
    player: int,
    opponents_allocation,
    continuation=None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> BestResponseResult:
    """Best spend for one player against a fixed opponent spend at this history.

    A scan of `grid_points` spends over the player's budget, refined by the
    stage's saddle search with the opponent's spend pinned; ties go to the
    smallest spend.  A flat objective returns the proportional point, flagged.
    A `continuation` maps a successor History to the payoff vector; the
    stage reads player A's entry, since the two payoffs add up to one.
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
    spend, value, flat = game.best_responses(player, np.array([opp]))
    return BestResponseResult(float(spend[0]), float(value[0]), bool(flat[0]))


def stage_equilibrium(
    spec: ContestSpec,
    history: History,
    continuation=None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> StageSolution:
    """Equilibrium spends for one battle: the saddle point of the zero-sum stage.

    Found by grid minimax on shrinking boxes over both spends.  A player
    whose payoff is flat in the own spend plays proportional.  The residual
    is the largest best-response gain at the returned point; a residual above
    `settings.tolerance` raises ConvergenceError naming the battle and the
    standings.  `continuation` is read as in `best_response`.
    """
    return _path_solution(_stage_game_at(spec, history, continuation, settings), history)


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
        solution = _path_solution(tables.stage_game(played, totals, budgets))
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
