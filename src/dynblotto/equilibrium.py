"""Numerical equilibrium analysis.

Two engines live here.  For two-player win-probability contests, a backward
induction solver computes stage equilibria.  Such a stage is zero-sum (the
two win probabilities add up to one), so its equilibrium is a saddle point
of player A's payoff over the two spends, and one search finds it: grid
minimax on shrinking boxes, where A takes the argmax of the row minima and
B the argmin of the column maxima.  The search runs batched over (row x
spend_A x spend_B), a row being one class at one budget pair, and each row
stops once its own box is narrow enough, so a row's result does not depend
on the rows it shares a batch with.  Each point it returns carries a
best-response certificate, the largest payoff gain either player finds by a
scan over the whole budget refined by the same search with the opponent's
spend pinned.

Continuation values come from per-stage value tables.  A continuation value
depends only on the battle index, the standings (won-value totals), and the
two remaining budgets; since the contest success function is homogeneous, it
depends on the budgets only through their ratio, so a (battle, standings)
class stores one cubic spline of the equilibrium value over the success
function's own share q = b_a^alpha / (b_a^alpha + b_b^alpha), on nodes graded
toward both ends.  So a successor class's value is one of two things: a line
in q, lose + (win - lose) q, flat when the class is terminal and sloped when
its battle settles the contest (both then go all in), or a spline read at A's
share, or at B's share for a class that mirrors one with swapped standings.
Equal standings are their own mirror, searched at shares up to 1/2.  A
level's classes read only the next level's splines, so each level is searched
as one batch of (class, node) rows, in blocks of at most ROW_BLOCK rows.  The
solver then walks the on-path states depth by depth, one batch of stage
solves per depth.
Tables are cached per battle values, CSF, objective and settings, never per
budgets: a budget sweep or mirrored pair builds them once.

For arbitrary contests, `check_proportionality` sweeps one-shot deviations
from proportional play over sampled histories and reports the first
profitable one.  It relies only on the exact evaluator, never on the solver,
so the two engines stay independent checks of each other.
"""

from __future__ import annotations

import copy
import logging
import math
import numbers
import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    BUDGET_TOLERANCE,
    ContestSpec,
    ContractError,
    ConvergenceError,
    History,
    InputError,
    Objective,
    _distinct_rows,
    _formal_budgets,
    _payoffs,
    _proportional_spend,
    _remaining_budgets,
    _state,
    _statuses,
    remaining_budget,
    terminal_status,
)
from .evaluation import PART, DeviationReport, _closed_forms, _offset_grids, _sweeps
from .strategies import (
    StrategyProfile,
    Tabular,
    _every_winner,
    _levels,
    _standings_key,
    history_from_winners,
    proportional_profile,
)

_log = logging.getLogger("dynblotto")


@dataclass(frozen=True)
class SolverSettings:
    """Settings of the backward solver.  A field of the wrong type or range
    raises InputError naming it."""

    grid_points: int = 200  # spends per best-response scan over the whole budget
    tolerance: float = 1e-6  # largest best-response gain accepted on the solved path

    def __post_init__(self):
        points, tolerance = self.grid_points, self.tolerance
        if isinstance(points, bool) or not (isinstance(points, numbers.Integral) and points >= 2):
            raise InputError(f"solver.grid_points must be an integer of at least 2, got {points!r}")
        if not (isinstance(tolerance, numbers.Real) and 0 < tolerance < math.inf):  # not nan
            raise InputError(
                f"solver.tolerance must be a positive finite number, got {tolerance!r}")


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


@dataclass(frozen=True)
class SamplingPlan:
    """Which histories and deviations check_proportionality sweeps.

    User-supplied histories are checked first (so a known counterexample is
    the one reported), then all winner sequences reachable under proportional
    play, breadth-first through battle m - 1, subsampled per depth when a
    level exceeds max_per_depth.  A field of the wrong type or range raises
    InputError naming it.
    """

    max_per_depth: Optional[int] = None
    histories: tuple = ()
    delta_points: int = 21
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        def refuse(name, what):
            raise InputError(f"sampling plan {name} must be {what}, got {getattr(self, name)!r}")

        if self.max_per_depth is not None and not _count(self.max_per_depth):
            refuse("max_per_depth", "None or a nonnegative integer")
        if not _count(self.delta_points):
            refuse("delta_points", "a nonnegative integer")
        if not (isinstance(self.tolerance, numbers.Real) and self.tolerance >= 0):  # not nan
            refuse("tolerance", "a nonnegative number")
        if not (isinstance(self.histories, Sequence)
                and all(isinstance(h, History) for h in self.histories)):
            refuse("histories", "a sequence of History objects")
        if not isinstance(self.seed, numbers.Integral):
            refuse("seed", "an integer")


def _count(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 0


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
# cubic-spline value tables over the success-function share

# A value table holds a class's value at VALUE_NODES shares q of A's
# success-function score, q = b_a^alpha / (b_a^alpha + b_b^alpha): a decisive
# class is linear in q, and the others are smooth in it too.  The nodes,
# (1 - cos(pi i / (VALUE_NODES - 1))) / 2, crowd toward q = 0 and q = 1, where
# the value bends most (de Boor, A Practical Guide to Splines, 1978).  The
# second half mirrors the first, node VALUE_NODES - 1 - i at exactly 1 minus
# node i, so a class with equal standings mirrors node i onto that node.
VALUE_NODES = 81
_HALF = (1.0 - np.cos(np.pi * np.arange(VALUE_NODES // 2) / (VALUE_NODES - 1))) / 2.0
_NODES = np.concatenate((_HALF, [0.5], 1.0 - _HALF[::-1]))
_STEPS = np.diff(_NODES)
# the natural spline's tridiagonal system for its inner second derivatives
_CURVATURE = (np.diag(2.0 * (_STEPS[:-1] + _STEPS[1:]))
              + np.diag(_STEPS[1:-1], 1) + np.diag(_STEPS[1:-1], -1))
_INDEX_SCALE = (VALUE_NODES - 1) / np.pi  # arccos(1 - 2 q) * this is q's node index


def _node_budgets(alpha: float, nodes=slice(None)) -> tuple:
    """Budgets (q^(1/alpha), (1 - q)^(1/alpha)) at the table nodes, with 1 - q
    read off the mirrored node, so node VALUE_NODES - 1 - i swaps node i's."""
    return _NODES[nodes] ** (1.0 / alpha), _NODES[::-1][nodes] ** (1.0 / alpha)


class _Spline:
    """Natural cubic spline over A's share q in [0, 1], on the table nodes."""

    def __init__(self, ys: Sequence[float]):
        ys = np.asarray(ys, dtype=float)
        slopes = np.diff(ys) / _STEPS
        m = np.zeros(VALUE_NODES)  # second derivatives, 0 at both ends
        m[1:-1] = np.linalg.solve(_CURVATURE, 6.0 * np.diff(slopes))
        self.a = ys[:-1].copy()
        self.b = slopes - _STEPS * (2 * m[:-1] + m[1:]) / 6.0
        self.c = m[:-1] / 2.0
        self.d = np.diff(m) / (6.0 * _STEPS)

    def value_vec(self, qs: np.ndarray) -> np.ndarray:
        """The spline at shares qs in [0, 1]; each finds its interval in O(1)."""
        return _spline_values((self.a, self.b, self.c, self.d), None, np.array(qs, dtype=float))


def _spline_values(coefficients, base, qs: np.ndarray) -> np.ndarray:
    """Stacked splines at shares qs, which are overwritten.  Each coefficient
    array (a, b, c, d) holds VALUE_NODES - 1 intervals per spline; `base` is
    each row's offset into them, broadcast against qs, or None for one spline."""
    idx = np.multiply(qs, -2.0)  # 1 - 2 q, bit for bit, in place
    idx += 1.0
    np.arccos(idx, out=idx)
    idx *= _INDEX_SCALE
    idx = idx.astype(int)
    np.minimum(idx, VALUE_NODES - 2, out=idx)
    s = np.subtract(qs, np.take(_NODES, idx), out=qs)
    if base is not None:
        idx += base
    # Horner's rule in place: ((d * s + c) * s + b) * s + a
    a, b, c, d = coefficients
    value = np.take(d, idx)
    term = np.empty_like(value)
    for coefficient in (c, b, a):
        value *= s
        value += np.take(coefficient, idx, out=term, mode="clip")  # idx lies in range
    return value


@lru_cache(maxsize=4096)  # the solver asks about each class many times
def _terminal_value_from_totals(spec: ContestSpec, played: int, totals: tuple) -> Optional[tuple]:
    """Player payoffs if the class (battle count, totals) is terminal, else None."""
    standings = np.array([totals], dtype=float)
    status = _statuses(spec, played, standings)
    return None if status is None else tuple(_payoffs(spec, standings, status[1])[0].tolist())


def _safe_sum(x: np.ndarray, y: np.ndarray) -> tuple:
    """x + y for x, y >= 0 as a denominator, 1 where it is 0, and a mask of those
    cells or None.  The sum is 0 only where both are, so the operands, which may
    be broadcast against each other, are searched for zeros first."""
    total = x + y
    if not ((x <= 0.0).any() and (y <= 0.0).any()):
        return total, None
    zero = total <= 0.0
    if not zero.any():
        return total, None
    total[zero] = 1.0
    return total, zero


def _share(x: np.ndarray, split: tuple) -> np.ndarray:
    """x / (x + y) for scores x, y >= 0 and split = _safe_sum(x, y), and 0.5
    where both are 0: A's chance to win."""
    total, idle = split
    share = x / total
    if idle is not None:
        share[idle] = 0.5  # neither player scores: a coin flip
    return share


@dataclass(frozen=True)
class _ClassValue:
    """Player A's payoff at one class: a line in A's share q, or a spline over q."""

    linear: Optional[tuple] = None  # (A's value if A wins, if B wins): flat when terminal
    spline: Optional[_Spline] = None
    mirrored: bool = False  # reads the spline at B's share: the class with swapped standings
    coin: float = 0.5  # A's value when both players are broke


class _BranchValue:
    """Player A's payoff at each row's successor class, as a function of the budgets.

    `classes` holds `_ClassValue`s and `owner` each row's index into them;
    without an owner every row reads classes[0], at any array shape.  Rows
    fall into at most two groups, lines and splines, and a group is valued
    on its own rows from per-row arrays: a line's two ends, or an offset into
    the classes' spline coefficients, stacked, a mirror flag and a coin.  A
    user continuation `callback`, (b_a, b_b) -> (payoff_A, payoff_B), stands
    in for the classes.
    """

    def __init__(self, classes=(), owner=None, callback=None):
        self.classes, self.owner, self.callback = tuple(classes), owner, callback
        self.groups = []
        if callback is not None:
            return
        count = len(self.classes)
        kinds, mirrored = np.zeros(count, bool), np.zeros(count, bool)  # spline classes, mirrored
        ends, offsets, coins = np.zeros((count, 2)), np.zeros(count, int), np.full(count, 0.5)
        slots = {}  # id(spline) -> (its slot in the stacked coefficients, spline)
        for i, value in enumerate(self.classes):
            if value.linear is not None:
                ends[i] = value.linear
            else:
                slot = slots.setdefault(id(value.spline), (len(slots), value.spline))[0]
                offsets[i], coins[i] = slot * (VALUE_NODES - 1), value.coin
                kinds[i], mirrored[i] = True, value.mirrored
        splines = [spline for _, spline in slots.values()]
        self._coefficients = tuple(np.concatenate([getattr(s, f) for s in splines])
                                   for f in "abcd") if splines else None
        self._data = kinds, ends, offsets if len(splines) > 1 else None, mirrored, coins
        self._group()

    def _group(self) -> None:
        """Split the rows into at most two groups, lines then splines, each as
        (rows, whether a spline, per-row data)."""
        kinds, ends, offsets, mirrored, coins = self._data
        owner = np.zeros(1, int) if self.owner is None else self.owner
        self.groups = []
        for spline in (False, True):
            rows = np.flatnonzero(kinds[owner] == spline)
            if rows.size:
                of = owner[rows]
                rows = slice(None) if rows.size == owner.size else rows  # no gather, no scatter
                if not spline:  # the line's ends, and whether every row's is flat
                    data = (ends[of, 0], ends[of, 1], np.array_equal(ends[of, 0], ends[of, 1]))
                else:
                    flip = mirrored[of]  # a bool when every row reads the same side
                    flip = flip if flip.any() != flip.all() else bool(flip[0])
                    data = (None if offsets is None else offsets[of], flip, coins[of])
                self.groups.append((rows, spline, data))

    def take(self, rows) -> "_BranchValue":
        """The branch on a subset of its rows."""
        if self.owner is None:
            return self
        taken = copy.copy(self)
        taken.owner = self.owner[rows]
        taken._group()
        return taken

    @property
    def constant(self) -> Optional[np.ndarray]:
        """A's payoff per row (or one for all) if every row's line is flat, else None."""
        if len(self.groups) == 1 and not self.groups[0][1] and self.groups[0][2][2]:
            return self.groups[0][2][1]
        return None

    def payoff_vec(self, score_a: np.ndarray, score_b: np.ndarray, split: tuple, budgets=None):
        """A's payoff at the budgets left, leading with the row axis.

        score_a, score_b are the budgets' success-function scores b^alpha and
        split = _safe_sum(score_a, score_b), so every branch but a user
        continuation, which reads the budgets themselves, is a function of
        A's share q = score_a / (score_a + score_b).
        """
        if self.callback is not None:
            b_a, b_b = np.broadcast_arrays(*budgets)
            pairs = zip(np.ravel(b_a).tolist(), np.ravel(b_b).tolist())
            return np.reshape([self.callback(x, y)[0] for x, y in pairs], np.shape(b_a))
        total, broke = split
        if len(self.groups) == 1:  # every row of one kind: no gather, no scatter
            return self._value(*self.groups[0][1:], score_a, score_b, total, broke)
        value = np.empty(np.shape(total))
        for rows, spline, data in self.groups:
            value[rows] = self._value(spline, data, score_a[rows], score_b[rows], total[rows],
                                      None if broke is None else broke[rows])
        return value

    def _value(self, spline, data, score_a, score_b, total, broke):
        shape = (-1,) + (1,) * (np.ndim(total) - 1)  # per-row data against the rows
        if not spline:  # lose + (win - lose) * q: exactly lose where flat
            win, lose = (side.reshape(shape) for side in data[:2])
            if data[2]:  # every row flat: lose, without the arithmetic
                return lose
            value = _share(score_a, (total, broke))
            value *= win - lose
            value += lose
            return value
        offsets, flip, coins = data
        if isinstance(flip, bool):
            own = score_b if flip else score_a
        else:  # a mirrored row reads B's share
            flip = flip.reshape(shape)
            own = np.where(flip, score_b, score_a)
        value = _spline_values(self._coefficients, None if offsets is None else
                               offsets.reshape(shape), own / total)
        if flip is not False:
            np.subtract(1.0, value, out=value, where=flip)
        if broke is not None:
            np.copyto(value, coins.reshape(shape), where=broke)
        return value


# ---------------------------------------------------------------------------
# stage solves

# The saddle search's first round scans each player's whole budget on a
# coarse grid; each later round scans a box of MARGIN grid steps either side
# of the previous round's spend.  A row stops once its own boxes are narrower
# than REFINE_TOLERANCE and leaves the later rounds, so its result does not
# depend on the rows that share its batch.  A value table's classes are
# solved a level at a time, in blocks of at most ROW_BLOCK (class, node) rows,
# and a round scans A's spends in pieces of at most ZOOM_POINTS, so a block's
# first round, (row x spend_A x spend_B), works on arrays that stay in cache.
FIRST_POINTS = 33
ZOOM_POINTS = 17
MARGIN = 2
REFINE_TOLERANCE = 1e-6
ROW_BLOCK = 64
BRACKET_BOUND = 1e-3  # largest minimax bracket gap accepted at a table node
FLAT = 1e-12  # relative payoff spread below which a best-response scan is flat


@lru_cache(maxsize=8)
def _fractions(points: int) -> tuple:
    t = np.linspace(0.0, 1.0, points)
    rest = 1.0 - t
    rest.flags.writeable = t.flags.writeable = False  # shared by every grid of this size
    return rest, t


def _grid(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """`points` evenly spaced spends from lo to hi, both exact, for each row."""
    rest, t = _fractions(points)
    return lo[:, None] * rest + hi[:, None] * t


def _where(played, totals) -> str:
    a, b = totals
    return f"stage solve at battle {played + 1}, standings {a:.6g}-{b:.6g}"


@dataclass(frozen=True)
class _StagePoints:
    """Saddle-search results at every row of a stage batch."""

    spends: tuple  # (A's spends, B's spends)
    value: np.ndarray  # A's payoff at the spends
    gains: tuple  # each player's best-response improvement at the spends
    flats: tuple  # each player's scan was flat and the proportional spend is played
    rounds: np.ndarray  # rounds of the saddle search


class _StageGame:
    """One battle at a batch of rows, each a budget pair of one class.

    `totals` gives the standings, one pair for every row or one per row;
    `branches` (A's value if A wins, if B wins) value each row's successors.
    A two-player win-probability stage is zero-sum: B's payoff is one minus
    A's.  So everything is computed on A's payoff over the two spends, with
    arrays that lead with the row axis.
    """

    def __init__(self, spec, played, totals, budgets, branches, settings):
        self.played = played
        self.budgets = tuple(np.atleast_1d(np.asarray(b, dtype=float)) for b in budgets)
        self.totals = np.broadcast_to(np.reshape(totals, (-1, 2)), (len(self.budgets[0]), 2))
        self.branches = branches
        self.settings = settings
        self.alpha = spec.csf.alpha
        self.proportional = tuple(_proportional_spend(spec, played, b) for b in self.budgets)
        self._rows = np.arange(len(self.budgets[0]))

    def take(self, rows) -> "_StageGame":
        """The game on a subset of its rows."""
        game = copy.copy(self)
        game.budgets = tuple(b[rows] for b in self.budgets)
        game.totals = self.totals[rows]
        game.proportional = tuple(p[rows] for p in self.proportional)
        game.branches = tuple(branch.take(rows) for branch in self.branches)
        game._rows = np.arange(len(game.budgets[0]))
        return game

    def payoff(self, w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
        """Player A's payoff; w_a and w_b have equal rank and broadcast together."""
        shape = (-1,) + (1,) * (np.ndim(w_a) - 1)
        win, lose = (branch.constant for branch in self.branches)
        if win is not None and lose is not None:  # both successors terminal
            win, lose = win.reshape(shape), lose.reshape(shape)
        else:
            b_a = np.maximum(self.budgets[0].reshape(shape) - w_a, 0.0)
            b_b = np.maximum(self.budgets[1].reshape(shape) - w_b, 0.0)
            scores = (b_a**self.alpha, b_b**self.alpha)
            split = _safe_sum(*scores)  # shared by both branches
            win, lose = (branch.payoff_vec(*scores, split, (b_a, b_b))
                         for branch in self.branches)
        score_a, score_b = w_a**self.alpha, w_b**self.alpha
        p_a = _share(score_a, _safe_sum(score_a, score_b))
        # p_a * win + (1 - p_a) * lose, with one temporary
        value = p_a * win
        np.subtract(1.0, p_a, out=p_a)
        p_a *= lose
        value += p_a
        return value

    def _own_payoff(self, player, own, opp):
        return self.payoff(own, opp) if player == 0 else 1.0 - self.payoff(opp, own)

    def _zoom(self, boxes, points):
        """Grid minimax on shrinking boxes; returns (spends, rounds), per row.

        `boxes` holds a (lo, hi) array pair per player.  Each round A takes the
        argmax of the row minima of A's payoff and B the argmin of the column
        maxima, the first one on ties, so ties go to the smallest spend.  The
        boxes then shrink to MARGIN grid steps around those spends.  A row
        stops once its own boxes are narrower than REFINE_TOLERANCE, and the
        later rounds run on the rows left.  A zero-width box pins a spend.
        """
        game, active = self, self._rows  # the rows left, as indices into self's
        spends = [np.empty(active.size), np.empty(active.size)]
        rounds = np.empty(active.size, dtype=int)
        count = 0
        while True:
            count += 1
            grids = [_grid(lo, hi, points if np.any(hi > lo) else 1) for lo, hi in boxes]
            # A's spends in pieces of at most ZOOM_POINTS: the row minima are
            # per spend, and the column maxima are exact over the pieces
            minima, maxima = [], None
            for piece in np.array_split(grids[0], -(-grids[0].shape[1] // ZOOM_POINTS), axis=1):
                piece = np.ascontiguousarray(piece)  # laid out as a whole grid is
                values = game.payoff(piece[:, :, None], grids[1][:, None, :])
                minima.append(values.min(axis=2))
                high = values.max(axis=1)
                maxima = high if maxima is None else np.maximum(maxima, high, out=maxima)
            picks = (np.concatenate(minima, axis=1).argmax(axis=1), maxima.argmin(axis=1))
            found = [grid[game._rows, pick] for grid, pick in zip(grids, picks)]
            steps = [(hi - lo) / (points - 1) for lo, hi in boxes]
            done = 2 * MARGIN * np.maximum(*steps) <= REFINE_TOLERANCE
            if done.any():
                for spend, w in zip(spends, found):
                    spend[active[done]] = w[done]
                rounds[active[done]] = count
                if done.all():
                    return spends, rounds
                keep = np.flatnonzero(~done)
                game, active = game.take(keep), active[keep]
                found, steps = [w[keep] for w in found], [step[keep] for step in steps]
            boxes = [
                (np.maximum(w - MARGIN * step, 0.0), np.minimum(w + MARGIN * step, budget))
                for w, step, budget in zip(found, steps, game.budgets)
            ]
            points = ZOOM_POINTS

    def best_responses(self, player: int, opp: np.ndarray):
        """Each row's best spend for `player` against the opponent spends `opp`.

        A scan of grid_points spends over the whole budget, then the saddle
        search on the grid steps either side of the scan's best, with the
        opponent's box pinned at `opp`.  A flat scan plays the proportional
        spend.  Returns (spends, the player's payoffs, flat flags).
        """
        budget = self.budgets[player]
        grid = _grid(np.zeros_like(budget), budget, self.settings.grid_points)
        values = self._own_payoff(player, grid[:, :, None], opp[:, None, None])[:, :, 0]
        best = values.argmax(axis=1)  # first maximum: smallest spend wins ties
        top = values[self._rows, best]
        flat = (top - values.min(axis=1) <= FLAT * np.maximum(1.0, np.abs(top))) & (budget > 0.0)
        last = grid.shape[1] - 1
        boxes = [(opp, opp), (opp, opp)]
        boxes[player] = (
            grid[self._rows, np.maximum(best - 1, 0)],
            grid[self._rows, np.minimum(best + 1, last)],
        )
        spend = self._zoom(boxes, ZOOM_POINTS)[0][player]
        spend = np.where(flat, self.proportional[player], spend)
        return spend, self._own_payoff(player, spend, opp), flat

    def _certificate(self, spends):
        return self.best_responses(0, spends[1]), self.best_responses(1, spends[0])

    def solve(self) -> _StagePoints:
        """Saddle points of every row, with their best-response certificates."""
        spends, rounds = self._zoom([(np.zeros_like(b), b) for b in self.budgets], FIRST_POINTS)
        responses = self._certificate(spends)
        flats = tuple(response[2] for response in responses)
        rows = np.flatnonzero(flats[0] | flats[1])
        if rows.size:
            # a player whose payoff is flat in the own spend plays proportional;
            # only those rows' certificates are taken again
            spends = [np.where(f, p, w) for f, p, w in zip(flats, self.proportional, spends)]
            again = self.take(rows)._certificate([w[rows] for w in spends])
            for response, new in zip(responses, again):
                for part, fresh in zip(response[:2], new[:2]):
                    part[rows] = fresh
        value = self.payoff(*spends)
        gains = (
            np.maximum(responses[0][1] - value, 0.0),
            np.maximum(responses[1][1] - (1.0 - value), 0.0),
        )
        return _StagePoints(tuple(spends), value, gains, flats, rounds)


def _path_solutions(game: _StageGame) -> list:
    """The stage equilibrium of each row; every residual must meet the tolerance."""
    points = game.solve()
    residuals = np.maximum(*points.gains)
    over = np.flatnonzero(residuals > game.settings.tolerance)
    if over.size:
        row = int(over[0])
        allocations = tuple(float(w[row]) for w in points.spends)
        raise ConvergenceError(
            f"{_where(game.played, game.totals[row].tolist())}: best-response residual "
            f"{residuals[row]:.3e} above the tolerance {game.settings.tolerance:.1e}",
            allocations=allocations,
            residual=float(residuals[row]),
        )
    return [
        StageSolution((w_a, w_b), residual, rounds, (flat_a, flat_b))
        for w_a, w_b, residual, rounds, flat_a, flat_b in zip(
            *(array.tolist() for array in (*points.spends, residuals, points.rounds, *points.flats))
        )
    ]


# ---------------------------------------------------------------------------
# backward-induction value tables


class _ValueTables:
    """Equilibrium continuation values for a two-player win-probability contest.

    Every precondition of the built-in tables is checked here, so the backward
    solver and table-backed stage solves share them.  A level's classes read
    only the next level's splines, so a level is searched as one batch of
    (class, node) rows, in blocks of at most ROW_BLOCK rows.
    """

    def __init__(self, spec: ContestSpec, settings: SolverSettings):
        if spec.objective is not Objective.WIN_PROBABILITY:
            raise InputError("the backward solver handles win-probability contests")
        if spec.n != 2:
            raise InputError("the backward solver handles two-player contests")
        if spec.shocks:
            raise InputError("the backward solver requires a fixed-budget contest; "
                             "budget shocks break the budget-ratio reduction")
        if spec.m > 5:
            raise InputError("the backward solver is limited to five battles")
        self.spec, self.settings = spec, settings
        self.splines = {}  # (played, totals) -> _Spline of player A's value over q
        self._coin = {}
        self._worst_gap = 0.0
        self._level_blocks, self._level_rows, decisive = [], [], 0  # per level searched
        start = time.perf_counter()
        self._levels = self._reachable_classes()
        for played in range(spec.m - 1, 0, -1):
            searched = set()
            for totals in self._levels.get(played, ()):  # keyed already
                if self._line(played, totals) is not None:  # live, so decisive
                    decisive += 1
                elif totals[::-1] not in searched:  # a mirror reads its twin's spline
                    searched.add(totals)
            if searched:
                self._build_level(played, sorted(searched))
        if _log.isEnabledFor(logging.DEBUG):
            built, classes = len(self.splines), sum(map(len, self._levels.values())) - 1
            _log.debug("value tables: %d classes built (%d on half the nodes), %d decisive in "
                       "closed form, %d served by a mirror, %d stage batches, blocks per level "
                       "%s, rows per level %s, worst bracket gap %.3e, %.3f s",
                       built, sum(a == b for _, (a, b) in self.splines), decisive,
                       classes - built - decisive, sum(self._level_blocks), self._level_blocks,
                       self._level_rows, self._worst_gap, time.perf_counter() - start)

    _key = staticmethod(_standings_key)

    def _reachable_classes(self) -> dict:
        """The live classes after each battle but the last, one status test per battle."""
        spec = self.spec
        levels = {0: [(0.0, 0.0)]}
        for played in range(spec.m - 1):
            children = [t for totals in levels[played] for t in self._successors(played, totals)]
            children = np.array(children).reshape(-1, 2)
            status = _statuses(spec, played + 1, children)
            live = children if status is None else children[~status[0]]
            levels[played + 1] = sorted({self._key(totals) for totals in live.tolist()})
        return levels

    def coin_value(self, played, totals) -> float:
        """Player A's value when both players are broke: every battle is a coin flip."""
        key = (played, self._key(totals))
        if key in self._coin:
            return self._coin[key]
        terminal = _terminal_value_from_totals(self.spec, played, totals)
        if terminal is not None:
            value = terminal[0]
        else:
            win, lose = (self.coin_value(played + 1, t) for t in self._successors(played, totals))
            value = 0.5 * win + 0.5 * lose
        self._coin[key] = value
        return value

    def _successors(self, played, totals) -> tuple:
        x = self.spec.values[played]
        return (totals[0] + x, totals[1]), (totals[0], totals[1] + x)

    def _line(self, played, totals) -> Optional[tuple]:
        """A's payoffs (if A wins, if B wins) when the class's value is a line in
        q: equal ones for a terminal class, and the successors' ones when both of
        those are terminal, so the class's battle decides; else None."""
        ends = [_terminal_value_from_totals(self.spec, played, totals)] * 2
        if ends[0] is None:
            ends = [_terminal_value_from_totals(self.spec, played + 1, t)
                    for t in self._successors(played, totals)]
        return None if None in ends else (ends[0][0], ends[1][0])

    def branch(self, played, totals) -> _ClassValue:
        """Value of the class reached after `played` battles."""
        line = self._line(played, totals)
        if line is not None:
            return _ClassValue(linear=line)
        key = self._key(totals)
        mirrored = (played, key) not in self.splines  # then it reads its twin's spline
        spline = self.splines.get((played, key[::-1] if mirrored else key))
        if spline is None:
            raise ContractError(f"no value table for battle {played + 1} standings {totals}")
        return _ClassValue(spline=spline, mirrored=mirrored, coin=self.coin_value(played, totals))

    def stage_game(self, played, totals, budgets, owner=None) -> _StageGame:
        """The stage after `played` battles at rows of budgets: of the class `totals`
        at every row, or, given `owner`, of the class totals[owner[row]] at each row."""
        classes = [totals] if owner is None else totals
        successors = [self._successors(played, t) for t in classes]
        branches = tuple(
            _BranchValue([self.branch(played + 1, pair[k]) for pair in successors], owner)
            for k in range(2)
        )
        standings = totals if owner is None else np.asarray(classes, dtype=float)[owner]
        return _StageGame(self.spec, played, standings, budgets, branches, self.settings)

    def _build_level(self, played, classes) -> None:
        """Search every class of a level at its nodes and store a spline per class.

        A class with equal standings is its own mirror, V(1 - q) = 1 - V(q),
        so it is searched at shares q <= 1/2 only.
        """
        counts = [(VALUE_NODES + 1) // 2 if a == b else VALUE_NODES for a, b in classes]
        owner = np.repeat(np.arange(len(classes)), counts)
        nodes = np.concatenate([np.arange(count) for count in counts])
        budgets = _node_budgets(self.spec.csf.alpha, nodes)
        game = self.stage_game(played, classes, budgets, owner)
        values, gaps = np.empty(owner.size), np.empty(owner.size)
        spends = np.empty((2, owner.size))
        blocks = np.array_split(np.arange(owner.size), -(-owner.size // ROW_BLOCK))
        for block in blocks:
            block = slice(block[0], block[-1] + 1)
            points = game.take(block).solve()
            # The stage value lies in [value - B's gain, value + A's gain]: a
            # wide bracket means the stage has no pure saddle at that node.
            gaps[block] = points.gains[0] + points.gains[1]
            values[block] = points.value + (points.gains[0] - points.gains[1]) / 2.0
            spends[:, block] = points.spends
        self._level_blocks.append(len(blocks))
        self._level_rows.append(owner.size)
        ends = np.cumsum(counts)
        for totals, count, end in zip(classes, counts, ends.tolist()):
            rows = slice(end - count, end)
            worst = end - count + int(np.argmax(gaps[rows]))
            if gaps[worst] > BRACKET_BOUND:
                share = budgets[0][worst] / (budgets[0][worst] + budgets[1][worst])
                raise ConvergenceError(
                    f"{_where(played, totals)}: minimax bracket gap {gaps[worst]:.3e} above "
                    f"{BRACKET_BOUND:.0e} at A's budget share {share:.4g}",
                    allocations=tuple(spends[:, worst].tolist()),
                    residual=float(gaps[worst]),
                )
            ys = values[rows]
            if count < VALUE_NODES:  # node VALUE_NODES - 1 - i mirrors node i
                ys = np.concatenate((ys, 1.0 - ys[VALUE_NODES - count - 1 :: -1]))
            self.splines[(played, totals)] = _Spline(ys)
        self._worst_gap = max(self._worst_gap, float(gaps.max()))


@lru_cache(maxsize=8)
def _tables_for(spec: ContestSpec, settings: SolverSettings):
    """The contest's value tables, or the `ConvergenceError` their build raised,
    so a contest with a class that has no pure saddle is built once."""
    try:
        return _ValueTables(spec, settings)
    except ConvergenceError as error:
        return error.with_traceback(None)  # the cache keeps no frames of the build


def _budget_free_tables(spec: ContestSpec, settings: SolverSettings) -> _ValueTables:
    """The contest's value tables, cached under unit budgets: they never read the budgets."""
    tables = _tables_for(replace(spec, budgets=(1.0,) * spec.n), settings)
    if isinstance(tables, ConvergenceError):
        raise ConvergenceError(str(tables), tables.allocations, tables.residual)
    return tables


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
        return _budget_free_tables(spec, settings).stage_game(played, totals, budgets)
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
    The opponent's spend, a real number or a sequence of one, must lie in
    [0, the opponent's remaining budget].
    A `continuation` maps a successor History to the payoff vector; the
    stage reads player A's entry, since the two payoffs add up to one.
    """
    if not 0 <= player < 2:
        raise InputError(f"player index {player} out of range")
    spend = opponents_allocation
    if isinstance(spend, (Sequence, np.ndarray)) and not isinstance(spend, (str, bytes)):
        if getattr(spend, "ndim", 1) != 1 or len(spend) != 1:
            raise InputError("two-player contests take a single opponent allocation")
        spend = spend[0]
    if not isinstance(spend, numbers.Real) or isinstance(spend, bool):
        raise InputError(f"opponents_allocation must be a real number, got {spend!r}")
    opp = float(spend)
    bound = remaining_budget(spec, history, 1 - player)
    if not 0.0 <= opp <= bound + BUDGET_TOLERANCE:
        raise InputError(f"opponents_allocation {opp} lies outside [0, {bound}]")
    game = _stage_game_at(spec, history, continuation, settings)
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
    return _path_solutions(_stage_game_at(spec, history, continuation, settings))[0]


def solve_backward(
    spec: ContestSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> BackwardSolveResult:
    """Backward-induction solve of a two-player win-probability contest.

    Returns a tabular strategy profile covering every state reachable under
    mutual equilibrium play, keyed by (battle, standings), plus the
    deterministic on-path allocation trace.  The trace follows the path
    where the currently trailing player wins each battle, which keeps the
    contest alive as long as possible.  The states are solved a depth at a
    time, one batch per depth; a residual above `settings.tolerance` raises
    ConvergenceError for the shallowest such state, the first in the order
    of the winner schedules.
    """
    misses = _tables_for.cache_info().misses
    tables = _budget_free_tables(spec, settings)
    tabulars = tuple(Tabular(player=i) for i in range(2))
    solutions, batches = {}, []
    # the live on-path states of a depth, (winners, totals, spent), in the
    # order of their winner schedules; each depth is one batch of stage solves
    states = [((), (0.0, 0.0), (0.0, 0.0))]
    for played in range(spec.m):
        states = [state for state in states
                  if _terminal_value_from_totals(spec, played, state[1]) is None]
        if not states:
            break
        # the budgets left as a History of this play reads them, so the
        # tables answer its states exactly
        budgets = _formal_budgets(spec, played, np.array([state[2] for state in states]))
        game = tables.stage_game(played, [state[1] for state in states], budgets.T,
                                 np.arange(len(states)))
        batches.append(len(states))
        children = []
        for (winners, totals, spent), solution, left in zip(
                states, _path_solutions(game), budgets.tolist()):
            solutions[winners] = solution
            for i in range(2):
                tabulars[i].record(played + 1, totals, left, solution.allocations[i])
            spent = tuple(s + w for s, w in zip(spent, solution.allocations))
            children += [(winners + (winner,), child, spent)
                         for winner, child in enumerate(tables._successors(played, totals))]
        states = children

    trace, trace_winners, totals = [], (), (0.0, 0.0)
    while trace_winners in solutions:
        trace.append(solutions[trace_winners].allocations)
        trailing = 0 if totals[0] <= totals[1] else 1
        totals = tables._successors(len(trace_winners), totals)[trailing]
        trace_winners += (trailing,)

    if _log.isEnabledFor(logging.DEBUG):
        how = "built" if _tables_for.cache_info().misses > misses else "reused"
        _log.debug("backward solve: %d on-path stage solves in depth batches %s, worst residual "
                   "%.3e, value tables %s", len(solutions), batches,
                   max(s.residual for s in solutions.values()), how)
    profile = StrategyProfile(tabulars)
    return BackwardSolveResult(profile, tuple(trace), solutions, trace_winners)


# ---------------------------------------------------------------------------
# proportionality checking (any player count, any objective)


def _swept_states(spec: ContestSpec, plan: SamplingPlan):
    """Yields (battles played, standings, spent, sources) of the states to sweep.

    One state per row; a source is the state's History or winner schedule.
    The plan's histories come one by one, then the states reachable under
    proportional play, a depth at a time from `strategies._levels` with
    equal ones kept apart, each depth cut to `plan.max_per_depth` by a
    sorted sample of one seeded draw.
    """
    for history in plan.histories:
        yield len(history), *_state(spec, history)[:2], (history,)
    rng, cap = random.Random(plan.seed), plan.max_per_depth

    def sample(played, count):
        if played and cap is not None and count > cap:
            return sorted(rng.sample(range(count), cap))
        return slice(None)

    def branch(played, probs, weight, winners):
        parent, winner, weight, winners = _every_winner(played, probs, weight, winners)
        return parent, winner, weight, np.column_stack((winners, winner))

    root = (np.zeros((1, spec.n)), np.zeros((1, spec.n)), np.ones(1), np.zeros((1, 0), int))
    below = proportional_profile(spec.n).strategies
    for played, (standings, spent, _, winners), _ in _levels(
        spec, below, 0, root, branch, merge=False, select=sample
    ):
        if not len(winners):
            return
        yield played, standings, spent, winners
        if played == spec.m - 1:
            return


def check_proportionality(
    spec: ContestSpec, plan: SamplingPlan = SamplingPlan()
) -> ProportionalityVerdict:
    """Is the proportional profile robust to one-shot deviations?

    Sweeps the feasible deviation grid for every player at every sampled
    history, history after history and player after player; returns Fails
    on the first gain above tolerance, otherwise Holds with the largest gain
    observed.  States of one depth that a sweep reads alike, equal in spent
    under expected value and in (standings, spent) under win probability,
    gain alike, so only the first of them is swept and its gains stand for
    all.  Each batch of sweeps is one walk (`evaluation._sweeps`) of at most
    PART rows: a depth's first sweep alone, so a refutation there costs one
    sweep, then 2, 4, 8, ... sweeps, doubling on from depth to depth.
    """
    n, checked, max_gain, verdict = spec.n, 0, -math.inf, None
    states, distinct, sweeps, walks, rows, size = [0] * spec.m, [0] * spec.m, 0, 0, 0, 2
    for played, standings, spent, sources in _swept_states(spec, plan):
        if isinstance(sources[0], History) and terminal_status(spec, sources[0]).terminal:
            continue
        read = (standings, spent) if spec.objective is Objective.WIN_PROBABILITY else (spent,)
        first = np.sort(_distinct_rows(np.column_stack(read))[0])  # in order of first occurrence
        states[played] += len(sources)
        distinct[played] += first.size
        standings, spent = standings[first], spent[first]
        known = spec.truncate_shocks(played + 1)
        budgets = _remaining_budgets(known, played, standings, spent).ravel()
        grids = _offset_grids(known, played, budgets, plan.delta_points)
        fit, start = max(1, PART // (grids.shape[1] + 1)), 0  # sweeps in a walk of PART rows
        while start < len(grids) and verdict is None:
            stop = min(start + min(size if start else 1, fit), len(grids))
            sweep = np.arange(start, stop)
            gains = _sweeps(known, played, standings[sweep // n], spent[sweep // n], sweep % n,
                            grids[start:stop])
            sweeps, walks, rows = sweeps + sweep.size, walks + 1, rows + gains.size + sweep.size
            over = np.flatnonzero(gains > plan.tolerance)
            if over.size:
                k, j = divmod(int(over[0]), gains.shape[1])
                state, player = divmod(start + k, n)
                state = int(first[state])  # the first state that gains alike
                history = sources[state]
                if not isinstance(history, History):
                    history = history_from_winners(spec, history.tolist())
                delta, gain = float(grids[start + k, j]), float(gains[k, j])
                closed = _closed_forms(known, history, player, [delta])[0]
                report = DeviationReport(history, player, delta, gain, closed)
                verdict = ProportionalityVerdict(False, checked + state + 1, gain, report)
            elif gains.max() > max_gain:
                max_gain = float(gains.max())
            size, start = 2 * size if start else size, stop
        if verdict is not None:
            break
        checked += len(sources)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("proportionality check: states per depth %s, distinct per depth %s, "
                   "%d sweeps, %d walks, %d rows, refuted at depth %s", states, distinct,
                   sweeps, walks, rows, None if verdict is None else played)
    if verdict is None:
        verdict = ProportionalityVerdict(True, checked, 0.0 if max_gain == -math.inf else max_gain)
    return verdict
