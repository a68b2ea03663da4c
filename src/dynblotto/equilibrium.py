"""Numerical equilibrium analysis.

One engine lives here: for two-player win-probability contests, a backward
induction solver computes stage equilibria.  Such a stage is zero-sum (the
two win probabilities add up to one), so its equilibrium is a saddle point
of player A's payoff over the two spends.  Newton is the one algorithm, its
derivatives in closed form: the search is projected Newton on the two
first-order conditions from the proportional spends, a spend at 0 or all in
pinned there while its gradient points out, and a row it does not settle
starts again from a settled point.  It runs batched over rows, a row being
one class at one budget pair, and a row's result outside a table build does
not depend on the rows beside it.  Each point carries a best-response
certificate, the largest payoff gain either player finds by a scan over the
whole budget, refined by Newton on the player's own first-order condition
with the opponent's spend pinned.  Both players' best responses are one
batch.

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
once and certified once as one batch of (class, node) rows, and a class is
judged on that certificate.  Every stage solve reads these tables.  The
solved profile plays, at any live state, the stage equilibrium that they
give there: one batched stage solve per level over the states it is asked
about, a class per distinct standings.  The solver itself solves only the
trace, one stage per depth.  Tables are cached per battle values, CSF,
objective and settings, never per budgets: a budget sweep or mirrored pair
builds them once.
"""

from __future__ import annotations

import copy
import logging
import math
import numbers
import time
from dataclasses import dataclass, replace
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
    _distinct_rows,
    _payoffs,
    _proportional_spend,
    _state,
    _statuses,
    remaining_budget,
    terminal_status,
)
# The proportionality check lives in `evaluation`; it is bound here too,
# because bench/tracer.py times it as `equilibrium.check_proportionality`.
from .evaluation import check_proportionality  # noqa: F401
from .strategies import Strategy, StrategyProfile, _standings_key

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
    iterations: int  # Newton steps, over every start
    flat: tuple  # per player: payoff flat in the own spend, so proportional is played


@dataclass(frozen=True)
class BackwardSolveResult:
    profile: StrategyProfile
    trace: tuple  # on-path allocations, one (w_A, w_B) pair per battle
    solutions: dict  # the trace's winner schedules -> StageSolution
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


def _spline_values(coefficients, base, qs: np.ndarray, slopes=False):
    """Stacked splines at shares qs, which are overwritten.  Each coefficient
    array (a, b, c, d) holds VALUE_NODES - 1 intervals per spline; `base` is
    each row's offset into them, broadcast against qs, or None for one spline.
    Given `slopes`, at one share per row, with the first two derivatives in
    the share: (value, b + 2 c s + 3 d s^2, 2 c + 6 d s), s = q - node."""
    idx = np.multiply(qs, -2.0)  # 1 - 2 q, bit for bit, in place
    idx += 1.0
    np.arccos(idx, out=idx)
    idx *= _INDEX_SCALE
    idx = idx.astype(int)
    np.minimum(idx, VALUE_NODES - 2, out=idx)
    s = np.subtract(qs, np.take(_NODES, idx), out=qs)
    if base is not None:
        idx += base
    if slopes:
        a, b, c, d = (coefficient.take(idx) for coefficient in coefficients)
        ds = d * s
        return (((ds + c) * s + b) * s + a, (3.0 * ds + 2.0 * c) * s + b, 6.0 * ds + 2.0 * c)
    # Horner's rule in place: ((d * s + c) * s + b) * s + a
    a, b, c, d = coefficients
    value = np.take(d, idx)
    term = np.empty_like(value)
    for coefficient in (c, b, a):
        value *= s
        value += np.take(coefficient, idx, out=term, mode="clip")  # idx lies in range
    return value


_SIGNS = np.array([[[1.0]], [[-1.0]]])  # a share rises with x, falls with y


def _share_slopes(z: np.ndarray, alpha: float) -> tuple:
    """s = x^alpha / (x^alpha + y^alpha) for (x, y) = z, x, y >= 0 not both 0,
    with its derivatives, as (s, (s_x, s_y), (s_xx, s_yy), s_xy).

    With k = alpha s (1 - s) and t = alpha (1 - 2 s): s_x = k / x, s_y =
    -k / y, s_xx = k (t - 1) / x^2, s_yy = k (t + 1) / y^2 and s_xy =
    -k t / (x y).  Those of a variable at 0 are nan, without a warning:
    callers read them only at variables above 0.
    """
    scores = z**alpha
    s, rest = scores / (scores[0] + scores[1])
    k, t = alpha * s * rest, alpha * (rest - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = k / z * _SIGNS
        return s, first, first * (_SIGNS * t - 1.0) / z, first[0] * -t / z[1]


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
    the classes' spline coefficients, stacked, a mirror flag and a coin.
    """

    def __init__(self, classes, owner=None):
        self.classes, self.owner = tuple(classes), owner
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

    def payoff_vec(self, score_a: np.ndarray, score_b: np.ndarray, split: tuple):
        """A's payoff at the budgets left, leading with the row axis.

        score_a, score_b are the budgets' success-function scores b^alpha and
        split = _safe_sum(score_a, score_b): every class's value is a function
        of A's share q = score_a / (score_a + score_b).
        """
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

    def slopes(self, q: np.ndarray) -> np.ndarray:
        """A's payoff at each row's successor class and its first two
        derivatives in A's share q, one share per row, stacked."""
        value = np.zeros((3, q.size))
        for rows, spline, data in self.groups:
            if spline:  # a mirrored row reads 1 - S(1 - q): slope S'(1 - q), bend -S''(1 - q)
                flip, sign = data[1], np.where(data[1], -1.0, 1.0)
                v, slope, bend = _spline_values(self._coefficients, data[0],
                                                np.where(flip, 1.0 - q[rows], q[rows]), slopes=True)
                value[:, rows] = sign * v + (sign < 0.0), slope, sign * bend
            else:  # lose + (win - lose) q
                value[1, rows] = data[0] - data[1]
                value[0, rows] = value[1, rows] * q[rows] + data[1]
        return value


# ---------------------------------------------------------------------------
# stage solves

# The saddle search runs projected Newton on dP/dw_a = 0 = dP/dw_b, its
# derivatives in closed form (`_StageGame.slopes`) at the spends moved
# NEWTON_SETTLE of each budget inside the budgets, where every derivative is
# finite.  A row settles once its step is at most NEWTON_SETTLE of its larger
# budget, where P_aa < 0 < P_bb; a row with a broke player settles at once at
# its start, since any positive spend of the other player wins every battle
# left.  A row without those signs, or unsettled after NEWTON_STEPS steps,
# starts again from a settled point (`_StageGame.search`).  A table node whose
# certified bracket is wider than BRACKET_BOUND fails its class.  A
# certificate's scans run in batches of CERTIFICATE_CELLS payoff cells.  Its
# best responses are refined by Newton on the player's own condition, inside
# the grid steps either side of the scan's best; a row settles once the gain
# its model predicts is at most NEWTON_FLOOR.
NEWTON_SETTLE = 1e-9
NEWTON_STEPS = 30
NEWTON_FLOOR = 2.0**-52  # a payoff gain below this is rounding
CERTIFICATE_CELLS = 18_496  # 92 rows of a 200-spend scan
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


def _scan_batches(rows: int, settings: SolverSettings) -> list:
    """Slices that split a best-response scan's rows into the fewest batches
    of at most CERTIFICATE_CELLS cells."""
    size = max(1, CERTIFICATE_CELLS // settings.grid_points)
    return [slice(part[0], part[-1] + 1)
            for part in np.array_split(np.arange(rows), -(-rows // size))]


def _where(played, totals) -> str:
    a, b = totals
    return f"stage solve at battle {played + 1}, standings {a:.6g}-{b:.6g}"


def _inside(spends: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """The spends moved NEWTON_SETTLE of the budgets inside [0, budgets]."""
    inner = NEWTON_SETTLE * budgets
    return np.minimum(np.maximum(spends, inner), budgets - inner)


_ASCENT = np.array([[1.0], [-1.0]])  # A's payoff rises for A, falls for B


def _newton(game, spends):
    """Projected Newton on the first-order conditions from `spends`, a (2,
    rows) array that it overwrites: per row, (spends, steps, settled).

    Each step reads the derivatives at the spends moved inside the budgets
    and extends them to the spends by the Hessian.  A spend at 0 or all in
    whose gradient points out is pinned there, and the other's step solves
    its own condition.  A row with a broke player settles at its start.
    Every step reads every row, so a row's result does not depend on the
    rows beside it, and a row that leaves keeps its last spends.
    """
    budgets, count = np.stack(game.budgets), spends.shape[1]
    steps, settled = np.zeros(count, dtype=int), (budgets <= 0.0).any(axis=0)
    rows = np.flatnonzero(~settled)
    if rows.size < count:
        game, budgets = game.take(rows), budgets[:, rows]
    w = spends[:, rows]
    last, live, done = w.copy(), np.ones(rows.size, dtype=bool), np.zeros(rows.size, dtype=bool)
    for step in range(1, NEWTON_STEPS + 1):
        if not live.any():
            break
        centre = _inside(w, budgets)
        g, (d2, dab) = game.slopes(centre)
        shift = w - centre
        g += d2 * shift + dab * shift[::-1]
        # A maximises, B minimises: a spend at an end whose gradient points
        # out is pinned, and the other's step solves its own condition
        low, high, out = w <= 0.0, w >= budgets, g * _ASCENT
        pin = (low & (out <= 0.0)) | (high & (out >= 0.0))
        g[pin], dab[pin.any(axis=0)] = 0.0, 0.0
        d2 = np.where(pin, -_ASCENT, d2)
        det = d2[0] * d2[1] - dab * dab
        saddle = (d2[0] < 0.0) & (d2[1] > 0.0) & (det < 0.0)
        moves = np.divide(g[::-1] * dab - g * d2[::-1], det, out=np.zeros_like(w), where=saddle)
        found = np.minimum(np.maximum(w + moves, 0.0), budgets)
        # a step onto an end where the player is not pinned went too far:
        # the row goes an eighth of the way back to its previous spends
        back = ((low | high) & ~pin).any(axis=0) & (w != last).any(axis=0)
        found[:, back] += (last[:, back] - w[:, back]) / 8.0
        close = np.abs(found - w).max(axis=0) <= NEWTON_SETTLE * budgets.max(axis=0)
        done |= live & saddle & ~back & close
        steps[rows[live]] = step
        last, w = np.where(live, w, last), np.where(live, found, w)
        live &= (saddle | back) & ~done
    spends[:, rows], settled[rows] = w, done
    return spends, steps, settled


def _respond(view, spends, lo, hi, opp):
    """Newton on each row's own first-order condition, the opponent's spend
    `opp` fixed, from `spends` inside the brackets [lo, hi]: per row,
    (spends, settled).

    `view` is an `_OwnView`, whose first player maximises the payoff.  The
    condition's sign at each step narrows the bracket, and a step that would
    leave it, or a model that is not concave, bisects it instead.  A row
    settles once the gain its quadratic model predicts, g^2 / (2 |f''|), is
    at most NEWTON_FLOOR, the payoff's rounding, or at a bracket end whose
    condition points out.  Every step reads every row.
    """
    budgets, settled = view.budgets[0], np.zeros(spends.size, dtype=bool)
    for _ in range(NEWTON_STEPS):
        centre = _inside(spends, budgets)
        g, d2 = view.slopes(centre, opp)
        g += d2 * (spends - centre)
        settled |= ((g * g <= -2.0 * NEWTON_FLOOR * d2)
                    | ((spends <= lo) & (g <= 0.0)) | ((spends >= hi) & (g >= 0.0)))
        if settled.all():
            break
        up = g > 0.0  # the condition's root lies above the spend
        lo, hi = np.where(up, spends, lo), np.where(up, hi, spends)
        found = spends - np.divide(g, d2, out=np.zeros_like(g), where=d2 < 0.0)
        found = np.where((d2 < 0.0) & (lo < found) & (found < hi), found, (lo + hi) / 2.0)
        spends = np.where(settled, spends, found)
    return spends, settled


def _nearest(ok: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Each row's nearest row of the same owner where `ok`, the lower one on a
    tie, or -1; rows of one owner are consecutive."""
    index, classes = np.arange(owner.size), np.append(owner, -1)  # rows -1 and size: no owner
    below = np.maximum.accumulate(np.where(ok, index, -1))
    above = np.minimum.accumulate(np.where(ok, index, owner.size)[::-1])[::-1]
    below, above = (np.where(classes[near] == owner, near, -1) for near in (below, above))
    return np.where((above >= 0) & ((below < 0) | (above - index < index - below)), above, below)


@dataclass(frozen=True)
class _StagePoints:
    """Saddle-search results at every row of a stage batch."""

    spends: tuple  # (A's spends, B's spends)
    value: np.ndarray  # A's payoff at the spends
    gains: tuple  # each player's best-response improvement at the spends
    flats: tuple  # each player's scan was flat and the proportional spend is played
    rounds: np.ndarray  # Newton steps, over every start
    refined: int  # certificate rows settled by Newton


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
        b_a = np.maximum(self.budgets[0].reshape(shape) - w_a, 0.0)
        b_b = np.maximum(self.budgets[1].reshape(shape) - w_b, 0.0)
        scores = (b_a**self.alpha, b_b**self.alpha)
        split = _safe_sum(*scores)  # shared by both branches
        win, lose = (branch.payoff_vec(*scores, split) for branch in self.branches)
        score_a, score_b = w_a**self.alpha, w_b**self.alpha
        p_a = _share(score_a, _safe_sum(score_a, score_b))
        # p_a * win + (1 - p_a) * lose, with one temporary
        value = p_a * win
        np.subtract(1.0, p_a, out=p_a)
        p_a *= lose
        value += p_a
        return value

    def slopes(self, spends: np.ndarray) -> tuple:
        """A's payoff's gradient (P_a, P_b) and Hessian, as ((P_aa, P_bb),
        P_ab), at the spends (w_a, w_b), one pair per row, in closed form.

        P = lose(q) + p (win(q) - lose(q)) in the battle's share p =
        s(w_a, w_b) and the successors' share q = s(b_a, b_b), b = budget - w,
        so a derivative of q in a spend is minus its derivative in that
        budget.  Every derivative is finite where a row's player has a spend
        and a budget left above 0; the other player's may not be.
        """
        z = np.empty((2, 2, spends.shape[1]))  # (player, (spend, budget left), row)
        z[:, 0] = spends
        np.maximum(np.subtract(self.budgets, spends, out=z[:, 1]), 0.0, out=z[:, 1])
        (p, q), first, second, cross = _share_slopes(z, self.alpha)
        (win, win1, win2), (lose, lose1, lose2) = (branch.slopes(q) for branch in self.branches)
        gap, gap1 = win - lose, win1 - lose1
        q1, q2 = gap1 * p + lose1, (win2 - lose2) * p + lose2  # dP/dq, d2P/dq2
        spend, left = first[:, 0], first[:, 1]  # p's and q's derivatives, in the budgets' terms
        gradient = spend * gap - left * q1
        bend = second[:, 0] * gap - 2.0 * spend * left * gap1 + left * left * q2 + second[:, 1] * q1
        twist = (cross[0] * gap - (spend[0] * left[1] + spend[1] * left[0]) * gap1
                 + left[0] * left[1] * q2 + cross[1] * q1)
        return gradient, (bend, twist)

    def best_responses(self, players: np.ndarray, opp: np.ndarray):
        """Each row's best spend for its player, players[row], against the
        opponent spends `opp`.

        A scan of grid_points spends over the whole budget, in batches of at
        most CERTIFICATE_CELLS payoff cells, then `_respond` from the vertex
        of the parabola through the scan's best and its neighbours, inside
        the grid steps either side of it.  No row ends below its scan's best,
        and a flat scan plays the proportional spend.  Returns (spends, the
        players' payoffs, flat flags, Newton-settled rows).
        """
        view = _OwnView(self, np.asarray(players) == 1)
        points = self.settings.grid_points
        lo, hi, start, scanned, top = (np.empty_like(opp) for _ in range(5))
        flat = np.empty(opp.size, dtype=bool)
        batches = _scan_batches(opp.size, self.settings)
        for rows in batches:
            part = view.take(rows) if len(batches) > 1 else view
            budget, index = part.budgets[0], part._rows
            grid = _grid(np.zeros_like(budget), budget, points)
            values = part.payoff(grid[:, :, None], opp[rows, None, None])[:, :, 0]
            best = values.argmax(axis=1)  # first maximum: smallest spend wins ties
            left, right = np.maximum(best - 1, 0), np.minimum(best + 1, points - 1)
            peak, below, above = (values[index, k] for k in (best, left, right))
            flat[rows] = ((peak - values.min(axis=1) <= FLAT * np.maximum(1.0, np.abs(peak)))
                          & (budget > 0.0))
            lo[rows], scanned[rows], hi[rows] = (grid[index, k] for k in (left, best, right))
            top[rows] = peak
            # the vertex lies within half a grid step of an inner best
            bend = below - 2.0 * peak + above
            shift = np.divide(below - above, 2.0 * bend, out=np.zeros_like(bend),
                              where=(bend < 0.0) & (left < best) & (best < right))
            start[rows] = scanned[rows] + shift * (budget / (points - 1))
        spend, settled = np.where(flat, view.proportional, scanned), np.zeros_like(flat)
        rows = np.flatnonzero(~flat & (view.budgets[0] > 0.0))  # a broke player spends 0
        if rows.size:
            part = view if rows.size == opp.size else view.take(rows)
            spend[rows], settled[rows] = _respond(part, start[rows], lo[rows], hi[rows], opp[rows])
        value = view.payoff(spend, opp)
        short = ~flat & (value < top)
        if short.any():
            spend[short], value[short] = scanned[short], top[short]
        return spend, value, flat, settled

    def _certificate(self, spends):
        """Both players' `best_responses` at `spends`: one batch of the rows
        stacked twice, A's and then B's."""
        count = self._rows.size
        both = self.take(np.concatenate((self._rows, self._rows)))
        responses = both.best_responses(np.repeat([0, 1], count),
                                        np.concatenate((spends[1], spends[0])))
        return tuple(tuple(part[half] for part in responses)
                     for half in (slice(None, count), slice(count, None)))

    def search(self, owner=None):
        """Each row's saddle (spends, steps, settled, restarts) by `_newton`
        from the proportional spends; restarts counts the rows started again.

        Given `owner`, each row's class, whose rows are its table nodes in
        order, a row Newton leaves starts again from the spend shares of the
        nearest settled row of its class, sweep after sweep until a sweep
        settles none.  Then every row left starts again from both players'
        best responses to its point, in one certificate.  A restart that
        settles replaces the row's point; a row none settles keeps the point
        Newton left it at from the proportional spends.
        """
        spends, steps, settled = _newton(self, np.stack(self.proportional))
        budgets, restarts = np.stack(self.budgets), [0, 0]
        while owner is not None:
            near = _nearest(settled & (budgets > 0.0).all(axis=0), owner)
            rows = np.flatnonzero(~settled & (near >= 0))
            restarts[0] += rows.size
            start = spends[:, near[rows]] / budgets[:, near[rows]] * budgets[:, rows]
            if not (rows.size and self._restart(rows, start, spends, steps, settled)):
                break
        rows = np.flatnonzero(~settled)
        if rows.size:
            responses = self.take(rows)._certificate(spends[:, rows])
            self._restart(rows, np.stack((responses[0][0], responses[1][0])),
                          spends, steps, settled)
            restarts[1] = rows.size
        return spends, steps, settled, tuple(restarts)

    def _restart(self, rows, start, spends, steps, settled) -> int:
        """`_newton` at `rows` from `start`, its settled rows written back:
        how many settled."""
        found, more, done = _newton(self.take(rows), start)
        spends[:, rows[done]], settled[rows], steps[rows] = found[:, done], done, steps[rows] + more
        return int(done.sum())

    def solve(self) -> _StagePoints:
        """Saddle points of every row, with their best-response certificates."""
        return self.certify(*self.search()[:2])

    def certify(self, spends, rounds) -> _StagePoints:
        """The rows' points at the searched spends, with their certificates."""
        responses = self._certificate(spends)
        flats = tuple(response[2] for response in responses)
        refined = sum(int(response[3].sum()) for response in responses)  # Newton-settled rows
        # a player whose payoff is flat in the own spend plays proportional;
        # only the rows where that moves a spend are certified again
        moved = [np.where(f, p, w) for f, p, w in zip(flats, self.proportional, spends)]
        rows = np.flatnonzero((moved[0] != spends[0]) | (moved[1] != spends[1]))
        spends = moved
        if rows.size:
            again = self.take(rows)._certificate([w[rows] for w in spends])
            for response, new in zip(responses, again):
                for part, fresh in zip(response[:2], new[:2]):
                    part[rows] = fresh
            refined += sum(int(response[3].sum()) for response in again)
        value = self.payoff(*spends)
        gains = (
            np.maximum(responses[0][1] - value, 0.0),
            np.maximum(responses[1][1] - (1.0 - value), 0.0),
        )
        return _StagePoints(tuple(spends), value, gains, flats, rounds, refined)


class _OwnView:
    """A stage game seen by one player per row, in (own spend, opponent
    spend) coordinates, so that `best_responses` refines each row's best
    response as its first player, with the opponent's spend pinned.

    The payoff is each row's player's: A's, or one minus A's at B's rows,
    whose argmax is B's argmin of A's payoff.
    """

    def __init__(self, game: _StageGame, second: np.ndarray):
        self.game, self.second, self._rows = game, second, game._rows
        self.budgets = (np.where(second, *game.budgets[::-1]), np.where(second, *game.budgets))
        self.proportional = np.where(second, *game.proportional[::-1])

    def take(self, rows) -> "_OwnView":
        return _OwnView(self.game.take(rows), self.second[rows])

    def payoff(self, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
        """Each row's player's payoff: A's, or one minus A's at B's rows; own
        and opp as in `_StageGame.payoff`."""
        second = self.second.reshape((-1,) + (1,) * (np.ndim(own) - 1))
        value = self.game.payoff(np.where(second, opp, own), np.where(second, own, opp))
        return np.subtract(1.0, value, out=value, where=second)

    def slopes(self, own: np.ndarray, opp: np.ndarray) -> tuple:
        """The first derivative and the second of `payoff` in the own spend,
        at one spend pair per row, the own spend inside its budget."""
        second = self.second
        gradient, (bend, _) = self.game.slopes(np.where(second, (opp, own), (own, opp)))
        return np.where(second, -gradient[1], gradient[0]), np.where(second, -bend[1], bend[0])


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
    solver and the stage solves share them.
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
        self._level_batches, self._level_rows = [], []  # per level
        self._level_settled, self._level_steps = [], []  # the search's, per level
        # the search's (neighbour, best-response) restarts and the certificate's
        # Newton-settled rows, per level
        self._level_restarts, self._level_refined = [], []
        self._seconds = np.zeros(2)  # in the search and in the certificate
        decisive = 0
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
                       "closed form, %d served by a mirror, certificate batches per level %s, "
                       "rows per level %s, settled rows per level %s, neighbour restarts per "
                       "level %s, best-response restarts per level %s, Newton steps per level "
                       "%s, certificate rows settled by Newton per level %s, worst bracket gap "
                       "%.3e, search %.3f s, certificate %.3f s, %.3f s",
                       built, sum(a == b for _, (a, b) in self.splines), decisive,
                       classes - built - decisive, self._level_batches, self._level_rows,
                       self._level_settled, *map(list, zip(*self._level_restarts)),
                       self._level_steps, self._level_refined, self._worst_gap,
                       *self._seconds, time.perf_counter() - start)

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
        start = time.perf_counter()
        spends, rounds, settled, restarts = game.search(owner)
        searched = time.perf_counter()
        points = game.certify(spends, rounds)
        self._seconds += np.array([searched - start, time.perf_counter() - searched])
        # The stage value lies in [value - B's gain, value + A's gain]: a
        # wide bracket means the stage has no pure saddle at that node.
        gains = points.gains
        gaps, values = gains[0] + gains[1], points.value + (gains[0] - gains[1]) / 2.0
        self._level_batches.append(len(_scan_batches(2 * owner.size, self.settings)))
        self._level_rows.append(owner.size)
        self._level_settled.append(int(settled.sum()))
        self._level_steps.append(int(rounds.sum()))
        self._level_restarts.append(restarts)
        self._level_refined.append(points.refined)
        ends = np.cumsum(counts)
        for totals, count, end in zip(classes, counts, ends.tolist()):
            rows = slice(end - count, end)
            worst = end - count + int(np.argmax(gaps[rows]))
            if gaps[worst] > BRACKET_BOUND:
                share = budgets[0][worst] / (budgets[0][worst] + budgets[1][worst])
                raise ConvergenceError(
                    f"{_where(played, totals)}: minimax bracket gap {gaps[worst]:.3e} above "
                    f"{BRACKET_BOUND:.0e} at A's budget share {share:.4g}",
                    allocations=tuple(float(w[worst]) for w in points.spends),
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
    if not isinstance(settings, SolverSettings):
        raise InputError(f"settings must be a SolverSettings, got {settings!r}")
    tables = _tables_for(replace(spec, budgets=(1.0,) * spec.n), settings)
    if isinstance(tables, ConvergenceError):
        raise ConvergenceError(str(tables), tables.allocations, tables.residual)
    return tables


# ---------------------------------------------------------------------------
# public solver operations


def _stage_game_at(spec, history, settings) -> _StageGame:
    standings, _, status, budgets = _state(spec, history)
    if spec.n != 2:
        raise InputError("stage solves are available for two-player contests")
    if spec.objective is not Objective.WIN_PROBABILITY:
        raise InputError("stage solves apply to win-probability contests")
    if status is not None:
        raise ContractError("stage solve requested at a terminal history")
    totals, budgets = tuple(standings[0].tolist()), tuple(budgets[0].tolist())
    return _budget_free_tables(spec, settings).stage_game(len(history), totals, budgets)


def best_response(
    spec: ContestSpec,
    history: History,
    player: int,
    opponents_allocation,
    *,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> BestResponseResult:
    """Best spend for one player against a fixed opponent spend at this history.

    A scan of `grid_points` spends over the player's budget, ties going to
    the smallest spend, refined by Newton on the player's own first-order
    condition within the grid steps either side of the scan's best, with the
    opponent's spend pinned.  The payoff returned is never below the scan's
    best.  A flat objective returns the proportional point, flagged.  The
    opponent's spend, a real number or a sequence of one, must
    lie in [0, the opponent's remaining budget].  Both successors are valued
    by the contest's value tables, so the contest must be one they cover.
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
    if not 0.0 <= opp <= bound + spec._slack:
        raise InputError(f"opponents_allocation {opp} lies outside [0, {bound}]")
    game = _stage_game_at(spec, history, settings)
    spend, value, flat = game.best_responses(np.array([player]), np.array([opp]))[:3]
    return BestResponseResult(float(spend[0]), float(value[0]), bool(flat[0]))


def stage_equilibrium(
    spec: ContestSpec,
    history: History,
    *,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> StageSolution:
    """Equilibrium spends for one battle: the saddle point of the zero-sum stage.

    Found by Newton on the first-order conditions, started again from both
    players' best responses where it does not settle from the proportional
    spends.  A player whose payoff is flat in the own spend
    plays proportional.  The residual is the largest best-response gain at
    the returned point (see `best_response`); a residual above
    `settings.tolerance` raises ConvergenceError naming the battle and the
    standings.  Both successors are valued by the contest's value tables,
    built once per battle values, CSF and settings.
    """
    return _path_solutions(_stage_game_at(spec, history, settings))[0]


class _StagePolicy(Strategy):
    """The solved profile's strategy, for either player: at any live state,
    the stage equilibrium of the contest's value tables, as `stage_equilibrium`
    finds it there, so a residual above the tolerance raises ConvergenceError."""

    def __init__(self, tables: _ValueTables):
        self.tables = tables
        self._last = (None, None)  # the last batch's (key, solutions)

    def solve(self, played, standings, budgets) -> list:
        """The stage solutions at live states, one per row of `standings` and
        `budgets`: one batch, whose classes are the distinct standings.  The
        engines ask both players' spends at the same states in turn, so the
        last batch's solutions are kept and a repeated call reuses them."""
        key = (played, standings.shape, standings.tobytes(), budgets.shape, budgets.tobytes())
        last_key, solutions = self._last
        if key != last_key:
            first, owner = _distinct_rows(standings)
            classes = [tuple(totals) for totals in standings[first].tolist()]
            solutions = _path_solutions(self.tables.stage_game(played, classes, budgets.T, owner))
            self._last = (key, solutions)
        return solutions

    def spends(self, spec, played, standings, budgets, player):
        return np.array([s.allocations[player] for s in self.solve(played, standings, budgets)])


def solve_backward(
    spec: ContestSpec, settings: SolverSettings = DEFAULT_SETTINGS
) -> BackwardSolveResult:
    """Backward-induction solve of a two-player win-probability contest.

    Builds the contest's value tables, or reuses them, and returns a profile
    that plays at any live state the stage equilibrium those tables give
    there, plus the deterministic on-path allocation trace.  The trace
    follows the path where the currently trailing player wins each battle,
    which keeps the contest alive as long as possible, at the budgets its
    History reads: one stage solve per depth, by the profile's own path.  A
    residual above `settings.tolerance` raises ConvergenceError naming the
    battle and the standings, here on the trace and in the profile anywhere.
    """
    misses = _tables_for.cache_info().misses
    policy = _StagePolicy(_budget_free_tables(spec, settings))
    history, solutions = History(), {}
    while not terminal_status(spec, history).terminal:
        standings, _, _, budgets = _state(spec, history)
        solution = policy.solve(len(history), standings, budgets)[0]
        solutions[history.winner_schedule()] = solution
        trailing = int(standings[0, 0] > standings[0, 1])
        history = history.extend(solution.allocations, trailing)

    if _log.isEnabledFor(logging.DEBUG):
        how = "built" if _tables_for.cache_info().misses > misses else "reused"
        _log.debug("backward solve: %d stage solves along the trace, worst residual %.3e, "
                   "value tables %s", len(solutions),
                   max(s.residual for s in solutions.values()), how)
    trace = tuple(solution.allocations for solution in solutions.values())
    profile = StrategyProfile((policy, policy))
    return BackwardSolveResult(profile, trace, solutions, history.winner_schedule())
