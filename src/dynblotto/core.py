"""Contest primitives: specifications, histories, budgets, and terminal rules.

A dynamic Blotto contest runs a fixed sequence of battles.  Players
simultaneously allocate part of their remaining budget to each battle; a
ratio-form contest success function turns the allocations into a win
probability, and the battle winner takes the battle's whole value.  Players
either maximize the total value they win (``ExpectedValue``) or the
probability of finishing with the most value (``WinProbability``).  Under the
win-probability objective the contest ends early once some player's lead
strictly exceeds all value still on the table.

A History is checked against a contest in one place, `_state`: every
function that reads a history in a contest, here and in the other modules,
raises InfeasibleHistoryError on one that is no feasible play of it.

Everything in this module is an immutable value object or a pure function, so
instances are safe to share between threads; the caches a History and
`_csf_row` keep only ever hold the one value their key determines.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

import math
import numbers

import numpy as np

# Feasibility slack for floating-point allocations: spends up to this much
# above the remaining budget are accepted and clamped.  A contest whose
# scale, its largest budget plus that player's positive shocks, is below 1
# takes this times its scale (`ContestSpec._slack`), so a spend far over a
# tiny budget is refused.
BUDGET_TOLERANCE = 1e-9


class ContestError(Exception):
    """Base class for errors raised by this package."""


class InputError(ContestError, ValueError):
    """An argument fails an operation's precondition."""


class ContractError(ContestError, RuntimeError):
    """An operation was called in a state its contract forbids."""


class InfeasibleHistoryError(InputError):
    """A history violates budget feasibility or the winner-take-all rules."""


class EnumerationCapError(ContestError):
    """Exact enumeration would exceed the leaf cap."""


class ConvergenceError(ContestError):
    """A stage solve did not meet its tolerance.

    Carries the spends and the residual (for a table node, the minimax
    bracket gap) so callers can inspect them.
    """

    def __init__(self, message: str, allocations=None, residual=None):
        super().__init__(message)
        self.allocations = allocations
        self.residual = residual


class Objective(Enum):
    EXPECTED_VALUE = "expected_value"
    WIN_PROBABILITY = "win_probability"


def _is_real(value) -> bool:
    """A real number; a boolean, a string or None is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _in_range(value) -> bool:
    """A real number no larger in magnitude than the largest float, compared
    as a float: an infinity or an integer beyond the float range is not, nan is."""
    try:
        return not math.isinf(float(value))
    except OverflowError:
        return False


def _real(value, field: str) -> float:
    """`value` as a float, or InputError naming the field if it is no real
    number or lies beyond the float range."""
    if not _is_real(value):
        raise InputError(f"{field} must be a real number, got {value!r}")
    if not _in_range(value):
        raise InputError(f"{field} must lie within the float range, got {value!r}")
    return float(value)


def _finite(value, what: str, low: float = -math.inf) -> float:
    """`value` as a float if it is a finite real number of at least `low`,
    else InputError: `what`, then the value; a boolean, a string or None is
    no real number, and an integer beyond the float range is not finite."""
    if not (_is_real(value) and low <= value and _in_range(value)):
        raise InputError(f"{what}, got {value!r}")
    return float(value)


def _battle_spends(allocations: Sequence[float], player: int) -> tuple:
    """Caller-supplied spends of one battle as floats; InputError unless each
    is a nonnegative finite real number and `player` indexes one of them."""
    spends = tuple(_finite(w, "allocations must be nonnegative reals", 0.0) for w in allocations)
    if not 0 <= player < len(spends):
        raise InputError(f"player index {player} out of range")
    return spends


def _count(value) -> bool:
    """A nonnegative integer; a boolean is not a count."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 0


@dataclass(frozen=True)
class CsfParams:
    """Parameters of the ratio-form contest success function f(w) = beta * w**alpha.

    The classic Tullock function is alpha = beta = 1.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0 and math.isfinite(value)):
                raise InputError(f"csf {name} must be a positive real, got {value!r}")


TULLOCK = CsfParams(1.0, 1.0)


def _as_shock_items(shocks) -> tuple:
    """Shocks as sorted ((player, battle), amount) items.  Both indices must
    be integers, not booleans, and no (player, battle) key may repeat."""
    if shocks is None:
        return ()
    out = {}
    for key, amount in shocks.items() if isinstance(shocks, Mapping) else list(shocks):
        player, battle = key
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in key):
            raise InputError(f"shock (player, battle) indices must be integers, got {key!r}")
        key = (int(player), int(battle))
        if key in out:
            raise InputError(f"shock key {key} repeats")
        out[key] = _finite(amount, f"shock amount of {key} must be a finite real number")
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class ContestSpec:
    """A dynamic Blotto contest.

    values:    battle values, one positive real per battle (battle 1 first).
    budgets:   one starting budget per player.
    shocks:    sparse map (player index, battle number) -> budget shock amount,
               applied just before that battle is fought.  Battle numbers are
               1-based; player indices 0-based.
    """

    values: tuple
    budgets: tuple
    csf: CsfParams = TULLOCK
    objective: Objective = Objective.EXPECTED_VALUE
    shocks: tuple = ()

    def __post_init__(self):
        for name in ("values", "budgets"):
            object.__setattr__(self, name, tuple(
                _finite(v, f"{name}[{i}] must be a finite real number")
                for i, v in enumerate(getattr(self, name))))
        object.__setattr__(self, "shocks", _as_shock_items(self.shocks))
        if not isinstance(self.objective, Objective):
            try:
                object.__setattr__(self, "objective", Objective(self.objective))
            except (TypeError, ValueError):
                choices = ", ".join(o.value for o in Objective)
                raise InputError(
                    f"objective must be one of {choices}, got {self.objective!r}") from None
        if len(self.budgets) < 2:
            raise InputError("a contest needs at least two players")
        if len(self.values) < 1:
            raise InputError("a contest needs at least one battle")
        for (player, battle), amount in self.shocks:
            if not 0 <= player < len(self.budgets):
                raise InputError(f"shock references unknown player {player}")
            if not 1 <= battle <= len(self.values):
                raise InputError(f"shock references unknown battle {battle}")

        # Derived lookup tables (not part of equality/hash).
        m, n = len(self.values), len(self.budgets)
        suffix = [0.0] * (m + 1)
        for t in range(m - 1, -1, -1):
            suffix[t] = suffix[t + 1] + self.values[t]
        object.__setattr__(self, "_suffix", tuple(suffix))
        cum = [[0.0] * (m + 1) for _ in range(n)]
        for (player, battle), amount in self.shocks:
            cum[player][battle] += amount
        for row in cum:
            for t in range(1, m + 1):
                row[t] += row[t - 1]
        ceilings = [[b + row[min(t + 1, m)] for b, row in zip(self.budgets, cum)]
                    for t in range(m + 1)]  # shocks through the upcoming battle, none after m
        object.__setattr__(self, "_ceilings", np.array(ceilings))
        scale = max(b + sum(max(a, 0.0) for (i, _), a in self.shocks if i == player)
                    for player, b in enumerate(self.budgets))
        object.__setattr__(self, "_slack", BUDGET_TOLERANCE * min(1.0, max(scale, 0.0)))

        # Success-function scores of the largest spends the budgets and
        # shocks allow must add up to a finite number, or the win
        # probabilities of a battle come out NaN.
        alpha = self.csf.alpha
        try:
            peak = sum(max(b + max(row), 0.0) ** alpha for b, row in zip(self.budgets, cum))
        except OverflowError:
            peak = math.inf
        if not math.isfinite(peak):
            raise InputError(
                f"budgets and shocks too large for csf alpha {alpha}: "
                "success-function scores overflow; scale them down"
            )

    @property
    def n(self) -> int:
        return len(self.budgets)

    @property
    def m(self) -> int:
        return len(self.values)

    def suffix_value(self, played: int) -> float:
        """Total value of the battles still to be fought after `played` battles."""
        return self._suffix[played]

    def shock_map(self) -> dict:
        return dict(self.shocks)

    def truncate_shocks(self, through_battle: int) -> "ContestSpec":
        """Copy of the spec keeping only shocks announced up to `through_battle`.

        Models the information available when acting at a history: a player
        about to fight battle t knows the shocks through battle t and nothing
        beyond.
        """
        kept = tuple(item for item in self.shocks if item[0][1] <= through_battle)
        if kept == self.shocks:
            return self
        return ContestSpec(self.values, self.budgets, self.csf, self.objective, kept)


def validate_spec(spec: ContestSpec) -> list:
    """Return all invariant violations of the spec (empty list means ok).

    Violations are data, not faults: a spec that fails validation can still be
    constructed and inspected.
    """
    violations = []
    total = sum(spec.values)
    for t, value in enumerate(spec.values, start=1):
        if value <= 0:
            violations.append(f"non-positive value at battle {t}")
        elif value >= total - value:
            violations.append(f"dictatorial battle {t}")
    for i, budget in enumerate(spec.budgets):
        if budget < 0:
            violations.append(f"negative budget for player {i}")
    return violations


@dataclass(frozen=True)
class BattleRecord:
    """One battle: each player's spend, a real number, and the winner's index,
    an integer.  A field of the wrong type raises InputError naming it; the
    values are checked against a contest where a History meets one."""

    allocations: tuple
    winner: int

    def __post_init__(self):
        spends = tuple(_real(w, f"allocation {i}") for i, w in enumerate(self.allocations))
        if isinstance(self.winner, bool) or not isinstance(self.winner, numbers.Integral):
            raise InputError(f"winner must be an integer, got {self.winner!r}")
        object.__setattr__(self, "allocations", spends)
        object.__setattr__(self, "winner", int(self.winner))


@dataclass(frozen=True)
class History:
    """Record of the battles played so far: allocations and winner per battle."""

    records: tuple = ()

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, allocations: Sequence[float], winner: int) -> "History":
        extended = History(self.records + (BattleRecord(allocations, winner),))
        if "_state" in self.__dict__:  # `_state` goes on from it
            object.__setattr__(extended, "_parent_state", self._state)
        return extended

    def winner_schedule(self) -> tuple:
        return tuple(record.winner for record in self.records)

    def spent(self, player: int) -> float:
        return sum((record.allocations[player] for record in self.records), 0.0)

    def won_values(self, spec: ContestSpec) -> tuple:
        return tuple(_state(spec, self)[0][0].tolist())


@dataclass(frozen=True)
class TerminalStatus:
    terminal: bool
    winners: tuple = ()

    ONGOING = None  # populated below


TerminalStatus.ONGOING = TerminalStatus(False, ())


def csf_probability(allocations: Sequence[float], params: CsfParams, i: int) -> float:
    """Probability that player i wins a battle fought with these allocations.

    Ratio of f(w_i) to the sum of f over all players; a uniform 1/n draw when
    that sum is 0 (nobody spends anything, or every f(w) underflows).
    """
    return _csf_row(_battle_spends(allocations, i), params)[i]


@lru_cache(maxsize=64)  # callers ask for each player's probability in turn
def _csf_row(allocations: tuple, params: CsfParams) -> tuple:
    """`_csf_distributions` of one battle."""
    return tuple(_csf_distributions(np.array([allocations]), params)[0].tolist())


def _csf_distributions(spends, params):
    """Win probability of every player of every state: `spends` has one state per row.

    The scores are summed in player order, and a state where no score is
    positive (nobody spends, or every score underflows) splits evenly.
    """
    scores = spends if params.alpha == 1.0 else spends**params.alpha
    total = scores[:, 0] + scores[:, 1]
    for j in range(2, scores.shape[1]):
        total += scores[:, j]
    nobody = total == 0.0
    if not np.count_nonzero(nobody):
        return scores / total[:, None]
    total[nobody] = 1.0
    probs = scores / total[:, None]
    probs[nobody] = 1.0 / scores.shape[1]
    return probs


def _distinct_rows(*arrays):
    """The first occurrence of each distinct row, and each row's distinct row.

    A row is the arrays' rows side by side.  Rows compare by their bytes,
    so 0.0 and -0.0 differ; that can only keep two equal states apart.
    The distinct rows come in the order of their bytes, which simulation's
    draws follow (`strategies._byte_merge`).
    """
    rows = np.ascontiguousarray(arrays[0]) if len(arrays) == 1 else np.column_stack(arrays)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


# Mixing constants of `_hashed_rows`: an odd multiplier, and a shift that
# brings the high bits, where small floats differ, down to the low ones.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(29)

# Fewer rows than this are grouped by the byte sort: the hash's fixed cost,
# some twenty numpy calls, exceeds what the byte sort of so few rows costs.
HASH_MIN_ROWS = 128


def _hashed_rows(*arrays):
    """`_distinct_rows` of arrays of 8-byte items, in order of first occurrence.

    From HASH_MIN_ROWS rows on, rows are grouped by a 64-bit hash of their
    words (`_hash_groups`); on a hash collision, and below that size, the
    byte sort of `_distinct_rows` groups them.  Either way rows compare by
    their bits, and the distinct rows come in the order they first occur.
    """
    mine = _hash_groups(*arrays) if len(arrays[0]) >= HASH_MIN_ROWS else None
    if mine is None:
        first, inverse = _distinct_rows(*arrays)
        mine = first[inverse]
    own = mine == np.arange(mine.size)
    return own.nonzero()[0], (own.cumsum() - 1)[mine]


def _hash_groups(*arrays):
    """Each row's first equal row, or None on a hash collision.

    Rows are sorted by a 64-bit hash of their words with numpy's default
    argsort, and every row is checked word for word against the first row
    of its hash group.
    """
    words = [(a if a.ndim == 2 else a[:, None]).view(np.uint64) for a in arrays]
    columns = [w[:, j] for w in words for j in range(w.shape[1])]
    code = columns[0] * _HASH_MULTIPLIER
    for column in columns[1:]:
        code ^= code >> _HASH_SHIFT
        code ^= column
        code *= _HASH_MULTIPLIER
    order = np.argsort(code)
    code = code[order]
    new = code[1:] != code[:-1]
    if new.all():  # no two rows hash alike, so no two are equal
        return np.arange(code.size)
    new = np.concatenate(([True], new))  # where each hash group starts
    mine = np.empty_like(order)
    mine[order] = np.minimum.reduceat(order, new.nonzero()[0])[new.cumsum() - 1]
    other = (mine != np.arange(mine.size)).nonzero()[0]
    twin = mine[other]
    return mine if all((w[other] == w[twin]).all() for w in words) else None


# ---------------------------------------------------------------------------
# Contest rules on states (battles played, standings, spends), one state per
# row.  The engines read them over all states of a battle at once; the
# History-based functions below read them on the one-row state of a history.


def _state(spec: ContestSpec, history: History) -> tuple:
    """(standings, spends, their `_statuses`, budgets) at a history; the arrays 1 x n, read-only.

    The one place where a history meets a spec: it raises
    InfeasibleHistoryError, naming the first fault, unless the history is a
    feasible play of the contest.  The budgets are the
    next battle's (`_remaining_budgets`), or the formal ones once the
    contest has ended.  The state is kept on the history for the spec last
    asked, and a history extended from one with a state kept for the spec
    checks only its last battle.
    """
    kept = history.__dict__.get("_state")
    if kept is not None and kept[0] is spec:
        return kept[1:]
    records = history.records
    if len(records) > len(spec.values):
        raise InfeasibleHistoryError("history longer than the contest")
    kept, start = history.__dict__.get("_parent_state"), len(records) - 1
    if kept is None or kept[0] is not spec:  # walk from the root
        zero, start = np.zeros((1, spec.n)), 0
        kept = (spec, zero, zero, None, _remaining_budgets(spec, 0, zero, zero))
    _, standings, spent, status, budgets = kept
    for t, record in enumerate(records[start:], start=start + 1):
        spends, winner = record.allocations, record.winner
        if len(spends) != spec.n:
            raise InfeasibleHistoryError(
                f"history has {len(spends)} players, the contest {spec.n}" if t == 1
                else f"battle {t}: expected {spec.n} allocations, got {len(spends)}")
        if not 0 <= winner < spec.n:
            raise InfeasibleHistoryError(f"battle {t}: winner {winner} out of range")
        if status is not None:
            raise InfeasibleHistoryError(f"battle {t} fought after the contest ended")
        for i, (w, bound) in enumerate(zip(spends, budgets[0].tolist())):
            if not math.isfinite(w) or w < -spec._slack:
                raise InfeasibleHistoryError(f"battle {t}: bad allocation {w} for player {i}")
            if w > bound + spec._slack:
                raise InfeasibleHistoryError(
                    f"battle {t}: player {i} spent {w}, over the budget {bound}"
                )
        standings = standings.copy()
        standings[0, winner] += spec.values[t - 1]
        spent = spent + spends
        status = _statuses(spec, t, standings)
        if status is None:
            budgets = _remaining_budgets(spec, t, standings, spent)
        else:  # no one is hopeless at the end
            budgets = _formal_budgets(spec, t, spent)
    for array in (standings, spent, budgets):
        array.flags.writeable = False
    kept = (spec, standings, spent, status, budgets)
    object.__setattr__(history, "_state", kept)
    return kept[1:]


def _formal_budgets(spec: ContestSpec, played: int, spent):
    """W_i plus shocks through the upcoming battle minus spending, clamped at 0.

    The formal ledger may run negative after a harsh shock; the clamp applies
    on every read, so a later positive shock can restore spending power only
    to the extent the ledger recovers.  After the last battle no shock is
    upcoming.
    """
    return np.maximum(spec._ceilings[played] - spent, 0.0)


def _proportional_spend(spec: ContestSpec, played: int, budget):
    """The budget times the upcoming battle's share of all value left.

    Every proportional spend is computed here, so all of them round alike.
    The share is rounded first: a share of at most one never rounds the
    spend above the budget.  `budget` may be a numpy array.
    """
    return budget * (spec.values[played] / spec._suffix[played])


def _proportional_spends(spec: ContestSpec, played, budgets):
    """`_proportional_spend` of each row of `budgets`, row r after `played[r]` battles."""
    return budgets * np.divide(spec.values, spec._suffix[:-1])[played][:, None]


def _top(standings):
    """Each state's highest total, taken column by column."""
    top = np.maximum(standings[:, 0], standings[:, 1])
    for j in range(2, standings.shape[1]):
        np.maximum(top, standings[:, j], out=top)
    return top


def _top_two(standings):
    """Each state's highest and second-highest totals, taken column by column.

    Max and min are exact, so these are the last two of a sorted row.
    """
    top = np.maximum(standings[:, 0], standings[:, 1])
    second = np.minimum(standings[:, 0], standings[:, 1])
    for j in range(2, standings.shape[1]):
        np.maximum(second, np.minimum(top, standings[:, j]), out=second)
        np.maximum(top, standings[:, j], out=top)
    return top, second


def _winner_counts(winners):
    """Each state's number of winners, counted column by column."""
    count = np.add(winners[:, 0], winners[:, 1], dtype=np.intp)
    for j in range(2, winners.shape[1]):
        count += winners[:, j]
    return count


def _hopeless(spec: ContestSpec, played: int, standings):
    """True for each player who cannot reach even a tie by winning everything left.

    A player's best rival total is the highest total whenever that is out of
    the player's reach, so the highest total stands for it.
    """
    return standings + spec._suffix[played] < _top(standings)[:, None]


def _remaining_budgets(spec: ContestSpec, played: int, standings, spent):
    """Budgets for the upcoming battle at nonterminal states (see `remaining_budget`)."""
    budgets = _formal_budgets(spec, played, spent)
    if spec.objective is Objective.WIN_PROBABILITY:
        budgets[_hopeless(spec, played, standings)] = 0.0
    return budgets


def _statuses(spec: ContestSpec, played: int, standings):
    """Which states have ended after `played` battles, and their winners.

    Returns None when no state has ended, else a boolean per state and a
    boolean per state and player marking the winners of those that have.
    Under expected value nothing ends before the last battle.  Under win
    probability a lead strictly above every rival's total plus all value
    left clinches (a lead exactly equal to the remainder does not); only
    the top total can, and its best rival is the second highest.
    """
    if played == len(spec.values):
        return np.ones(len(standings), bool), standings == _top(standings)[:, None]
    if spec.objective is Objective.EXPECTED_VALUE:
        return None
    top, second = _top_two(standings)
    bar = second + spec._suffix[played]
    ended = top > bar
    return (ended, standings > bar[:, None]) if np.count_nonzero(ended) else None


def _payoffs(spec: ContestSpec, standings, winners):
    """Payoff rows of ended states (see `terminal_payoff`)."""
    if spec.objective is Objective.EXPECTED_VALUE:
        return standings
    return winners / _winner_counts(winners)[:, None]


def is_guaranteed_loser(spec: ContestSpec, history: History, player: int) -> bool:
    """True if the player cannot reach even a tie by winning everything left.

    Only meaningful under the win-probability objective at nonterminal
    histories; ties count as not losing because tied players share the prize.
    """
    if not 0 <= player < spec.n:
        raise InputError(f"player index {player} out of range")
    if spec.objective is not Objective.WIN_PROBABILITY:
        raise ContractError("guaranteed-loser rule applies to win-probability contests only")
    standings, _, status, _ = _state(spec, history)
    if status is not None:
        raise ContractError("guaranteed-loser rule applies to nonterminal histories only")
    return bool(_hopeless(spec, len(history), standings)[0, player])


def remaining_budget(spec: ContestSpec, history: History, player: int) -> float:
    """Budget available for the upcoming battle.

    Includes the shock announced for that battle, excludes later shocks.
    Under the win-probability objective a player who is already guaranteed to
    lose stays in the game but is forced to spend 0, so their remaining budget
    reads as 0; at a terminal history the formal budget is read.
    """
    if not 0 <= player < spec.n:
        raise InputError(f"player index {player} out of range")
    return float(_state(spec, history)[3][0, player])


def terminal_status(spec: ContestSpec, history: History) -> TerminalStatus:
    """Whether the contest is over at this history, and who stands to win.

    Expected-value contests always run all battles.  Win-probability contests
    also end as soon as one player's total strictly exceeds every rival's
    total plus all remaining value (a lead exactly equal to the remainder does
    not end the contest).
    """
    status = _state(spec, history)[2]
    if status is None:
        return TerminalStatus.ONGOING
    return TerminalStatus(True, tuple(status[1][0].nonzero()[0].tolist()))


def terminal_payoff(spec: ContestSpec, history: History) -> tuple:
    """Payoff vector at a terminal history.

    Expected value: each player banks the value of the battles they won.
    Win probability: the leaders split one unit of prize equally.
    """
    standings, _, status, _ = _state(spec, history)
    if status is None:
        raise ContractError("terminal_payoff called on a nonterminal history")
    return tuple(_payoffs(spec, standings, status[1])[0].tolist())


def check_history(spec: ContestSpec, history: History) -> None:
    """Raise InfeasibleHistoryError unless the history is feasible for the spec.

    Checks the length first, then, battle by battle, the allocation count
    (at the first battle, as the history's player count), the winner, that
    the contest had not already ended, and each spend: finite, nonnegative
    and within the remaining budget, with floating-point slack.  The error
    names the first fault found.
    """
    _state(spec, history)
