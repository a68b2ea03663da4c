"""Contest primitives: specifications, histories, budgets, and terminal rules.

A dynamic Blotto contest runs a fixed sequence of battles.  Players
simultaneously allocate part of their remaining budget to each battle; a
ratio-form contest success function turns the allocations into a win
probability, and the battle winner takes the battle's whole value.  Players
either maximize the total value they win (``ExpectedValue``) or the
probability of finishing with the most value (``WinProbability``).  Under the
win-probability objective the contest ends early once some player's lead
strictly exceeds all value still on the table.

Everything in this module is an immutable value object or a pure function, so
instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import math

# Feasibility slack for floating-point allocations: spends up to this much
# above the remaining budget are accepted and clamped.
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
    """Exact enumeration would exceed the configured leaf cap."""


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


@dataclass(frozen=True)
class CsfParams:
    """Parameters of the ratio-form contest success function f(w) = beta * w**alpha.

    The classic Tullock function is alpha = beta = 1.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise InputError(f"csf alpha must be a positive real, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InputError(f"csf beta must be a positive real, got {self.beta}")


TULLOCK = CsfParams(1.0, 1.0)


def _as_shock_items(shocks) -> tuple:
    if shocks is None:
        return ()
    if isinstance(shocks, Mapping):
        items = shocks.items()
    else:
        items = list(shocks)
    out = []
    for key, amount in items:
        player, battle = key
        out.append(((int(player), int(battle)), float(amount)))
    return tuple(sorted(out))


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
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "budgets", tuple(float(w) for w in self.budgets))
        object.__setattr__(self, "shocks", _as_shock_items(self.shocks))
        if isinstance(self.objective, str):
            object.__setattr__(self, "objective", Objective(self.objective))
        if len(self.budgets) < 2:
            raise InputError("a contest needs at least two players")
        if len(self.values) < 1:
            raise InputError("a contest needs at least one battle")
        for seq in (self.values, self.budgets):
            if any(not math.isfinite(v) for v in seq):
                raise InputError("values and budgets must be finite")
        for (player, battle), amount in self.shocks:
            if not 0 <= player < len(self.budgets):
                raise InputError(f"shock references unknown player {player}")
            if not 1 <= battle <= len(self.values):
                raise InputError(f"shock references unknown battle {battle}")
            if not math.isfinite(amount):
                raise InputError("shock amounts must be finite")

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
        object.__setattr__(self, "_shock_cum", tuple(tuple(row) for row in cum))

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

    def cumulative_shock(self, player: int, through_battle: int) -> float:
        """Sum of player's shocks for battles 1..through_battle."""
        return self._shock_cum[player][through_battle]

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
    allocations: tuple
    winner: int


@dataclass(frozen=True)
class History:
    """Record of the battles played so far: allocations and winner per battle."""

    records: tuple = ()

    def __post_init__(self):
        totals = ()
        if self.records:
            totals = [0.0] * len(self.records[0].allocations)
            for record in self.records:
                for i, w in enumerate(record.allocations):
                    totals[i] += w
            totals = tuple(totals)
        object.__setattr__(self, "_spent", totals)

    def __len__(self) -> int:
        return len(self.records)

    def extend(self, allocations: Sequence[float], winner: int) -> "History":
        record = BattleRecord(tuple(float(w) for w in allocations), int(winner))
        extended = History.__new__(History)
        object.__setattr__(extended, "records", self.records + (record,))
        if self.records:
            spent = tuple(s + w for s, w in zip(self._spent, record.allocations))
        else:
            spent = record.allocations
        object.__setattr__(extended, "_spent", spent)
        return extended

    def winner_schedule(self) -> tuple:
        return tuple(record.winner for record in self.records)

    def spent(self, player: int) -> float:
        return self._spent[player] if self.records else 0.0

    def won_values(self, spec: ContestSpec) -> tuple:
        totals = [0.0] * spec.n
        for t, record in enumerate(self.records):
            totals[record.winner] += spec.values[t]
        return tuple(totals)


@dataclass(frozen=True)
class TerminalStatus:
    terminal: bool
    winners: tuple = ()

    ONGOING = None  # populated below


TerminalStatus.ONGOING = TerminalStatus(False, ())


def csf_probability(allocations: Sequence[float], params: CsfParams, i: int) -> float:
    """Probability that player i wins a battle fought with these allocations.

    Ratio of f(w_i) to the sum of f over all players; a uniform 1/n draw when
    nobody spends anything.
    """
    allocations = tuple(float(w) for w in allocations)
    if not 0 <= i < len(allocations):
        raise InputError(f"player index {i} out of range")
    for w in allocations:
        if not math.isfinite(w) or w < 0:
            raise InputError(f"allocations must be nonnegative reals, got {w}")
    return _csf_distribution(allocations, params)[i]


def _csf_distribution(allocations, params) -> list:
    """Win probability of every player, in player order.  No input checks."""
    if not any(allocations):
        n = len(allocations)
        return [1.0 / n] * n
    alpha = params.alpha
    if alpha == 1.0:
        scores = list(allocations)
    else:
        scores = [w**alpha for w in allocations]
    total = sum(scores)
    return [s / total for s in scores]


# ---------------------------------------------------------------------------
# Contest rules on the state (battles played, standings, spends).  The
# History-based functions below and the exact evaluator's state walk both
# read the rules from here, so each is written once.


def _formal_budget(spec: ContestSpec, played: int, spent: float, player: int) -> float:
    """W_i plus shocks through the upcoming battle minus spending, clamped at 0.

    The formal ledger may run negative after a harsh shock; the clamp applies
    on every read, so a later positive shock can restore spending power only
    to the extent the ledger recovers.
    """
    through = played + 1 if played < len(spec.values) else len(spec.values)
    return max(spec.budgets[player] + spec._shock_cum[player][through] - spent, 0.0)


def _proportional_spend(spec: ContestSpec, played: int, budget):
    """The budget times the upcoming battle's share of all value left.

    Every proportional spend is computed here, so all of them round alike.
    The share is rounded first: a share of at most one never rounds the
    spend above the budget.  `budget` may be a numpy array.
    """
    return budget * (spec.values[played] / spec._suffix[played])


def _rival_best(standings, player: int) -> float:
    return max(v for j, v in enumerate(standings) if j != player)


def _trails_hopelessly(spec: ContestSpec, played: int, standings, player: int) -> bool:
    """True if the player cannot reach even a tie by winning everything left."""
    return standings[player] + spec._suffix[played] < _rival_best(standings, player)


def _status(spec: ContestSpec, played: int, standings) -> TerminalStatus:
    """Terminal status of the state after `played` battles with these standings."""
    if played == len(spec.values):
        best = max(standings)
        return TerminalStatus(True, tuple(i for i, v in enumerate(standings) if v == best))
    if spec.objective is Objective.EXPECTED_VALUE:
        return TerminalStatus.ONGOING
    # win probability: a lead strictly above every rival's total plus all
    # value left clinches; a lead exactly equal to the remainder does not
    remaining = spec._suffix[played]
    for i, total in enumerate(standings):
        if total > _rival_best(standings, i) + remaining:
            return TerminalStatus(True, (i,))
    return TerminalStatus.ONGOING


def _payoff(spec: ContestSpec, status: TerminalStatus, standings) -> tuple:
    """Payoff vector of a terminal state (see `terminal_payoff`)."""
    if spec.objective is Objective.EXPECTED_VALUE:
        return tuple(standings)
    share = 1.0 / len(status.winners)
    return tuple(share if i in status.winners else 0.0 for i in range(len(standings)))


def _standings(spec: ContestSpec, history: History) -> tuple:
    """Won-value totals at a history, checking it is no longer than the contest."""
    if len(history) > spec.m:
        raise InfeasibleHistoryError("history longer than the contest")
    return history.won_values(spec)


def is_guaranteed_loser(spec: ContestSpec, history: History, player: int) -> bool:
    """True if the player cannot reach even a tie by winning everything left.

    Only meaningful under the win-probability objective at nonterminal
    histories; ties count as not losing because tied players share the prize.
    """
    if spec.objective is not Objective.WIN_PROBABILITY:
        raise ContractError("guaranteed-loser rule applies to win-probability contests only")
    played, standings = len(history), _standings(spec, history)
    if _status(spec, played, standings).terminal:
        raise ContractError("guaranteed-loser rule applies to nonterminal histories only")
    return _trails_hopelessly(spec, played, standings, player)


def remaining_budget(spec: ContestSpec, history: History, player: int) -> float:
    """Budget available for the upcoming battle.

    Includes the shock announced for that battle, excludes later shocks.
    Under the win-probability objective a player who is already guaranteed to
    lose stays in the game but is forced to spend 0, so their remaining budget
    reads as 0.
    """
    if not 0 <= player < spec.n:
        raise InputError(f"player index {player} out of range")
    played = len(history)
    if spec.objective is Objective.WIN_PROBABILITY and played < spec.m:
        standings = history.won_values(spec)
        if not _status(spec, played, standings).terminal and _trails_hopelessly(
            spec, played, standings, player
        ):
            return 0.0
    return _formal_budget(spec, played, history.spent(player), player)


def terminal_status(spec: ContestSpec, history: History) -> TerminalStatus:
    """Whether the contest is over at this history, and who stands to win.

    Expected-value contests always run all battles.  Win-probability contests
    also end as soon as one player's total strictly exceeds every rival's
    total plus all remaining value (a lead exactly equal to the remainder does
    not end the contest).
    """
    return _status(spec, len(history), _standings(spec, history))


def terminal_payoff(spec: ContestSpec, history: History) -> tuple:
    """Payoff vector at a terminal history.

    Expected value: each player banks the value of the battles they won.
    Win probability: the leaders split one unit of prize equally.
    """
    standings = _standings(spec, history)
    status = _status(spec, len(history), standings)
    if not status.terminal:
        raise ContractError("terminal_payoff called on a nonterminal history")
    return _payoff(spec, status, standings)


def check_history(spec: ContestSpec, history: History) -> None:
    """Raise InfeasibleHistoryError unless the history is feasible for the spec.

    Checks per-battle budget bounds (with floating-point slack), allocation
    shape, winner validity, and that no battle was fought after the contest
    had already ended.
    """
    if len(history) > spec.m:
        raise InfeasibleHistoryError("history longer than the contest")
    prefix = History()
    for t, record in enumerate(history.records, start=1):
        if len(record.allocations) != spec.n:
            raise InfeasibleHistoryError(
                f"battle {t}: expected {spec.n} allocations, got {len(record.allocations)}"
            )
        if not 0 <= record.winner < spec.n:
            raise InfeasibleHistoryError(f"battle {t}: winner {record.winner} out of range")
        if terminal_status(spec, prefix).terminal:
            raise InfeasibleHistoryError(f"battle {t} fought after the contest ended")
        for i, w in enumerate(record.allocations):
            if not math.isfinite(w) or w < -BUDGET_TOLERANCE:
                raise InfeasibleHistoryError(f"battle {t}: bad allocation {w} for player {i}")
            bound = remaining_budget(spec, prefix, i)
            if w > bound + BUDGET_TOLERANCE:
                raise InfeasibleHistoryError(
                    f"battle {t}: player {i} spent {w}, over the budget {bound}"
                )
        prefix = prefix.extend(record.allocations, record.winner)
