"""Pure strategies and strategy profiles.

A strategy maps any nonterminal history to a feasible allocation for one
player.  Three kinds are provided: the proportional rule (spend the remaining
budget in proportion to the value of the upcoming battle relative to all
remaining value), tabular strategies produced by the backward-induction
solver, and one-shot deviation wrappers that override a base strategy at a
single history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    ContestSpec,
    ContractError,
    History,
    InputError,
    Objective,
    _csf_distribution,
    _csf_distributions,
    _distinct_rows,
    _formal_budget,
    _proportional_spend,
    _remaining_budgets,
    _trails_hopelessly,
    remaining_budget,
    terminal_status,
)


class Strategy:
    """Interface: a total map from (spec, nonterminal history) to a spend."""

    def allocation(self, spec: ContestSpec, history: History, player: int) -> float:
        raise NotImplementedError


def proportional_allocation(spec: ContestSpec, history: History, player: int) -> float:
    """Remaining budget times the upcoming battle's share of all remaining value."""
    played = len(history)
    if played >= spec.m or terminal_status(spec, history).terminal:
        raise ContractError("proportional allocation is undefined at terminal histories")
    return _proportional_spend(spec, played, remaining_budget(spec, history, player))


class Proportional(Strategy):
    """The proportional rule.  Stateless; one shared instance suffices."""

    def allocation(self, spec, history, player):
        return proportional_allocation(spec, history, player)

    def __repr__(self):
        return "Proportional()"


PROPORTIONAL = Proportional()


@dataclass(frozen=True)
class Deviation(Strategy):
    """Play `amount` at exactly one history, follow the base strategy elsewhere."""

    base: Strategy
    history: History
    player: int
    amount: float

    def allocation(self, spec, history, player):
        if player == self.player and history == self.history:
            return self.amount
        return self.base.allocation(spec, history, player)


@dataclass
class Tabular(Strategy):
    """Finite table of solved allocations with nearest-neighbor lookup.

    Entries are keyed by (battle index, winner schedule); within a key the
    entry whose recorded remaining-budget vector is closest (Euclidean) to the
    queried one wins.  Budgets are recorded on a grid of `budget_step` to keep
    keys stable across float noise.  Histories with no entry at all are
    played proportionally, so the map stays total.
    """

    player: int
    budget_step: float = 0.25
    entries: dict = field(default_factory=dict)

    def _grid(self, budgets):
        step = self.budget_step
        return tuple(round(b / step) * step for b in budgets)

    def record(self, battle: int, winners: tuple, budgets: tuple, allocation: float):
        key = (battle, tuple(winners))
        self.entries.setdefault(key, []).append((self._grid(budgets), float(allocation)))

    def allocation(self, spec, history, player):
        budgets = tuple(remaining_budget(spec, history, i) for i in range(spec.n))
        key = (len(history) + 1, history.winner_schedule())
        bucket = self.entries.get(key)
        if not bucket:
            return proportional_allocation(spec, history, player)
        probe = self._grid(budgets)
        best = min(bucket, key=lambda item: sum((a - b) ** 2 for a, b in zip(item[0], probe)))
        return best[1]

    def to_payload(self) -> dict:
        return {
            "kind": "tabular",
            "player": self.player,
            "budget_step": self.budget_step,
            "fallback": "proportional",
            "entries": [
                {
                    "battle": battle,
                    "winners": list(winners),
                    "budgets": list(budgets),
                    "allocation": allocation,
                }
                for (battle, winners), bucket in sorted(self.entries.items())
                for budgets, allocation in bucket
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Tabular":
        strategy = cls(player=payload["player"], budget_step=payload["budget_step"])
        for entry in payload["entries"]:
            strategy.record(
                entry["battle"],
                tuple(entry["winners"]),
                tuple(entry["budgets"]),
                entry["allocation"],
            )
        return strategy


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per player."""

    strategies: tuple

    @property
    def n(self) -> int:
        return len(self.strategies)

    def strategy(self, player: int) -> Strategy:
        return self.strategies[player]


def proportional_profile(n: int) -> StrategyProfile:
    return StrategyProfile((PROPORTIONAL,) * n)


def _below_root(strategy: Strategy, root_length: int) -> Strategy:
    """The strategy as it plays below a history of `root_length` battles.

    A deviation at a history no longer than the root never fires below it.
    """
    while type(strategy) is Deviation and len(strategy.history) <= root_length:
        strategy = strategy.base
    return strategy


def allocations_at(profile: StrategyProfile, spec: ContestSpec, history: History) -> tuple:
    """Evaluate every player's strategy at a nonterminal history.

    Applies the model's forced rules before the strategies' own choices:
    guaranteed losers spend 0 under the win-probability objective, and every
    output is clamped into [0, remaining budget].
    """
    if profile.n != spec.n:
        raise InputError(f"profile has {profile.n} strategies for {spec.n} players")
    if terminal_status(spec, history).terminal:
        raise ContractError("allocations_at called at a terminal history")
    standings = history.won_values(spec)
    spent = tuple(history.spent(i) for i in range(spec.n))
    return _state_allocations(profile.strategies, spec, len(history), standings, spent, history)


def _state_allocations(strategies, spec, played, standings, spent, history) -> tuple:
    """Every player's spend at a nonterminal contest state.

    The state is the number of battles played, the won-value standings and
    each player's total spend.  `history` is the History of that state; it
    may be None when every strategy is `Proportional`, which reads the state
    alone.  This is the rule behind `allocations_at`, without its checks.
    """
    win_prob = spec.objective is Objective.WIN_PROBABILITY
    out = []
    for i, strategy in enumerate(strategies):
        if win_prob and _trails_hopelessly(spec, played, standings, i):
            out.append(0.0)
            continue
        bound = _formal_budget(spec, played, spent[i], i)
        if type(strategy) is Proportional:
            out.append(_proportional_spend(spec, played, bound))  # skips the per-player guards
            continue
        raw = strategy.allocation(spec, history, i)
        out.append(min(max(raw, 0.0), bound))
    return tuple(out)


def _level_spends(below, spec, played, standings, spent, histories):
    """Spends and contest success probabilities of live states, one per row.

    The states have played `played` battles; `standings` and `spent` are
    numpy arrays with one state per row.  When `histories` is None every
    strategy in `below` is `Proportional` and all spends come from one set
    of array operations; otherwise each state's History goes to
    `_state_allocations`.
    """
    if histories is None:
        budgets = _remaining_budgets(spec, played, standings, spent)
        spends = _proportional_spend(spec, played, budgets)
    else:
        spends = np.array([
            _state_allocations(below, spec, played, s, p, h)
            for s, p, h in zip(standings.tolist(), spent.tolist(), histories)
        ])
    return spends, _csf_distributions(spends, spec.csf)


def _children(spec, played, parent, winner, standings, spent, spends, histories, key=None):
    """The states reached when `winner` wins battle `played` + 1 from state `parent`.

    `parent` and `winner` hold one child each; `standings`, `spent`,
    `spends` and `key` have one parent state per row.  Without Histories,
    children equal in (key, standings, spent) merge into one state.  With
    them, each child extends its parent's History and none merge.  Returns
    the states' standings, spent and Histories, the first child of each
    state, and each child's state.
    """
    standings = standings[parent]
    standings[np.arange(parent.size), winner] += spec.values[played]
    spent = spent[parent] + spends[parent]
    if histories is not None:
        allocations = spends.tolist()
        extended = np.empty(parent.size, object)
        extended[:] = [
            histories[p].extend(allocations[p], w)
            for p, w in zip(parent.tolist(), winner.tolist())
        ]
        every = np.arange(parent.size)
        return standings, spent, extended, every, every
    columns = (standings, spent) if key is None else (key[parent], standings, spent)
    first, group = _distinct_rows(np.column_stack(columns))
    return standings[first], spent[first], None, first, group


def one_shot_deviation(
    base: StrategyProfile, player: int, history: History, amount: float
) -> StrategyProfile:
    """Profile equal to `base` except `player` spends `amount` at `history`."""
    if not 0 <= player < base.n:
        raise InputError(f"player index {player} out of range")
    strategies = list(base.strategies)
    strategies[player] = Deviation(strategies[player], history, player, float(amount))
    return StrategyProfile(tuple(strategies))


def history_from_winners(spec: ContestSpec, winners: Sequence[int]) -> History:
    """Build the history reached when `winners` win the first battles in turn.

    Spends along the way are proportional, which is how subgames are
    addressed by winner schedule alone.
    """
    profile = proportional_profile(spec.n)
    history = History()
    for winner in winners:
        if terminal_status(spec, history).terminal:
            raise InputError("winner schedule extends past the end of the contest")
        if not 0 <= winner < spec.n:
            raise InputError(f"winner {winner} out of range")
        history = history.extend(allocations_at(profile, spec, history), winner)
    return history


def reach_probability(spec: ContestSpec, history: History) -> float:
    """Probability of this exact winner sequence given its recorded spends."""
    q = 1.0
    for record in history.records:
        q *= _csf_distribution(record.allocations, spec.csf)[record.winner]
    return q
