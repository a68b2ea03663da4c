"""Pure strategies and strategy profiles.

A strategy maps contest states (battles played, standings, budgets left) to
one player's spends, so equal states play alike and the engines merge them.
Three kinds are provided: the proportional rule (spend the remaining budget
in proportion to the value of the upcoming battle relative to all remaining
value), tabular strategies produced by the backward-induction solver, and
one-shot deviation wrappers that override a base strategy at one history.
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
    """Interface: a map from nonterminal contest states to one player's spends."""

    def spends(self, spec: ContestSpec, played: int, standings, budgets, player: int):
        """The player's spend at each of the states after `played` battles.

        `standings` and `budgets` have one state per row; `budgets` are
        `core._remaining_budgets`, 0 for hopeless players.  The caller
        clamps each spend into [0, budget].
        """
        raise NotImplementedError


def proportional_allocation(spec: ContestSpec, history: History, player: int) -> float:
    """Remaining budget times the upcoming battle's share of all remaining value."""
    played = len(history)
    if played >= spec.m or terminal_status(spec, history).terminal:
        raise ContractError("proportional allocation is undefined at terminal histories")
    return _proportional_spend(spec, played, remaining_budget(spec, history, player))


class Proportional(Strategy):
    """The proportional rule.  Stateless; one shared instance suffices."""

    def spends(self, spec, played, standings, budgets, player):
        return _proportional_spend(spec, played, budgets[:, player])

    def __repr__(self):
        return "Proportional()"


PROPORTIONAL = Proportional()


@dataclass(frozen=True)
class Deviation(Strategy):
    """Play `amount` at exactly one history, follow the base strategy elsewhere.

    The engines play it only at their root (`_below_root`).
    """

    base: Strategy
    history: History
    player: int
    amount: float


def _standings_key(standings) -> tuple:
    """Standings rounded to 9 decimals, so float noise keeps one key per class."""
    return tuple(round(v, 9) for v in standings)


@dataclass
class Tabular(Strategy):
    """Finite table of solved spends keyed by contest state, nearest-neighbor lookup.

    Entries are keyed by (battle index, standings), the standings rounded by
    `_standings_key`; within a key the entry whose recorded remaining-budget
    vector is closest (Euclidean) to the queried one wins.  States with no
    entry at all are played proportionally, so the map stays total.
    """

    player: int
    entries: dict = field(default_factory=dict)

    def record(self, battle: int, standings: tuple, budgets: tuple, allocation: float):
        key = (battle, _standings_key(standings))
        self.entries.setdefault(key, []).append((tuple(map(float, budgets)), float(allocation)))

    def spends(self, spec, played, standings, budgets, player):
        out = _proportional_spend(spec, played, budgets[:, player])
        for row, (totals, probe) in enumerate(zip(standings.tolist(), budgets.tolist())):
            bucket = self.entries.get((played + 1, _standings_key(totals)))
            if bucket:
                nearest = min(bucket, key=lambda e: sum((a - b) ** 2 for a, b in zip(e[0], probe)))
                out[row] = nearest[1]
        return out

    def to_payload(self) -> dict:
        return {
            "kind": "tabular",
            "player": self.player,
            "fallback": "proportional",
            "entries": [
                {
                    "battle": battle,
                    "standings": list(standings),
                    "budgets": list(budgets),
                    "allocation": allocation,
                }
                for (battle, standings), bucket in sorted(self.entries.items())
                for budgets, allocation in bucket
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Tabular":
        strategy = cls(player=payload["player"])
        for entry in payload["entries"]:
            strategy.record(
                entry["battle"],
                tuple(entry["standings"]),
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

    A deviation at a history no longer than the root never fires below it,
    so it is unwrapped; one at a deeper history is refused.
    """
    while type(strategy) is Deviation:
        if len(strategy.history) > root_length:
            raise InputError(
                f"a deviation after {len(strategy.history)} battles lies below the root "
                f"after {root_length}; evaluate from its history"
            )
        strategy = strategy.base
    return strategy


def allocations_at(profile: StrategyProfile, spec: ContestSpec, history: History) -> tuple:
    """Evaluate every player's strategy at a nonterminal history.

    A deviation at this history plays its amount; where deviations are
    stacked, the outermost one at this history wins.  Every other strategy
    answers through its `spends` at the history's contest state.  The
    model's forced rules apply to both: guaranteed losers spend 0 under the
    win-probability objective, and every output is clamped into [0,
    remaining budget].
    """
    if profile.n != spec.n:
        raise InputError(f"profile has {profile.n} strategies for {spec.n} players")
    if terminal_status(spec, history).terminal:
        raise ContractError("allocations_at called at a terminal history")
    played, standings = len(history), history.won_values(spec)
    win_prob = spec.objective is Objective.WIN_PROBABILITY
    budgets = [
        0.0 if win_prob and _trails_hopelessly(spec, played, standings, i)
        else _formal_budget(spec, played, history.spent(i), i)
        for i in range(spec.n)
    ]
    out = []
    for i, strategy in enumerate(profile.strategies):
        while type(strategy) is Deviation and not (strategy.player == i
                                                   and strategy.history == history):
            strategy = strategy.base
        if type(strategy) is Proportional:
            out.append(_proportional_spend(spec, played, budgets[i]))  # within [0, budget]
            continue
        if type(strategy) is Deviation:
            raw = strategy.amount
        else:
            raw = float(strategy.spends(spec, played, np.array([standings]),
                                        np.array([budgets]), i)[0])
        out.append(min(max(raw, 0.0), budgets[i]))
    return tuple(out)


def _level_spends(below, spec, played, standings, spent):
    """Spends and contest success probabilities of live states, one per row.

    The states have played `played` battles; `standings` and `spent` are
    numpy arrays with one state per row.  When every strategy in `below` is
    `Proportional` all spends are one array operation; otherwise each
    player's strategy answers for its column, clamped into [0, budget].
    """
    budgets = _remaining_budgets(spec, played, standings, spent)
    if all(type(s) is Proportional for s in below):
        spends = _proportional_spend(spec, played, budgets)
    else:
        spends = np.column_stack([
            np.minimum(np.maximum(s.spends(spec, played, standings, budgets, i), 0.0),
                       budgets[:, i])
            for i, s in enumerate(below)
        ])
    return spends, _csf_distributions(spends, spec.csf)


def _children(spec, played, parent, winner, standings, spent, spends, key=None):
    """The states reached when `winner` wins battle `played` + 1 from state `parent`.

    `parent` and `winner` hold one child each; `standings`, `spent`,
    `spends` and `key` have one parent state per row.  Children equal in
    (key, standings, spent) merge into one state.  Returns the states'
    standings and spent, the first child of each state, and each child's
    state.
    """
    standings = standings[parent]
    standings[np.arange(parent.size), winner] += spec.values[played]
    spent = spent[parent] + spends[parent]
    columns = (standings, spent) if key is None else (key[parent], standings, spent)
    first, group = _distinct_rows(np.column_stack(columns))
    return standings[first], spent[first], first, group


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
