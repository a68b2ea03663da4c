"""Pure strategies and strategy profiles.

A strategy maps contest states (battles played, standings, budgets left) to
one player's spends, so equal states play alike and the engines merge them.
Two kinds are provided: the proportional rule (spend the remaining budget
in proportion to the value of the upcoming battle relative to all remaining
value), and one-shot deviation wrappers that override a base strategy at
one history.
The backward solver's profile is a strategy of its own (`equilibrium`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ContestSpec,
    ContractError,
    History,
    InputError,
    _csf_distributions,
    _csf_row,
    _distinct_rows,
    _finite,
    _hashed_rows,
    _proportional_spend,
    _remaining_budgets,
    _state,
    _statuses,
    remaining_budget,
    terminal_status,
)


class Strategy:
    """Interface: a map from nonterminal contest states to one player's spends."""

    def spends(self, spec: ContestSpec, played: int, standings, budgets, player: int):
        """The player's spend at each of the states after `played` battles.

        `standings` and `budgets` have one state per row, to be read only;
        `budgets` are `core._remaining_budgets`, 0 for hopeless players.
        The caller clamps each spend into [0, budget].
        """
        raise NotImplementedError


def proportional_allocation(spec: ContestSpec, history: History, player: int) -> float:
    """Remaining budget times the upcoming battle's share of all remaining value."""
    if terminal_status(spec, history).terminal:
        raise ContractError("proportional allocation is undefined at terminal histories")
    return _proportional_spend(spec, len(history), remaining_budget(spec, history, player))


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
    (standings, _, _, budgets), played = _state(spec, history), len(history)
    proportional = _proportional_spend(spec, played, budgets[0]).tolist()  # within [0, budget]
    out = []
    for i, (strategy, budget) in enumerate(zip(profile.strategies, budgets[0].tolist())):
        while type(strategy) is Deviation and not (strategy.player == i
                                                   and strategy.history == history):
            strategy = strategy.base
        if type(strategy) is Proportional:
            out.append(proportional[i])
            continue
        if type(strategy) is Deviation:
            raw = strategy.amount
        else:
            raw = float(strategy.spends(spec, played, standings, budgets, i)[0])
        out.append(min(max(raw, 0.0), budget))
    return tuple(out)


def _every_winner(played, probs, weight, key):
    """Branch rule: every winner of positive probability, the weight times it."""
    parent, winner = np.nonzero(probs > 0.0)
    key = None if key is None else key[parent]
    return parent, winner, weight[parent] * probs[parent, winner], key


def _binomial_split(rng, played, probs, counts, key):
    """Branch rule: split each state's integer count over the winners.

    Binomial draws on `rng`, j-major: for j = 0..n-2, one call over all
    states draws winner j's share of the count left, with probability p_j /
    (p_j + ... + p_{n-1}), which lies in [0, 1] as rounded; the last player
    gets the rest.  The nonzero cells, row-major, are the children.
    """
    n = probs.shape[1]
    cells, left = np.empty(probs.shape, np.int64), counts
    for j in range(n - 1):
        tail = probs[:, j:].sum(axis=1)
        share = np.divide(probs[:, j], tail, out=np.zeros(len(tail)), where=tail > 0.0)
        cells[:, j] = rng.binomial(left, share)
        left = left - cells[:, j]
    cells[:, n - 1] = left
    parent, winner = np.nonzero(cells)
    key = None if key is None else key[parent]
    return parent, winner, cells[parent, winner], key


def _levels(spec, below, played, state, branch, spends=None, merge=None, part=None,
            select=None, tally=None):
    """Play the contest on from the given states: the one per-battle loop.

    A level is (standings, spent, weight, key) after `played` battles, one
    state per row; the weight is a float mass or an integer count, the key
    None or a column that keeps states apart.  The given states are live
    if `spends` are given for them, else status-tested.  Each level is
    yielded as (played, live, ended), `ended` with a winner mask appended
    or None, its live states first indexed by `select(played, count)` when
    given and no spends were.  Then the live states get spends and
    probabilities, and `branch(played, probs, weight, key)` returns the
    children's (parent, winner, weight, key).  The merge rule
    `merge(spec, played, children, tally)` status-tests the children and
    merges equal ones in (key, standings, spent), returning the next
    level's (live, ended): `_byte_merge` merges first, `_hash_merge` tests
    first; with no rule, nothing merges.  Levels go depth first; with
    `part`, larger levels are played in parts cut where the key changes,
    the level's ended states coming with the first.  `tally`, a dict,
    counts "merged" states and "parts" added.
    """
    live, ended = (state, None) if spends is not None else _split(spec, played, state)
    stack = [(played, live, ended, spends)]
    tally = {"merged": 0, "parts": 0} if tally is None else tally
    proportional = all(type(s) is Proportional for s in below)
    while stack:
        played, state, ended, spends = stack.pop()
        if part is not None and len(state[0]) > part:
            cuts = _cuts(state[3], part)
            tally["parts"] += len(cuts) - 1
            pieces = [_take(state + (spends,), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
            stack.extend((played, piece[:4], None, piece[4]) for piece in reversed(pieces[1:]))
            stack.append((played, pieces[0][:4], ended, pieces[0][4]))
            continue
        if select is not None and spends is None:
            state = _take(state, select(played, len(state[0])))
        yield played, state, ended
        standings, spent, weight, key = state
        if not len(standings):
            continue
        if spends is None:
            budgets = _remaining_budgets(spec, played, standings, spent)
            if proportional:
                spends = _proportional_spend(spec, played, budgets)
            else:  # each strategy answers for its column, clamped into [0, budget]
                spends = np.column_stack([
                    np.minimum(np.maximum(s.spends(spec, played, standings, budgets, i), 0.0),
                               budgets[:, i])
                    for i, s in enumerate(below)
                ])
        probs = _csf_distributions(spends, spec.csf)
        parent, winner, weight, key = branch(played, probs, weight, key)
        standings = standings[parent]
        standings[np.arange(parent.size), winner] += spec.values[played]
        children = (standings, spent[parent] + spends[parent], weight, key)
        live, ended = (_split(spec, played + 1, children) if merge is None
                       else merge(spec, played + 1, children, tally))
        stack.append((played + 1, live, ended, None))


def _split(spec, played, level) -> tuple:
    """The level's (live, ended) states by `core._statuses`, `ended` with a
    winner mask appended, or None when no state has ended."""
    status = _statuses(spec, played, level[0])
    if status is None:
        return level, None
    over, winners = status
    if over.all():  # every state ended: no copies
        return _take(level, slice(0)), level + (winners,)
    live, over = np.flatnonzero(~over), np.flatnonzero(over)
    return _take(level, live), _take(level, over) + (winners[over],)


def _merged(level, rows, tally) -> tuple:
    """The level with states equal in (key, standings, spent) merged and
    their weights added up, grouped by `rows` (`core._distinct_rows` or
    `core._hashed_rows`)."""
    standings, spent, weight, key = level
    columns = (standings, spent) if key is None else (key, standings, spent)
    first, group = rows(*columns)
    tally["merged"] += standings.shape[0] - first.size
    # integer counts come back from float sums, exact below 2^53
    weight = np.bincount(group, weights=weight).astype(weight.dtype, copy=False)
    return standings[first], spent[first], weight, None if key is None else key[first]


def _byte_merge(spec, played, children, tally) -> tuple:
    """Merge rule of simulation: every child merges, in the byte order of
    `core._distinct_rows`, and then the status test splits them, so ended
    and live states alike come out merged in that order.  The next
    battle's binomial draws follow it, so a seed's stream rests on it."""
    return _split(spec, played, _merged(children, _distinct_rows, tally))


def _hash_merge(spec, played, children, tally) -> tuple:
    """Merge rule of exact walks: the status test first, so ended children
    go to the walk unmerged (its `np.add.at` adds up repeats) and only live
    ones merge, by `core._hashed_rows`.  Its order of first occurrence keeps
    a row's states together, as the part cuts need, and in the order they
    have when the row is walked alone.  Every child of the last battle
    ends, so a walk's largest level is never merged."""
    live, ended = _split(spec, played, children)
    return (_merged(live, _hashed_rows, tally) if len(live[0]) else live), ended


def _cuts(keys, part: int) -> list:
    """Where to cut a level of states into parts of at most `part` (see `_levels`)."""
    ends = np.flatnonzero(np.diff(keys, prepend=-1, append=-1))  # 0, each key's end
    cuts = [0]
    while cuts[-1] < keys.size:
        end = int(ends[np.searchsorted(ends, cuts[-1] + part, side="right") - 1])
        cuts.append(end if end > cuts[-1] else cuts[-1] + part)
    return cuts


def _take(arrays, index) -> tuple:
    """Index every array of a state tuple alike, passing over missing ones."""
    return tuple([None if a is None else a[index] for a in arrays])


def one_shot_deviation(
    base: StrategyProfile, player: int, history: History, amount: float
) -> StrategyProfile:
    """Profile equal to `base` except `player` spends `amount` at `history`.

    `amount` must be a finite real number; where it is played, it is clamped
    into [0, the remaining budget].
    """
    if not 0 <= player < base.n:
        raise InputError(f"player index {player} out of range")
    amount = _finite(amount, "amount must be a finite real number")
    strategies = list(base.strategies)
    strategies[player] = Deviation(strategies[player], history, player, amount)
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
    _state(spec, history)
    return math.prod((_csf_row(r.allocations, spec.csf)[r.winner] for r in history.records),
                     start=1.0)
