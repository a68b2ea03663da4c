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
    _hopeless,
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
    """Branch rule: every winner of positive probability, the weight times it.

    At a node level (`_levels`) the probabilities and weights have a column
    per row of the node's group, whose first row branches for all of them.
    """
    if probs.ndim == 3:
        parent, winner = np.nonzero(probs[:, 0] > 0.0)
        weight = weight.take(parent, 0) * probs[parent, :, winner]
        return parent, winner, weight, key.take(parent, 0)
    parent, winner = np.nonzero(probs > 0.0)
    key = None if key is None else key.take(parent, 0)
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
    first; with no rule, nothing merges.

    A node level, given with spent None, is for proportional play, where a
    live player's spends never read who won: row k of its key lists the
    walk's rows of node k's group, padded with the row R past the last, and
    its weight has a mass for each (a node is a state for every row of its
    group at once; with groups of one row, the key is the row and the
    weight a mass).  Then `spends` are the rows' spends at every battle
    from the first, battles left x R + 1 x n, and a node spends them, but 0
    for a player who is a guaranteed loser there: such a player stays one,
    whoever wins.  The given nodes are live, and merges go by the group
    (its first row) and the standings.

    Levels go depth first; with `part`, a level of more than `part` states
    or masses is played in parts: cut where the key changes, a key of more
    than `part` states itself in parts of `part`, and a node level of at
    most `part` nodes in parts of its key's columns, each part without the
    nodes that have none of its rows.  A level's ended states come with its
    first part.  `tally`, a dict, counts "merged" states and "parts" added.
    """
    live, ended = (state, None) if spends is not None else _split(spec, played, state)
    nodes = state[1] is None
    if nodes:  # the rows' paths
        paths, first, pad, spends = spends, played, spends.shape[1] - 1, None
    stack = [(played, live, ended, spends)]
    tally = {"merged": 0, "parts": 0} if tally is None else tally
    proportional = all(type(s) is Proportional for s in below)
    wins = np.eye(spec.n) * np.array(spec.values)[:, None, None]  # what a winner adds, by battle
    while stack:
        played, state, ended, spends = stack.pop()
        if part is not None and state[2].size > part:
            keys = state[3] if state[3].ndim == 1 else state[3][:, 0]
            if keys.size > part:
                cuts = _cuts(keys, part)
                pieces = [_take(state + (spends,), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
            else:  # a node level: parts of its groups' rows
                width = part // keys.size
                pieces = [_columns(state, slice(a, a + width), pad) + (None,)
                          for a in range(0, state[2].shape[1], width)]
                pieces = [piece for piece in pieces if len(piece[0])]
            tally["parts"] += len(pieces) - 1
            stack.extend((played, piece[:4], None, piece[4]) for piece in reversed(pieces[1:]))
            stack.append((played, pieces[0][:4], ended, pieces[0][4]))
            continue
        if select is not None and spends is None:
            state = _take(state, select(played, len(state[0])))
        yield played, state, ended
        standings, spent, weight, key = state
        if not len(standings):
            continue
        if nodes:
            spends = paths[played - first].take(key, 0)
            if spec.n > 2 and played > first:  # with two, no live node has a guaranteed loser
                lost = _hopeless(spec, played, standings)
                spends = np.where(lost if key.ndim == 1 else lost[:, None], 0.0, spends)
        else:
            if spends is None:
                budgets = _remaining_budgets(spec, played, standings, spent)
                if proportional:
                    spends = _proportional_spend(spec, played, budgets)
                else:  # each strategy answers for its column, clamped into [0, budget]
                    spends = np.column_stack([
                        np.minimum(np.maximum(s.spends(spec, played, standings, budgets, i),
                                              0.0), budgets[:, i])
                        for i, s in enumerate(below)
                    ])
        probs = _csf_distributions(spends, spec.csf)
        parent, winner, weight, key = branch(played, probs, weight, key)
        standings = standings.take(parent, 0) + wins[played].take(winner, 0)
        children = (standings, None if nodes else spent.take(parent, 0) + spends.take(parent, 0),
                    weight, key)
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
    return _take(level, live), _take(level, over) + (winners.take(over, 0),)


def _merged(level, rows, tally) -> tuple:
    """The level with states equal in (key, standings, spent) merged and
    their weights added up, grouped by `rows` (`core._distinct_rows` or
    `core._hashed_rows`).  A node level merges on its key's first row and
    its standings, and each row's masses add up in node order."""
    standings, spent, weight, key = level
    group = key if key is None or key.ndim == 1 else key[:, 0]
    first, merged = rows(*[a for a in (group, standings, spent) if a is not None])
    tally["merged"] += standings.shape[0] - first.size
    # one sum per (merged state, column); integer counts come back from
    # float sums, exact below 2^53
    width = weight.size // merged.size
    index = merged if width == 1 else (merged[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(index, weights=weight.ravel(), minlength=first.size * width)
    weight = sums.astype(weight.dtype, copy=False).reshape((first.size,) + weight.shape[1:])
    return (standings.take(first, 0), None if spent is None else spent.take(first, 0), weight,
            None if key is None else key.take(first, 0))


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
    a row's states, or a group's nodes, together, as the part cuts need,
    and in the order they have when the row is walked alone.  Every child of the last battle
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
    """Index every array of a state tuple alike along its first axis, by a
    slice or by positions, passing over missing ones."""
    if isinstance(index, slice):
        return tuple([None if a is None else a[index] for a in arrays])
    return tuple([None if a is None else a.take(index, 0) for a in arrays])


def _columns(level, columns: slice, pad: int) -> tuple:
    """A node level's masses of the rows in `columns` of each key, without
    the nodes whose key has only the padding row `pad` there."""
    standings, spent, weight, key = level
    key = key[:, columns]
    return _take((standings, spent, weight[:, columns], key), np.flatnonzero(key[:, 0] != pad))


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
