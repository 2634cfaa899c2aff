"""Search procedures for small dominions.

A dominion for a player is a set of nodes from which that player wins
without ever leaving the set. Two searches are provided: enumeration of
odd-node subsets, and candidate growth bounded by out-degree budgets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .game import ParityGame, subgame
from .oracle import Strategy, _witness_on, verify_strategy
from .reach import attractor
from .zielonka import win as _zielonka_win


@dataclass(frozen=True)
class DominionResult:
    set: frozenset
    owner: int
    witness: Strategy


@dataclass(frozen=True)
class DegreeBudget:
    ell: int  # max nodes with out-degree above the threshold
    s: int  # max nodes with out-degree at or below the threshold
    j: int  # degree threshold

    def __post_init__(self):
        if self.ell < 0 or self.s < 0 or self.j < 1:
            raise ValueError("need ell >= 0, s >= 0, j >= 1")


def find_dominion_by_odd_nodes(game: ParityGame, ell: int, subsolver):
    """A dominion containing at most `ell` odd nodes, if one exists.

    For each player i and each odd-node subset V_D of size min(ell, k),
    restrict to the nodes the opponent cannot steer into the other odd
    nodes; any nonempty i-winning part of that sub-game is an i-dominion,
    and every i-dominion with <= ell odd nodes is found this way. The
    caller's subsolver must solve the (smaller) sub-games exactly.
    """
    odd = game.nodes_of(1)
    size = min(ell, len(odd))
    for i in (0, 1):
        for picked in combinations(odd, size):
            others = set(odd) - set(picked)
            removed = attractor(game, others, 1 - i).set
            if len(removed) == game.n:
                continue
            sub, smap = subgame(game, removed)
            res = subsolver(sub)
            if res.winners(i):
                region = smap.set_to_orig(res.winners(i))
                return DominionResult(region, i, _witness_on(game, region, i, _zielonka_win))
    return None


def _grow_candidates(game: ParityGame, player: int, start: int, budget: DegreeBudget):
    """All closed-candidate (set, strategy) pairs grown from `start`.

    Nodes enter a frontier and are consumed smallest-id first; nodes of
    `player` branch over a single kept edge, opponent nodes pull in all
    successors. Growth aborts once the set holds more than `ell` nodes of
    out-degree above `j` or more than `s` of out-degree at most `j`.
    """
    deg = [len(game.succ[v]) for v in game.nodes()]
    j, ell, s = budget.j, budget.ell, budget.s

    def rec(members, frontier, high, low, choice):
        if not frontier:
            yield frozenset(members), dict(choice)
            return
        u = min(frontier)
        rest = frontier - {u}
        if game.owner[u] == player:
            for w in game.succ[u]:
                choice[u] = w
                if w in members:
                    yield from rec(members, rest, high, low, choice)
                else:
                    h2 = high + (deg[w] > j)
                    l2 = low + (deg[w] <= j)
                    if h2 > ell or l2 > s:
                        del choice[u]
                        continue
                    yield from rec(members | {w}, rest | {w}, h2, l2, choice)
                del choice[u]
        else:
            fresh = [w for w in game.succ[u] if w not in members]
            h2 = high + sum(1 for w in fresh if deg[w] > j)
            l2 = low + sum(1 for w in fresh if deg[w] <= j)
            if h2 > ell or l2 > s:
                return
            yield from rec(members | set(fresh), rest | set(fresh), h2, l2, choice)

    high0 = 1 if deg[start] > j else 0
    if high0 > budget.ell or (1 - high0) > budget.s:
        return
    yield from rec(frozenset([start]), frozenset([start]), high0, 1 - high0, {})


def find_dominion_by_degree(game: ParityGame, budget: DegreeBudget):
    """A dominion within the out-degree budget, if one exists.

    Grows candidates from every start node for both players, verifies
    each distinct (set, strategy) pair, and returns the first verified
    one in deterministic enumeration order.
    """
    seen = set()
    for player in (0, 1):
        for start in game.nodes():
            for members, choice in _grow_candidates(game, player, start, budget):
                key = (player, members, tuple(sorted(choice.items())))
                if key in seen:
                    continue
                seen.add(key)
                strat = Strategy(player, choice)
                if verify_strategy(game, members, strat):
                    return DominionResult(members, player, strat)
    return None
