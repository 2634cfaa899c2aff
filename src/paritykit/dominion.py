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


def find_dominion_by_degree(game: ParityGame, budget: DegreeBudget):
    """A dominion within the out-degree budget, if one exists.

    For each player and each start node, grows candidates: nodes enter a
    frontier and are consumed smallest-id first; the player's nodes
    branch over one kept successor, opponent nodes pull in all of theirs.
    A branch ends once the set holds more than `ell` nodes of out-degree
    above `j` or more than `s` of out-degree at most `j`. Each distinct
    closed (set, strategy) candidate is verified, and the first verified
    one in this order is returned.
    """
    deg = [len(succ) for succ in game.succ]
    j, ell, s = budget.j, budget.ell, budget.s
    seen = set()

    def grow(player, members, frontier, high, low, choice):
        if not frontier:
            key = (player, members, tuple(sorted(choice)))
            if key in seen:
                return None
            seen.add(key)
            strat = Strategy(player, dict(choice))
            if verify_strategy(game, members, strat):
                return DominionResult(members, player, strat)
            return None
        u = min(frontier)
        rest = frontier - {u}
        if game.owner[u] != player:
            fresh = [w for w in game.succ[u] if w not in members]
            big = sum(deg[w] > j for w in fresh)
            high, low = high + big, low + len(fresh) - big
            if high > ell or low > s:
                return None
            return grow(player, members.union(fresh), rest.union(fresh), high, low, choice)
        for w in game.succ[u]:
            if w in members:
                found = grow(player, members, rest, high, low, choice + ((u, w),))
            else:
                big = deg[w] > j
                if high + big > ell or low + (not big) > s:
                    continue
                found = grow(player, members | {w}, rest | {w}, high + big, low + (not big),
                             choice + ((u, w),))
            if found:
                return found
        return None

    try:
        for player in (0, 1):
            for start in game.nodes():
                high = int(deg[start] > j)
                if high <= ell and 1 - high <= s:
                    found = grow(player, frozenset([start]), frozenset([start]), high,
                                 1 - high, ())
                    if found:
                        return found
        return None
    finally:
        del grow  # its closure refers to itself; breaking that cycle frees `seen` at once
