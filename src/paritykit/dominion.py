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


def _nodes_in(mask: int) -> frozenset:
    """The node ids whose bits are set in `mask`."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(nodes)


def find_dominion_by_degree(game: ParityGame, budget: DegreeBudget):
    """A dominion within the out-degree budget, if one exists.

    For each player and each start node, grows candidates: nodes enter a
    frontier and are consumed smallest-id first; the player's nodes
    branch over one kept successor, opponent nodes pull in all of theirs.
    A branch ends once the set holds more than `ell` nodes of out-degree
    above `j` or more than `s` of out-degree at most `j`. Each distinct
    closed (set, strategy) candidate is verified, and the first verified
    one in this order is returned.

    The set and the frontier are int bitmasks over node ids. Forced moves
    (every opponent node, and each player node with one successor) are
    taken in a loop, so the recursion is only as deep as the player's real
    choices.
    """
    succ, deg = game.succ, [len(ts) for ts in game.succ]
    j, ell, s = budget.j, budget.ell, budget.s
    smask = [sum(1 << w for w in ts) for ts in succ]
    high_mask = sum(1 << v for v in game.nodes() if deg[v] > j)
    owned = [sum(1 << v for v in game.nodes_of(player)) for player in (0, 1)]
    seen = set()

    def grow(player, members, frontier, high, low, choice):
        mine = owned[player]
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            u = bit.bit_length() - 1
            if bit & mine:
                if deg[u] != 1:
                    break  # a real choice: branch over u's successors below
                choice += ((u, succ[u][0]),)
            fresh = smask[u] & ~members
            if fresh:
                big = (fresh & high_mask).bit_count()
                high, low = high + big, low + fresh.bit_count() - big
                if high > ell or low > s:
                    return None
                members |= fresh
                frontier |= fresh
        else:  # the frontier is used up: a closed candidate
            key = (player, members, tuple(sorted(choice)))
            if key in seen:
                return None
            seen.add(key)
            region, strat = _nodes_in(members), Strategy(player, dict(choice))
            if verify_strategy(game, region, strat):
                return DominionResult(region, player, strat)
            return None
        for w in succ[u]:
            wbit = 1 << w
            if members & wbit:
                found = grow(player, members, frontier, high, low, choice + ((u, w),))
            else:
                big = deg[w] > j
                if high + big > ell or low + (not big) > s:
                    continue
                found = grow(player, members | wbit, frontier | wbit, high + big,
                             low + (not big), choice + ((u, w),))
            if found:
                return found
        return None

    try:
        for player in (0, 1):
            for start in game.nodes():
                high = int(deg[start] > j)
                if high <= ell and 1 - high <= s:
                    found = grow(player, 1 << start, 1 << start, high, 1 - high, ())
                    if found:
                        return found
        return None
    finally:
        del grow  # its closure refers to itself; breaking that cycle frees `seen` at once
