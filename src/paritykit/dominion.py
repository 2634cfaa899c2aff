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
from .util import _parity_cycles
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


def _doomed(game: ParityGame, player: int) -> int:
    """Bitmask of the nodes that no closed set won by `player` contains.

    A node is forced for `player` if the opponent owns it or it has one
    successor. A closed set holds every successor of its opponent nodes
    and the chosen successor of the player's, so with a forced node it
    holds every cycle of forced nodes through it, and the opponent wins
    one whose top priority is theirs. From any node of the opponent's
    attractor of those cycles, the set likewise holds a path into one.
    """
    succ = game.succ
    forced = [v for v in game.nodes() if game.owner[v] != player or len(succ[v]) == 1]
    cycles = set()
    for scc, _ in _parity_cycles(forced, game.priority, succ.__getitem__, 1 - player):
        cycles.update(scc)
    if not cycles:
        return 0
    return sum(1 << v for v in attractor(game, cycles, 1 - player).set)


def find_dominion_by_degree(game: ParityGame, budget: DegreeBudget):
    """A dominion within the out-degree budget, if one exists.

    For each player and each start node, grows candidates: nodes enter a
    frontier and are consumed smallest-id first; the player's nodes
    branch over one kept successor, opponent nodes pull in all of theirs.
    A branch ends once the set holds more than `ell` nodes of out-degree
    above `j` or more than `s` of out-degree at most `j`. It also ends
    once it takes in a node the player's `_doomed` set refutes: a node
    from which the opponent forces play onto one of their cycles among
    the player's forced nodes. Such a branch only leads to candidates
    that fail, so each distinct closed (set, strategy) candidate it
    leaves is verified, and the first verified one in this order, the
    same as without refutation, is returned.

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
                if fresh & doomed:
                    return None
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
                if wbit & doomed or high + big > ell or low + (not big) > s:
                    continue
                found = grow(player, members | wbit, frontier | wbit, high + big,
                             low + (not big), choice + ((u, w),))
            if found:
                return found
        return None

    try:
        for player in (0, 1):
            doomed = _doomed(game, player)
            for start in game.nodes():
                bit, high = 1 << start, int(deg[start] > j)
                if high <= ell and 1 - high <= s and not bit & doomed:
                    found = grow(player, bit, bit, high, 1 - high, ())
                    if found:
                        return found
        return None
    finally:
        del grow  # its closure refers to itself; breaking that cycle frees `seen` at once
