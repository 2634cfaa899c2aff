"""Game data model: nodes, owners, priorities, adjacency, and derived stats.

Node ids are dense integers 0..n-1 and successor lists are kept sorted
ascending, which doubles as the fixed total order used by the enumeration
procedures. Games are immutable after construction and safe to share.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import IntEnum

from .errors import PreconditionViolated


class Player(IntEnum):
    EVEN = 0
    ODD = 1


def p1_value(priority: int) -> int:
    """Odd player's preference value: priority if odd, -priority if even."""
    return priority if priority % 2 == 1 else -priority


def p_value(priority: int, player: int) -> int:
    """Preference value of `priority` for `player` (larger = better)."""
    v = p1_value(priority)
    return v if player == Player.ODD else -v


class ParityGame:
    """Immutable directed game graph with per-node owner and priority.

    Duplicate edges collapse silently on construction; self-loops are
    allowed. The reverse adjacency is always the transpose of `succ`.
    """

    __slots__ = ("owner", "priority", "succ", "pred")

    def __init__(self, owners, priorities, edges):
        owner = tuple(int(o) for o in owners)
        priority = tuple(int(p) for p in priorities)
        n = len(owner)
        if len(priority) != n or len(edges) != n:
            raise ValueError("owners, priorities and edges must have equal length")
        if any(o not in (0, 1) for o in owner):
            raise ValueError("owners must be 0 (Even) or 1 (Odd)")
        if any(p < 0 for p in priority):
            raise ValueError("priorities must be non-negative")
        succ = []
        for u, targets in enumerate(edges):
            ts = sorted(set(int(v) for v in targets))
            if ts and (ts[0] < 0 or ts[-1] >= n):
                raise ValueError(f"edge from node {u} to out-of-range id")
            succ.append(tuple(ts))
        self._fill(owner, priority, tuple(succ))

    @classmethod
    def _canonical(cls, owner, priority, succ):
        """A game built from tuples that are already deduplicated, ascending
        and in range, with none of `__init__`'s checks."""
        game = object.__new__(cls)
        game._fill(owner, priority, succ)
        return game

    def _fill(self, owner, priority, succ):
        # The only code that sets the slots, and so the only source of
        # `pred`: it is always the transpose of `succ`, each list ascending.
        lists = [[] for _ in succ]
        for u, ts in enumerate(succ):
            for v in ts:
                lists[v].append(u)
        self.owner = owner
        self.priority = priority
        self.succ = succ
        self.pred = tuple(tuple(ps) for ps in lists)

    @property
    def n(self) -> int:
        return len(self.owner)

    @property
    def m(self) -> int:
        return sum(len(ts) for ts in self.succ)

    def nodes(self) -> range:
        return range(self.n)

    def nodes_of(self, player: int):
        return [v for v in range(self.n) if self.owner[v] == player]

    def __eq__(self, other):
        if not isinstance(other, ParityGame):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.priority == other.priority
            and self.succ == other.succ
        )

    def __hash__(self):
        return hash((self.owner, self.priority, self.succ))

    def __repr__(self):
        return f"ParityGame(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(game: ParityGame) -> ValidationReport:
    """Report every violated well-formedness invariant; empty report = OK."""
    violations = []
    for v in game.nodes():
        if not game.succ[v]:
            violations.append(f"sink node {v}")
    # Duplicates and dangling ids cannot survive construction, and `pred`
    # is always derived from `succ`.
    return ValidationReport(tuple(violations))


def is_bipartite(game: ParityGame) -> bool:
    """True iff every edge crosses the owner partition."""
    owner = game.owner
    return all(owner[u] != owner[v] for u in game.nodes() for v in game.succ[u])


@dataclass(frozen=True)
class GameStats:
    n: int
    m: int
    k: int
    owner_of_k: Player
    priority_count: int
    p_max: int
    out_degrees: tuple

    def s_of(self, j: int) -> int:
        """Number of nodes with out-degree at most j."""
        return bisect.bisect_right(self.out_degrees, j)


def stats(game: ParityGame) -> GameStats:
    n = game.n
    n1 = sum(game.owner)
    n0 = n - n1
    # Ties go to Odd: the solvers assume the odd player owns the k side.
    owner_of_k = Player.ODD if n1 <= n0 else Player.EVEN
    priorities = set(game.priority)
    return GameStats(
        n=n,
        m=game.m,
        k=min(n0, n1),
        owner_of_k=owner_of_k,
        priority_count=len(priorities),
        p_max=max(priorities) if priorities else 0,
        out_degrees=tuple(sorted(len(ts) for ts in game.succ)),
    )


@dataclass(frozen=True)
class SubgameMap:
    """Id mapping from an induced sub-game back to the game it came from."""

    to_orig: tuple

    def set_to_orig(self, ids):
        return frozenset(self.to_orig[v] for v in ids)

    def map_to_orig(self, choice: dict) -> dict:
        return {self.to_orig[v]: self.to_orig[w] for v, w in choice.items()}


def subgame(game: ParityGame, remove) -> tuple:
    """Induced game on V minus `remove`, with dense re-indexing.

    Raises PreconditionViolated if a surviving node would become a sink,
    which signals that the complement of `remove` is not closed.
    """
    remove = set(remove)
    keep = [v for v in game.nodes() if v not in remove]
    to_sub = [-1] * game.n
    for i, v in enumerate(keep):
        to_sub[v] = i
    # The parent's lists are ascending and `to_sub` is monotone, so the
    # filtered lists are ascending.
    succ = []
    for v in keep:
        ts = tuple([to_sub[w] for w in game.succ[v] if to_sub[w] >= 0])
        if not ts:
            raise PreconditionViolated(
                f"node {v} becomes a sink in the sub-game (complement not closed)"
            )
        succ.append(ts)
    sub = ParityGame._canonical(
        tuple([game.owner[v] for v in keep]),
        tuple([game.priority[v] for v in keep]),
        tuple(succ),
    )
    return sub, SubgameMap(to_orig=tuple(keep))


def swap_roles(game: ParityGame) -> ParityGame:
    """Exchange the players: swap owners and shift every priority by one.

    The shift flips the winning condition, so winners of the swapped game
    are exactly the winners of the original with the players exchanged.
    """
    return ParityGame._canonical(
        tuple([1 - o for o in game.owner]),
        tuple([p + 1 for p in game.priority]),
        game.succ,
    )
