"""Seeded game generators for tests and benchmarks.

Every family is deterministic in (family, n, priority_bound, seed, j, k):
the RNG is seeded from the full argument tuple, so equal arguments give
byte-identical games. A family refuses a `j` or `k` that it does not use.
"""
from __future__ import annotations

import random

from .errors import InvalidFamilyParams
from .game import ParityGame

FAMILIES = ("general", "bipartite", "bounded_outdegree", "unbalanced")


def _rng(family, n, priority_bound, seed, j, k):
    return random.Random(f"{family}:{n}:{priority_bound}:{seed}:{j}:{k}")


def generate(family: str, n: int, priority_bound: int, seed: int, *, j=None, k=None) -> ParityGame:
    """Generate a well-formed game from the requested family.

    Every node gets a random successor first, then extra edges, so the
    at-least-one-out-edge invariant holds by construction.
    """
    if family not in FAMILIES:
        raise InvalidFamilyParams(f"unknown family {family!r}")
    if n < 1 or priority_bound < 1:
        raise InvalidFamilyParams("need n >= 1 and priority_bound >= 1")
    if family == "bounded_outdegree":
        if j is None or j < 1:
            raise InvalidFamilyParams("bounded_outdegree requires j >= 1")
    elif j is not None:
        raise InvalidFamilyParams(f"j applies to bounded_outdegree only, not {family}")
    if family == "unbalanced":
        if k is None or not 0 <= k <= n:
            raise InvalidFamilyParams("unbalanced requires 0 <= k <= n")
    elif k is not None:
        raise InvalidFamilyParams(f"k applies to unbalanced only, not {family}")
    if family == "bipartite" and n < 2:
        raise InvalidFamilyParams("bipartite requires n >= 2 (self-loops cross sides)")

    rng = _rng(family, n, priority_bound, seed, j, k)
    priorities = [rng.randrange(priority_bound) for _ in range(n)]

    if family == "bipartite":
        ids = list(range(n))
        rng.shuffle(ids)
        evens = set(ids[: n // 2])
        owners = [0 if v in evens else 1 for v in range(n)]
        by_owner = ([], [])
        for v in range(n):
            by_owner[owners[v]].append(v)
        edges = []
        for u in range(n):
            other = by_owner[1 - owners[u]]
            extra = rng.randrange(0, 3)
            count = min(1 + extra, len(other))
            edges.append(rng.sample(other, count))
        return ParityGame(owners, priorities, edges)

    if family == "unbalanced":
        odd = set(rng.sample(range(n), k))
        owners = [1 if v in odd else 0 for v in range(n)]
        edges = []
        for u in range(n):
            if owners[u] == 1:
                # Dense odd side: many choices for the small player.
                count = max(1, n // 2)
            else:
                # A moderately dense even side keeps strategy enumeration
                # expensive without inflating the odd-node parameter.
                count = min(1 + rng.randrange(0, 8), n)
            edges.append(rng.sample(range(n), count))
        return ParityGame(owners, priorities, edges)

    max_extra = (j - 1) if family == "bounded_outdegree" else 2
    owners = [rng.randrange(2) for _ in range(n)]
    edges = []
    for u in range(n):
        extra = rng.randrange(0, max_extra + 1) if max_extra > 0 else 0
        count = min(1 + extra, n)
        edges.append(rng.sample(range(n), count))
    return ParityGame(owners, priorities, edges)
