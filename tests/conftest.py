"""Shared corpora and reference implementations for the test suite."""
import itertools
import os
import random

from paritykit import ParityGame


def scale(full: int, fast: int) -> int:
    """Corpus size knob: set PARITYKIT_TEST_FAST=1 for quick iteration."""
    return fast if os.environ.get("PARITYKIT_TEST_FAST") else full


def exhaustive_games(n, priorities=range(4)):
    """Every game structure on n nodes: all owners, priorities, and
    nonempty successor sets."""
    subsets = [
        c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
    ]
    for owners in itertools.product((0, 1), repeat=n):
        for prios in itertools.product(priorities, repeat=n):
            for edges in itertools.product(subsets, repeat=n):
                yield ParityGame(owners, prios, edges)


def random_game(rng: random.Random, n: int, priority_bound: int) -> ParityGame:
    owners = [rng.randrange(2) for _ in range(n)]
    prios = [rng.randrange(priority_bound) for _ in range(n)]
    edges = [
        rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(n)
    ]
    return ParityGame(owners, prios, edges)


def seeded_games(count, n_range=(2, 8), priority_bound=8, seed=0):
    """Deterministic stream of arbitrary games for soak tests."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        yield random_game(rng, n, priority_bound)


def naive_attractor(game: ParityGame, target, player: int) -> frozenset:
    """Textbook fixpoint: grow until no node can be added."""
    reached = set(target)
    changed = True
    while changed:
        changed = False
        for v in game.nodes():
            if v in reached:
                continue
            succs = game.succ[v]
            if game.owner[v] == player:
                ok = any(w in reached for w in succs)
            else:
                ok = all(w in reached for w in succs)
            if ok:
                reached.add(v)
                changed = True
    return frozenset(reached)


def naive_parity_cycle_nodes(nodes, priority, succ, parity) -> frozenset:
    """Nodes v lying on a cycle of the priority-<=-d subgraph through a
    priority-d node, for some d of `parity`; edges leaving `nodes` are
    ignored. Reachability is recomputed from scratch for every d."""
    nodes = set(nodes)
    marked = set()
    for d in {priority[v] for v in nodes if priority[v] % 2 == parity}:
        level = {v for v in nodes if priority[v] <= d}

        def reach_plus(v):  # nodes reachable from v by at least one edge
            seen = set()
            stack = [w for w in succ(v) if w in level]
            while stack:
                w = stack.pop()
                if w not in seen:
                    seen.add(w)
                    stack.extend(x for x in succ(w) if x in level)
            return seen

        reach = {v: reach_plus(v) for v in level}
        for x in level:
            if priority[x] == d and x in reach[x]:
                marked.update(v for v in level if v in reach[x] and x in reach[v])
    return frozenset(marked)
