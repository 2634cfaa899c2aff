"""The nested SCC decomposition behind every parity-cycle search."""
import itertools
import random

from paritykit import ParityGame, solve_solitary, util
from paritykit.util import _parity_cycles

from conftest import naive_parity_cycle_nodes


def check_against_reference(n, priority, succ_lists):
    def succ(v):
        return succ_lists[v]

    for parity in (0, 1):
        found = list(_parity_cycles(range(n), priority, succ, parity))
        union = set()
        for scc, top in found:
            members = set(scc)
            assert not members & union, "yielded SCCs overlap"
            union |= members
            assert top == max(priority[v] for v in scc)
            assert top % 2 == parity
            for v in scc:  # strongly connected, and cyclic when a singleton
                seen, stack = set(), [w for w in succ(v) if w in members]
                while stack:
                    w = stack.pop()
                    if w not in seen:
                        seen.add(w)
                        stack.extend(x for x in succ(w) if x in members)
                assert seen == members
        assert union == naive_parity_cycle_nodes(range(n), priority, succ, parity)


def test_parity_cycles_match_the_reference_on_every_small_graph():
    for n in (1, 2, 3):
        pairs = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(pairs)):
            succ = [[] for _ in range(n)]
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    succ[u].append(v)
            for priority in itertools.product(range(4), repeat=n):
                check_against_reference(n, priority, succ)


def test_parity_cycles_match_the_reference_on_seeded_graphs():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 30)
        priority = [rng.randrange(rng.choice((2, 5, 12, 64))) for _ in range(n)]
        # Out-degree 0 allowed: the kernel searches Even's side alone,
        # where a node's moves may all leave the part.
        succ = [rng.sample(range(n), rng.randint(0, 3 if n > 3 else n)) for _ in range(n)]
        check_against_reference(n, priority, succ)


def test_solitary_needs_one_pass_when_the_top_priority_suits_the_mover(monkeypatch):
    calls = []
    original = util.tarjan_sccs

    def counting(nodes, succ):
        calls.append(len(nodes))
        return original(nodes, succ)

    monkeypatch.setattr(util, "tarjan_sccs", counting)
    # Wherever the solitary solver binds the SCC routine, count it there.
    monkeypatch.setattr("paritykit.oracle.tarjan_sccs", counting, raising=False)
    # One SCC (a ring with back edges) over priorities 0..63; 63 is odd.
    n = 64
    edges = [[(v + 1) % n, (v - 1) % n] for v in range(n)]
    g = ParityGame([1] * n, list(range(n)), edges)
    res = solve_solitary(g, mover=1)
    assert res.w1 == frozenset(range(n))
    assert calls == [n]
