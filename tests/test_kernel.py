"""Reduction pipelines: frozen examples, rule soundness, bounds, lifting."""
import hashlib
import random

import pytest

from paritykit import (
    DominionRemoved,
    NotBipartite,
    ParityGame,
    SolveResult,
    TraceMismatch,
    generate,
    is_bipartite,
    kernelize_auto,
    kernelize_bipartite,
    kernelize_general,
    lift_solution,
    pgsolver,
    solve_brute,
    swap_roles,
    trace_lines,
    win,
)
from paritykit.kernel import _Work, _compress_priorities
from paritykit.game import p_value

from conftest import random_game, scale, seeded_games


def brute_winner_map(game):
    res = solve_brute(game)
    return {v: (0 if v in res.w0 else 1) for v in game.nodes()}


def general_with_swap(game):
    """Kernelize with the convention that Odd is the no-larger side."""
    n1 = sum(game.owner)
    if n1 <= game.n - n1:
        return kernelize_general(game)
    kern, tr = kernelize_general(swap_roles(game))
    from paritykit import ReductionTrace

    return kern, ReductionTrace(tr.events, tr.n_original, tr.kernel_ids, swapped=True)


# --- frozen end-to-end examples ---------------------------------------------

def test_general_pipeline_frozen_example():
    g = ParityGame(
        [0, 0, 1, 0, 0, 1],
        [2, 1, 3, 0, 2, 4],
        [[1, 3], [2], [0, 5], [4], [2], [3, 4]],
    )
    kern, tr = kernelize_general(g)
    assert pgsolver.dumps(kern) == (
        "parity 4;\n"
        "0 2 0 2;\n"
        "1 3 1 0,4;\n"
        "2 2 0 1;\n"
        "3 4 1 0,2;\n"
        "4 4 0 3;\n"
    )
    assert tr.kernel_ids == (0, 2, 4, 5, 6)
    assert trace_lines(tr) == [
        "SYN 6 edge-split",
        "NOPRED 1 0 2",
        "CONTRACT 0 3",
    ]
    res = lift_solution(tr, win(kern))
    assert res.w1 == frozenset(range(6))


def test_bipartite_pipeline_frozen_example():
    g = ParityGame(
        [0, 1, 0, 1],
        [4, 3, 4, 1],
        [[1, 3], [0, 2], [1], [2]],
    )
    kern, tr = kernelize_bipartite(g)
    assert pgsolver.dumps(kern) == "parity 1;\n0 1 1 1;\n1 2 0 0;\n"
    assert tr.kernel_ids == (1, 2)
    assert trace_lines(tr) == [
        "PRIO 1=1 3=1 4=2",
        "EDGEDEL 1 0",
        "EDGEDEL 0 1",
        "CONTRACT 1 3",
        "NOPRED 0 0 1",
    ]
    res = lift_solution(tr, win(kern))
    assert res.w0 == frozenset(range(4))


def test_general_pipeline_removes_even_cycles_as_dominion():
    # A purely-Even cycle with even maximum priority is an Even dominion;
    # everything Even can steer into it goes too.
    g = ParityGame(
        [0, 0, 0, 1],
        [0, 2, 1, 1],
        [[1], [0], [0, 3], [3]],
    )
    kern, tr = kernelize_general(g)
    lines = trace_lines(tr)
    assert any(line.startswith("DOM 0") for line in lines)
    res = lift_solution(tr, win(kern))
    assert res.w0 >= frozenset({0, 1, 2})


def test_general_pipeline_swaps_roles_when_odd_is_larger():
    odd_larger = [
        g for g in seeded_games(scale(200, 40), n_range=(1, 9), seed=11)
        if 2 * sum(g.owner) > g.n
    ]
    assert len(odd_larger) > 10
    for g in [ParityGame([1, 1, 0], [0, 0, 0], [[2], [2], [0, 1]])] + odd_larger:
        kern, tr = kernelize_general(g)
        assert (kern, tr) == general_with_swap(g)
        assert trace_lines(tr)[0] == "SWAP"


def test_bipartite_pipeline_rejects_internal_edges():
    g = ParityGame([0, 0], [0, 0], [[1], [0]])
    with pytest.raises(NotBipartite):
        kernelize_bipartite(g)


def test_auto_dispatch():
    bip = ParityGame([0, 1], [0, 1], [[1], [0]])
    kb, _ = kernelize_auto(bip)
    assert is_bipartite(kb)
    # Odd-larger general game goes through the swapped pipeline.
    g = ParityGame([1, 1, 0], [1, 0, 2], [[2], [0, 2], [0, 1]])
    kern, tr = kernelize_auto(g)
    assert tr.swapped
    assert trace_lines(tr)[0] == "SWAP"
    res = lift_solution(tr, win(kern))
    assert res.w0 == solve_brute(g).w0


# --- the four bipartite rules in isolation ----------------------------------

def apply_priority_rule(game):
    work = _Work(game)
    events = []
    _compress_priorities(work, events)
    return work.finish()[0]


def first_removable(game):
    for v in game.nodes():
        if not game.pred[v]:
            return v
    return None


def apply_indeg_rule_once(game, v):
    work = _Work(game)
    work.remove_nodes([v])
    return work.finish()


def outdeg_rule_candidates(game):
    for player in (0, 1):
        side = [v for v in game.nodes() if game.owner[v] == player]
        for u in side:
            for v in side:
                if v == u:
                    continue
                if not set(game.succ[v]) <= set(game.succ[u]):
                    continue
                pref = 1 - player
                if p_value(game.priority[v], pref) < p_value(game.priority[u], pref):
                    continue
                shared = set(game.pred[u]) & set(game.pred[v])
                if shared:
                    yield u, shared


def apply_outdeg_rule_once(game, u, shared):
    work = _Work(game)
    for w in shared:
        work.remove_edge(w, u)
    return work.finish()[0]


def equal_rule_candidates(game):
    groups = {}
    for v in game.nodes():
        key = (game.owner[v], game.priority[v], game.succ[v])
        groups.setdefault(key, []).append(v)
    for members in groups.values():
        if len(members) > 1:
            yield members[0], members[1]


def apply_equal_rule_once(game, kept, absorbed):
    work = _Work(game)
    work.contract(kept, absorbed)
    return work.finish()


def bipartite_corpus(count, seed, priority_bound=5):
    produced = 0
    rng = random.Random(seed)
    while produced < count:
        g = random_game(rng, rng.randint(2, 7), priority_bound)
        if is_bipartite(g):
            produced += 1
            yield g


def test_priority_rule_preserves_partition():
    for g in bipartite_corpus(scale(300, 40), seed=29):
        assert brute_winner_map(apply_priority_rule(g)) == brute_winner_map(g)


# The three rule tests below keep their full corpus in fast mode too: each
# rule applies to few of these games, and a smaller corpus misses the floor.
def test_indeg_rule_preserves_partition_on_survivors():
    checked = 0
    for g in bipartite_corpus(400, seed=31):
        v = first_removable(g)
        if v is None:
            continue
        reduced, ids = apply_indeg_rule_once(g, v)
        before = brute_winner_map(g)
        after = brute_winner_map(reduced)
        for i, orig in enumerate(ids):
            assert after[i] == before[orig]
        checked += 1
    assert checked > 10


def test_outdeg_rule_preserves_partition():
    checked = 0
    for g in bipartite_corpus(400, seed=37):
        for u, shared in outdeg_rule_candidates(g):
            reduced = apply_outdeg_rule_once(g, u, shared)
            if any(not ts for ts in reduced.succ):
                continue  # rule application emptied a node; skip degenerate
            assert brute_winner_map(reduced) == brute_winner_map(g)
            checked += 1
            break
    assert checked > 10


def test_equal_rule_preserves_partition_on_survivors():
    checked = 0
    for g in bipartite_corpus(500, seed=41, priority_bound=2):
        for kept, absorbed in equal_rule_candidates(g):
            reduced, ids = apply_equal_rule_once(g, kept, absorbed)
            before = brute_winner_map(g)
            after = brute_winner_map(reduced)
            for i, orig in enumerate(ids):
                assert after[i] == before[orig]
            checked += 1
            break
    assert checked > 10


# --- bounds, idempotence, lifting --------------------------------------------

def test_kernel_size_bounds_random():
    for g in seeded_games(scale(400, 60), n_range=(2, 9), seed=43):
        n1 = sum(g.owner)
        k = min(n1, g.n - n1)
        p = len(set(g.priority))
        if is_bipartite(g):
            kern, _ = kernelize_bipartite(g)
            k = n1
            assert kern.n <= k + 2**k * min(k, p)
            assert kern.m <= k * 2**k * min(k, p)
        else:
            kern, _ = general_with_swap(g)
            assert kern.n <= (p + 1) ** k + (p + 1) * k


def test_kernelizers_are_idempotent():
    for g in seeded_games(scale(400, 60), n_range=(2, 9), seed=47):
        if is_bipartite(g):
            kern, _ = kernelize_bipartite(g)
            again, tr = kernelize_bipartite(kern)
            assert again == kern and not tr.events
        else:
            kern, _ = general_with_swap(g)
            again, tr = general_with_swap(kern)
            assert again == kern and not tr.events


def test_lift_matches_direct_solve():
    for g in seeded_games(scale(400, 60), n_range=(2, 9), seed=53):
        kern, tr = kernelize_auto(g)
        res = lift_solution(tr, win(kern))
        assert res.w0 == solve_brute(g).w0


def test_lift_rejects_wrong_coverage():
    g = ParityGame([0, 1], [0, 1], [[1], [0]])
    kern, tr = kernelize_auto(g)
    bad = SolveResult(frozenset(), frozenset())
    if kern.n:
        with pytest.raises(TraceMismatch):
            lift_solution(tr, bad)


# --- pinned outputs ----------------------------------------------------------

def _pinned_corpus():
    for family, kw in (
        ("general", lambda n: {}),
        ("bipartite", lambda n: {}),
        ("bounded_outdegree", lambda n: {"j": 3}),
        ("unbalanced", lambda n: {"k": n // 4 + 1}),
    ):
        for n in (2, 5, 9, 16, 30, 60):
            for bound in (2, 5, 9):
                for seed in range(3):
                    yield generate(family, n, bound, seed, **kw(n))
    for k in (2, 8):
        yield generate("unbalanced", 3200, 8, 0, k=k)


def test_kernel_outputs_are_pinned():
    # Kernels, traces and ids over every family, the paper's large
    # unbalanced games included, must stay byte for byte what they were
    # when this digest was taken.
    digest = hashlib.sha256()
    for g in _pinned_corpus():
        for reduce in (kernelize_auto, kernelize_general):
            kern, tr = reduce(g)
            for part in (pgsolver.dumps(kern), trace_lines(tr), tr.kernel_ids, tr.swapped):
                digest.update(repr(part).encode())
    assert digest.hexdigest()[:16] == "bc939a3789597e63"


def test_general_pipeline_copies_only_what_its_even_dominion_leaves(monkeypatch):
    built = []
    real_init = _Work.__init__

    def recorded_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(set(self.owner))

    monkeypatch.setattr(_Work, "__init__", recorded_init)
    _, tr = kernelize_general(generate("unbalanced", 3200, 8, 0, k=8))
    (removed,) = [
        ev.nodes for ev in tr.events if isinstance(ev, DominionRemoved) and ev.winner == 0
    ]
    assert len(removed) > 3000 and len(built) == 1
    assert not built[0] & set(removed)
