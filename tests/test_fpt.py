"""Parameterized solvers: budgets, threshold choice, and agreement."""
import hashlib
import itertools
import math
import sys
import threading

import pytest

from paritykit import (
    AttractorResult,
    BudgetExceeded,
    FptConfig,
    ParityGame,
    ParityKitError,
    SolveContext,
    SolveResult,
    choose_j,
    generate,
    new_win1,
    new_win2,
    old_win1,
    old_win2,
    solve,
    solve_brute,
    verify_partition,
    win,
)
from paritykit import fpt, zielonka
from paritykit.fpt import _degree_budget, _ell_from_k

from conftest import scale, seeded_games


def test_config_validation():
    with pytest.raises(ValueError):
        FptConfig(base_case_k=1)


def test_odd_count_budget_formula():
    for k, expected in ((0, 0), (1, 1), (2, 2), (4, 2), (5, 3), (8, 4), (50, 10)):
        assert _ell_from_k(k) == expected


def test_degree_budget_formula():
    b = _degree_budget(n=20, s_j=12, j=3)
    assert b.ell == math.ceil(math.sqrt(16))
    assert b.s == math.ceil(math.sqrt(12 * math.log(12) / math.log(3)))
    assert b.j == 3
    # Degenerate low side: no low-degree allowance at all.
    assert _degree_budget(n=5, s_j=0, j=2).s == 0
    assert _degree_budget(n=5, s_j=1, j=2).s == 0
    # The allowance never exceeds the population it draws from.
    assert _degree_budget(n=4, s_j=2, j=2).s <= 2


def test_choose_j_prefers_smallest_on_ties():
    # Complete graph: s_j = 0 for all j < n, s_n = n; the score is flat
    # until j = n, and the tie at the flat part resolves to j = 2.
    n = 5
    g = ParityGame([0] * n, [0] * n, [list(range(n))] * n)
    j, score = choose_j(g)
    assert j == 2
    assert score == pytest.approx(math.sqrt(n))


def test_choose_j_follows_degree_profile():
    # Nine out-degree-2 nodes and one hub: j = 2 already covers the low
    # side, and larger j only inflates the log factor.
    n = 10
    edges = [[(v + 1) % n, (v + 2) % n] for v in range(n - 1)]
    edges.append(list(range(n)))
    g = ParityGame([0] * n, [0] * n, edges)
    j, _ = choose_j(g)
    assert j == 2
    with pytest.raises(ValueError):
        choose_j(ParityGame([0], [0], [[0]]))


def test_all_solvers_agree_on_families():
    for family, kw in (
        ("general", {}),
        ("bipartite", {}),
        ("bounded_outdegree", {"j": 2}),
        ("unbalanced", {"k": 2}),
    ):
        for seed in range(scale(40, 8)):
            g = generate(family, 8, 5, seed, **kw)
            expected = solve_brute(g).w0
            assert new_win1(g).w0 == expected
            assert old_win1(g).w0 == expected
            for j in (2, 3):
                assert new_win2(g, j).w0 == expected
                assert old_win2(g, j).w0 == expected


def test_agreement_without_kernelization():
    cfg = FptConfig(kernelize=False)
    for g in seeded_games(scale(120, 30), n_range=(2, 8), seed=61):
        assert new_win1(g, cfg).w0 == solve_brute(g).w0


def test_small_base_case_forces_recursion():
    # base_case_k=2 pushes new_win1 through the dominion search and the
    # two-call recursion instead of solving by brute force immediately.
    cfg = FptConfig(base_case_k=2)
    for g in seeded_games(scale(80, 20), n_range=(4, 8), seed=67):
        assert new_win1(g, cfg).w0 == solve_brute(g).w0


def test_new_win2_rejects_unit_threshold():
    g = ParityGame([0, 1], [0, 1], [[1], [0]])
    with pytest.raises(ValueError):
        new_win2(g, 1)


def test_metrics_track_depth_and_hits():
    g = generate("general", 8, 4, 3)
    ctx = SolveContext()
    assert (ctx.depth, ctx.max_depth, ctx.dominion_hits) == (0, 0, 0)
    new_win1(g, FptConfig(base_case_k=2), ctx=ctx)
    assert ctx.depth == 0  # balanced enter/exit
    assert ctx.max_depth >= 1


def test_solve_dispatch():
    g = generate("general", 7, 4, 5)
    expected = solve_brute(g).w0
    for algo in ("zielonka", "brute", "fpt_k", "fpt_degree"):
        res = solve(g, algo)
        assert res.w0 == expected
        assert res.w0 | res.w1 == frozenset(g.nodes())
        assert not res.w0 & res.w1
    assert solve(g, "fpt_degree", FptConfig(sub_j=2)).w0 == expected
    with pytest.raises(ValueError):
        solve(g, "nosuch")


def test_brute_budget_propagates():
    g = generate("general", 12, 4, 0)
    with pytest.raises(BudgetExceeded):
        solve(g, "brute", FptConfig(brute_budget=1))


def test_empty_and_single_node_games():
    empty = ParityGame([], [], [])
    assert new_win1(empty).w0 == frozenset()
    assert new_win2(empty, 2).w0 == frozenset()
    one = ParityGame([1], [1], [[0]])
    assert new_win1(one).w1 == frozenset({0})
    assert new_win2(one, 2).w1 == frozenset({0})


@pytest.mark.parametrize(
    "w0, w1, message",
    [
        ({0, 1}, {1}, "node 1 in both W0 and W1"),
        ({0}, set(), "misses or adds node 1"),
        ({0}, {1, 2}, "misses or adds node 2"),
    ],
    ids=("overlap", "missing", "extra"),
)
def test_solve_rejects_a_result_that_is_not_a_partition(monkeypatch, w0, w1, message):
    g = ParityGame([0, 1], [2, 1], [[1], [0]])
    bad = SolveResult(frozenset(w0), frozenset(w1))
    monkeypatch.setattr(fpt, "new_win1", lambda game, cfg, ctx: bad)
    with pytest.raises(ParityKitError, match=message):
        solve(g, "fpt_k")


def test_new_win1_never_kernelizes_its_own_kernel(monkeypatch):
    returned = []
    kernelize = fpt.kernelize_auto

    def recording(game):
        assert not any(game is kernel for kernel in returned), "kernel re-kernelized"
        kernel, trace = kernelize(game)
        returned.append(kernel)
        return kernel, trace

    monkeypatch.setattr(fpt, "kernelize_auto", recording)
    for seed in range(40):
        g = generate("general", 12, 6, seed)
        assert new_win1(g, FptConfig(base_case_k=2)).w0 == solve(g, "zielonka").w0
    assert returned


def _attract_nothing(game, target, player):
    return AttractorResult(frozenset(), {})


def test_two_call_recursion_refuses_a_sub_game_that_does_not_shrink(monkeypatch):
    monkeypatch.setattr(zielonka, "attractor", _attract_nothing)
    g = ParityGame([0, 1], [2, 1], [[1], [0]])
    with pytest.raises(ParityKitError, match="did not shrink"):
        old_win2(g, 2)


def test_dominion_removal_refuses_a_sub_game_that_does_not_shrink(monkeypatch):
    g = generate("general", 8, 4, 0)  # has a degree dominion at j = 2
    monkeypatch.setattr(fpt, "attractor", _attract_nothing)
    ctx = SolveContext()
    with pytest.raises(ParityKitError, match="did not shrink"):
        new_win2(g, 2, ctx=ctx)
    assert ctx.dominion_hits == 1
    assert ctx.depth == 0  # the raising level was left too


def _fpt_corpus():
    """The seeded games that the agreement tests above solve."""
    for family, kw in (
        ("general", {}),
        ("bipartite", {}),
        ("bounded_outdegree", {"j": 2}),
        ("unbalanced", {"k": 2}),
    ):
        for seed in range(scale(40, 8)):
            yield generate(family, 8, 5, seed, **kw)
    yield from seeded_games(scale(120, 30), n_range=(2, 8), seed=61)
    yield from seeded_games(scale(80, 20), n_range=(4, 8), seed=67)


@pytest.mark.parametrize("cfg", [FptConfig(), FptConfig(base_case_k=2)], ids=("default", "k2"))
def test_new_win1_matches_zielonka_on_the_seeded_corpora(cfg):
    for g in _fpt_corpus():
        res, ref = new_win1(g, cfg), win(g)
        assert (res.w0, res.w1) == (ref.w0, ref.w1)


def _counters(ctx):
    return ctx.depth, ctx.max_depth, ctx.dominion_hits, ctx.memo_hits, len(ctx.memo)


# new_win1 meets many of this game's sub-games more than once.
REPEATS = ("general", 24, 8, 2)


def test_memo_answers_repeated_sub_games_correctly():
    g = generate(*REPEATS)
    ctx = SolveContext()
    res = new_win1(g, ctx=ctx)
    assert ctx.memo_hits > 0
    assert (res.w0, res.w1) == (win(g).w0, win(g).w1)
    for (sub, cfg), stored in ctx.memo.items():
        assert cfg == FptConfig()
        assert (stored.w0, stored.w1) == (win(sub).w0, win(sub).w1)


def test_a_memo_hit_adds_no_level_and_no_dominion_hit():
    g = generate(*REPEATS)
    ctx = SolveContext()
    new_win1(g, ctx=ctx)
    depth, max_depth, hits, memo_hits, size = _counters(ctx)
    new_win1(g, ctx=ctx)
    assert _counters(ctx) == (depth, max_depth, hits, memo_hits + 1, size)


@pytest.mark.parametrize("cfg", [FptConfig(), FptConfig(base_case_k=2)], ids=("default", "k2"))
def test_counters_repeat_across_solves_of_one_game(cfg):
    g = generate(*REPEATS)
    runs = []
    for _ in range(2):
        ctx = SolveContext()
        new_win1(g, cfg, ctx=ctx)
        new_win2(g, 3, cfg, ctx=ctx)
        runs.append(_counters(ctx))
    assert runs[0] == runs[1]
    assert runs[0][1] >= 1 and runs[0][3] > 0


def test_a_second_context_shares_nothing_with_the_first():
    g = generate(*REPEATS)
    alone = SolveContext()
    new_win1(g, ctx=alone)
    first = SolveContext()
    new_win1(generate("general", 12, 6, 0), ctx=first)
    before = _counters(first)
    second = SolveContext()
    new_win1(g, ctx=second)
    assert _counters(first) == before
    assert _counters(second) == _counters(alone)


def test_one_context_counts_both_solvers_as_one_solve():
    g = generate(*REPEATS)
    cfg = FptConfig(base_case_k=2)
    one, two = SolveContext(), SolveContext()
    new_win1(g, cfg, ctx=one)
    new_win2(g, 3, cfg, ctx=two)
    both = SolveContext()
    new_win1(g, cfg, ctx=both)
    new_win2(g, 3, cfg, ctx=both)
    assert both.dominion_hits == one.dominion_hits + two.dominion_hits > 0
    assert both.max_depth == max(one.max_depth, two.max_depth)
    assert (both.memo_hits, both.memo) == (one.memo_hits, one.memo)
    assert both.depth == 0


# old_win1's peel meets repeated sub-games on this game; on REPEATS its
# sub-games are small enough for brute force and nothing repeats.
PEEL_REPEATS = ("general", 24, 8, 3)


def test_old_win1_answers_repeated_sub_games_from_one_memo(monkeypatch):
    g = generate(*PEEL_REPEATS)
    ctx = SolveContext()
    res = old_win1(g, ctx=ctx)
    assert ctx.memo_hits > 0
    assert (res.w0, res.w1) == (win(g).w0, win(g).w1)
    # Given no context, old_win1 makes one and every sub-solve shares it.
    contexts = []
    real_new_win1 = fpt.new_win1

    def recorded_new_win1(game, cfg=None, ctx=None):
        contexts.append(ctx)
        return real_new_win1(game, cfg, ctx)

    monkeypatch.setattr(fpt, "new_win1", recorded_new_win1)
    old_win1(g)
    assert len(contexts) > 1 and all(c is contexts[0] for c in contexts)
    assert _counters(contexts[0]) == _counters(ctx)


def test_concurrent_solves_share_no_counters_or_memo():
    games = [generate(*REPEATS)] + [generate("bipartite", 24, 8, s) for s in range(3)]
    cfg = FptConfig(base_case_k=2)

    def counted(g):
        ctx = SolveContext()
        res = new_win1(g, cfg, ctx)
        new_win2(g, 3, cfg, ctx)
        return _counters(ctx), set(ctx.memo), (res.w0, res.w1)

    expected = [counted(g) for g in games]
    assert len({frozenset(keys) for _, keys, _ in expected}) == len(games)
    seen = [[] for _ in games]

    def worker(i):
        for _ in range(3):
            seen[i].append(counted(games[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(games))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[e] * 3 for e in expected]


@pytest.mark.parametrize(
    "solver",
    [
        lambda g: new_win2(g, 2),
        lambda g: new_win2(g, 3),
        lambda g: old_win2(g, 2),
        lambda g: new_win1(g, FptConfig(kernelize=False)),
        lambda g: new_win1(g, FptConfig(kernelize=False, base_case_k=2)),
    ],
    ids=("new_win2-j2", "new_win2-j3", "old_win2", "new_win1-no-kernel",
         "new_win1-no-kernel-k2"),
)
def test_unkernelized_results_certify_on_the_seeded_corpora(solver):
    # README promises these results certify; one-node games included.
    corpus = itertools.chain(
        _fpt_corpus(), seeded_games(scale(300, 60), n_range=(1, 9), seed=5)
    )
    for g in corpus:
        assert verify_partition(g, solver(g))


def test_every_fpt_result_with_a_strategy_has_both_and_certifies():
    with_strategies = 0
    for g in _fpt_corpus():
        for res in (new_win1(g), new_win1(g, FptConfig(base_case_k=2)), old_win1(g)):
            if res.strategy0 is None and res.strategy1 is None:
                continue
            assert res.strategy0 is not None and res.strategy1 is not None
            assert verify_partition(g, res)
            with_strategies += 1
    assert with_strategies > 0


def _degree_mid_corpus():
    """The 60 game structures of the benchmark's fpt_degree_mid workload."""
    for family, n, kw in (
        ("bounded_outdegree", 60, {"j": 3}),
        ("general", 60, {}),
        ("bipartite", 48, {}),
    ):
        for seed in range(20):
            yield generate(family, n, 8, seed, **kw)


def test_degree_search_keys_every_strategy_inside_its_region(monkeypatch):
    # A successor that overflowed the degree budget once left its node's
    # choice behind in the search's shared map, and later candidates and
    # results carried it.
    dominions, results = [], []
    real_search, real_new_win2 = fpt.find_dominion_by_degree, fpt.new_win2

    def recorded_search(game, budget):
        dom = real_search(game, budget)
        if dom is not None:
            dominions.append(dom)
        return dom

    def recorded_new_win2(game, j, cfg=None, ctx=None):
        res = real_new_win2(game, j, cfg, ctx)
        results.append((game, res))
        return res

    monkeypatch.setattr(fpt, "find_dominion_by_degree", recorded_search)
    monkeypatch.setattr(fpt, "new_win2", recorded_new_win2)
    for g in _degree_mid_corpus():
        solve(g, "fpt_degree")
    assert len(dominions) > 10 and len(results) >= 60
    for dom in dominions:
        assert set(dom.witness.choice) <= dom.set
    for game, res in results:
        for player in (0, 1):
            strat = res.strategy(player)
            if strat is not None:
                region = res.winners(player)
                assert all(v in region and game.owner[v] == player for v in strat.choice)


def test_fpt_degree_outputs_are_pinned():
    # Both regions, both strategies in key order and the solve's counters
    # must stay byte for byte what they were when this digest was taken.
    digest = hashlib.sha256()
    for family, kw in (("general", {}), ("bipartite", {}), ("bounded_outdegree", {"j": 3})):
        for n in (6, 12, 20, 30, 40):
            for seed in range(3):
                g = generate(family, n, 6, seed, **kw)
                ctx = SolveContext()
                res = solve(g, "fpt_degree", ctx=ctx)
                choices = [None if s is None else list(s.choice.items())
                           for s in (res.strategy0, res.strategy1)]
                digest.update(repr((sorted(res.w0), sorted(res.w1), choices,
                                    ctx.dominion_hits, ctx.max_depth)).encode())
    assert digest.hexdigest()[:16] == "be780cb407bacc22"
