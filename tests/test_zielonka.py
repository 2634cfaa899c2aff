"""Recursive solver: agreement with brute force plus certified witnesses."""
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from paritykit import ParityGame, generate, solve_brute, verify_partition, win

from conftest import exhaustive_games, random_game, seeded_games


def test_single_node_games():
    assert win(ParityGame([0], [0], [[0]])).w0 == frozenset({0})
    assert win(ParityGame([0], [1], [[0]])).w1 == frozenset({0})
    assert win(ParityGame([1], [2], [[0]])).w0 == frozenset({0})


def test_two_node_chase():
    # Odd node with the top odd priority on a cycle it can enforce.
    g = ParityGame([0, 1], [2, 3], [[1], [0]])
    res = win(g)
    assert res.w1 == frozenset({0, 1})
    assert res.strategy1.choice == {1: 0}


def test_strategies_stay_in_their_region():
    for g in seeded_games(150, n_range=(2, 8), seed=17):
        res = win(g)
        for player in (0, 1):
            region = res.winners(player)
            strat = res.strategy(player)
            for v, w in strat.choice.items():
                assert v in region and w in region
                assert w in g.succ[v]


def test_agreement_exhaustive_two_nodes():
    for g in exhaustive_games(2, priorities=range(4)):
        res = win(g)
        assert res.w0 == solve_brute(g).w0
        assert verify_partition(g, res)


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_agreement_random(seed):
    rng = random.Random(seed)
    g = random_game(rng, rng.randint(1, 8), 6)
    res = win(g)
    assert res.w0 == solve_brute(g).w0
    assert verify_partition(g, res)


def test_removing_opponent_region_preserves_winners():
    # Cutting the attractor of the lost region never changes the rest.
    from paritykit import attractor, subgame

    for g in seeded_games(80, n_range=(2, 8), seed=73):
        res = win(g)
        for i in (0, 1):
            lost = res.winners(1 - i)
            if not lost or len(lost) == g.n:
                continue
            sub, smap = subgame(g, attractor(g, lost, 1 - i).set)
            assert smap.set_to_orig(win(sub).winners(i)) == res.winners(i)


def test_deep_chain_recursion():
    # Alternating priorities down a chain with a final loop.
    n = 300
    owners = [v % 2 for v in range(n)]
    prios = [v % 4 for v in range(n)]
    edges = [[v + 1] for v in range(n - 1)] + [[n - 1]]
    g = ParityGame(owners, prios, edges)
    res = win(g)
    # Everything funnels into the terminal self-loop of priority (n-1)%4.
    winner = (n - 1) % 4 % 2
    assert res.winners(winner) == frozenset(range(n))
    assert verify_partition(g, res)


@pytest.mark.parametrize(
    "args, kw, w0, s0, s1",
    [
        (("general", 12, 6, 3), {}, {0, 3, 4, 5, 6, 9, 10},
         {0: 4, 3: 0, 4: 10, 5: 6, 9: 6, 10: 10}, {1: 7, 2: 11, 8: 2, 11: 8}),
        (("bipartite", 12, 6, 0), {}, {0, 1, 5, 6, 7, 8, 9, 11},
         {1: 11, 5: 6, 8: 0, 9: 6}, {2: 3, 4: 3}),
        (("bounded_outdegree", 12, 6, 3), {"j": 3}, {0, 1, 4, 6, 7, 10},
         {1: 4, 4: 10, 6: 10, 7: 0, 10: 6}, {3: 8, 5: 11, 8: 11, 11: 2}),
    ],
    ids=("general", "bipartite", "bounded_outdegree"),
)
def test_strategies_are_pinned(args, kw, w0, s0, s1):
    g = generate(*args, **kw)
    res = win(g)
    assert res.w0 == frozenset(w0)
    assert res.w1 == frozenset(g.nodes()) - frozenset(w0)
    assert (res.strategy0.owner, res.strategy0.choice) == (0, s0)
    assert (res.strategy1.owner, res.strategy1.choice) == (1, s1)


def test_long_peeling_path_under_the_default_recursion_limit():
    # Each level peels one node: v has priority v and one move, to v - 1.
    n = 400
    edges = [[0]] + [[v - 1] for v in range(1, n)]
    g = ParityGame([v % 2 for v in range(n)], list(range(n)), edges)
    assert sys.getrecursionlimit() == 1000
    res = win(g)
    assert res.w0 == frozenset(range(n))
    assert verify_partition(g, res)
