"""Dominion searches against an exhaustive subset-enumeration oracle."""
import gc
import hashlib
import itertools

import pytest

from paritykit import (
    DegreeBudget,
    ParityGame,
    ParityKitError,
    SolveResult,
    Strategy,
    is_closed,
    find_dominion_by_degree,
    find_dominion_by_odd_nodes,
    generate,
    solve_brute,
    subgame,
    verify_strategy,
    win,
)

from paritykit import dominion

from conftest import exhaustive_games, scale, seeded_games


def all_dominions(game):
    """Every (set, owner) dominion: closed for its owner, fully won inside."""
    found = []
    nodes = list(game.nodes())
    for r in range(1, game.n + 1):
        for combo in itertools.combinations(nodes, r):
            dset = frozenset(combo)
            for player in (0, 1):
                if not is_closed(game, dset, player):
                    continue
                sub, _ = subgame(game, set(nodes) - dset)
                if solve_brute(sub).winners(player) == frozenset(sub.nodes()):
                    found.append((dset, player))
    return found


def odd_count(game, dset):
    return sum(1 for v in dset if game.owner[v] == 1)


def degree_counts(game, dset, j):
    high = sum(1 for v in dset if len(game.succ[v]) > j)
    return high, len(dset) - high


def check_odd_node_search(game, ell):
    dom = find_dominion_by_odd_nodes(game, ell, win)
    exists = any(odd_count(game, d) <= ell for d, _ in all_dominions(game))
    if dom is None:
        assert not exists
    else:
        assert exists
        assert odd_count(game, dom.set) <= ell
        assert verify_strategy(game, dom.set, dom.witness)


def check_degree_search(game, budget):
    dom = find_dominion_by_degree(game, budget)
    exists = False
    for d, _ in all_dominions(game):
        high, low = degree_counts(game, d, budget.j)
        if high <= budget.ell and low <= budget.s:
            exists = True
            break
    if dom is None:
        assert not exists
    else:
        assert exists
        high, low = degree_counts(game, dom.set, budget.j)
        assert high <= budget.ell and low <= budget.s
        assert verify_strategy(game, dom.set, dom.witness)


def test_budget_validation():
    with pytest.raises(ValueError):
        DegreeBudget(ell=-1, s=0, j=2)
    with pytest.raises(ValueError):
        DegreeBudget(ell=0, s=0, j=0)


def test_no_dominion_within_tiny_budget():
    # The only dominion is the whole 3-cycle; it has two odd nodes and
    # three low-degree nodes, out of reach for these budgets.
    g = ParityGame([0, 1, 1], [2, 1, 0], [[1], [2], [0]])
    assert find_dominion_by_odd_nodes(g, 1, win) is None
    assert find_dominion_by_degree(g, DegreeBudget(ell=0, s=2, j=2)) is None
    dom = find_dominion_by_degree(g, DegreeBudget(ell=0, s=3, j=2))
    assert dom is not None and dom.set == frozenset({0, 1, 2})
    assert dom.owner == 0  # max priority on the forced cycle is 2


def test_odd_node_search_finds_small_dominions():
    # Odd's self-loop is a one-odd-node dominion and Even has none.
    g = ParityGame([0, 1], [1, 1], [[0, 1], [1]])
    dom = find_dominion_by_odd_nodes(g, 1, win)
    assert dom is not None
    assert dom.owner == 1
    assert frozenset({1}) <= dom.set


def test_searches_complete_exhaustive_two_nodes():
    for g in exhaustive_games(2, priorities=range(3)):
        for ell in (1, 2):
            check_odd_node_search(g, ell)
        check_degree_search(g, DegreeBudget(ell=2, s=2, j=2))


def test_searches_complete_seeded():
    for g in seeded_games(scale(250, 40), n_range=(3, 6), priority_bound=5, seed=59):
        check_odd_node_search(g, 1)
        check_odd_node_search(g, 2)
        check_degree_search(g, DegreeBudget(ell=1, s=2, j=2))
        check_degree_search(g, DegreeBudget(ell=2, s=2, j=2))


def test_found_degree_dominion_is_deterministic():
    g = ParityGame([0, 1, 0], [0, 1, 2], [[0, 1], [2], [2]])
    b = DegreeBudget(ell=1, s=2, j=1)
    first = find_dominion_by_degree(g, b)
    second = find_dominion_by_degree(g, b)
    assert first == second


def test_dominion_witness_for_the_wrong_player_is_reported(monkeypatch):
    # Even's self-loop at priority 2 is a one-node dominion.
    g = ParityGame([0, 1], [2, 1], [[0], [1]])

    def wrong_winner(sub):
        return SolveResult(frozenset(), frozenset(sub.nodes()), Strategy(0), Strategy(1))

    monkeypatch.setattr(dominion, "_zielonka_win", wrong_winner)
    with pytest.raises(ParityKitError, match="witness"):
        find_dominion_by_odd_nodes(g, 1, win)


def _degree_corpus():
    for family, kw in (
        ("general", lambda n: {}),
        ("bipartite", lambda n: {}),
        ("bounded_outdegree", lambda n: {"j": 3}),
        ("unbalanced", lambda n: {"k": n // 3 + 1}),
    ):
        for n in (2, 4, 7, 11, 16):
            for bound in (2, 5):
                for seed in range(3):
                    yield generate(family, n, bound, seed, **kw(n))


_BUDGET_GRID = [
    DegreeBudget(ell, s, j) for ell in (0, 1, 3) for s in (1, 3, 6) for j in (1, 2, 3)
]


def test_degree_search_outputs_are_pinned():
    # The first dominion found, its owner and its witness in key order
    # must stay byte for byte what they were when this digest was taken.
    digest = hashlib.sha256()
    for g in _degree_corpus():
        for budget in _BUDGET_GRID:
            dom = find_dominion_by_degree(g, budget)
            if dom is not None:
                dom = (sorted(dom.set), dom.owner, list(dom.witness.choice.items()))
            digest.update(repr(dom).encode())
    assert digest.hexdigest()[:16] == "814aaef86f79ac38"


def test_degree_search_grows_a_long_cycle_under_the_default_limit():
    n = 400
    g = ParityGame([0] * n, [2] + [1] * (n - 1), [[(v + 1) % n] for v in range(n)])
    dom = find_dominion_by_degree(g, DegreeBudget(ell=0, s=n, j=1))
    assert dom.set == frozenset(range(n)) and dom.owner == 0
    assert list(dom.witness.choice.items()) == [(v, (v + 1) % n) for v in range(n)]


def test_degree_search_takes_forced_moves_without_a_frame_each():
    # Odd's nodes and Even's one-successor nodes add no recursion level,
    # so a cycle longer than the default recursion limit still grows.
    n = 1600
    g = ParityGame([v % 2 for v in range(n)], [2] + [1] * (n - 1),
                   [[(v + 1) % n] for v in range(n)])
    dom = find_dominion_by_degree(g, DegreeBudget(ell=0, s=n, j=1))
    assert dom.set == frozenset(range(n)) and dom.owner == 0
    assert list(dom.witness.choice.items()) == [(v, v + 1) for v in range(0, n, 2)]


def test_degree_search_leaves_no_cyclic_garbage():
    # Whatever one search allocates is freed by reference counting alone,
    # so nothing it built waits for the cyclic collector.
    left = []
    for family, kw in (("general", {}), ("bipartite", {}), ("bounded_outdegree", {"j": 3})):
        g = generate(family, 9, 5, 0, **kw)
        for budget in (DegreeBudget(ell=1, s=3, j=2), DegreeBudget(ell=3, s=6, j=1)):
            gc.collect()
            gc.disable()
            try:
                find_dominion_by_degree(g, budget)
                left.append(gc.collect())
            finally:
                gc.enable()
    assert left == [0] * len(left)
