"""Core graph representation, validation, stats, and sub-game mapping."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from paritykit import (
    FAMILIES,
    ParityGame,
    Player,
    PreconditionViolated,
    attractor,
    generate,
    is_bipartite,
    p1_value,
    p_value,
    pgsolver,
    solve_brute,
    stats,
    subgame,
    swap_roles,
    validate,
)

from conftest import random_game, seeded_games


def test_construction_sorts_and_dedupes_edges():
    g = ParityGame([0, 1], [2, 3], [[1, 0, 1], [0]])
    assert g.succ == ((0, 1), (0,))
    assert g.pred == ((0, 1), (0,))
    assert g.n == 2
    assert g.m == 3


def test_construction_rejects_malformed_input():
    with pytest.raises(ValueError):
        ParityGame([0], [1, 2], [[0]])
    with pytest.raises(ValueError):
        ParityGame([2], [0], [[0]])
    with pytest.raises(ValueError):
        ParityGame([0], [-1], [[0]])
    with pytest.raises(ValueError):
        ParityGame([0], [0], [[1]])


def test_equality_and_hash_are_structural():
    g1 = ParityGame([0, 1], [1, 2], [[1], [0]])
    g2 = ParityGame([0, 1], [1, 2], [[1, 1], [0]])
    g3 = ParityGame([0, 1], [1, 3], [[1], [0]])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3


def test_priority_values():
    # Odd priorities are good for Odd; higher magnitude is stronger.
    assert p1_value(3) == 3
    assert p1_value(4) == -4
    assert p_value(3, 1) == 3
    assert p_value(3, 0) == -3
    assert p_value(4, 0) == 4


def test_priority_value_order_is_total_per_parity():
    # Among odd priorities, larger is better for Odd; among even ones,
    # larger is worse for Odd. Exhaustive over 0..100.
    for a in range(0, 101):
        for b in range(a + 1, 101):
            if a % 2 == b % 2:
                if a % 2 == 1:
                    assert p1_value(a) < p1_value(b)
                else:
                    assert p1_value(a) > p1_value(b)
            assert p_value(a, 0) == -p1_value(a)


def test_subgame_removal_composes():
    # Removing B1 and then B2 equals removing B1 | B2 in one step,
    # using attractor sets so that survivors never become sinks.
    from paritykit import attractor

    checked = 0
    for g in seeded_games(60, n_range=(4, 8), seed=19):
        b1 = attractor(g, {0}, 1).set
        if len(b1) == g.n:
            continue
        sub1, m1 = subgame(g, b1)
        b2_sub = attractor(sub1, {0}, 0).set
        if len(b2_sub) == sub1.n:
            continue
        sub2, m2 = subgame(sub1, b2_sub)
        direct, md = subgame(g, set(b1) | m1.set_to_orig(b2_sub))
        assert direct == sub2
        assert md.to_orig == tuple(m1.to_orig[v] for v in m2.to_orig)
        checked += 1
    assert checked > 10


def test_validate_flags_sinks():
    g = ParityGame([0, 0], [0, 0], [[1], []])
    report = validate(g)
    assert not report.ok
    assert any("sink" in v for v in report.violations)
    assert validate(ParityGame([0], [0], [[0]])).ok


def test_bipartite_detection():
    assert is_bipartite(ParityGame([0, 1], [0, 0], [[1], [0]]))
    assert not is_bipartite(ParityGame([0, 0], [0, 0], [[1], [0]]))
    # Self-loops always stay on one side.
    assert not is_bipartite(ParityGame([0, 1], [0, 0], [[1], [0, 1]]))


def test_stats_counts_and_tie_break():
    g = ParityGame([0, 1, 0], [5, 2, 2], [[1], [0, 2], [2]])
    st_ = stats(g)
    assert (st_.n, st_.m, st_.k) == (3, 4, 1)
    assert st_.owner_of_k == Player.ODD
    assert st_.priority_count == 2
    assert st_.p_max == 5
    assert st_.s_of(1) == 2 and st_.s_of(2) == 3
    # Equal sides: the k player is Odd by convention.
    balanced = ParityGame([0, 1], [0, 0], [[1], [0]])
    assert stats(balanced).owner_of_k == Player.ODD


def test_subgame_reindexes_and_maps_back():
    g = ParityGame([0, 1, 0, 1], [0, 1, 2, 3], [[1], [2, 3], [2], [0, 3]])
    sub, smap = subgame(g, {0, 1})
    assert sub.n == 2
    assert smap.to_orig == (2, 3)
    assert smap.set_to_orig({0, 1}) == frozenset({2, 3})
    assert smap.map_to_orig({1: 0}) == {3: 2}
    assert sub.succ == ((0,), (1,))


def test_subgame_rejects_created_sinks():
    g = ParityGame([0, 0], [0, 0], [[1], [0]])
    with pytest.raises(PreconditionViolated):
        subgame(g, {1})


def test_swap_roles_flips_owners_and_condition():
    g = ParityGame([0, 1], [2, 3], [[1], [0]])
    s = swap_roles(g)
    assert s.owner == (1, 0)
    assert s.priority == (3, 4)
    assert s.succ == g.succ


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_swap_roles_exchanges_winners(seed):
    import random

    g = random_game(random.Random(seed), 5, 5)
    res = solve_brute(g)
    res_s = solve_brute(swap_roles(g))
    assert res.w0 == res_s.w1
    assert res.w1 == res_s.w0


def test_subgame_partition_roundtrip_on_seeded_games():
    for g in seeded_games(50, n_range=(3, 7), seed=11):
        res = solve_brute(g)
        # Each winning region induces a well-formed sub-game.
        for region in (res.w0, res.w1):
            if not region:
                continue
            sub, smap = subgame(g, set(g.nodes()) - region)
            assert smap.set_to_orig(sub.nodes()) == region


def _rebuilt(game):
    """The same game built through `ParityGame.__init__` and its checks."""
    return ParityGame(game.owner, game.priority, game.succ)


def _sparse_text(game, rng):
    """PGSolver text of `game` with sparse ids, shuffled lines and shuffled,
    repeated successors."""
    ids = sorted(rng.sample(range(10 * game.n), game.n))
    lines = []
    for v in game.nodes():
        succs = [ids[w] for w in game.succ[v]]
        succs += rng.sample(succs, rng.randrange(len(succs) + 1))
        rng.shuffle(succs)
        lines.append(f"{ids[v]} {game.priority[v]} {game.owner[v]} "
                     f"{','.join(map(str, succs))};")
    rng.shuffle(lines)
    return "\n".join([f"parity {ids[-1]};", *lines]) + "\n", tuple(ids)


def _family_corpus():
    for family in FAMILIES:
        for n in (2, 3, 5, 12, 30):
            for seed in range(4):
                kwargs = {"j": 2} if family == "bounded_outdegree" else {}
                if family == "unbalanced":
                    kwargs = {"k": seed % (n + 1)}
                yield generate(family, n, 6, seed, **kwargs)


def test_fast_constructions_equal_the_checked_constructor():
    # loads, subgame and swap_roles skip __init__'s sorting and checks;
    # every slot, pred included, must still be what __init__ would build.
    def assert_canonical(game):
        expected = _rebuilt(game)
        assert (game.owner, game.priority, game.succ, game.pred) == (
            expected.owner,
            expected.priority,
            expected.succ,
            expected.pred,
        )
        assert validate(game).ok

    rng = random.Random(8)
    subgames = 0
    for game in _family_corpus():
        text, ids = _sparse_text(game, rng)
        parsed, parsed_ids = pgsolver.loads(text)
        assert parsed == game and parsed_ids == ids
        assert_canonical(parsed)
        assert_canonical(swap_roles(game))
        for _ in range(3):
            seed_nodes = rng.sample(range(game.n), rng.randrange(1, game.n // 3 + 2))
            removed = attractor(game, seed_nodes, rng.randrange(2)).set
            if len(removed) == game.n:
                continue
            sub, smap = subgame(game, removed)
            assert_canonical(sub)
            assert sub == ParityGame(
                [game.owner[v] for v in smap.to_orig],
                [game.priority[v] for v in smap.to_orig],
                [
                    [smap.to_orig.index(w) for w in game.succ[v] if w not in removed]
                    for v in smap.to_orig
                ],
            )
            subgames += 1
    assert subgames > 100


def test_subgame_and_swap_roles_do_not_go_through_init(monkeypatch):
    g = ParityGame([0, 1, 0, 1], [0, 1, 2, 3], [[1], [2, 3], [2], [0, 3]])

    def refuse(self, *args):
        raise AssertionError("ParityGame.__init__ called")

    monkeypatch.setattr(ParityGame, "__init__", refuse)
    sub, smap = subgame(g, {0, 1})
    assert sub.succ == ((0,), (1,)) and sub.pred == ((0,), (1,))
    assert smap.to_orig == (2, 3)
    swapped = swap_roles(g)
    assert swapped.owner == (1, 0, 1, 0) and swapped.pred == g.pred
