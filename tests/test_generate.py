"""Seeded generator families: determinism and per-family shape."""
import hashlib
import tracemalloc

import pytest

from paritykit import FAMILIES, InvalidFamilyParams, generate, is_bipartite, pgsolver, validate


def test_family_list_is_stable():
    assert FAMILIES == ("general", "bipartite", "bounded_outdegree", "unbalanced")


def test_same_arguments_give_identical_games():
    for family, kw in (
        ("general", {}),
        ("bipartite", {}),
        ("bounded_outdegree", {"j": 3}),
        ("unbalanced", {"k": 2}),
    ):
        a = generate(family, 12, 5, 7, **kw)
        b = generate(family, 12, 5, 7, **kw)
        assert pgsolver.dumps(a) == pgsolver.dumps(b)


def test_different_seeds_give_different_games():
    games = {pgsolver.dumps(generate("general", 10, 5, s)) for s in range(20)}
    assert len(games) > 1


def test_all_families_produce_valid_games():
    for seed in range(30):
        for family, kw in (
            ("general", {}),
            ("bipartite", {}),
            ("bounded_outdegree", {"j": 2}),
            ("unbalanced", {"k": 3}),
        ):
            g = generate(family, 9, 6, seed, **kw)
            assert g.n == 9
            assert validate(g).ok


def test_bipartite_family_is_bipartite():
    for seed in range(30):
        assert is_bipartite(generate("bipartite", 8, 4, seed))


def test_bipartite_games_are_pinned():
    # The bipartite family must keep producing these exact games.
    digest = hashlib.sha256()
    for n in (2, 3, 5, 8, 13, 24, 48, 100, 257, 600):
        for bound in (1, 3, 8):
            for seed in range(6):
                digest.update(pgsolver.dumps(generate("bipartite", n, bound, seed)).encode())
    assert digest.hexdigest()[:16] == "b7965328fcda28ff"


def test_bipartite_generation_memory_stays_small():
    # One list of other-side nodes per owner, not one per node: a per-node
    # list costs about 74 MB here.
    tracemalloc.start()
    try:
        generate("bipartite", 2000, 4, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_bounded_outdegree_respects_threshold():
    for j in (1, 2, 4):
        for seed in range(20):
            g = generate("bounded_outdegree", 10, 4, seed, j=j)
            assert max(len(ts) for ts in g.succ) <= j


def test_unbalanced_has_exactly_k_odd_nodes():
    for k in (0, 1, 3, 5):
        g = generate("unbalanced", 10, 4, 0, k=k)
        assert sum(g.owner) == k


def test_single_node_general_game_is_the_self_loop():
    for seed in range(5):
        g = generate("general", 1, 1, seed)
        assert g.owner in ((0,), (1,))
        assert g.priority == (0,)
        assert g.succ == ((0,),)


def test_parameter_validation():
    with pytest.raises(InvalidFamilyParams):
        generate("nosuch", 5, 4, 0)
    with pytest.raises(InvalidFamilyParams):
        generate("general", 0, 4, 0)
    with pytest.raises(InvalidFamilyParams):
        generate("general", 5, 0, 0)
    with pytest.raises(InvalidFamilyParams):
        generate("bounded_outdegree", 5, 4, 0)
    with pytest.raises(InvalidFamilyParams):
        generate("unbalanced", 5, 4, 0, k=6)
    with pytest.raises(InvalidFamilyParams):
        generate("bipartite", 1, 4, 0)


def test_parameters_are_refused_outside_their_family():
    # j and k seed the RNG, so accepting them elsewhere would silently
    # change the game instead of failing.
    for family in ("general", "bipartite", "unbalanced"):
        kw = {"k": 2} if family == "unbalanced" else {}
        with pytest.raises(InvalidFamilyParams, match="bounded_outdegree"):
            generate(family, 6, 4, 0, j=2, **kw)
    for family in ("general", "bipartite", "bounded_outdegree"):
        kw = {"j": 2} if family == "bounded_outdegree" else {}
        with pytest.raises(InvalidFamilyParams, match="unbalanced"):
            generate(family, 6, 4, 0, k=2, **kw)
