"""Attractor computation against a naive fixpoint, plus its structural laws."""
import random

from hypothesis import given, settings, strategies as st

from paritykit import ParityGame, attractor, is_closed

from paritykit.kernel import _Work

from conftest import naive_attractor, random_game, seeded_games


def test_attractor_hand_example():
    # 0 (Even) -> 1,2; 1 (Odd) -> 0,3; 2 (Odd) -> 3; 3 (Even) -> 3.
    g = ParityGame([0, 1, 1, 0], [0, 0, 0, 0], [[1, 2], [0, 3], [2, 3], [3]])
    res = attractor(g, {3}, 0)
    # 2 must move to 3 eventually? 2 -> {2,3}: Odd can loop at 2, so 2 is
    # not attracted; 1 -> {0,3} can dodge via 0 only if 0 escapes, but 0
    # can aim at 1... Even attracts 0 only through 1 or 2, neither forced.
    assert res.set == frozenset({3})
    res1 = attractor(g, {3}, 1)
    # For Odd: 1 and 2 may move to 3 themselves; 0 (Even) has both
    # successors attracted, so it falls in too.
    assert res1.set == frozenset({0, 1, 2, 3})
    assert res1.strategy[1] == 3 and res1.strategy[2] == 3


def test_attractor_strategy_enters_target():
    for g in seeded_games(60, n_range=(2, 8), seed=5):
        target = {v for v in g.nodes() if v % 3 == 0}
        for player in (0, 1):
            res = attractor(g, target, player)
            # With the recorded choice fixed, no play inside the set can
            # avoid the target forever: iterate "can stay out" backwards.
            inside = set(res.set)
            staying = set(inside) - set(target)
            changed = True
            while changed:
                changed = False
                for v in list(staying):
                    if g.owner[v] == player:
                        ok = res.strategy[v] in staying
                    else:
                        ok = any(
                            w in staying for w in g.succ[v] if w in inside
                        ) or any(w not in inside for w in g.succ[v])
                    if not ok:
                        staying.discard(v)
                        changed = True
            assert not staying


def test_is_closed():
    g = ParityGame([0, 1], [0, 0], [[0, 1], [0, 1]])
    assert is_closed(g, {0, 1}, 0)
    assert is_closed(g, {0}, 0)  # Even stays via the self-loop
    assert not is_closed(g, {0}, 1)  # Even (the opponent) escapes to 1
    assert is_closed(g, {0, 1}, 1)
    g2 = ParityGame([1, 0], [0, 0], [[1], [0, 1]])
    assert not is_closed(g2, {0}, 1)  # Odd has no move inside the set


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_attractor_matches_fixpoint_oracle(seed):
    rng = random.Random(seed)
    g = random_game(rng, rng.randint(1, 7), 4)
    target = {v for v in g.nodes() if rng.random() < 0.4}
    for player in (0, 1):
        assert attractor(g, target, player).set == naive_attractor(
            g, target, player
        )


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_attractor_laws(seed):
    rng = random.Random(seed)
    g = random_game(rng, rng.randint(1, 7), 4)
    nodes = list(g.nodes())
    a = {v for v in nodes if rng.random() < 0.3}
    b = a | {v for v in nodes if rng.random() < 0.3}
    for player in (0, 1):
        ra = attractor(g, a, player).set
        rb = attractor(g, b, player).set
        # monotone, extensive, idempotent
        assert ra <= rb
        assert set(a) <= ra
        assert attractor(g, ra, player).set == ra
        # complement is a trap for the other player
        rest = set(nodes) - ra
        if rest:
            assert is_closed(g, rest, 1 - player)


def test_attractor_runs_on_the_kernel_working_graph():
    rng = random.Random(3)
    for g in seeded_games(80, n_range=(3, 9), seed=11):
        work = _Work(g)
        # Removing an attractor leaves a trap, so no node loses all moves.
        cut = attractor(g, {rng.randrange(g.n)}, rng.randrange(2)).set
        if len(cut) == g.n:
            continue
        work.remove_nodes(cut)
        for owner in (0, 1):
            side = work.side(owner)
            if len(side) >= 2:
                work.contract(side[0], side[-1])
        game, ids = work.finish()
        dense = {v: i for i, v in enumerate(ids)}
        target = {v for v in ids if rng.random() < 0.3}
        for player in (0, 1):
            res = attractor(work, target, player)
            expected = naive_attractor(game, {dense[v] for v in target}, player)
            assert res.set == {ids[i] for i in expected}
            for u, w in res.strategy.items():
                assert work.owner[u] == player and w in work.succ[u]


class _Rows:
    """Indexable rows that record every node id they are asked for."""

    def __init__(self, rows, seen):
        self.rows = rows
        self.seen = seen

    def __getitem__(self, v):
        self.seen.add(v)
        return self.rows[v]


class _RecordingGame:
    """A game whose owner, succ and pred rows record each id read. It
    also offers `n` and `nodes()`, so a whole-game scan would show."""

    def __init__(self, game):
        self.seen = set()
        self.owner = _Rows(game.owner, self.seen)
        self.succ = _Rows(game.succ, self.seen)
        self.pred = _Rows(game.pred, self.seen)
        self.n = game.n
        self.nodes = game.nodes


def test_attractor_cost_follows_the_attracted_region():
    rng = random.Random(0)
    n = 10_000
    # Nodes 0, 1, 2 form a component of their own; the rest is one big
    # strongly connected blob that the attractor must never look at.
    edges = [[1], [0, 2], [0]]
    edges += [
        [3 + (v - 2) % (n - 3), rng.randrange(3, n)] for v in range(3, n)
    ]
    g = ParityGame([v % 2 for v in range(n)], [0] * n, edges)
    for player in (0, 1):
        recording = _RecordingGame(g)
        assert attractor(recording, {0}, player).set == {0, 1, 2}
        assert recording.seen <= {0, 1, 2}
