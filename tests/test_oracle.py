"""Ground-truth solvers and certification checks."""
import itertools

import pytest

from paritykit import (
    BudgetExceeded,
    MissingStrategies,
    ParityGame,
    ParityKitError,
    PreconditionViolated,
    Strategy,
    SolveResult,
    solve_brute,
    solve_solitary,
    verify_partition,
    verify_partition_report,
    verify_strategy,
)

from paritykit import oracle, zielonka

from conftest import naive_parity_cycle_nodes, seeded_games


def max_priority_on_cycle(game, walk_from):
    """Winner of a forced play: follow unique successors, find the cycle."""
    seen = {}
    path = []
    v = walk_from
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = game.succ[v][0]
    cycle = path[seen[v]:]
    return max(game.priority[w] for w in cycle) % 2


def pipeline_solitary_oracle(game, mover):
    """Reference for solve_solitary: mover wins node v iff some positional
    mover strategy makes the forced play from v cycle with mover parity."""
    mover_nodes = [v for v in game.nodes() if game.owner[v] == mover]
    won = set()
    for combo in itertools.product(*(game.succ[v] for v in mover_nodes)):
        choice = dict(zip(mover_nodes, combo))
        edges = [
            (choice[v],) if v in choice else game.succ[v] for v in game.nodes()
        ]
        fixed = ParityGame(game.owner, game.priority, edges)
        for v in game.nodes():
            if max_priority_on_cycle(fixed, v) == mover % 2:
                won.add(v)
    return frozenset(won)


def test_solitary_requires_single_opponent_choices():
    g = ParityGame([0, 1], [0, 0], [[1], [0, 1]])
    with pytest.raises(PreconditionViolated):
        solve_solitary(g, mover=0)


def test_solitary_hand_examples():
    # One even self-loop with priority 2: Even wins everywhere it reaches.
    g = ParityGame([0, 0, 0], [2, 1, 3], [[1], [0, 2], [2]])
    res = solve_solitary(g, mover=0)
    # Even avoids 2 (odd self-loop) by cycling 0<->1; max priority 2.
    assert res.w0 == frozenset({0, 1})
    assert res.w1 == frozenset({2})
    # Same graph, Odd moving, all even nodes out-degree 1: no Odd choice
    g2 = ParityGame([1, 1, 1], [2, 1, 3], [[1], [0, 2], [2]])
    res2 = solve_solitary(g2, mover=1)
    assert res2.w1 == frozenset({0, 1, 2})


def test_solitary_matches_enumeration_oracle():
    count = 0
    for g in seeded_games(400, n_range=(1, 6), priority_bound=5, seed=21):
        for mover in (0, 1):
            opp = 1 - mover
            if any(
                len(g.succ[v]) != 1 for v in g.nodes() if g.owner[v] == opp
            ):
                continue
            count += 1
            res = solve_solitary(g, mover)
            assert res.winners(mover) == pipeline_solitary_oracle(g, mover)
            assert verify_partition(g, res)
    assert count > 50


def test_brute_matches_either_enumeration_side():
    for g in seeded_games(120, n_range=(1, 6), seed=8):
        res = solve_brute(g)
        assert res.w0 == solve_brute(g, enum_player=0).w0
        assert res.w0 == solve_brute(g, enum_player=1).w0
        assert verify_partition(g, res)


def test_brute_hand_examples():
    # Single node, odd self-loop priority 1: Odd wins.
    res = solve_brute(ParityGame([0], [1], [[0]]))
    assert res.w1 == frozenset({0})
    # Even chooses between an odd loop and an even loop.
    g = ParityGame([0, 0, 0], [0, 1, 2], [[1, 2], [1], [2]])
    res = solve_brute(g)
    assert res.w0 == frozenset({0, 2})
    assert res.w1 == frozenset({1})
    assert res.strategy0.choice[0] == 2


def test_brute_budget():
    g = ParityGame([0, 0, 1, 1], [0] * 4, [[0, 1, 2, 3]] * 4)
    with pytest.raises(BudgetExceeded):
        solve_brute(g, budget=10)


def test_solitary_prefix_independence():
    # A fresh forced path into a node never changes any original winner.
    for g in seeded_games(40, n_range=(2, 5), seed=23):
        if any(
            len(g.succ[v]) != 1 for v in g.nodes() if g.owner[v] == 1
        ):
            continue
        res = solve_solitary(g, mover=0)
        n = g.n
        prefix = 3
        owners = list(g.owner) + [1] * prefix
        prios = list(g.priority) + [0] * prefix
        edges = [list(ts) for ts in g.succ]
        edges.append([0])  # n -> entry node
        for i in range(1, prefix):
            edges.append([n + i - 1])
        extended = ParityGame(owners, prios, edges)
        res2 = solve_solitary(extended, mover=0)
        assert res2.w0 & frozenset(range(n)) == res.w0


def test_verify_strategy_rejects_bad_witnesses():
    g = ParityGame([0, 0], [2, 1], [[0, 1], [0, 1]])
    assert verify_strategy(g, {0}, Strategy(0, {0: 0}))
    # Looping at 1 sees priority 1: not winning for Even.
    assert not verify_strategy(g, {1}, Strategy(0, {1: 1}))
    with pytest.raises(PreconditionViolated):
        verify_strategy(g, {0}, Strategy(0, {}))  # undefined
    with pytest.raises(PreconditionViolated):
        verify_strategy(g, {0}, Strategy(0, {0: 1}))  # leaves the set


def test_verify_partition_report_messages():
    g = ParityGame([0, 0], [2, 1], [[0, 1], [1]])
    good = solve_brute(g)
    ok, reason = verify_partition_report(g, good)
    assert ok and reason == "ok"
    # Swapping the regions must be caught.
    bad = SolveResult(good.w1, good.w0, good.strategy0, good.strategy1)
    ok, reason = verify_partition_report(g, bad)
    assert not ok
    with pytest.raises(MissingStrategies):
        verify_partition_report(g, SolveResult(good.w0, good.w1))


def test_verify_partition_catches_mutations():
    for g in seeded_games(40, n_range=(2, 6), seed=13):
        res = solve_brute(g)
        if not res.w0 or not res.w1:
            continue
        moved = next(iter(res.w0))
        bad = SolveResult(
            res.w0 - {moved},
            res.w1 | {moved},
            res.strategy0,
            res.strategy1,
        )
        assert not verify_partition(g, bad)


def test_brute_reports_a_determinacy_failure(monkeypatch):
    g = ParityGame([0, 1, 1], [0, 1, 1], [[1, 2], [0], [0]])

    def disjoint_wins(fixed, mover):
        # Even's move 0->1 wins only node 0 and 0->2 only node 1, so no
        # single strategy wins everything Even wins.
        won = frozenset({0} if fixed.succ[0] == (1,) else {1})
        return SolveResult(won, frozenset(fixed.nodes()) - won)

    monkeypatch.setattr(oracle, "solve_solitary", disjoint_wins)
    with pytest.raises(ParityKitError, match="determinacy"):
        solve_brute(g, enum_player=0)


def test_brute_reports_a_loser_region_without_a_witness(monkeypatch):
    g = ParityGame([0, 1], [1, 1], [[0], [1]])  # Odd wins everywhere

    def wrong_winner(sub):
        return SolveResult(frozenset(sub.nodes()), frozenset(), Strategy(0), Strategy(1))

    monkeypatch.setattr(zielonka, "win", wrong_winner)
    with pytest.raises(ParityKitError, match="witness"):
        solve_brute(g, enum_player=0)


def test_brute_enumerates_without_deep_recursion():
    # 1,500 Even nodes with one move each lead to an Odd node that can
    # loop on priority 1: a single Even strategy, but a long node list.
    n = 1501
    edges = [[v + 1] for v in range(n - 1)] + [[0, n - 1]]
    g = ParityGame([0] * (n - 1) + [1], [0] * (n - 1) + [1], edges)
    res = solve_brute(g, enum_player=0)
    assert res.w1 == frozenset(range(n))
    assert verify_partition(g, res)


def test_verify_strategy_builds_no_game_and_runs_no_solitary_solve(monkeypatch):
    cases = []
    for g in seeded_games(150, n_range=(1, 8), priority_bound=6, seed=33):
        res = zielonka.win(g)
        for player in (0, 1):
            # The true witness on its region, and each node's first move
            # on the whole game, which wins some games and loses others.
            first = {v: g.succ[v][0] for v in g.nodes() if g.owner[v] == player}
            for nodes, strat in (
                (res.winners(player), res.strategy(player)),
                (frozenset(g.nodes()), Strategy(player, first)),
            ):
                def moves(v, g=g, strat=strat):
                    return (strat.choice[v],) if v in strat.choice else g.succ[v]

                opp_cycles = naive_parity_cycle_nodes(nodes, g.priority, moves, 1 - player)
                cases.append((g, nodes, strat, not opp_cycles))

    def refuse(*args, **kwargs):
        raise AssertionError("verify_strategy must not need this")

    monkeypatch.setattr(oracle, "ParityGame", refuse)
    monkeypatch.setattr(oracle, "solve_solitary", refuse)
    answers = [verify_strategy(g, nodes, strat) for g, nodes, strat, _ in cases]
    assert answers == [expected for *_, expected in cases]
    assert True in answers and False in answers
