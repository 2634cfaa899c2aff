"""Ground-truth solvers and certification checks.

solve_solitary handles games where one player has no real choices,
solve_brute enumerates positional strategies against it, and the verify
functions certify candidate sets, strategies, and full partitions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from math import prod

from .errors import BudgetExceeded, MissingStrategies, ParityKitError, PreconditionViolated
from .game import ParityGame, subgame
from .reach import attractor, first_open_node
from .util import _parity_cycles


@dataclass(frozen=True)
class Strategy:
    owner: int
    choice: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveResult:
    w0: frozenset
    w1: frozenset
    strategy0: Strategy | None = None
    strategy1: Strategy | None = None

    def winners(self, player: int) -> frozenset:
        return self.w0 if player == 0 else self.w1

    def strategy(self, player: int):
        return self.strategy0 if player == 0 else self.strategy1

    def flipped(self) -> "SolveResult":
        """Result of the role-swapped game mapped back to original roles."""
        s0 = Strategy(0, dict(self.strategy1.choice)) if self.strategy1 else None
        s1 = Strategy(1, dict(self.strategy0.choice)) if self.strategy0 else None
        return SolveResult(w0=self.w1, w1=self.w0, strategy0=s0, strategy1=s1)


def empty_result() -> SolveResult:
    return SolveResult(frozenset(), frozenset(), Strategy(0), Strategy(1))


def _won_by(game: ParityGame, player: int, region, mine, theirs) -> SolveResult:
    """The result in which `player` wins `region` with the choices `mine`
    and the opponent wins the other nodes with `theirs`; it carries
    strategies only when both choice maps are given."""
    won = frozenset(region)
    lost = frozenset(game.nodes()) - won
    if mine is None or theirs is None:
        ours = other = None
    else:
        ours, other = Strategy(player, mine), Strategy(1 - player, theirs)
    if player == 0:
        return SolveResult(won, lost, ours, other)
    return SolveResult(lost, won, other, ours)


def solve_solitary(game: ParityGame, mover: int) -> SolveResult:
    """Solve a game in which only `mover` has choices.

    The mover wins exactly the nodes from which some cycle with a
    mover-parity maximum priority is reachable. One nested SCC
    decomposition finds those cycles' maximal SCCs, at O(m) per nesting
    level; inside each, the mover steers toward its smallest top-priority
    node, and every node that reaches one is attracted to it.
    """
    opp = 1 - mover
    for v in game.nodes():
        if game.owner[v] == opp and len(game.succ[v]) != 1:
            raise PreconditionViolated(
                f"opponent node {v} has out-degree {len(game.succ[v])} != 1"
            )
    winning = set()
    strategy = {}
    for scc, top in _parity_cycles(game.nodes(), game.priority, lambda v: game.succ[v], mover):
        scc_set = set(scc)
        x = min(v for v in scc if game.priority[v] == top)
        # BFS on reversed edges: dist[v] = steps from v to x inside the SCC.
        dist = {x: 0}
        queue = deque([x])
        while queue:
            w = queue.popleft()
            for u in game.pred[w]:
                if u in scc_set and u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        winning.update(scc)
        for v in scc:
            if game.owner[v] == mover:
                strategy[v] = min(
                    (w for w in game.succ[v] if w in scc_set),
                    key=lambda w: (dist[w], w),
                )
    # Opponent nodes have one move each, so reaching a winning structure
    # is being attracted to it.
    att = attractor(game, winning, mover)
    strategy.update(att.strategy)
    w_mover = att.set
    opp_choice = {
        v: game.succ[v][0] for v in game.nodes() if game.owner[v] == opp and v not in w_mover
    }
    return _won_by(game, mover, w_mover, strategy, opp_choice)


def _strategy_space(game: ParityGame, player: int):
    nodes = [v for v in game.nodes() if game.owner[v] == player]
    return nodes, prod(len(game.succ[v]) for v in nodes)


def _enumerate_strategies(game: ParityGame, nodes):
    """All positional strategies of `nodes`, as dicts, in lexicographic order."""
    for moves in product(*(game.succ[v] for v in nodes)):
        yield dict(zip(nodes, moves))


def _fix_strategy(game: ParityGame, choice: dict) -> ParityGame:
    edges = [
        (choice[v],) if v in choice else game.succ[v] for v in game.nodes()
    ]
    return ParityGame(game.owner, game.priority, edges)


def solve_brute(game: ParityGame, budget: int = 10**6, enum_player=None) -> SolveResult:
    """Exact solve by enumerating one player's positional strategies.

    The player with fewer strategy combinations is enumerated; each fixed
    strategy leaves a solitary game for the opponent. A node is won by
    the enumerated player iff some strategy survives the opponent's best
    response. Positional determinacy guarantees a uniform witness among
    the enumerated strategies: it is the one winning the most nodes.
    """
    if game.n == 0:
        return empty_result()
    nodes0, count0 = _strategy_space(game, 0)
    nodes1, count1 = _strategy_space(game, 1)
    if enum_player is None:
        enum_player = 0 if count0 <= count1 else 1
    nodes, count = (nodes0, count0) if enum_player == 0 else (nodes1, count1)
    if count > budget:
        raise BudgetExceeded(f"{count} strategies exceed budget {budget}")
    opp = 1 - enum_player

    all_nodes = set(game.nodes())
    won_total = set()
    uniform = {}
    best_size = -1
    for choice in _enumerate_strategies(game, nodes):
        res = solve_solitary(_fix_strategy(game, choice), mover=opp)
        won = all_nodes - res.winners(opp)
        won_total |= won
        if len(won) > best_size:
            best_size = len(won)
            uniform = choice
    if best_size != len(won_total):
        raise ParityKitError("positional determinacy violated: no uniform winning strategy")

    w_opp = all_nodes - won_total
    opp_choice = {}
    if w_opp:
        # The loser's region is closed for the opponent, who wins all of
        # it; synthesize the witness on the induced sub-game. Enumerating
        # the opponent here could explode, so use the recursive solver.
        from .zielonka import win as _zielonka_win

        opp_choice = _witness_on(game, w_opp, opp, _zielonka_win).choice
    enum_choice = {v: uniform[v] for v in uniform if v in won_total}
    return _won_by(game, enum_player, won_total, enum_choice, opp_choice)


def _witness_on(game: ParityGame, region, player: int, solver) -> Strategy:
    """Winning strategy for `player` on a region it wins whole, taken from
    `solver` on the sub-game induced by the region."""
    sub, smap = subgame(game, set(game.nodes()) - set(region))
    res = solver(sub)
    if res.winners(player) != frozenset(sub.nodes()):
        raise ParityKitError(f"player {player} has no witness on its own region")
    return Strategy(player, smap.map_to_orig(res.strategy(player).choice))


def verify_strategy(game: ParityGame, nodes, strat: Strategy) -> bool:
    """Check that `strat` wins from every node of `nodes` without leaving.

    Fixes the strategy and restricts the game to `nodes`; true iff no
    cycle left there has a highest priority of the opponent's parity.
    """
    node_set = set(nodes)
    owner = strat.owner
    for v in node_set:
        if game.owner[v] == owner:
            w = strat.choice.get(v)
            if w is None:
                raise PreconditionViolated(f"strategy undefined on node {v}")
            if w not in game.succ[v]:
                raise PreconditionViolated(f"strategy uses missing edge {v}->{w}")
            if w not in node_set:
                raise PreconditionViolated(f"strategy leaves the set at {v}->{w}")
        else:
            for w in game.succ[v]:
                if w not in node_set:
                    raise PreconditionViolated(
                        f"set is not closed: opponent escapes via {v}->{w}"
                    )

    def moves(v):
        return (strat.choice[v],) if game.owner[v] == owner else game.succ[v]

    return next(_parity_cycles(node_set, game.priority, moves, 1 - owner), None) is None


def verify_partition_report(game: ParityGame, result: SolveResult):
    """(ok, reason): certify a full result with both witness strategies."""
    if result.strategy0 is None or result.strategy1 is None:
        raise MissingStrategies("both witness strategies are required")
    w0, w1 = set(result.w0), set(result.w1)
    if w0 & w1 or w0 | w1 != set(game.nodes()):
        return False, "w0/w1 is not a partition of the nodes"
    for player, region in ((0, w0), (1, w1)):
        v = first_open_node(game, region, player)
        if v is not None:
            return False, f"closedness violated at node {v}"
    for player, region in ((0, w0), (1, w1)):
        if not region:
            continue
        strat = result.strategy(player)
        try:
            ok = verify_strategy(game, region, strat)
        except PreconditionViolated as exc:
            return False, f"strategy not winning on W{player} ({exc})"
        if not ok:
            return False, f"strategy not winning on W{player}"
    return True, "ok"


def verify_partition(game: ParityGame, result: SolveResult) -> bool:
    ok, _ = verify_partition_report(game, result)
    return ok
