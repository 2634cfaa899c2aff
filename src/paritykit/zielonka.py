"""Recursive attractor-based solver with strategy synthesis.

Classic two-recursive-call scheme: peel the attractor of the maximum
priority, solve the rest, and either absorb the whole game for the
dominant player or remove the opponent's counter-attractor and recurse.
Runs in O(n^p) worst case but is fast on typical inputs.
"""
from __future__ import annotations

from .game import ParityGame, subgame
from .oracle import SolveResult, Strategy, empty_result
from .reach import attractor


def win(game: ParityGame) -> SolveResult:
    """Full winning partition with a witness strategy for each player.

    Each synthesized strategy only ever moves inside its own winning
    region, so the result passes partition certification directly.
    """
    if game.n == 0:
        return empty_result()
    p_max = max(game.priority)
    i = p_max % 2
    opp = 1 - i
    top = [v for v in game.nodes() if game.priority[v] == p_max]
    att = attractor(game, top, i)
    sub1, map1 = subgame(game, att.set)
    res1 = win(sub1)
    w1_opp = map1.set_to_orig(res1.winners(opp))

    strat_i, strat_opp = {}, {}
    if not w1_opp:
        # The dominant player wins everywhere: follow the sub-solution
        # outside the attractor, attract toward the top priority inside
        # it, and move anywhere from the top nodes themselves.
        strat_i.update(map1.map_to_orig(res1.strategy(i).choice))
        strat_i.update(att.strategy)
        for v in top:
            if game.owner[v] == i:
                strat_i[v] = game.succ[v][0]
        w_i = frozenset(game.nodes())
    else:
        # The opponent holds a piece; everything it attracts is lost for i.
        batt = attractor(game, w1_opp, opp)
        strat_opp.update(map1.map_to_orig(res1.strategy(opp).choice))
        strat_opp.update(batt.strategy)
        sub2, map2 = subgame(game, batt.set)
        res2 = win(sub2)
        w_i = map2.set_to_orig(res2.winners(i))
        strat_i.update(map2.map_to_orig(res2.strategy(i).choice))
        strat_opp.update(map2.map_to_orig(res2.strategy(opp).choice))
    ours = (w_i, Strategy(i, strat_i))
    theirs = (frozenset(game.nodes()) - w_i, Strategy(opp, strat_opp))
    (w0, s0), (w1, s1) = (ours, theirs) if i == 0 else (theirs, ours)
    return SolveResult(w0, w1, s0, s1)
