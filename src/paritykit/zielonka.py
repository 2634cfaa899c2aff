"""Recursive attractor-based solver with strategy synthesis.

Zielonka's recursion: peel the attractor of the maximum priority, solve
the rest, and either give the whole game to the dominant player or
remove the opponent's part, a dominion, with its attractor and solve
what is left. The fpt solvers run the same peel and dominion removal
with their own solver for the sub-games. Runs in O(n^p) worst case but
is fast on typical inputs.
"""
from __future__ import annotations

from .errors import ParityKitError
from .game import ParityGame, subgame
from .oracle import SolveResult, _won_by, empty_result
from .reach import attractor


def win(game: ParityGame) -> SolveResult:
    """Full winning partition with a witness strategy for each player.

    Each synthesized strategy only ever moves inside its own winning
    region, so the result passes partition certification directly.
    """
    return _peel(game, win)


def _shrunk_subgame(game: ParityGame, removed):
    """subgame(game, removed), refusing a sub-game that is not smaller:
    the recursions terminate only because each call shrinks the game."""
    sub, smap = subgame(game, removed)
    if sub.n >= game.n:
        raise ParityKitError(f"sub-game did not shrink below {game.n} nodes")
    return sub, smap


def _choices(smap, res: SolveResult, player: int):
    """`player`'s choices in the sub-game result `res`, in the parent's
    ids; None when `res` carries no strategies."""
    strat = res.strategy(player)
    return None if strat is None else smap.map_to_orig(strat.choice)


def _peel(game: ParityGame, recurse) -> SolveResult:
    """Peel the top priority's attractor and solve the rest with `recurse`.

    The result carries strategies when every sub-result it is built from
    does, and none otherwise.
    """
    if game.n == 0:
        return empty_result()
    p_max = max(game.priority)
    i = p_max % 2
    opp = 1 - i
    top = [v for v in game.nodes() if game.priority[v] == p_max]
    att = attractor(game, top, i)
    sub, smap = _shrunk_subgame(game, att.set)
    res = recurse(sub)
    w_opp = smap.set_to_orig(res.winners(opp))
    if w_opp:
        # The sub-game is a trap for i, so the opponent's part of it is an
        # opponent dominion of the whole game.
        return _remove_dominion(
            game, attractor(game, w_opp, opp), opp, _choices(smap, res, opp), recurse
        )
    # The dominant player wins everywhere: follow the sub-solution outside
    # the attractor, attract toward the top priority inside it, and move
    # anywhere from the top nodes themselves.
    mine = _choices(smap, res, i)
    if mine is not None:
        mine.update(att.strategy)
        for v in top:
            if game.owner[v] == i:
                mine[v] = game.succ[v][0]
    return _won_by(game, i, game.nodes(), mine, {})


def _remove_dominion(game: ParityGame, att, owner: int, witness, recurse) -> SolveResult:
    """Give `owner` the attractor `att` of one of its dominions, won on the
    dominion with the choices `witness` (None when unknown), solve the
    rest with `recurse`, and give the owner everything the opponent does
    not win there."""
    sub, smap = _shrunk_subgame(game, att.set)
    res = recurse(sub)
    opp = 1 - owner
    mine = _choices(smap, res, owner)
    mine = None if mine is None or witness is None else {**witness, **att.strategy, **mine}
    return _won_by(game, opp, smap.set_to_orig(res.winners(opp)), _choices(smap, res, opp), mine)
