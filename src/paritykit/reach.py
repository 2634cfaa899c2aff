"""Attractor (reachability-set) computation and closedness checks."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .game import ParityGame


@dataclass(frozen=True)
class AttractorResult:
    set: frozenset
    strategy: dict  # attracting choice for player i on set minus target


def attractor(game: ParityGame, target, player: int, alive=None) -> AttractorResult:
    """Least set R containing `target` from which `player` can force entry.

    Counter-based backward propagation over the sub-game induced by
    `alive` (all nodes when None); linear in the number of edges. The
    FIFO worklist is seeded in ascending id order, so ties among
    simultaneously attractable nodes resolve deterministically and the
    recorded strategy is rank-decreasing by construction.
    """
    if alive is None:
        in_alive = [True] * game.n
    else:
        in_alive = [False] * game.n
        for v in alive:
            in_alive[v] = True
    owner = game.owner
    succ = game.succ
    reached = [False] * game.n
    strategy = {}
    queue = deque()
    for v in sorted(target):
        if in_alive[v] and not reached[v]:
            reached[v] = True
            queue.append(v)
    # Opponent nodes fall in once every live successor is attracted.
    missing = [0] * game.n
    opp = 1 - player
    for v in game.nodes():
        if in_alive[v] and owner[v] == opp:
            missing[v] = sum(1 for w in succ[v] if in_alive[w])
    while queue:
        w = queue.popleft()
        for u in game.pred[w]:
            if not in_alive[u] or reached[u]:
                continue
            if owner[u] == player:
                reached[u] = True
                strategy[u] = w
                queue.append(u)
            else:
                missing[u] -= 1
                if missing[u] == 0:
                    reached[u] = True
                    queue.append(u)
    return AttractorResult(
        set=frozenset(v for v in game.nodes() if reached[v]),
        strategy=strategy,
    )


# The masked form's former name, kept for existing importers.
attractor_masked = attractor


def first_open_node(game: ParityGame, node_set, player: int):
    """Smallest node of the set `node_set` where `player` cannot stay or
    the opponent can leave; None when the set is closed for `player`."""
    for v in sorted(node_set):
        if game.owner[v] == player:
            if not any(w in node_set for w in game.succ[v]):
                return v
        elif not all(w in node_set for w in game.succ[v]):
            return v
    return None


def is_closed(game: ParityGame, nodes, player: int) -> bool:
    """True iff `player` can stay in `nodes` and the opponent cannot leave."""
    return first_open_node(game, set(nodes), player) is None
