"""Attractor (reachability-set) computation and closedness checks."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .game import ParityGame


@dataclass(frozen=True)
class AttractorResult:
    set: frozenset
    strategy: dict  # attracting choice for player i on set minus target


def attractor(game, target, player: int) -> AttractorResult:
    """Least set R containing `target` from which `player` can force entry.

    `game` is a ParityGame or the kernel's working graph: only its
    `owner`, `succ` and `pred`, indexed by node id, are read. Counter-based
    backward propagation, linear in the edges into R, not in the game's
    size. The FIFO worklist is seeded in ascending id order, so ties among
    simultaneously attractable nodes resolve deterministically and the
    recorded strategy is rank-decreasing by construction.
    """
    owner = game.owner
    succ = game.succ
    reached = set(target)
    strategy = {}
    queue = deque(sorted(reached))
    # Opponent nodes fall in once every successor is attracted. A count
    # is set on first touch and never stored as 0 for an unreached node.
    missing = {}
    while queue:
        w = queue.popleft()
        for u in game.pred[w]:
            if u in reached:
                continue
            if owner[u] == player:
                reached.add(u)
                strategy[u] = w
                queue.append(u)
            else:
                left = (missing.get(u) or len(succ[u])) - 1
                missing[u] = left
                if left == 0:
                    reached.add(u)
                    queue.append(u)
    return AttractorResult(set=frozenset(reached), strategy=strategy)


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
