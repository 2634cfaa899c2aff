"""Kernelization pipelines with winner-recovery traces.

Two reducers: a transformation for arbitrary games that routes every
move of the larger player through priority-summarizing relay nodes, and
a four-rule fixpoint for bipartite games. Both emit a ReductionTrace
whose backward replay recovers the winners of every removed node.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotBipartite, ParityKitError, TraceMismatch
from .game import ParityGame, is_bipartite, p1_value, p_value, swap_roles
from .oracle import SolveResult
from .reach import attractor
from .util import _parity_cycles, tarjan_sccs


# --- trace events -----------------------------------------------------------

@dataclass(frozen=True)
class DominionRemoved:
    nodes: tuple
    winner: int


@dataclass(frozen=True)
class NoPredecessorRemoved:
    node: int
    owner: int
    successors: tuple  # successors at the moment of removal


@dataclass(frozen=True)
class Contracted:
    kept: int
    absorbed: int


@dataclass(frozen=True)
class EdgesDeleted:
    edges: tuple  # of (u, v) pairs


@dataclass(frozen=True)
class PriorityRemapped:
    mapping: tuple  # of (old, new) pairs


@dataclass(frozen=True)
class SyntheticAdded:
    node: int
    kind: str  # "edge-split" or "transit"


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered reduction events plus the id bookkeeping needed to lift.

    `kernel_ids[i]` is the working id (original id, or a fresh id for
    synthetic nodes) of kernel node `i`. `swapped` marks that the whole
    reduction ran on the role-swapped game; lifting flips the winners
    back at the end.
    """

    events: tuple
    n_original: int
    kernel_ids: tuple
    swapped: bool = False


def trace_lines(trace: ReductionTrace):
    """Line-oriented rendering of a trace (one event per line)."""
    out = []
    if trace.swapped:
        out.append("SWAP")
    for ev in trace.events:
        if isinstance(ev, DominionRemoved):
            out.append("DOM %d %s" % (ev.winner, " ".join(map(str, ev.nodes))))
        elif isinstance(ev, NoPredecessorRemoved):
            out.append(
                "NOPRED %d %d %s"
                % (ev.node, ev.owner, " ".join(map(str, ev.successors)))
            )
        elif isinstance(ev, Contracted):
            out.append(f"CONTRACT {ev.kept} {ev.absorbed}")
        elif isinstance(ev, EdgesDeleted):
            out.extend(f"EDGEDEL {u} {v}" for u, v in ev.edges)
        elif isinstance(ev, PriorityRemapped):
            out.append(
                "PRIO " + " ".join(f"{o}={n}" for o, n in ev.mapping)
            )
        elif isinstance(ev, SyntheticAdded):
            out.append(f"SYN {ev.node} {ev.kind}")
    return out


# --- mutable working graph --------------------------------------------------

class _Work:
    """Mutable graph with stable ids; original ids are 0..n-1."""

    def __init__(self, game: ParityGame, dead=frozenset(), relays=None):
        """A copy of `game` without the nodes in `dead`.

        `relays` is the general pipeline's registry after its step (1):
        (priority, odd target) -> the Even node whose only move is that
        target, where ids from `game.n` up are new nodes. Each new node is
        built here when its target lives, and every Odd node's move into
        another Odd node goes through the relay of the target's priority.
        """
        owner, prio = game.owner, game.priority
        keep = [v for v in game.nodes() if v not in dead]
        self.owner = {v: owner[v] for v in keep}
        self.prio = {v: prio[v] for v in keep}
        # Plain `set` when nothing is dropped: the bipartite pipeline and
        # small general games copy whole games many times over.
        live = (lambda ts: set(ts).difference(dead)) if dead else set
        self.succ = {v: live(game.succ[v]) for v in keep}
        self.pred = {v: live(game.pred[v]) for v in keep}
        self.next_id = game.n
        if not relays:
            return
        for (p, w), t in relays.items():
            if t >= game.n:
                self.next_id += 1
                if w not in dead:
                    self.owner[t], self.prio[t] = 0, p
                    self.succ[t], self.pred[t] = {w}, set()
                    self.pred[w].add(t)
        for v in keep:
            if owner[v] == 1:
                for w in [w for w in self.succ[v] if owner[w] == 1]:
                    self.remove_edge(v, w)
                    self.add_edge(v, relays[prio[w], w])

    def nodes(self):
        return sorted(self.owner)

    def side(self, player):
        return sorted(v for v in self.owner if self.owner[v] == player)

    def add_node(self, owner, prio) -> int:
        v = self.next_id
        self.next_id += 1
        self.owner[v] = owner
        self.prio[v] = prio
        self.succ[v] = set()
        self.pred[v] = set()
        return v

    def add_edge(self, u, v):
        self.succ[u].add(v)
        self.pred[v].add(u)

    def remove_edge(self, u, v):
        self.succ[u].discard(v)
        self.pred[v].discard(u)

    def remove_nodes(self, dead):
        dead = set(dead)
        for v in dead:
            for w in self.succ[v]:
                if w not in dead:
                    self.pred[w].discard(v)
            for u in self.pred[v]:
                if u not in dead:
                    self.succ[u].discard(v)
        for v in dead:
            del self.owner[v], self.prio[v], self.succ[v], self.pred[v]

    def contract(self, kept, absorbed):
        """Redirect in-edges of `absorbed` into `kept` and delete it."""
        for u in list(self.pred[absorbed]):
            self.remove_edge(u, absorbed)
            if u != absorbed:
                self.add_edge(u, kept)
        self.remove_nodes([absorbed])

    def finish(self):
        ids = self.nodes()
        dense = {v: i for i, v in enumerate(ids)}
        game = ParityGame(
            [self.owner[v] for v in ids],
            [self.prio[v] for v in ids],
            [[dense[w] for w in self.succ[v]] for v in ids],
        )
        return game, tuple(ids)


# --- general-game pipeline --------------------------------------------------

def kernelize_general(game: ParityGame):
    """Reduce an arbitrary game. When Odd owns more than half the nodes,
    the pipeline runs on the role-swapped game and marks the trace `swapped`.

    Pipeline: split Odd-internal edges through relay nodes; remove the
    Even player's reachability set of Even-won cycles inside her own
    region and the Odd player's reachability set of her dead ends; route
    every remaining Even move through the best relay per target; drop
    predecessor-less Even nodes and merge Even nodes with identical
    out-neighborhoods.
    """
    n1 = sum(game.owner)
    swapped = n1 > game.n - n1
    if swapped:
        game = swap_roles(game)
    owner, priority = game.owner, game.priority
    events = []
    # Relay registry: (priority, odd-target) -> node with that priority
    # whose only move is the target. Pre-registering existing such nodes
    # makes the whole pipeline a fixpoint on its own output.
    relays = {}
    for v in game.nodes():
        if owner[v] == 0 and len(game.succ[v]) == 1:
            (w,) = game.succ[v]
            if owner[w] == 1:
                relays.setdefault((priority[v], w), v)
    next_id = game.n

    # (1) no edges inside the odd side: each one becomes a relay hop
    # carrying the target's priority. Only the new relays' ids are
    # assigned here; `_Work` reroutes the Odd nodes' moves through them.
    for v in game.nodes_of(1):
        for w in game.succ[v]:
            if owner[w] == 1 and (priority[w], w) not in relays:
                relays[priority[w], w] = next_id
                events.append(SyntheticAdded(next_id, "edge-split"))
                next_id += 1

    # (2) cycles inside the even side with even maximum priority are won
    # by Even outright; remove everything she can steer into them. Step
    # (1) changed no Even node's moves, a relay lies on no Even-internal
    # cycle, and a relay is attracted exactly when its target is, so this
    # runs on the game itself and only the survivors are copied.
    on_even_cycle = set()
    for scc, _ in _parity_cycles(game.nodes_of(0), priority, game.succ.__getitem__, 0):
        on_even_cycle.update(scc)
    dead = set()
    if on_even_cycle:
        dead = set(attractor(game, on_even_cycle, 0).set)
        dead.update(t for (_, w), t in relays.items() if t >= game.n and w in dead)
        events.append(DominionRemoved(tuple(sorted(dead)), 0))
    work = _Work(game, dead, relays)
    relays = {k: v for k, v in relays.items() if v not in dead}

    def get_relay(prio, target, kind):
        key = (prio, target)
        if key not in relays:
            t = work.add_node(0, prio)
            work.add_edge(t, target)
            relays[key] = t
            events.append(SyntheticAdded(t, kind))
        return relays[key]

    # (3) even nodes that cannot reach the odd side are trapped in
    # odd-max cycles and lost; remove everything Odd can steer there.
    # Removing that reachability set can cut other nodes' only routes to
    # the odd side, so iterate until no stuck node remains.
    while True:
        reaches = attractor(work, work.side(1), 0).set
        stuck = [v for v in work.nodes() if v not in reaches]
        if not stuck:
            break
        dead = attractor(work, stuck, 1).set
        events.append(DominionRemoved(tuple(sorted(dead)), 1))
        work.remove_nodes(dead)
        relays = {k: v for k, v in relays.items() if v not in dead}

    # (4) per target w, the best max-priority any even-internal path to w
    # can achieve; then route every even move through that relay.
    odd_ids = work.side(1)
    bit = {w: 1 << i for i, w in enumerate(odd_ids)}
    v0 = [v for v in work.nodes() if work.owner[v] == 0]
    direct = {
        v: sum(bit[w] for w in work.succ[v] if w in bit) for v in v0
    }
    best = {v: {} for v in v0}  # v -> {target: best path max priority}
    seen = dict.fromkeys(v0, 0)  # v -> mask of the targets in best[v]
    # Lower p-one-value is better for Even; first assignment wins.
    for d in sorted({work.prio[v] for v in v0}, key=p1_value):
        level = [v for v in v0 if work.prio[v] <= d]
        level_set = set(level)
        reach_mask = {}
        after_mask = {}
        for scc in tarjan_sccs(level, lambda v: work.succ[v] & level_set):
            r = 0
            a = 0
            for v in scc:
                r |= direct[v]
                for w in work.succ[v] & level_set:
                    if w not in scc:
                        r |= reach_mask[w]
                        a |= after_mask[w]
            if any(work.prio[v] == d for v in scc):
                a |= r
            for v in scc:
                reach_mask[v] = r
                after_mask[v] = a
        for v in level:
            # New targets only, lowest bit first: best[v]'s order decides relay ids.
            new = after_mask[v] & ~seen[v]
            seen[v] |= new
            while new:
                low = new & -new
                best[v][odd_ids[low.bit_length() - 1]] = d
                new ^= low

    relay_nodes = set(relays.values())
    for v in v0:
        if v in relay_nodes:
            continue
        if not best[v]:
            raise ParityKitError(f"even node {v} survived step (3) but reaches no target")
        new_succ = set()
        for w, d in best[v].items():
            if d < work.prio[v]:
                raise ParityKitError(
                    f"best path from even node {v} tops at priority {d},"
                    f" below its own {work.prio[v]}"
                )
            new_succ.add(get_relay(d, w, "transit"))
        for w in list(work.succ[v]):
            work.remove_edge(v, w)
        for t in new_succ:
            work.add_edge(v, t)
    relay_nodes = set(relays.values())

    # (5) drop predecessor-less nodes, then merge even nodes with
    # identical out-neighborhoods.
    _drop_predecessorless(work, events)
    _contract_groups(
        work,
        events,
        [v for v in work.nodes() if work.owner[v] == 0 and v not in relay_nodes],
        lambda v: frozenset(work.succ[v]),
    )

    kernel, ids = work.finish()
    return kernel, ReductionTrace(tuple(events), game.n, ids, swapped)


# --- rules shared by both pipelines ----------------------------------------

def _drop_predecessorless(work, events):
    """In-degree rule: nodes nothing points at lie on no cycle and their
    winner follows from their successors'. Returns whether any went."""
    changed = False
    queue = deque(v for v in work.nodes() if not work.pred[v])
    while queue:
        v = queue.popleft()
        if v not in work.owner or work.pred[v]:
            continue
        succs = sorted(work.succ[v])
        events.append(NoPredecessorRemoved(v, work.owner[v], tuple(succs)))
        work.remove_nodes([v])
        changed = True
        for w in succs:
            if w in work.owner and not work.pred[w]:
                queue.append(w)
    return changed


def _contract_groups(work, events, nodes, key):
    """Contract each group of `nodes` with equal `key` into its smallest
    id, which takes the group's highest priority. Returns whether any
    group had two or more members."""
    groups = {}
    for v in nodes:
        groups.setdefault(key(v), []).append(v)
    changed = False
    for members in groups.values():
        if len(members) < 2:
            continue
        kept = min(members)
        work.prio[kept] = max(work.prio[v] for v in members)
        for absorbed in sorted(members):
            if absorbed != kept:
                events.append(Contracted(kept, absorbed))
                work.contract(kept, absorbed)
        changed = True
    return changed


# --- bipartite rules --------------------------------------------------------

def _compress_priorities(work, events):
    """Canonical priority compression: merge adjacent same-parity levels."""
    values = sorted({work.prio[v] for v in work.owner})
    if not values:
        return False
    classes = []
    for z in values:
        if classes and classes[-1][0] == z % 2:
            classes[-1][1].append(z)
        else:
            classes.append([z % 2, [z]])
    base = classes[0][0]  # 0 if the lowest level is even, else 1
    mapping = {}
    for i, (_, zs) in enumerate(classes):
        for z in zs:
            mapping[z] = i + base
    if all(o == n for o, n in mapping.items()):
        return False
    events.append(PriorityRemapped(tuple(sorted(mapping.items()))))
    for v in work.owner:
        work.prio[v] = mapping[work.prio[v]]
    return True


def _bipartite_pass(work, events):
    """One sweep of the in-degree, out-degree, and equality rules."""
    changed = _drop_predecessorless(work, events)
    for player in (0, 1):
        # out-degree rule: when v dominates u for the players choosing
        # between them, edges into u from shared choosers are dead.
        # The loop only deletes edges, so every node of `side` stays.
        side = work.side(player)
        pref = 1 - player
        for u in side:
            for v in side:
                if v == u or not work.succ[v] <= work.succ[u]:
                    continue
                if p_value(work.prio[v], pref) < p_value(work.prio[u], pref):
                    continue
                shared = work.pred[u] & work.pred[v]
                if not shared:
                    continue
                events.append(
                    EdgesDeleted(tuple((w, u) for w in sorted(shared)))
                )
                for w in shared:
                    work.remove_edge(w, u)
                changed = True
        # equality rule: same moves, same priority -> one node.
        if _contract_groups(
            work,
            events,
            work.side(player),
            lambda v: (work.prio[v], frozenset(work.succ[v])),
        ):
            changed = True
    return changed


def kernelize_bipartite(game: ParityGame):
    """Exhaustively apply the four bipartite reduction rules."""
    if not is_bipartite(game):
        raise NotBipartite("game has an edge inside one player's side")
    work = _Work(game)
    events = []
    changed = True
    while changed:
        changed = _compress_priorities(work, events)
        while _bipartite_pass(work, events):
            changed = True
    kernel, ids = work.finish()
    return kernel, ReductionTrace(tuple(events), game.n, ids)


def kernelize_auto(game: ParityGame):
    """Dispatch: bipartite rules when possible, else the general pipeline."""
    if is_bipartite(game):
        return kernelize_bipartite(game)
    return kernelize_general(game)


# --- winner lifting ---------------------------------------------------------

def lift_solution(trace: ReductionTrace, kernel_result: SolveResult) -> SolveResult:
    """Winners of the original game from the kernel's winners.

    Partition-only: strategies are not lifted through the trace.
    """
    covered = set(kernel_result.w0) | set(kernel_result.w1)
    if covered != set(range(len(trace.kernel_ids))):
        raise TraceMismatch(
            f"kernel result covers {len(covered)} nodes, "
            f"trace expects {len(trace.kernel_ids)}"
        )
    winner = {}
    for i, v in enumerate(trace.kernel_ids):
        winner[v] = 0 if i in kernel_result.w0 else 1
    for ev in reversed(trace.events):
        if isinstance(ev, DominionRemoved):
            for v in ev.nodes:
                winner[v] = ev.winner
        elif isinstance(ev, NoPredecessorRemoved):
            j = ev.owner
            winner[ev.node] = (
                j if any(winner[w] == j for w in ev.successors) else 1 - j
            )
        elif isinstance(ev, Contracted):
            winner[ev.absorbed] = winner[ev.kept]
    flip = 1 if trace.swapped else 0
    w0, w1 = set(), set()
    for v in range(trace.n_original):
        if v not in winner:
            raise TraceMismatch(f"trace leaves original node {v} unassigned")
        (w0 if winner[v] ^ flip == 0 else w1).add(v)
    return SolveResult(frozenset(w0), frozenset(w1))
