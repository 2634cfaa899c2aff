"""Small graph helpers shared by the solvers."""
from __future__ import annotations


def tarjan_sccs(nodes, succ):
    """Iterative Tarjan over the subgraph induced by `nodes`.

    `succ(v)` yields successors; edges leaving `nodes` are ignored.
    Returns SCCs as lists, in reverse topological order.
    """
    node_set = set(nodes)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter([w for w in succ(root) if w in node_set]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in succ(w) if x in node_set])))
                    advanced = True
                    break
                if w in on_stack:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
    return sccs


def _parity_cycles(nodes, priority, succ, parity):
    """Yield (scc, top) for each maximal cyclic SCC of `nodes` whose top
    priority `top` has `parity`; their union is the set of nodes on a
    cycle whose highest priority has that parity.

    Nested SCC decomposition, as for parity-automaton emptiness (King,
    Kupferman & Vardi, FoSSaCS 2001): a part keeps its nodes up to its
    highest priority of `parity`, and each non-trivial SCC of those is
    yielded when its top has the parity, else decomposed again. `succ(v)`
    yields successors; edges leaving `nodes` are ignored.
    """
    parts = [list(nodes)]
    while parts:
        part = parts.pop()
        d = max((priority[v] for v in part if priority[v] % 2 == parity), default=None)
        if d is None:
            continue
        for scc in tarjan_sccs([v for v in part if priority[v] <= d], succ):
            if len(scc) == 1 and scc[0] not in succ(scc[0]):
                continue
            top = max(priority[v] for v in scc)
            if top % 2 == parity:
                yield scc, top
            else:
                parts.append(scc)


def ceil_sqrt(x: int) -> int:
    """Smallest integer s with s*s >= x, for x >= 0."""
    if x <= 0:
        return 0
    from math import isqrt

    return isqrt(x - 1) + 1
