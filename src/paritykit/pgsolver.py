"""PGSolver text format reader and writer.

Reading tolerates a missing header and optional node names; ids may be
sparse and are remapped to dense ids in ascending order. Writing is
canonical: header present, nodes ascending, successors ascending, no
names.
"""
from __future__ import annotations

import re

from .errors import ParseError
from .game import ParityGame

# The successor group is greedy, so a match does not retry the rest of the
# pattern after each of its characters. It accepts the same lines as a lazy
# group; the whitespace it takes before the name or ';' splits away.
_NODE_RE = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])\s+([0-9,\s]+)(?:\"([^\"]*)\")?\s*;$"
)
_HEADER_RE = re.compile(r"parity\s+\d+\s*;")
_DIGIT = re.compile(r"[0-9]")


def loads(text: str):
    """Parse PGSolver text; returns (game, ids) where ids[dense] = file id."""
    # Node id -> index into the per-record lists, which hold strings and
    # ints only: a large file then creates few objects that the cyclic
    # garbage collector has to track.
    records = {}
    prios, owners, succ_texts, linenos = [], [], [], []
    start = 0
    match_node = _NODE_RE.match
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("parity"):
            if records:
                raise ParseError("header after node lines", lineno)
            if not _HEADER_RE.fullmatch(line):
                raise ParseError("malformed header", lineno)
            start = lineno
            continue
        m = match_node(line)
        if m is None:
            raise ParseError(f"malformed node line {line!r}", lineno)
        node_s, prio_s, owner_s, succ_s, _name = m.groups()
        try:
            node = int(node_s)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError("node id has too many digits", lineno) from None
        if node in records:
            raise ParseError(f"duplicate node id {node}", lineno)
        if _DIGIT.search(succ_s) is None:
            raise ParseError(f"node {node} has no successors", lineno)
        records[node] = len(linenos)
        prios.append(prio_s)
        owners.append(owner_s)
        succ_texts.append(succ_s)
        linenos.append(lineno)
    if not records:
        raise ParseError("no node lines found", start or 1)
    ids = sorted(records)
    order = [records[v] for v in ids]
    dense = {v: i for i, v in enumerate(ids)}
    to_dense = dense.__getitem__
    succ = []
    for v, r in zip(ids, order):
        succs = succ_texts[r].replace(",", " ").split()
        try:
            # `dense` is monotone, so one sort of the remapped set is canonical.
            succ.append(tuple(sorted(set(map(to_dense, map(int, succs))))))
        except KeyError:
            w = next(w for w in map(int, succs) if w not in dense)
            raise ParseError(
                f"node {v} points to undefined node {w}", linenos[r]
            ) from None
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(
                f"node {v} has a successor with too many digits", linenos[r]
            ) from None
    try:
        priority = tuple([int(prios[r]) for r in order])
    except ValueError:
        # int() refuses only digit strings over its limit, so the longest.
        v, r = max(zip(ids, order), key=lambda vr: len(prios[vr[1]]))
        raise ParseError(f"node {v} priority has too many digits", linenos[r]) from None
    game = ParityGame._canonical(
        tuple([int(owners[r]) for r in order]), priority, tuple(succ)
    )
    return game, tuple(ids)


def dumps(game: ParityGame, ids=None) -> str:
    """Serialize canonically; `ids` optionally maps dense ids to file ids."""
    if ids is None:
        ids = tuple(range(game.n))
    out = [f"parity {max(ids) if ids else 0};"]
    for v in game.nodes():
        succs = ",".join(str(ids[w]) for w in game.succ[v])
        out.append(f"{ids[v]} {game.priority[v]} {game.owner[v]} {succs};")
    return "\n".join(out) + "\n"


def read_file(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return loads(fh.read())


def write_file(path, game: ParityGame, ids=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(game, ids))
