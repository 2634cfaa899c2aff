"""Dominion-accelerated recursive solvers.

new_win1 parameterizes by the number of odd nodes and kernelizes at
every level; new_win2 by an out-degree threshold j. Each level of both
brute-forces a small base, else removes a dominion a cheap search found,
else falls back to old_win1/old_win2, Zielonka's peel with new_win
underneath. A result carries both players' strategies when every part
it is built from does; a result lifted through a kernel carries none.

Each call solves in the SolveContext it is given, which holds the
counters and new_win1's memo of the sub-games already solved; a call
given none makes a fresh one, and every recursive call passes its own on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParityKitError
from .game import ParityGame, stats, swap_roles
from .kernel import kernelize_auto, lift_solution
from .oracle import SolveResult, empty_result, solve_brute
from .reach import attractor
from .dominion import DegreeBudget, find_dominion_by_degree, find_dominion_by_odd_nodes
from .util import ceil_sqrt
from .zielonka import _peel, _remove_dominion
from . import zielonka

# new_win2 brute-forces a game with at most this many nodes on each side
# of its degree threshold.
_BASE_CASE_DEGREE = 3


class SolveContext:
    """Counters and new_win1's memo for the solves it is passed to.

    `depth`/`max_depth` count dominion-step levels, `dominion_hits` the
    dominions removed, and `memo_hits` the new_win1 calls answered from
    `memo`, which maps (game, cfg) to the result already computed. Pass
    one context to several calls to count them as one solve.
    """

    __slots__ = ("depth", "max_depth", "dominion_hits", "memo_hits", "memo")

    def __init__(self):
        self.depth = 0
        self.max_depth = 0
        self.dominion_hits = 0
        self.memo_hits = 0
        self.memo = {}


@dataclass(frozen=True)
class FptConfig:
    base_case_k: int = 4
    brute_budget: int = 10**6
    kernelize: bool = True
    sub_j: int | None = None

    def __post_init__(self):
        # For k <= 2 the dominion budget floor(sqrt(2k)) equals k, so the
        # odd-node search would recurse on the unchanged game; those sizes
        # must fall through to the brute-force base case.
        if self.base_case_k < 2:
            raise ValueError("base_case_k must be >= 2")


def _ell_from_k(k: int) -> int:
    ell = math.isqrt(2 * k)
    # guard against drift between the integer and analytic formulas
    assert ell == math.floor(math.sqrt(2 * k))
    return ell


def _degree_budget(n: int, s_j: int, j: int) -> DegreeBudget:
    ell = ceil_sqrt(2 * (n - s_j))
    assert ell == math.ceil(math.sqrt(2 * (n - s_j)))
    if s_j <= 1:
        s = 0
    else:
        s = min(s_j, math.ceil(math.sqrt(s_j * math.log(s_j) / math.log(j))))
    return DegreeBudget(ell=ell, s=s, j=j)


def new_win1(game: ParityGame, cfg: FptConfig | None = None,
             ctx: SolveContext | None = None) -> SolveResult:
    """Exact partition via odd-node-count parameterization.

    A game already solved with the same cfg in `ctx` is answered from
    its memo, adding no level and no dominion hit.
    """
    cfg = cfg or FptConfig()
    if game.n == 0:
        return empty_result()
    if ctx is None:
        ctx = SolveContext()
    key = (game, cfg)
    res = ctx.memo.get(key)
    if res is not None:
        ctx.memo_hits += 1
        return res
    res = ctx.memo[key] = _solve_by_odd_nodes(ctx, game, cfg)
    return res


def _solve_by_odd_nodes(ctx: SolveContext, game: ParityGame, cfg: FptConfig) -> SolveResult:
    """new_win1's work on a non-empty game it has not solved yet."""
    k = sum(game.owner)
    if k > game.n - k:
        return new_win1(swap_roles(game), cfg, ctx).flipped()
    ell = _ell_from_k(k)
    kernel, trace = kernelize_auto(game) if cfg.kernelize else (game, None)
    res = _dominion_step(
        ctx, kernel, cfg, k <= cfg.base_case_k,
        lambda: find_dominion_by_odd_nodes(kernel, ell, lambda sub: new_win1(sub, cfg, ctx)),
        lambda sub: new_win1(sub, cfg, ctx),
        lambda: old_win1(kernel, cfg, ctx),
    )
    return res if trace is None else lift_solution(trace, res)


def old_win1(game: ParityGame, cfg: FptConfig | None = None,
             ctx: SolveContext | None = None) -> SolveResult:
    """Zielonka's peel with new_win1 underneath."""
    cfg = cfg or FptConfig()
    if ctx is None:
        ctx = SolveContext()
    return _peel(game, lambda sub: new_win1(sub, cfg, ctx))


def _dominion_step(ctx: SolveContext, game: ParityGame, cfg, small, search, recurse,
                   fallback) -> SolveResult:
    """One level of new_win1/new_win2, counted in `ctx`: brute force when
    `small`, else remove the dominion `search()` finds and solve the rest
    with `recurse`, else `fallback()`."""
    ctx.depth += 1
    ctx.max_depth = max(ctx.max_depth, ctx.depth)
    try:
        if game.n == 0:
            return empty_result()
        if small:
            return solve_brute(game, cfg.brute_budget)
        dom = search()
        if dom is None:
            return fallback()
        ctx.dominion_hits += 1
        att = attractor(game, dom.set, dom.owner)
        return _remove_dominion(game, att, dom.owner, dom.witness.choice, recurse)
    finally:
        ctx.depth -= 1


def choose_j(game: ParityGame):
    """Degree threshold minimizing sqrt(n - s_j) + sqrt(s_j / log_j s_j).

    Evaluated over j in {2..n} (the formula is undefined at j = 1);
    smallest j wins ties. Returns (j, score).
    """
    n = game.n
    if n < 2:
        raise ValueError("need at least two nodes")
    st = stats(game)
    best = None
    for j in range(2, n + 1):
        s_j = st.s_of(j)
        score = math.sqrt(n - s_j)
        if s_j > 1:
            score += math.sqrt(s_j * math.log(j) / math.log(s_j))
        if best is None or score < best[1]:
            best = (j, score)
    return best


def degree_threshold(game: ParityGame, cfg: FptConfig) -> int:
    """The j that fpt_degree solves with: `cfg.sub_j` when set, else
    choose_j's pick, else 2 on games too small for choose_j."""
    if cfg.sub_j is not None:
        return cfg.sub_j
    return choose_j(game)[0] if game.n >= 2 else 2


def new_win2(game: ParityGame, j: int, cfg: FptConfig | None = None,
             ctx: SolveContext | None = None) -> SolveResult:
    """Exact partition via out-degree parameterization at threshold j."""
    cfg = cfg or FptConfig()
    if j < 2:
        raise ValueError("need j >= 2")
    if game.n == 0:
        return empty_result()
    if ctx is None:
        ctx = SolveContext()
    s_j = stats(game).s_of(j)
    n = game.n
    return _dominion_step(
        ctx, game, cfg, s_j <= _BASE_CASE_DEGREE and n - s_j <= _BASE_CASE_DEGREE,
        lambda: find_dominion_by_degree(game, _degree_budget(n, s_j, j)),
        lambda sub: new_win2(sub, j, cfg, ctx),
        lambda: old_win2(game, j, cfg, ctx),
    )


def old_win2(game: ParityGame, j: int, cfg: FptConfig | None = None,
             ctx: SolveContext | None = None) -> SolveResult:
    """Zielonka's peel with new_win2 underneath."""
    cfg = cfg or FptConfig()
    if ctx is None:
        ctx = SolveContext()
    return _peel(game, lambda sub: new_win2(sub, j, cfg, ctx))


def solve(game: ParityGame, algorithm: str, cfg: FptConfig | None = None,
          ctx: SolveContext | None = None) -> SolveResult:
    """Dispatch to one backend and check determinacy of the result; the
    fpt backends count in `ctx`."""
    cfg = cfg or FptConfig()
    if algorithm == "zielonka":
        res = zielonka.win(game)
    elif algorithm == "brute":
        res = solve_brute(game, cfg.brute_budget)
    elif algorithm == "fpt_k":
        res = new_win1(game, cfg, ctx)
    elif algorithm == "fpt_degree":
        res = new_win2(game, degree_threshold(game, cfg), cfg, ctx)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    w0, w1 = set(res.w0), set(res.w1)
    if w0 & w1:
        raise ParityKitError(f"{algorithm} put node {min(w0 & w1)} in both W0 and W1")
    stray = (w0 | w1) ^ set(game.nodes())
    if stray:
        raise ParityKitError(f"{algorithm} result misses or adds node {min(stray)}")
    return res
