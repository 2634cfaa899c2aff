"""The benchmark's workloads: which games each op solves, and how it is checked.

Every op takes one game as PGSolver text and runs the path that
`paritykit solve` takes: `pgsolver.loads`, `game.validate`, then the
workload's solver. The game structures come from `paritykit.generate`
with fixed generator seeds. The benchmark's `--seed` draws the text of
every game: sparse node ids in the file and the order of its lines. The
reader maps sparse ids back to dense ones in ascending order, so each
seed is new input text for the same solver work. The fpt solvers' cost
per game spans three orders of magnitude and moves by up to 2x when the
nodes are merely renumbered, so corpora whose structures or numbering
changed with the seed spread by 0.17 to 0.64 (interquartile range over
median) from seed to seed (see README.md).
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass


ID_SPREAD = 10  # file ids are drawn from 0..ID_SPREAD*n-1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple  # (family, n, priority_bound, games, generator kwargs)
    solver: str  # "certify", or an algorithm name of paritykit.solve

    def structures(self):
        """(family, n, priority_bound, generator seed, kwargs) in op order.

        Slot i contributes generator seeds 0..games_i-1; the slots take
        turns so every stretch of the corpus mixes the families.
        """
        for gen_seed in range(max(slot[3] for slot in self.slots)):
            for family, n, bound, games, kwargs in self.slots:
                if gen_seed < games:
                    yield family, n, bound, gen_seed, kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large_certified",
            "solve a large file with Zielonka and certify it: parse and"
            " verify_strategy/solve_solitary dominate, no fpt layer runs",
            # Few games, so a run repeats each of them several times.
            (("general", 20000, 8, 2, {}), ("general", 20000, 64, 2, {})),
            "certify",
        ),
        Workload(
            "fpt_k_small",
            "new_win1 on tiny games many times over: kernel, odd-node"
            " dominion search, brute force, attractor and sub-games all run",
            (
                ("bounded_outdegree", 36, 8, 20, {"j": 3}),
                ("bipartite", 24, 8, 20, {}),
                ("general", 30, 8, 20, {}),
            ),
            "fpt_k",
        ),
        Workload(
            "fpt_degree_mid",
            "new_win2: the only workload that runs the degree-budget dominion"
            " search and its many tiny verify_strategy calls",
            (
                ("bounded_outdegree", 60, 8, 20, {"j": 3}),
                ("general", 60, 8, 20, {}),
                ("bipartite", 48, 8, 20, {}),
            ),
            "fpt_degree",
        ),
        Workload(
            "unbalanced_kernel",
            "the paper's family: one kernelize_general call on a large dense"
            " game does the work and leaves a tiny kernel",
            # More games of the smaller size, so the median latency falls
            # inside a cluster rather than in the gap between the sizes.
            tuple(
                ("unbalanced", n, 8, games, {"k": k})
                for n, games in ((3200, 6), (6400, 4))
                for k in (2, 4, 8)
            ),
            "fpt_k",
        ),
    )
}


def encode(pk, game, rng):
    """PGSolver text of `game` with sparse ids and shuffled lines drawn from `rng`."""
    ids = sorted(rng.sample(range(ID_SPREAD * game.n), game.n))
    header, *lines = pk.pgsolver.dumps(game, ids).splitlines()
    rng.shuffle(lines)
    return "\n".join([header, *lines]) + "\n"


def build_corpus(pk, workload, seed):
    """(texts, games): the workload's games, encoded for `seed`, in op order."""
    texts, games = [], []
    for i, (family, n, bound, gen_seed, kwargs) in enumerate(workload.structures()):
        game = pk.generate(family, n, bound, gen_seed, **kwargs)
        texts.append(encode(pk, game, random.Random(f"{workload.name}:{seed}:{i}")))
        games.append(game)
    return texts, games


def make_op(workload):
    """One op: text in, (result, certified) out.

    Functions are looked up on the paritykit modules at call time, so the
    tracer's wrappers are used whenever it is installed. (The package
    attribute `paritykit.generate` is the function, so modules are taken
    from sys.modules throughout.)
    """
    pgsolver, game_mod, fpt, zielonka, oracle = (
        sys.modules[f"paritykit.{name}"]
        for name in ("pgsolver", "game", "fpt", "zielonka", "oracle")
    )

    def op(text):
        game, _ids = pgsolver.loads(text)
        report = game_mod.validate(game)
        if not report.ok:
            raise ValueError(f"invalid game: {report.violations[0]}")
        if workload.solver == "certify":
            result = zielonka.win(game)
            return result, oracle.verify_partition(game, result)
        return fpt.solve(game, workload.solver), None

    return op


def references(pk, workload, games):
    """Expected (w0, w1) per game, or None where the op certifies itself."""
    if workload.solver == "certify":
        return [None] * len(games)
    win = pk.win
    return [(res.w0, res.w1) for res in map(win, games)]


def check(game_n, expected, output):
    """Why an op's output is wrong, or None when it is right."""
    result, certified = output
    if certified is not None and not certified:
        return "verify_partition rejected the result"
    if result.w0 & result.w1 or result.w0 | result.w1 != frozenset(range(game_n)):
        return "w0/w1 is not a partition of the nodes"
    if expected is not None and (result.w0, result.w1) != expected:
        return "partition differs from Zielonka's"
    return None
