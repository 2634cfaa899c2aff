"""Seeded, closed-loop benchmark of paritykit, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `paritykit` from its
`src/` directory. One caller, one thread: each op starts when the previous
one has finished. Set-up (import plus corpus generation and
serialisation) is repeated and its median reported as `setup_s`. Every
op's output is checked outside the timed region, and every op runs under
a wall-clock cap.

A run makes whole passes over the corpus for `--seconds` seconds. With
`--trace 0` each game's latency is the median over its passes, and the
end-to-end metrics are taken over those per-game latencies. With
`--trace 1` untraced and traced passes alternate, and the per-layer split
of the traced passes is reported. The last line of
standard output is one JSON object; the exit code is 1 if any op failed
or a determinism check did not hold.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, build_corpus, check, make_op, references

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
OP_CAP_S = 30.0
MIN_PASSES = 3  # so each game's median latency outvotes one disturbed pass
TAIL_BEYOND = 10  # games that must lie beyond the reported tail percentile

NESTED = (
    ("dominion.find_dominion_by_degree", "oracle.verify_strategy"),
    ("oracle.solve_brute", "oracle.solve_solitary"),
)
DEPTH_GROUP = ("fpt.new_win1", "fpt.new_win2")

END_TO_END = {
    "games_per_s": ("1/s", "higher"),
    "game_ms_p50": ("ms", "lower"),
    "game_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units():
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update({
        "kernel.shrink_ratio": ("ratio", "lower"),
        "dominion.hit_ratio": ("ratio", "higher"),
        "dominion.find_dominion_by_degree.candidates_per_call": ("count", "lower"),
        "oracle.solve_brute.strategies": ("count", "lower"),
        "fpt.max_depth": ("count", "lower"),
        "pgsolver.loads.mb_per_s": ("MB/s", "higher"),
        "trace.unattributed_frac": ("ratio", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return out


class OpCapped(BaseException):
    """Raised by the alarm handler; a BaseException so no library
    `except Exception` can swallow it."""


def _on_alarm(signum, frame):
    raise OpCapped(f"op exceeded its {OP_CAP_S:g} s cap")


def import_paritykit():
    """A fresh import of paritykit from this checkout's src/."""
    for name in [n for n in sys.modules if n == "paritykit" or n.startswith("paritykit.")]:
        del sys.modules[name]
    pk = importlib.import_module("paritykit")
    if SRC.resolve() not in Path(pk.__file__).resolve().parents:
        raise ImportError(f"paritykit imported from {pk.__file__}, not from {SRC}")
    return pk


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def setup(workload, seed):
    """Import and build the corpus repeatedly; keep the last build.

    At least SETUP_REPEATS times, and more while they add up to less than
    SETUP_MIN_S, so a set-up of a few milliseconds is a median of many.
    """
    times, digests = [], []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        pk = import_paritykit()
        texts, games = build_corpus(pk, workload, seed)
        times.append(time.perf_counter() - start)
        digests.append(digest(texts))
    return pk, texts, games, statistics.median(times), digests


class Runner:
    """Runs ops one after another, timing and checking each."""

    def __init__(self, op, texts, sizes, expected):
        self.op = op
        self.texts = texts
        self.sizes = sizes
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, i, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"game {i}: {why}")

    def run_one(self, i):
        """Duration of op i in seconds, or None if it failed."""
        self.attempted += 1
        # Each op starts with no garbage pending, as in a fresh
        # `paritykit solve` process, so collections fall at the same
        # points of every op and none is charged to the next one.
        gc.collect()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                start = time.perf_counter()
                out = self.op(self.texts[i])
                duration = time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpCapped as exc:
            self._fail(i, str(exc))
            return None
        except Exception as exc:  # any library error fails the op, not the run
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None
        problem = check(self.sizes[i], self.expected[i], out)
        if problem:
            self._fail(i, problem)
            return None
        return duration

    def run_pass(self, stop_at):
        """Durations of one pass over the corpus, None where an op failed.

        Once an op has failed the run's result is settled, so the pass is
        cut short when the clock passes `stop_at`.
        """
        out = []
        for i in range(len(self.texts)):
            out.append(self.run_one(i))
            if self.failed and time.perf_counter() >= stop_at:
                break
        return out

    def repeat(self, step, seconds, minimum):
        """Results of `step(stop_at)`, called at least `minimum` times and
        then while the next call is expected to end within `seconds` of
        the first. After a failure, no call starts once `seconds` are up."""
        results, took = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            results.append(step(start + seconds))
            took.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if self.failed and elapsed >= seconds:
                return results
            if len(results) >= minimum and elapsed + statistics.median(took) > seconds:
                return results


def op_time(durations):
    return sum(d for d in durations if d is not None)


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(samples)
    # With too few samples for any percentile to qualify, report the maximum.
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(runner, seconds, setup_s):
    """End-to-end metrics over the untraced passes that fit in `seconds`.

    A game's latency is the median of its passes, so a pass the machine
    slowed down moves no game's figure unless it slowed most passes.
    The corpus is fixed, so every run reports the same games at the
    median and the tail.
    """
    passes = runner.repeat(runner.run_pass, seconds, MIN_PASSES)
    per_game = [[d for d in ds if d is not None] for ds in zip(*passes)]
    latencies = [statistics.median(ds) for ds in per_game if ds]
    if not latencies:
        return {}, {}
    tail_s, tail_pct = tail(latencies)
    values = {
        "games_per_s": len(latencies) / sum(latencies),
        "game_ms_p50": 1000 * statistics.median(latencies),
        "game_ms_tail": 1000 * tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "pass_s": [round(op_time(ds), 3) for ds in passes],
        "games": len(latencies),
        "timed_ops": sum(len(ds) for ds in per_game),
        "tail_percentile": round(tail_pct, 2),
    }
    return values, notes


class LayerCounters:
    """Counts the tracer's observers take from layer arguments and results."""

    def __init__(self):
        self.kernel_in = self.kernel_out = 0
        self.searches = self.hits = 0
        self.loads_bytes = 0

    def observers(self):
        def kernel(args, result):
            self.kernel_in += args[0].n
            self.kernel_out += result[0].n

        def search(args, result):
            self.searches += 1
            self.hits += result is not None

        def loads(args, result):
            self.loads_bytes += len(args[0])

        return {
            "kernel.kernelize_auto": kernel,
            "dominion.find_dominion_by_odd_nodes": search,
            "dominion.find_dominion_by_degree": search,
            "pgsolver.loads": loads,
        }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(runner, seconds):
    """Untraced-then-traced pairs of passes for `seconds`; (values, notes, counts_ok)."""

    def pair(stop_at):
        untraced_s = op_time(runner.run_pass(stop_at))
        layer_counts = LayerCounters()
        tracer = Tracer(LAYERS, NESTED, DEPTH_GROUP, layer_counts.observers())
        with tracer:
            traced_s = op_time(runner.run_pass(stop_at))
        counts = tracer.counts()
        counts.update(vars(layer_counts))
        return untraced_s, traced_s, tracer, layer_counts, counts

    pairs = runner.repeat(pair, seconds, 1)
    untraced, traced, tracers, _, pass_counts = zip(*pairs)
    _, _, tracer, layer_counts, counts = pairs[0]
    counts_ok = all(c == counts for c in pass_counts)
    self_s = [sum(t.self_s[i] for t in tracers) for i in range(len(LAYERS))]
    loads_incl = sum(t.incl_s[LAYERS.index("pgsolver.loads")] for t in tracers)
    passes = len(traced)
    values = {}
    for i, layer in enumerate(LAYERS):
        values[f"{layer}.calls"] = tracer.calls[i]
        values[f"{layer}.self_s"] = self_s[i] / passes
    by_degree = tracer.calls[LAYERS.index("dominion.find_dominion_by_degree")]
    traced_s = sum(traced)
    values.update({
        "kernel.shrink_ratio": ratio(layer_counts.kernel_out, layer_counts.kernel_in),
        "dominion.hit_ratio": ratio(layer_counts.hits, layer_counts.searches),
        "dominion.find_dominion_by_degree.candidates_per_call": ratio(
            tracer.nested[NESTED[0]], by_degree
        ),
        "oracle.solve_brute.strategies": tracer.nested[NESTED[1]],
        "fpt.max_depth": tracer.max_depth,
        "pgsolver.loads.mb_per_s": ratio(passes * layer_counts.loads_bytes / 1e6, loads_incl),
        "trace.unattributed_frac": ratio(traced_s - sum(self_s), traced_s),
        "trace.overhead_frac": ratio(statistics.median(traced), statistics.median(untraced)) - 1,
    })
    shares = sorted(((s / traced_s if traced_s else 0.0, layer) for s, layer in zip(self_s, LAYERS)),
                    reverse=True)
    notes = {
        "self_time_split": ", ".join(f"{layer} {100 * share:.1f}%" for share, layer in shares
                                     if share >= 0.005),
        "traced_passes": passes,
        "traced_pass_s": round(traced_s / passes, 6),
        "self_sum_pass_s": round(sum(self_s) / passes, 6),
        "kernel_nodes_in": layer_counts.kernel_in,
        "dominion_searches": layer_counts.searches,
        "counts_digest": digest(counts),
    }
    return values, notes, counts_ok


def run_all(args) -> int:
    """Every workload in a process of its own, one after another."""
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "paritykit" / "__init__.py").is_file():
        print(f"no paritykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    pk, texts, games, setup_s, digests = setup(workload, args.seed)
    expected = references(pk, workload, games)
    sizes = [g.n for g in games]
    del games
    # The corpus lives for the whole run; keep it out of every collection.
    gc.collect()
    gc.freeze()
    runner = Runner(make_op(workload), texts, sizes, expected)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {len(texts)} games, corpus digest {digests[-1]}")
    if args.trace:
        values, notes, deterministic = per_layer(runner, args.seconds)
        units = per_layer_units()
    else:
        values, notes = end_to_end(runner, args.seconds, setup_s)
        deterministic = True
        units = END_TO_END
    deterministic = deterministic and len(set(digests)) == 1
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, (unit, better) in units.items():
        if name in values:
            print(f"  {name} = {values[name]:.6g} {unit} ({better} is better)")
    failed_frac = runner.failed / max(runner.attempted, 1)
    print(f"  failed_frac = {failed_frac:.6g} ratio (lower is better;"
          f" {runner.failed} of {runner.attempted} ops failed)")
    for line in runner.failures:
        print(f"  FAILED {line}")
    if not deterministic:
        print("  NONDETERMINISTIC: corpus digests or per-pass call counts differ")
    correct = runner.failed == 0 and deterministic and len(values) == len(units)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
