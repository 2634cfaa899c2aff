"""Command-line interface: solve, kernelize, gen, verify, bench.

Exit codes: 0 ok, 2 parse error or unreadable input, 3 validation/mode
error or unwritable output, 4 budget exceeded, 5 verification failure,
6 benchmark agreement failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from . import pgsolver
from .errors import (
    BudgetExceeded,
    InvalidFamilyParams,
    MissingStrategies,
    NotBipartite,
    ParseError,
)
from .fpt import FptConfig, SolveContext, degree_threshold, solve
from .game import is_bipartite, stats, validate
from .generate import FAMILIES, generate
from .kernel import kernelize_bipartite, kernelize_general, trace_lines
from .oracle import SolveResult, Strategy, verify_partition_report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_AGREEMENT = 6

_STACK_BYTES = 256 * 1024 * 1024


def _run_big_stack(fn):
    """Run fn in a thread with a large stack; recursion-depth friendly."""
    result = {}

    def target():
        sys.setrecursionlimit(1_000_000)
        try:
            result["value"] = fn()
        except BaseException as exc:  # re-raised in the caller
            result["error"] = exc

    old_limit = sys.getrecursionlimit()
    old = threading.stack_size(_STACK_BYTES)
    try:
        t = threading.Thread(target=target)
        t.start()
        t.join()
    finally:
        threading.stack_size(old)
        sys.setrecursionlimit(old_limit)
    if "error" in result:
        raise result["error"]
    return result["value"]


@contextmanager
def _file_errors(path, verb):
    """Exit 2 when `path` cannot be read (or is not UTF-8), 3 when it cannot be written."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot {verb} {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE if verb == "read" else EXIT_VALIDATION) from None


@contextmanager
def _claimed(path):
    """Open `path` (None: no file) before any work, so that an unwritable
    path is refused at once, and yield a function that replaces its text.

    Until that function is called the file keeps what it held, and a file
    created here but never written is removed again on exit.
    """
    if path is None:
        yield None
        return
    existed = Path(path).exists()
    with _file_errors(path, "write"):
        fh = open(path, "a", encoding="utf-8")
    written = False

    def write(text):
        nonlocal written
        with _file_errors(path, "write"):
            fh.truncate(0)
            fh.write(text)
        written = True

    try:
        yield write
    finally:
        fh.close()
        if not written and not existed:
            Path(path).unlink(missing_ok=True)


def _load(path):
    try:
        with _file_errors(path, "read"):
            return pgsolver.read_file(path)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _check_valid(game):
    report = validate(game)
    if not report.ok:
        print(f"invalid game: {report.violations[0]}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


_ALGO_NAMES = {
    "zielonka": "zielonka",
    "brute": "brute",
    "fpt-k": "fpt_k",
    "fpt-degree": "fpt_degree",
}


def cmd_solve(args) -> int:
    # Flags are checked before the input is read, so a bad one costs no work.
    if args.j is not None and (args.algo != "fpt-degree" or args.j < 2):
        print("invalid parameters: --j must be at least 2 and needs --algo "
              f"fpt-degree, got --j {args.j} with --algo {args.algo}",
              file=sys.stderr)
        return EXIT_VALIDATION
    if args.emit_strategy and args.algo not in ("zielonka", "brute"):
        print("strategies are only available for zielonka and brute", file=sys.stderr)
        return EXIT_VALIDATION
    game, ids = _load(args.input)
    _check_valid(game)
    cfg = FptConfig(
        kernelize=not args.no_kernel,
        sub_j=args.j,
        brute_budget=args.budget,
    )
    ctx = SolveContext()
    start = time.perf_counter_ns()
    try:
        res = _run_big_stack(lambda: solve(game, _ALGO_NAMES[args.algo], cfg, ctx))
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    elapsed = time.perf_counter_ns() - start
    print("W0: " + " ".join(str(ids[v]) for v in sorted(res.w0)))
    print("W1: " + " ".join(str(ids[v]) for v in sorted(res.w1)))
    if args.emit_strategy:
        for player in (0, 1):
            strat = res.strategy(player)
            pairs = " ".join(
                f"{ids[v]}->{ids[w]}" for v, w in sorted(strat.choice.items())
            )
            print(f"S{player}: {pairs}")
    if args.report_metrics:
        print(f"ns: {elapsed}")
        print(f"depth: {ctx.max_depth}")
        print(f"dominion_hits: {ctx.dominion_hits}")
        if args.algo == "fpt-degree":
            print(f"j: {degree_threshold(game, cfg)}")
    return EXIT_OK


def _bound_text(bound):
    """`bound` in full below 4,300 digits, str()'s default limit (fixed, as
    the process-wide setting may differ), else `>10^D`, where 0.30102999 <
    log10(2) makes 10^D < 2^(bit_length - 1) <= bound."""
    if bound < 10**4299:
        return str(bound)
    return f">10^{(bound.bit_length() - 1) * 30102999 // 10**8}"


def cmd_kernelize(args) -> int:
    game, _ = _load(args.input)
    _check_valid(game)
    with _claimed(args.out) as write_kernel, _claimed(args.trace_out) as write_trace:
        st = stats(game)
        k, p = st.k, st.priority_count
        if args.mode == "bipartite" or (args.mode == "auto" and is_bipartite(game)):
            try:
                kernel, trace = kernelize_bipartite(game)
            except NotBipartite as exc:
                print(f"not bipartite: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            bound = k + 2**k * min(k, p)
        else:
            kernel, trace = kernelize_general(game)
            bound = (p + 1) ** k + (p + 1) * k
        print(f"nodes: {game.n} -> {kernel.n}")
        verdict = "PASS" if kernel.n <= bound else "FAIL"
        print(f"bound: {_bound_text(bound)} {verdict}")
        if args.out and kernel.n == 0:
            # A game file needs at least one node; the trace alone decides
            # every node, so there is no kernel file to write.
            print(f"kernel is empty: {args.out} not written", file=sys.stderr)
        elif args.out:
            write_kernel(pgsolver.dumps(kernel))
        if args.trace_out:
            write_trace("".join(line + "\n" for line in trace_lines(trace)))
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        game = generate(
            args.family, args.n, args.priorities, args.seed, j=args.j, k=args.k
        )
    except InvalidFamilyParams as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    with _claimed(args.out) as write_game:
        st = stats(game)
        print(f"stats: n={st.n} m={st.m} k={st.k} p={st.priority_count}")
        if args.out:
            write_game(pgsolver.dumps(game))
        else:
            sys.stdout.write(pgsolver.dumps(game))
    return EXIT_OK


def _parse_result_file(path, game, ids):
    file_to_dense = {fid: v for v, fid in enumerate(ids)}
    sets = {}
    strategies = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line:
            continue
        tag, _, rest = line.partition(":")
        fields = rest.split()
        if tag in ("W0", "W1"):
            try:
                sets[tag] = frozenset(file_to_dense[int(x)] for x in fields)
            except (KeyError, ValueError):
                raise ParseError(f"bad node id in {tag} line")
        elif tag in ("S0", "S1"):
            choice = {}
            for pair in fields:
                v, _, w = pair.partition("->")
                try:
                    choice[file_to_dense[int(v)]] = file_to_dense[int(w)]
                except (KeyError, ValueError):
                    raise ParseError(f"bad edge in {tag} line")
            strategies[tag] = choice
    if "W0" not in sets or "W1" not in sets:
        raise ParseError("result file is missing W0/W1 lines")
    if "S0" not in strategies or "S1" not in strategies:
        raise MissingStrategies("result file is missing S0/S1 lines")
    return SolveResult(
        sets["W0"],
        sets["W1"],
        Strategy(0, strategies["S0"]),
        Strategy(1, strategies["S1"]),
    )


def cmd_verify(args) -> int:
    game, ids = _load(args.game)
    _check_valid(game)
    try:
        with _file_errors(args.result, "read"):
            result = _parse_result_file(args.result, game, ids)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MissingStrategies as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    ok, reason = verify_partition_report(game, result)
    if not ok:
        print(f"verification failed: {reason}", file=sys.stderr)
        return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def _result_hash(w0_ids, w1_ids) -> str:
    digest = hashlib.sha256()
    digest.update(("W0:" + ",".join(map(str, sorted(w0_ids)))).encode())
    digest.update(("|W1:" + ",".join(map(str, sorted(w1_ids)))).encode())
    return digest.hexdigest()[:16]


def _bench_one(path, algo, timeout):
    """Solve one instance in a subprocess; returns a row fragment dict."""
    cmd = [
        sys.executable, "-m", "paritykit", "solve", str(path),
        "--algo", algo, "--report-metrics",
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ns": "timeout", "depth": "", "dominion_hits": "", "j": "",
                "hash": ""}
    if proc.returncode != 0:
        return {"ns": f"error({proc.returncode})", "depth": "",
                "dominion_hits": "", "j": "", "hash": ""}
    fields = {}
    for line in proc.stdout.splitlines():
        tag, _, rest = line.partition(":")
        fields[tag] = rest.strip()
    w0 = fields.get("W0", "").split()
    w1 = fields.get("W1", "").split()
    return {
        "ns": fields.get("ns", ""),
        "depth": fields.get("depth", ""),
        "dominion_hits": fields.get("dominion_hits", ""),
        "j": fields.get("j", ""),
        "hash": _result_hash(w0, w1),
    }


def _bench_rows(args):
    """(rows, agreement_ok) over every generated instance and algorithm."""
    rows = []
    agreement_ok = True
    with tempfile.TemporaryDirectory(prefix="bench") as tmp:
        for family in args.families:
            for n in args.sizes:
                for k in args.k_values if family == "unbalanced" else [None]:
                    for seed in args.seeds:
                        j = 3 if family == "bounded_outdegree" else None
                        try:
                            game = generate(
                                family, n, args.priorities, seed, j=j, k=k
                            )
                        except InvalidFamilyParams as exc:
                            print(f"skipping {family} n={n}: {exc}",
                                  file=sys.stderr)
                            continue
                        st = stats(game)
                        instance = f"{family}-n{n}-k{k}-s{seed}"
                        path = Path(tmp) / (instance + ".gm")
                        pgsolver.write_file(path, game)
                        hashes = set()
                        for algo in args.algos:
                            frag = _bench_one(path, algo, args.timeout)
                            if frag["hash"]:
                                hashes.add(frag["hash"])
                            rows.append({
                                "instance": instance,
                                "family": family,
                                "n": st.n,
                                "m": st.m,
                                "k": st.k,
                                "p": st.priority_count,
                                "j": frag["j"],
                                "algo": algo,
                                "ns": frag["ns"],
                                "depth": frag["depth"],
                                "dominion_hits": frag["dominion_hits"],
                                "hash": frag["hash"],
                            })
                        if len(hashes) > 1:
                            agreement_ok = False
                            print(f"agreement failure on {instance}",
                                  file=sys.stderr)
    return rows, agreement_ok


def cmd_bench(args) -> int:
    header = [
        "instance", "family", "n", "m", "k", "p", "j",
        "algo", "ns", "depth", "dominion_hits", "hash",
    ]
    with _claimed(args.csv) as write_csv:
        rows, agreement_ok = _bench_rows(args)
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        if args.csv:
            write_csv(text.getvalue())
        else:
            sys.stdout.write(text.getvalue())
    return EXIT_OK if agreement_ok else EXIT_AGREEMENT


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="paritykit", description="parity game toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game file")
    p.add_argument("input")
    p.add_argument("--algo", choices=sorted(_ALGO_NAMES), default="zielonka")
    p.add_argument("--j", type=int, default=None,
                   help="fixed degree threshold for fpt-degree")
    p.add_argument("--no-kernel", action="store_true")
    p.add_argument("--emit-strategy", action="store_true")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--report-metrics", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="reduce a game file")
    p.add_argument("input")
    p.add_argument("--mode", choices=("general", "bipartite", "auto"),
                   default="auto")
    p.add_argument("--out")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("gen", help="generate a seeded game")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("--priorities", type=int, default=4,
                   help="priorities are drawn from 0..priorities-1")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="certify a solve result")
    p.add_argument("game")
    p.add_argument("result")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="benchmark solvers on seeded games")
    p.add_argument("--families", nargs="*", default=[], choices=FAMILIES)
    p.add_argument("--sizes", nargs="*", type=int, default=[8])
    p.add_argument("--k-values", nargs="*", type=int, default=[2])
    p.add_argument("--algos", nargs="*", default=["zielonka", "brute"],
                   choices=sorted(_ALGO_NAMES))
    p.add_argument("--seeds", nargs="*", type=int, default=[0])
    p.add_argument("--priorities", type=int, default=4)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after a usage error.
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
