"""Command-line interface: output formats and exit codes."""
import csv
import sys

import pytest

from paritykit import (
    ParityGame,
    SolveContext,
    choose_j,
    generate,
    is_bipartite,
    kernelize_auto,
    pgsolver,
    solve,
    trace_lines,
)
from paritykit import cli
from paritykit.cli import main

# More digits than int() converts.
BIG = "1" * (sys.get_int_max_str_digits() + 1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_game(tmp_path, game, name="game.gm", ids=None):
    path = tmp_path / name
    pgsolver.write_file(path, game, ids)
    return str(path)


@pytest.fixture
def simple_game(tmp_path):
    # 0 (Even, pr 2) <-> 1 (Odd, pr 1): Even forces max priority 2.
    return write_game(tmp_path, ParityGame([0, 1], [2, 1], [[1], [0]]))


def test_solve_prints_winning_sets(capsys, simple_game):
    for algo in ("zielonka", "brute", "fpt-k", "fpt-degree"):
        code, out, _ = run(capsys, "solve", simple_game, "--algo", algo)
        assert code == 0
        assert "W0: 0 1\n" in out
        assert "W1: \n" in out


def test_solve_uses_file_ids(capsys, tmp_path):
    g = ParityGame([0, 1], [2, 1], [[1], [0]])
    path = write_game(tmp_path, g, ids=(4, 9))
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert "W0: 4 9" in out


def test_solve_emit_strategy_roundtrips_through_verify(capsys, tmp_path):
    g = generate("general", 9, 5, 2)
    path = write_game(tmp_path, g)
    code, out, _ = run(capsys, "solve", path, "--emit-strategy", "--algo", "zielonka")
    assert code == 0
    # A byte-order mark is accepted on the result file as on the game file.
    for encoding in ("utf-8", "utf-8-sig"):
        result_path = tmp_path / "result.txt"
        result_path.write_bytes(out.encode(encoding))
        code, verified, err = run(capsys, "verify", path, str(result_path))
        assert (code, verified.strip(), err) == (0, "ok", "")


def test_solve_metrics_output(capsys, simple_game):
    code, out, _ = run(
        capsys, "solve", simple_game, "--algo", "fpt-degree", "--report-metrics"
    )
    assert code == 0
    fields = dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )
    assert int(fields["ns"]) > 0
    assert int(fields["depth"]) >= 1
    assert int(fields["dominion_hits"]) >= 0
    assert int(fields["j"]) >= 2


def test_report_metrics_match_an_in_process_solve(capsys, tmp_path):
    # The CLI solves in a thread of its own; its counters must be the
    # ones that solve reports in this thread into a SolveContext().
    path = write_game(tmp_path, generate("general", 24, 8, 2))
    game = pgsolver.read_file(path)[0]
    for algo, name in (("fpt-k", "fpt_k"), ("fpt-degree", "fpt_degree")):
        code, out, err = run(capsys, "solve", path, "--algo", algo, "--report-metrics")
        assert code == 0, err
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        ctx = SolveContext()
        solve(game, name, ctx=ctx)
        assert (int(fields["depth"]), int(fields["dominion_hits"])) == (
            ctx.max_depth, ctx.dominion_hits
        )
        assert ctx.max_depth >= 1


def test_solve_strategy_unavailable_for_fpt(capsys, simple_game):
    code, _, err = run(
        capsys, "solve", simple_game, "--algo", "fpt-k", "--emit-strategy"
    )
    assert code == 3
    assert "strategies" in err


def test_solve_budget_exhaustion(capsys, tmp_path):
    path = write_game(tmp_path, generate("general", 12, 4, 0))
    code, _, err = run(capsys, "solve", path, "--algo", "brute", "--budget", "1")
    assert code == 4
    assert "budget" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gm"
    bad.write_text("parity 1;\nnot a game\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "line 2" in err
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.gm"))
    assert code == 2


def test_dangling_edge_exit_code(capsys, tmp_path):
    bad = tmp_path / "dangling.gm"
    bad.write_text("0 0 0 7;\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "undefined node" in err


def test_undefined_successor_reports_its_line(capsys, tmp_path):
    bad = tmp_path / "dangling.gm"
    bad.write_text("parity 9;\n1 0 0 5;\n\n0 0 0 1,9,7;\n5 1 1 0;\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "node 0 points to undefined node 9" in err and "line 4" in err


@pytest.mark.parametrize(
    "text, expected",
    [
        ("parity 1;\nnot a game\n", "parse error: line 2: malformed node line 'not a game'\n"),
        ("parity 9;\n1 0 0 5;\n\n0 0 0 1,9,7;\n5 1 1 0;\n",
         "parse error: line 4: node 0 points to undefined node 9\n"),
        (f"0 0 0 0;\n{BIG} 0 0 0;\n",
         "parse error: line 2: node id has too many digits\n"),
        (f"0 0 0 0;\n1 {BIG} 0 0;\n",
         "parse error: line 2: node 1 priority has too many digits\n"),
        (f"0 0 0 1;\n1 0 0 0,{BIG};\n",
         "parse error: line 2: node 1 has a successor with too many digits\n"),
    ],
    ids=("malformed", "undefined-successor", "long-id", "long-priority", "long-successor"),
)
def test_parse_errors_print_their_line_once(capsys, tmp_path, text, expected):
    bad = tmp_path / "bad.gm"
    bad.write_text(text)
    code, out, err = run(capsys, "solve", str(bad))
    assert (code, out, err) == (2, "", expected)


def test_solve_accepts_a_utf8_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.gm"
    path.write_bytes("parity 1;\n0 2 0 1;\n1 1 1 0;\n".encode("utf-8-sig"))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == ["W0: 0 1", "W1: "]


def test_verify_rejects_tampered_result(capsys, tmp_path):
    g = generate("general", 8, 5, 5)  # seed with both regions nonempty
    path = write_game(tmp_path, g)
    code, out, _ = run(capsys, "solve", path, "--emit-strategy")
    lines = dict(line.split(":", 1) for line in out.strip().splitlines())
    w0 = lines["W0"].split()
    w1 = lines["W1"].split()
    assert w0 and w1
    moved = w0.pop()
    w1.append(moved)
    tampered = tmp_path / "tampered.txt"
    tampered.write_text(
        "W0: %s\nW1: %s\nS0:%s\nS1:%s\n"
        % (" ".join(w0), " ".join(w1), lines["S0"], lines["S1"])
    )
    code, _, err = run(capsys, "verify", path, str(tampered))
    assert code == 5
    assert "verification failed" in err


def test_verify_reports_bad_strategy_edge(capsys, tmp_path):
    path = write_game(tmp_path, ParityGame([0, 1], [2, 1], [[0, 1], [0, 1]]))
    result = tmp_path / "r.txt"
    # Even wins both nodes via the self-loop; point the strategy at the
    # odd-priority node instead.
    result.write_text("W0: 0 1\nW1:\nS0: 0->1\nS1:\n")
    code, _, err = run(capsys, "verify", path, str(result))
    assert code == 5
    assert "strategy not winning on W0" in err


def test_verify_reports_closedness_violation(capsys, tmp_path):
    path = write_game(tmp_path, ParityGame([0, 1], [2, 1], [[1], [0]]))
    result = tmp_path / "r.txt"
    result.write_text("W0: 0\nW1: 1\nS0:\nS1:\n")
    code, _, err = run(capsys, "verify", path, str(result))
    assert code == 5
    assert "closedness violated at node" in err


def test_verify_requires_strategies(capsys, tmp_path):
    path = write_game(tmp_path, ParityGame([0], [0], [[0]]))
    result = tmp_path / "r.txt"
    result.write_text("W0: 0\nW1:\n")
    code, _, err = run(capsys, "verify", path, str(result))
    assert code == 5
    result.write_text("W0: 0\nW1: junk\nS0:\nS1:\n")
    code, _, _ = run(capsys, "verify", path, str(result))
    assert code == 2


def test_gen_is_deterministic_and_reports_stats(capsys, tmp_path):
    out1 = tmp_path / "a.gm"
    out2 = tmp_path / "b.gm"
    code, stdout, _ = run(
        capsys, "gen", "unbalanced", "10", "--k", "2", "--seed", "5",
        "--out", str(out1),
    )
    assert code == 0
    assert stdout.startswith("stats: n=10 m=")
    run(capsys, "gen", "unbalanced", "10", "--k", "2", "--seed", "5",
        "--out", str(out2))
    assert out1.read_text() == out2.read_text()
    code, _, err = run(capsys, "gen", "unbalanced", "4", "--k", "9")
    assert code == 3


def test_gen_writes_to_stdout_by_default(capsys):
    code, out, _ = run(capsys, "gen", "general", "3", "--seed", "1")
    assert code == 0
    game, _ = pgsolver.loads(out[out.index("parity"):])
    assert game.n == 3


def test_kernelize_reports_bound_and_writes_outputs(capsys, tmp_path):
    g = generate("unbalanced", 30, 4, 1, k=2)
    path = write_game(tmp_path, g)
    out_path = tmp_path / "kernel.gm"
    trace_path = tmp_path / "trace.txt"
    code, out, _ = run(
        capsys, "kernelize", path, "--mode", "general",
        "--out", str(out_path), "--trace-out", str(trace_path),
    )
    assert code == 0
    assert out.splitlines()[0].startswith("nodes: 30 -> ")
    assert "PASS" in out
    kern, _ = pgsolver.read_file(out_path)
    assert kern.n < 30
    assert trace_path.read_text().strip()


def test_kernelize_prints_a_bound_too_long_for_str_in_short(capsys, tmp_path):
    # k = 1,450 and 1,000 priorities: the general bound 1001^1450 + ... has
    # about 4,350 digits, more than str() converts by default.
    n = 2900
    g = ParityGame(
        [v % 2 for v in range(n)],
        [v % 1000 for v in range(n)],
        [[v - v % 2] for v in range(n)],
    )
    path = write_game(tmp_path, g)
    code, out, err = run(capsys, "kernelize", path, "--mode", "general")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["nodes: 2900 -> 0", "bound: >10^4350 PASS"]
    # A bound below the limit is still printed in full.
    assert cli._bound_text(10**4298 + 7) == str(10**4298 + 7)
    assert cli._bound_text(10**4299).startswith(">10^")


def test_kernelize_writes_no_game_file_for_an_empty_kernel(capsys, tmp_path):
    # Node 0's Even-won self-loop attracts node 1, so nothing is left; a
    # file holding only the header would not load back.
    path = write_game(tmp_path, ParityGame([0, 1], [0, 1], [[0], [0]]))
    out_path = tmp_path / "kernel.gm"
    trace_path = tmp_path / "trace.txt"
    code, out, err = run(
        capsys, "kernelize", path,
        "--out", str(out_path), "--trace-out", str(trace_path),
    )
    assert code == 0
    assert out.splitlines()[0] == "nodes: 2 -> 0"
    assert err == f"kernel is empty: {out_path} not written\n"
    assert not out_path.exists()
    assert trace_path.read_text() == "DOM 0 0 1\n"


def test_kernelize_replaces_an_existing_output_but_keeps_it_for_an_empty_kernel(
        capsys, tmp_path):
    out_path = tmp_path / "kernel.gm"
    out_path.write_text("x" * 100_000, encoding="utf-8")
    path = write_game(tmp_path, generate("unbalanced", 30, 4, 1, k=2))
    code, _, _ = run(capsys, "kernelize", path, "--out", str(out_path))
    assert code == 0
    kern, _ = pgsolver.read_file(out_path)
    assert kern.n < 30
    empty = write_game(tmp_path, ParityGame([0, 1], [0, 1], [[0], [0]]), name="empty.gm")
    before = out_path.read_text(encoding="utf-8")
    code, _, err = run(capsys, "kernelize", empty, "--out", str(out_path))
    assert code == 0 and err == f"kernel is empty: {out_path} not written\n"
    assert out_path.read_text(encoding="utf-8") == before


def test_kernelize_bipartite_mode_rejects_general_games(capsys, tmp_path):
    path = write_game(tmp_path, ParityGame([0, 0], [0, 0], [[1], [0]]))
    code, _, err = run(capsys, "kernelize", path, "--mode", "bipartite")
    assert code == 3
    assert "not bipartite" in err
    code, _, _ = run(capsys, "kernelize", path, "--mode", "auto")
    assert code == 0


def test_bench_with_no_families_emits_header_only(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert out.strip() == (
        "instance,family,n,m,k,p,j,algo,ns,depth,dominion_hits,hash"
    )


def test_bench_csv_and_agreement(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, _, err = run(
        capsys, "bench", "--families", "general", "bipartite",
        "--sizes", "6", "--seeds", "0", "1",
        "--algos", "zielonka", "brute", "fpt-k",
        "--csv", str(csv_path),
    )
    assert code == 0, err
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 3
    assert rows[0]["instance"] == "general-n6-kNone-s0"
    for row in rows:
        assert int(row["ns"]) > 0
        assert len(row["hash"]) == 16
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["instance"], set()).add(row["hash"])
    assert all(len(hashes) == 1 for hashes in by_instance.values())


@pytest.mark.parametrize(
    "before", [b"instance,family\r\ngeneral-n6-kNone-s0,general\r\n", None],
    ids=("existing", "new"),
)
def test_an_interrupted_bench_leaves_its_csv_as_it_was(capsys, monkeypatch, tmp_path, before):
    csv_path = tmp_path / "bench.csv"
    if before is not None:
        csv_path.write_bytes(before)

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_bench_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["bench", "--families", "general", "--csv", str(csv_path)])
    assert capsys.readouterr().out == ""
    assert (csv_path.read_bytes() if csv_path.exists() else None) == before


def test_kernelize_general_mode_swaps_roles_when_odd_is_larger(capsys, tmp_path):
    g = generate("general", 10, 4, 8)
    assert 2 * sum(g.owner) > g.n and not is_bipartite(g)
    path = write_game(tmp_path, g)
    out_path = tmp_path / "kernel.gm"
    trace_path = tmp_path / "trace.txt"
    code, _, err = run(
        capsys, "kernelize", path, "--mode", "general",
        "--out", str(out_path), "--trace-out", str(trace_path),
    )
    assert code == 0, err
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "SWAP"
    kernel, trace = kernelize_auto(g)
    assert lines == trace_lines(trace)
    assert pgsolver.read_file(out_path)[0] == kernel


def test_solve_reports_the_degree_threshold_it_used(capsys, tmp_path):
    g = generate("bounded_outdegree", 12, 4, 0, j=4)
    path = write_game(tmp_path, g)
    for extra, expected in (([], choose_j(g)[0]), (["--j", "3"], 3)):
        code, out, err = run(
            capsys, "solve", path, "--algo", "fpt-degree", "--report-metrics",
            *extra,
        )
        assert code == 0, err
        assert f"j: {expected}\n" in out
    assert choose_j(g)[0] != 3


def test_solve_rejects_degree_threshold_below_two(capsys, simple_game):
    for j in ("1", "0"):
        code, out, err = run(
            capsys, "solve", simple_game, "--algo", "fpt-degree", "--j", j
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "--j" in err


def test_solve_rejects_degree_threshold_for_other_algorithms(capsys, simple_game):
    for algo in ("zielonka", "brute", "fpt-k"):
        code, out, err = run(
            capsys, "solve", simple_game, "--algo", algo, "--j", "3"
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "--j" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--algo", "fpt-degree", "--j", "1"),
        ("--algo", "fpt-k", "--j", "3"),
        ("--algo", "fpt-k", "--emit-strategy"),
        ("--algo", "fpt-degree", "--emit-strategy"),
    ],
    ids=("j-below-two", "j-without-fpt-degree", "strategy-fpt-k", "strategy-fpt-degree"),
)
def test_solve_refuses_a_bad_flag_before_reading_the_input(capsys, monkeypatch,
                                                          simple_game, flags):
    loaded = []
    load = cli._load

    def recording(path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load", recording)
    for path in (simple_game, simple_game + ".missing"):
        code, out, err = run(capsys, "solve", path, *flags)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
    assert loaded == []


def test_usage_errors_exit_3_and_help_exits_0(capsys, simple_game):
    for argv in (
        ("solve", simple_game, "--algo", "foo"),
        ("solve", simple_game, "--j", "abc"),
        ("nosuch",),
        (),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "usage:" in err
    code, out, err = run(capsys, "solve", "--help")
    assert code == 0 and "usage:" in out and err == ""


def test_solve_leaves_the_recursion_limit_as_it_was(capsys, simple_game):
    # A distinct value, so a limit leaked by an earlier solve cannot match.
    original = sys.getrecursionlimit()
    sys.setrecursionlimit(3001)
    try:
        code, _, _ = run(capsys, "solve", simple_game)
        after = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(original)
    assert code == 0
    assert after == 3001


def test_solve_refuses_strategies_before_solving(capsys, simple_game):
    for algo in ("fpt-k", "fpt-degree"):
        code, out, err = run(
            capsys, "solve", simple_game, "--algo", algo, "--emit-strategy"
        )
        assert code == 3
        assert out == ""
        assert "strategies" in err


def test_gen_refuses_a_parameter_the_family_ignores(capsys):
    for argv in (
        ("general", "5", "--k", "3"),
        ("bipartite", "6", "--j", "2"),
        ("unbalanced", "6", "--k", "2", "--j", "2"),
        ("bounded_outdegree", "6", "--j", "2", "--k", "1"),
    ):
        code, out, err = run(capsys, "gen", *argv, "--seed", "1")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "general", "4", "--out", "{out}"),
        ("kernelize", "{game}", "--out", "{out}"),
        ("kernelize", "{game}", "--trace-out", "{out}"),
        ("bench", "--families", "general", "--sizes", "4", "--algos", "zielonka",
         "--csv", "{out}"),
    ],
    ids=("gen-out", "kernelize-out", "kernelize-trace-out", "bench-csv"),
)
def test_unwritable_output_exits_3(capsys, tmp_path, monkeypatch, argv):
    game = write_game(tmp_path, generate("unbalanced", 30, 4, 1, k=2))
    out = str(tmp_path / "missing" / "out.txt")
    solved = []

    def bench_one(*args):
        solved.append(args)
        return {"ns": "1", "depth": "", "dominion_hits": "", "j": "", "hash": ""}

    def recorded(kernelize):
        def record(game):
            solved.append(game)
            return kernelize(game)
        return record

    monkeypatch.setattr(cli, "_bench_one", bench_one)
    for name in ("kernelize_general", "kernelize_bipartite"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    code, out_text, err = run(capsys, *(arg.format(game=game, out=out) for arg in argv))
    assert code == 3
    assert out_text == ""
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
    assert solved == []  # the path is refused before the first kernelize or solve


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{binary}"),
        ("verify", "{game}", "{missing}"),
        ("verify", "{game}", "{binary}"),
    ],
    ids=("solve-not-utf8", "verify-missing-result", "verify-result-not-utf8"),
)
def test_unreadable_input_exits_2(capsys, tmp_path, argv):
    game = write_game(tmp_path, ParityGame([0, 1], [2, 1], [[1], [0]]))
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x00\x00")
    paths = {"game": game, "binary": str(binary), "missing": str(tmp_path / "missing.txt")}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"cannot read {argv[-1].format(**paths)}: ")
    assert err.count("\n") == 1
