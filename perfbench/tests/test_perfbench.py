"""Tests for the benchmark harness: the tracer's guard, span accounting,
output checks, the per-op cap and BENCHMARK.json's agreement with run.py."""
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import paritykit  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def module(name):
    return sys.modules[f"paritykit.{name}"]


def test_install_rebinds_every_alias_and_uninstall_restores():
    attractor = module("reach").attractor
    win = module("zielonka").win
    t = tr.Tracer()
    with t:
        for name in ("reach", "fpt", "dominion", "zielonka"):
            assert module(name).attractor is module("reach").attractor
        assert module("reach").attractor is not attractor
        assert module("reach").attractor.__wrapped__ is attractor
        assert module("dominion")._zielonka_win is module("zielonka").win
        assert paritykit.win is module("zielonka").win is not win
    for name in ("reach", "fpt", "dominion", "zielonka"):
        assert module(name).attractor is attractor
    assert module("dominion")._zielonka_win is win and paritykit.win is win


def test_missing_layer_is_refused():
    attractor = module("reach").attractor
    t = tr.Tracer(tr.LAYERS + ("reach.attractor_fast",))
    with pytest.raises(tr.TracerError, match="reach.attractor_fast is missing"):
        t.install()
    assert module("fpt").attractor is attractor


def _probe_module(kind, original):
    probe = types.ModuleType("paritykit._guard_probe")
    if kind == "default":
        def step(game, attract=original):
            return attract
        step.__module__ = probe.__name__
        probe.step = step
    elif kind == "closure":
        def make(attract):
            def step(game):
                return attract(game, [0], 0)
            return step
        probe.step = make(original)
    elif kind == "table":
        probe.STEPS = {"attract": original}
    else:
        class Steps:
            attract = staticmethod(original)
        Steps.__module__ = probe.__name__
        probe.Steps = Steps
    return probe


@pytest.mark.parametrize("kind", ["default", "closure", "table", "class"])
def test_hidden_binding_of_an_original_is_refused(kind, monkeypatch):
    attractor = module("reach").attractor
    probe = _probe_module(kind, attractor)
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    t = tr.Tracer()
    try:
        with pytest.raises(tr.TracerError, match=r"paritykit\._guard_probe.* -> reach\.attractor"):
            t.install()
    finally:
        t.uninstall()
    # A refused install leaves nothing wrapped.
    assert module("reach").attractor is attractor
    assert module("fpt").attractor is attractor


def _traced_solve(text):
    t = tr.Tracer(tr.LAYERS, run.NESTED, run.DEPTH_GROUP)
    start = time.perf_counter()
    with t:
        game, _ = module("pgsolver").loads(text)
        result = module("fpt").solve(game, "fpt_k")
    return t, time.perf_counter() - start, game, result


def test_spans_add_up_and_counts_repeat():
    text = paritykit.pgsolver.dumps(paritykit.generate("bounded_outdegree", 24, 8, 4, j=3))
    first, wall, game, result = _traced_solve(text)
    second, _, _, _ = _traced_solve(text)
    assert first.counts() == second.counts()
    assert result.w0 == paritykit.win(game).w0

    idx = {name: i for i, name in enumerate(tr.LAYERS)}
    assert first.calls[idx["pgsolver.loads"]] == 1
    assert first.calls[idx["fpt.new_win1"]] > 1  # recursion is counted per call
    assert first.max_depth >= 2
    assert first.nested[run.NESTED[1]] == first.calls[idx["oracle.solve_solitary"]]
    assert min(first.self_s) >= 0
    # Every span sits under one of the two top-level calls, so the self
    # times add up to their inclusive times, recursion counted once.
    top = first.incl_s[idx["pgsolver.loads"]] + first.incl_s[idx["fpt.new_win1"]]
    assert sum(first.self_s) == pytest.approx(top, rel=1e-9)
    assert top <= wall


@pytest.fixture
def alarm(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_wrong_raising_and_capped_ops_fail(alarm):
    game = paritykit.generate("general", 12, 4, 0)
    text = paritykit.pgsolver.dumps(game)
    ref = paritykit.win(game)
    flipped = (ref.w1, ref.w0)
    op = workloads.make_op(workloads.WORKLOADS["fpt_k_small"])

    runner = run.Runner(op, [text, text], [game.n, game.n], [(ref.w0, ref.w1), flipped])
    assert runner.run_one(0) is not None
    assert runner.run_one(1) is None
    assert "differs from Zielonka" in runner.failures[0]

    def hang(text):
        time.sleep(5)

    capped = run.Runner(hang, [text], [game.n], [None])
    start = time.perf_counter()
    assert capped.run_one(0) is None
    assert time.perf_counter() - start < 2
    assert "cap" in capped.failures[0]

    broken = run.Runner(op, ["parity 1;\n0 1 0 7;\n"], [1], [None])
    assert broken.run_one(0) is None and "ParseError" in broken.failures[0]
    assert (runner.failed, capped.failed, broken.failed) == (1, 1, 1)


def test_corpus_text_depends_on_seed_only():
    w = workloads.WORKLOADS["fpt_k_small"]
    texts1, games1 = workloads.build_corpus(paritykit, w, 7)
    texts2, _ = workloads.build_corpus(paritykit, w, 7)
    texts3, _ = workloads.build_corpus(paritykit, w, 8)
    assert texts1 == texts2 and texts1 != texts3
    for text, game in zip(texts1[:6], games1):
        assert paritykit.pgsolver.loads(text)[0] == game


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fpt_k_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
