"""Tests of the benchmark itself, on tiny inputs except where a recorded
count is pinned.  Run with ``python3 -m pytest perfbench``; the
repository's own test suite does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_library()

import chmmtrade  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from chmmtrade import backtest, inference, model, training  # noqa: E402

TINY = {
    "backtest_rsi_viterbi": {"bars": 120, "warm_bars": 60},
    "train_decode_long": {"n_states": 3, "n_bins": 4, "train_bars": 60, "heldout_bars": 300,
                          "sweeps": 3, "warm_bars": 20},
    "baseline_cci_long": {"bars": 400, "warm_bars": 100},
}


def traced_reps(name, tmp_path, seed=7, size=None, reps=2, reference=None):
    """Set up once, run the body ``reps`` times under the tracer; return
    per-repetition layer metrics and every check made."""
    w = workloads.WORKLOADS[name]
    if size is not None:
        w = dataclasses.replace(w, size=size)
    tmp_path.mkdir(parents=True, exist_ok=True)
    inputs = w.setup(tmp_path, seed, w.size)
    inputs["reference"] = reference
    tracer = tracing.Tracer()
    metrics, checks = [], []
    for _ in range(reps):
        w.prepare(inputs)
        tracer.install()
        try:
            output = w.body(inputs)
        finally:
            tracer.restore()
        metrics.append(tracing.layer_metrics(tracer.take_spans()))
        checks.extend(w.check(inputs, output))
    assert tracer.leftover() == 0
    return metrics, checks, output


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workloads_pass_checks_and_counts_repeat(name, tmp_path):
    metrics, checks, _ = traced_reps(name, tmp_path, size=TINY[name])
    assert checks and all(c.ok for c in checks), [c for c in checks if not c.ok]
    _, repeat = tracing.combine(metrics)
    assert repeat
    m = metrics[0]
    assert m["training.gradient_passes"] == m["training.fit_calls"] + m["training.reestimate_calls"]
    if name == "baseline_cci_long":
        assert m["training.fit_calls"] == m["inference.forward_calls"] == m["model.validate_calls"] == 0
        assert m["backtest.decision_bars"] == m["strategy.calls"] > 0
    else:
        # One validation per gradient pass, forward and decode.
        assert m["model.validate_calls"] == (
            m["training.gradient_passes"] + m["inference.forward_calls"] + m["inference.viterbi_calls"]
        )


def test_paper_run_counts_at_seed_42(tmp_path):
    metrics, checks, _ = traced_reps("backtest_rsi_viterbi", tmp_path, seed=42)
    assert all(c.ok for c in checks)
    for m in metrics:
        counts = tuple(m[k] for k in (
            "training.fit_calls", "training.reestimate_calls", "training.gradient_passes",
            "model.validate_calls", "backtest.warm_start_fallbacks", "backtest.warm_started_windows",
            "backtest.decision_bars",
        ))
        assert counts == (988, 2957, 3945, 5921, 707, 987, 988)


def test_install_rebinds_every_imported_name_and_restore_undoes_it():
    originals = {
        "fit": training.fit, "forward": inference.forward,
        "check_params": model.check_params, "coupled_viterbi": inference.coupled_viterbi,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert backtest.fit is not originals["fit"] and backtest.fit is training.fit
        assert chmmtrade.fit is training.fit
        assert backtest.forward is inference.forward is not originals["forward"]
        assert inference.check_params is training.check_params is model.check_params
        assert model.check_params is not originals["check_params"]
        assert tracer.leftover() > 0
    finally:
        tracer.restore()
    assert tracer.leftover() == 0
    assert backtest.fit is chmmtrade.fit is training.fit is originals["fit"]
    assert backtest.forward is inference.forward is originals["forward"]
    assert inference.check_params is training.check_params is originals["check_params"]
    assert backtest.coupled_viterbi is originals["coupled_viterbi"]


def test_span_of_a_raising_call_is_closed():
    tracer = tracing.Tracer()
    bad = dataclasses.replace(model.uniform_params(2, 2), coupling=[[1.0, 1.0], [1.0, 1.0]])
    tracer.install()
    try:
        with pytest.raises(ValueError):
            model.check_params(bad)
    finally:
        tracer.restore()
    spans = tracer.take_spans()
    assert [s[tracing.NAME] for s in spans] == ["check_params", "validate_params"]
    assert spans[1][tracing.PARENT] == 0
    assert all(s[tracing.END] >= s[tracing.START] for s in spans)
    assert tracer.leftover() == 0


def test_self_time_and_layer_time():
    # fit [0, 10] holds reestimate [1, 3] and check_params [4, 5] holding validate_params [4, 4.5].
    spans = [
        ["training", "fit", 0.0, 10.0, -1, (4, 1, 1)],
        ["training", "reestimate", 1.0, 3.0, 0, None],
        ["model", "check_params", 4.0, 5.0, 0, None],
        ["model", "validate_params", 4.0, 4.5, 2, None],
    ]
    m = tracing.layer_metrics(spans)
    assert m["training.gradient_passes"] == 2
    assert m["training.gradient_us_per_step"] == pytest.approx(1e6 * 7.0 / (2 * 4))
    assert m["training.accepted_sweep_ratio"] == 1.0
    assert m["model.validate_calls"] == 1 and m["model.validate_s"] == 0.5
    assert m["training.fit_ms_p50"] == m["training.fit_ms_p99"] == 1e4


def test_reference_mismatch_fails_the_check(tmp_path):
    size = TINY["backtest_rsi_viterbi"]
    _, checks, output = traced_reps("backtest_rsi_viterbi", tmp_path / "a", size=size, reps=1)
    figures = output["figures"]
    _, checks, _ = traced_reps("backtest_rsi_viterbi", tmp_path / "b", size=size, reps=1,
                               reference={"figures": figures})
    assert all(c.ok for c in checks)
    moved = {**figures, "ratio": figures["ratio"] * (1 + 1e-6)}
    _, checks, _ = traced_reps("backtest_rsi_viterbi", tmp_path / "c", size=size, reps=1,
                               reference={"figures": moved})
    assert [c.name for c in checks if not c.ok] == ["figures match the reference"]


def test_command_prints_one_json_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "backtest_rsi_viterbi",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backtest_rsi_viterbi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_in_child_returns_the_result_and_raises_the_error():
    assert bench.in_child(sum, [1, 2]) == 3
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        bench.in_child(divmod, 1, 0)


def test_timed_returns_the_result_and_a_slowdown_that_adjusts_wall_time():
    result, wall, slowdown = hostspeed.timed(sum, [1, 2])
    assert result == 3 and wall >= 0.0 and slowdown > 0.0
    # A call long enough for several probes: the timer and the handler
    # are put back afterwards, also when the call raises.
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        hostspeed.timed(lambda: sum(range(3_000_000)) / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    timings = bench.Timings()
    timings.add(3.0, 1.5)
    timings.add(2.0, 1.0)
    timings.add(4.0, 1.0)
    assert timings.adjusted == [2.0, 2.0, 4.0]
    assert timings.median() == 2.0
