"""The benchmark's workloads: input generation, the timed body and the
output checks of each.

Every workload builds its inputs from the seed alone and hands the
library only those inputs.  The body calls chmmtrade through module
attributes (``training.fit``, ``cli.main``) so the tracer's wrappers
see every call when a traced run installs them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chmmtrade import cli, data_io, inference, model, oracle, training

# Every workload draws its data from this one market model; the run's seed
# draws the path.  At seed 42 the inputs equal `chmmtrade simulate --seed 42`.
MODEL_SEED = 42
CLI_OUTPUTS = ("trades.csv", "equity.csv", "stats.txt", "diagnostics.csv", "fits.jsonl")
REL_TOL = 1e-9  # reference figures may drift by rounding, never by a trade


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    name: str
    setup: Callable    # (work_dir, seed, size) -> inputs dict with an input "digest"
    body: Callable     # (inputs) -> output dict, timed
    check: Callable    # (inputs, output) -> list[Check]
    bars: Callable     # (inputs, output) -> bars the body consumed
    size: dict
    prepare: Callable = lambda inputs: None  # (inputs) -> None, untimed, before each body


def _quiet_cli(argv) -> int:
    """Run the in-process CLI with its console output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of each CLI output file."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in CLI_OUTPUTS
        if (out_dir / name).exists()
    }


def truth_model(n_states: int = 5, n_bins: int = 8):
    """The market model, at the paper's sizes unless told otherwise."""
    return cli._default_sim_params(n_states, n_bins, MODEL_SEED)


# -- CLI backtest workloads ----------------------------------------------------

def _simulate(work_dir: Path, data_dir: Path, bars: int, seed: int) -> None:
    params = work_dir / "model.txt"
    model.save_params(truth_model(), params)
    if _quiet_cli(["simulate", "--bars", bars, "--seed", seed, "--params", params, "--out", data_dir]) != 0:
        raise RuntimeError(f"simulate --bars {bars} --seed {seed} failed")


def _backtest_setup(flags, work_dir: Path, seed: int, size: dict) -> dict:
    data = work_dir / "data"
    _simulate(work_dir, data, size["bars"], seed)
    digest = hashlib.sha256(b"".join((data / f).read_bytes() for f in ("asset1.csv", "asset2.csv"))).hexdigest()
    # Warm-up: the same command on a short series, so imports and first-call
    # costs are paid before timing starts.
    warm = work_dir / "warm"
    _simulate(work_dir, warm, size["warm_bars"], seed)
    if _quiet_cli(_backtest_argv(flags, warm, warm / "out", seed)) != 0:
        raise RuntimeError("warm-up backtest failed")
    return {"flags": flags, "data": data, "out": work_dir / "out", "seed": seed, "digest": digest}


def _backtest_argv(flags, data: Path, out: Path, seed: int) -> list:
    return [
        "backtest", "--asset1", data / "asset1.csv", "--asset2", data / "asset2.csv",
        "--out", out, "--seed", seed, *flags,
    ]


def _backtest_prepare(inp: dict) -> None:
    """Remove the previous repetition's outputs, so the checks see only this one's."""
    shutil.rmtree(inp["out"], ignore_errors=True)


def _backtest_body(inp: dict) -> dict:
    return {"rc": _quiet_cli(_backtest_argv(inp["flags"], inp["data"], inp["out"], inp["seed"]))}


def _backtest_check(inp: dict, output: dict) -> list[Check]:
    out = inp["out"]
    checks = [Check("cli exit code 0", output["rc"] == 0, f"rc={output['rc']}")]
    missing = [name for name in CLI_OUTPUTS if not (out / name).exists()]
    checks.append(Check("all five output files present", not missing, f"missing={missing}"))
    if missing:
        return checks

    bad = []
    for rec in data_io.load_fit_log(out / "fits.jsonl"):
        trace = rec.trace
        if not trace or not all(map(math.isfinite, trace)) or any(b < a for a, b in zip(trace, trace[1:])):
            bad.append(rec.window_end.isoformat())
    checks.append(Check("fit traces finite and non-decreasing", not bad, f"bad windows={bad[:3]}"))

    stats = data_io.load_stats_txt(out / "stats.txt")
    trades = len(data_io.load_trades_csv(out / "trades.csv"))
    bars = len(data_io.load_diagnostics_csv(out / "diagnostics.csv"))
    figures = {"trades": trades, "decision_bars": bars, "ret": stats.ret, "vol": stats.vol, "ratio": stats.ratio}
    output["figures"] = figures
    output["fingerprint"] = fingerprint(out)
    ref = inp.get("reference")
    if ref is not None:
        ref = ref["figures"]
        same = all(
            figures[k] == ref[k] if isinstance(ref[k], int) else _close(figures[k], ref[k])
            for k in figures
        )
        checks.append(Check("figures match the reference", same, f"got {figures}, reference {ref}"))
    return checks


def _backtest_bars(inp: dict, output: dict) -> int:
    return output.get("figures", {}).get("decision_bars", 0)  # 0 when the CLI failed


# -- training and decoding on long sequences -----------------------------------

def _train_decode_setup(work_dir: Path, seed: int, size: dict) -> dict:
    n, m = size["n_states"], size["n_bins"]
    truth = truth_model(n, m)
    train = oracle.sample_chmm(truth, size["train_bars"], seed=(seed, 1)).observations
    heldout = oracle.sample_chmm(truth, size["heldout_bars"], seed=(seed, 2)).observations
    init = model.jittered_params(n, m, seed=seed)
    # Warm-up on a short prefix, so first-call costs are paid before timing.
    short = model.ObservationSequence(train.bins[:, : size["warm_bars"]])
    warm = training.fit(init, short, training.FitConfig(sweeps=1, rel_tol=0.0))
    inference.forward(warm.params, short, scale=True)
    inference.coupled_viterbi(warm.params, short)
    digest = hashlib.sha256(train.bins.tobytes() + heldout.bins.tobytes()).hexdigest()
    return {"truth": truth, "train": train, "heldout": heldout, "init": init, "sweeps": size["sweeps"],
            "digest": digest}


def _train_decode_body(inp: dict) -> dict:
    t0 = time.perf_counter()
    result = training.fit(inp["init"], inp["train"], training.FitConfig(sweeps=inp["sweeps"], rel_tol=0.0))
    t1 = time.perf_counter()
    trellis = inference.forward(result.params, inp["heldout"], scale=True)
    decoded = inference.coupled_viterbi(result.params, inp["heldout"])
    t2 = time.perf_counter()
    return {"fit": result, "trellis": trellis, "decoded": decoded, "fit_s": t1 - t0, "decode_s": t2 - t1}


def _train_decode_check(inp: dict, output: dict) -> list[Check]:
    result, trellis, decoded = output["fit"], output["trellis"], output["decoded"]
    trace = result.log_likelihoods
    checks = [
        Check(
            "fit trace finite and non-decreasing",
            all(map(math.isfinite, trace)) and all(b >= a for a, b in zip(trace, trace[1:])),
            f"trace={trace}",
        ),
    ]
    issues = model.validate_params(result.params)
    checks.append(Check("fitted params pass validate_params", not issues, "; ".join(issues)))
    checks.append(Check("held-out log_joint finite", math.isfinite(trellis.log_joint), f"{trellis.log_joint!r}"))
    for c in range(2):
        score = oracle.score_path(result.params, inp["heldout"], c, decoded.paths[c])
        checks.append(
            Check(
                f"score_path of decoded chain {c + 1} equals log_best",
                score == float(decoded.log_best[c]),
                f"score_path={score!r} log_best={float(decoded.log_best[c])!r}",
            )
        )
    # Transition-matrix error against the truth model, up to relabelling.
    # It is slow and deterministic, so it is computed once per fitted model.
    key = model.params_to_text(result.params)
    if inp.get("mae_params") != key:
        inp["mae_params"] = key
        inp["recovery_mae"] = oracle.permutation_aligned_mae(inp["truth"], result.params)
    figures = {
        "fit_log_likelihood": float(trace[-1]),
        "heldout_loglik_per_step": trellis.log_joint / inp["heldout"].length,
        "recovery_mae": inp["recovery_mae"],
    }
    output["figures"] = figures
    ref = inp.get("reference")
    if ref is not None:
        ref = ref["figures"]
        same = all(_close(figures[k], ref[k]) for k in figures)
        checks.append(Check("figures match the reference", same, f"got {figures}, reference {ref}"))
    return checks


def _train_decode_bars(inp: dict, output: dict) -> int:
    return inp["train"].length + inp["heldout"].length


# Why each workload is here, and which layer it stresses: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="backtest_rsi_viterbi",
            setup=lambda d, s, z: _backtest_setup(["--predictor", "viterbi"], d, s, z),
            body=_backtest_body,
            check=_backtest_check,
            prepare=_backtest_prepare,
            bars=_backtest_bars,
            size={"bars": 1000, "warm_bars": 60},
        ),
        Workload(
            name="train_decode_long",
            setup=_train_decode_setup,
            body=_train_decode_body,
            check=_train_decode_check,
            bars=_train_decode_bars,
            size={"n_states": 5, "n_bins": 8, "train_bars": 2000, "heldout_bars": 50000,
                  "sweeps": 10, "warm_bars": 50},
        ),
        Workload(
            name="baseline_cci_long",
            setup=lambda d, s, z: _backtest_setup(["--system", "cci", "--predictor", "baseline"], d, s, z),
            body=_backtest_body,
            check=_backtest_check,
            prepare=_backtest_prepare,
            bars=_backtest_bars,
            size={"bars": 30000, "warm_bars": 100},
        ),
    )
}


def load_reference(path: Path, workload: str, seed: int):
    """Figures recorded for this workload and seed at the baseline commit, or None."""
    if not path.exists():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))
