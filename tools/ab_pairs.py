"""Alternating A/B pairs of one benchmark workload: a base revision against the working tree.

    python tools/ab_pairs.py --workload backtest_rsi_viterbi --base HEAD --pairs 10 --seed 42

The base revision is exported with ``git archive`` into a temporary
directory, so nothing is written into the checkout.  Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once on each side,
the side that runs first flipping from pair to pair; pair k uses seed
S + k on both sides (``--same-seed`` keeps S).  For every end-to-end
metric that ``BENCHMARK.json`` declares, the report gives both medians,
each pair's ratio (working tree over base), the pairs the working tree
won, the base runs' interquartile range, the working tree's quartiles and a
verdict: "gain", "no gain", or "too few pairs" below ten (see ``summarize``).
It also gives both sides' medians of the stage times a workload records
(``STAGES``, read from each run's ``.perfbench_out`` record), without a
verdict, so that a gain can be placed in a stage.  The exit status is 1 when
any run reads ``"correct": false`` or prints no verdict.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # the fewest pairs on which the gain rule gives a verdict
STAGES = ("fit_s", "decode_s")  # stage times a run's record may hold under "extra"


def _quartiles(values) -> tuple[float, float]:
    """First and third quartiles, inclusive method; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, metrics):
    """Summary of ``pairs``, a list of (base, work) verdicts as ``perfbench/run.py`` prints
    them, for ``metrics``, a list of {"name", "better"} entries.

    Returns {"correct": every run correct, "metrics": {name: {...}}}, where each metric
    has the base and work medians, the per-pair ratios work / base, the pairs the work
    side won (strictly better in the metric's direction), the base IQR and the work
    side's quartiles (inclusive method; with one pair the IQR is 0 and both quartiles
    are its value) and a verdict: with fewer than ``MIN_PAIRS`` pairs "too few pairs";
    else "gain" when the work side won at least 9 of every 10 pairs and its median is
    better than the base median by more than the base IQR, otherwise "no gain".  A
    metric missing from a run is left out of that metric's summary.  Under "stages",
    each of ``STAGES`` that both runs of a pair hold (their "stages") gets both
    sides' medians and its pair count, and no verdict."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [
            (base["metrics"][name]["value"], work["metrics"][name]["value"])
            for base, work in pairs
            if name in base.get("metrics", {}) and name in work.get("metrics", {})
        ]
        if not values:
            continue
        base_vals, work_vals = zip(*values)
        base_q1, base_q3 = _quartiles(base_vals)
        base_median, work_median = statistics.median(base_vals), statistics.median(work_vals)
        wins = sum((w < b) if lower else (w > b) for b, w in values)
        gap = base_median - work_median if lower else work_median - base_median
        if len(values) < MIN_PAIRS:
            call = "too few pairs"
        else:
            call = "gain" if 10 * wins >= 9 * len(values) and gap > base_q3 - base_q1 else "no gain"
        summary[name] = {
            "better": metric["better"],
            "base_median": base_median,
            "work_median": work_median,
            "ratios": [w / b if b else float("nan") for b, w in values],
            "wins": wins,
            "pairs": len(values),
            "base_iqr": base_q3 - base_q1,
            "work_quartiles": _quartiles(work_vals),
            "verdict": call,
        }
    stages = {}
    for name in STAGES:
        values = [(base["stages"][name], work["stages"][name]) for base, work in pairs
                  if name in base.get("stages", {}) and name in work.get("stages", {})]
        if values:
            base_vals, work_vals = zip(*values)
            stages[name] = {"base_median": statistics.median(base_vals),
                            "work_median": statistics.median(work_vals), "pairs": len(values)}
    correct = all(run.get("correct") is True for pair in pairs for run in pair)
    return {"correct": correct, "metrics": summary, "stages": stages}


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its closing JSON verdict, with the
    ``STAGES`` its record holds as "stages", or an incorrect stand-in when it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": done.stderr[-2000:]}
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    try:
        extra = json.loads(record.read_text(encoding="utf-8"))["extra"]
    except (OSError, ValueError, KeyError):  # no record: the summary leaves this run's stages out
        extra = {}
    verdict["stages"] = {name: extra[name] for name in STAGES if name in extra}
    return verdict


def report(summary: dict, workload: str, base: str) -> None:
    print(f"{workload}: base {base} against the working tree")
    print(f"{'metric':<14}{'better':<8}{'base median':>14}{'work median':>14}{'base IQR':>12}"
          f"{'work Q1':>14}{'work Q3':>14}  {'wins':<5}  {'verdict':<13}  ratios")
    for name, s in summary["metrics"].items():
        ratios = " ".join(f"{r:.3f}" for r in s["ratios"])
        q1, q3 = s["work_quartiles"]
        print(f"{name:<14}{s['better']:<8}{s['base_median']:>14.6g}{s['work_median']:>14.6g}"
              f"{s['base_iqr']:>12.4g}{q1:>14.6g}{q3:>14.6g}  {s['wins']:>2}/{s['pairs']:<2}  {s['verdict']:<13}  {ratios}")
    for name, s in summary["stages"].items():
        print(f"stage {name:<10}base median {s['base_median']:.6g}  work median {s['work_median']:.6g}"
              f"  ({s['pairs']} pairs, no verdict)")
    print(f"every run correct: {summary['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--same-seed", action="store_true", help="run every pair on --seed")
    parser.add_argument("--seconds", type=float, default=None, help="passed on to perfbench/run.py")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base_dir = Path(tmp)
        export(args.base, base_dir)
        for k in range(args.pairs):
            seed = args.seed if args.same_seed else args.seed + k
            sides = [("base", base_dir), ("work", ROOT)]
            verdicts = {side: run_once(where, args.workload, seed, args.seconds)
                        for side, where in (sides if k % 2 == 0 else sides[::-1])}
            pairs.append((verdicts["base"], verdicts["work"]))
            print(f"pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    summary = summarize(pairs, metrics)
    report(summary, args.workload, args.base)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
