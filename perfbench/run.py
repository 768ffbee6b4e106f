"""chmmtrade benchmark.

    python3 perfbench/run.py --workload backtest_rsi_viterbi --seed 42 --seconds 25 --trace 0

Runs one workload (or ``--workload all``) from the root of a source
checkout, checks its outputs, prints every metric by name and unit, and
ends its standard output with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced phase that follows an untraced one.
A full record (environment, every check, output fingerprint, all
figures) is written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so every run computes on one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_MIN_REPS = 3    # set-ups per run, at least; setup_s is their median
SETUP_MIN_S = 4.0     # and at least this long in wall time
MIN_TRACED_REPS = 2   # traced counts are compared across repetitions

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "bars_per_s": "1/s", "peak_rss_mb": "MB"}


def import_library():
    """Import chmmtrade from this checkout's ``src``, never from elsewhere."""
    package = SRC / "chmmtrade"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chmmtrade sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import chmmtrade

    if Path(chmmtrade.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported chmmtrade from {chmmtrade.__file__}, not {package}")
    return chmmtrade


def _git(*args) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top.strip()).resolve() == ROOT
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Timings:
    """Wall times of repeated intervals and the host's slowdown over each
    (see hostspeed.py); the metrics use the adjusted times, wall / slowdown."""

    def __init__(self):
        self.wall: list[float] = []
        self.slowdown: list[float] = []

    def add(self, wall: float, slowdown: float) -> None:
        self.wall.append(wall)
        self.slowdown.append(slowdown)

    @property
    def adjusted(self) -> list[float]:
        return [w / f for w, f in zip(self.wall, self.slowdown)]

    def median(self) -> float:
        return statistics.median(self.adjusted)

    def record(self) -> dict:
        return {"adjusted_s": self.adjusted, "wall_s": self.wall, "host_slowdown": self.slowdown}


class Run:
    """One workload at one seed: set-up, measured phases, checks."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.w = workloads.WORKLOADS[name]
        self._check_type = workloads.Check
        self.seed = seed
        self.work = OUT / f"{name}-seed{seed}"
        self.reference = workloads.load_reference(REFERENCE, name, seed)
        self.checks = []          # every Check made, in order
        self.errors: list[str] = []
        self.first_output = None  # figures and fingerprint of the first repetition

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(self._check_type(name, bool(ok), detail))

    def setup(self, min_reps: int = SETUP_MIN_REPS, min_s: float = SETUP_MIN_S) -> Timings:
        """Set up repeatedly; return the timings of the set-ups."""
        timings, digests = Timings(), []
        while len(timings.wall) < min_reps or sum(timings.wall) < min_s:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            gc.collect()
            self.inputs, wall, slowdown = hostspeed.timed(self.w.setup, self.work, self.seed, self.w.size)
            timings.add(wall, slowdown)
            digests.append(self.inputs["digest"])
        self.check("every set-up made the same inputs", len(set(digests)) == 1, f"{digests}")
        self.inputs["reference"] = self.reference
        return timings

    def measure(self, seconds: float, tracer=None, min_reps: int = 1):
        """Repeat the body until ``seconds`` have passed; return the timings
        of the repetitions and, when traced, each one's spans."""
        timings, spans = Timings(), []
        start = time.perf_counter()
        while len(timings.wall) < min_reps or time.perf_counter() - start < seconds:
            self.w.prepare(self.inputs)
            gc.collect()
            if tracer is not None:  # the probes call no chmmtrade function, so no wrapper sees them
                tracer.install()
            try:
                output, wall, slowdown = hostspeed.timed(self.w.body, self.inputs)
            except Exception:  # counted as a failed operation, reported below
                self.errors.append(traceback.format_exc())
                break
            finally:
                if tracer is not None:
                    tracer.restore()
                    rep_spans = tracer.take_spans()
            timings.add(wall, slowdown)
            if tracer is not None:
                spans.append(rep_spans)
            self.checks.extend(self.w.check(self.inputs, output))
            self._compare_repetition(output, slowdown)
        return timings, spans

    def _compare_repetition(self, output: dict, slowdown: float) -> None:
        seen = {"figures": output.get("figures"), "fingerprint": output.get("fingerprint")}
        if self.first_output is None:
            self.first_output = seen
            self.bars = self.w.bars(self.inputs, output)
            self.stages = {k: [] for k in ("fit_s", "decode_s") if k in output}
        else:
            self.check("outputs repeat exactly", seen == self.first_output, "")
        for k, v in self.stages.items():
            v.append(output[k] / slowdown)

    def fingerprint_status(self) -> str:
        fp = (self.first_output or {}).get("fingerprint")
        if not fp:
            return "not applicable"
        if self.reference is None or "fingerprint" not in self.reference:
            return "no reference for this seed"
        return "identical" if fp == self.reference["fingerprint"] else "differs from reference"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing

    run = Run(name, seed)
    setup = run.setup()
    half = seconds / 2 if trace else seconds
    timings, _ = run.measure(half)
    if not timings.wall:
        raise RuntimeError(f"{name}: the body failed:\n" + "".join(run.errors))
    run_s = timings.median()
    extra = {
        "wall_run_s": statistics.median(timings.wall),
        "wall_setup_s": statistics.median(setup.wall),
        "host_slowdown": statistics.median(timings.slowdown),
        "run_reps": timings.record(),
        "setup_reps": setup.record(),
        **{k: statistics.median(v) for k, v in run.stages.items()},
        **(run.first_output["figures"] or {}),
    }

    if trace:
        tracer = tracing.Tracer()
        traced, spans = run.measure(half, tracer, MIN_TRACED_REPS)
        run.check("tracer restored every binding", tracer.leftover() == 0, "")
        per_rep = [tracing.layer_metrics(s) for s in spans]
        layer, repeat = tracing.combine(per_rep) if per_rep else ({}, False)
        run.check("traced counts repeat exactly across repetitions", repeat, "")
        layer["trace_overhead_s"] = (traced.median() - run_s) if traced.wall else 0.0
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in tracing.UNITS.items()}
        extra["traced_run_reps"] = traced.record()
        if spans:
            _write_spans(run.work / "spans.jsonl", spans[0])
    else:
        values = {
            "setup_s": setup.median(),
            "run_s": run_s,
            "bars_per_s": run.bars / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    failed = sum(not c.ok for c in run.checks) + len(run.errors)
    attempted = len(run.checks) + len(run.errors)
    extra["failed_ops_ratio"] = failed / attempted
    return {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [vars(c) for c in run.checks if not c.ok],
        "errors": run.errors,
        "check_names": sorted({c.name for c in run.checks}),
        "fingerprint": (run.first_output or {}).get("fingerprint"),
        "fingerprint_status": run.fingerprint_status(),
    }


def in_child(fn, *args):
    """Return ``fn(*args)``, computed in a forked child process, so that the
    child's peak resident set (``peak_rss_mb``) covers the imports and that
    one call alone, never an earlier workload of the same command."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: send the result or the error back, then leave at once
        os.close(read_fd)
        code = 0
        try:
            payload = {"result": fn(*args)}
        except BaseException:  # noqa: BLE001 -- reported by the parent
            payload, code = {"error": traceback.format_exc()}, 1
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, default=str))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    payload = json.loads(text) if text else {"error": "the child process ended without a result"}
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["result"]


def _write_spans(path: Path, spans) -> None:
    """One repetition's spans, one JSON object a line, times relative to its start."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (layer, name, start, end, parent, _note) in enumerate(spans):
            fh.write(json.dumps({"id": i, "parent": parent, "layer": layer, "name": name,
                                 "start_s": start - t0, "dur_s": end - start}) + "\n")


def report(result: dict, seed: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{result['workload']}-seed{seed}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"workload {result['workload']}  seed {seed}  trace {result['trace']}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key in ("wall_run_s", "wall_setup_s", "host_slowdown", "fit_s", "decode_s",
                "heldout_loglik_per_step", "recovery_mae", "trades", "ratio"):
        if key in result["extra"]:
            print(f"  {key} = {result['extra'][key]:.6g}")
    print(f"  failed_ops_ratio = {result['failed']}/{result['attempted']}")
    print(f"  output fingerprint: {result['fingerprint_status']}")
    for c in result["failed_checks"]:
        print(f"  FAILED {c['name']}: {c['detail']}")
    for err in result["errors"]:
        print("  ERROR " + err.strip().splitlines()[-1])
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    results = []
    for name in names:
        result = in_child(run_workload, name, args.seed, args.seconds, bool(args.trace))
        report(result, args.seed)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
