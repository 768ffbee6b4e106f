"""Record the reference figures that benchmark runs check their outputs against.

    python3 perfbench/record_reference.py --seeds 0-24,42

Run it only at a commit whose outputs are the accepted baseline.  For
each workload and seed it runs the body once, requires every output
check to pass, and stores the figures (trade count, ret/vol/ratio,
decision bars; fit and held-out log-likelihoods, recovery error) and
the CLI output fingerprint in ``reference.json``, merged with the
entries already there.  Benchmark runs at a recorded seed then fail
their reference check if a figure moves.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name: str, seed: int) -> dict:
    run = bench.Run(name, seed)
    run.reference = None
    run.setup(min_reps=1, min_s=0.0)
    run.measure(0.0)
    failed = [c for c in run.checks if not c.ok]
    if failed or run.errors:
        raise SystemExit(f"{name} seed {seed}: checks failed, nothing recorded: {failed} {run.errors}")
    entry = {"figures": run.first_output["figures"]}
    if run.first_output["fingerprint"]:
        entry["fingerprint"] = run.first_output["fingerprint"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds or ranges, e.g. 0-24,42")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    bench.import_library()
    import workloads

    table = json.loads(bench.REFERENCE.read_text(encoding="utf-8")) if bench.REFERENCE.exists() else {}
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            table.setdefault(name, {})[str(seed)] = record(name, seed)
            print(f"{name} seed {seed}: {table[name][str(seed)]['figures']}", flush=True)
            bench.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
