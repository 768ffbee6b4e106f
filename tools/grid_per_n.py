"""The decoder's recursion per model size: the step loop against the grid route.

    PYTHONPATH=src python tools/grid_per_n.py --states 2,3,5,8,10,20 --seeds 42,7,3

For each N and seed, the model is fitted as in the ``train_decode_long``
workload (the simulator's truth ``cli._default_sim_params(N, 8, 42)``,
10 sweeps on 2,000 sampled bars from ``jittered_params(N, 8, seed)``) and
a held-out sequence of ``--steps`` bars is decoded.  Each round times
``inference._viterbi_loop`` over every row against
``inference._viterbi_rows`` (which applies the ``_GRID_MAX_STATES`` gate),
the rounds interleaved, and the rows are checked equal.  A line gives
both best times, their ratio and each lane's share of steps on the grid,
``on_grid / (lanes * (steps - 1))``: the decoder walks its two lanes (the
chains) one at a time, and counts the grid steps of both.
``--ungated`` lifts the gate, to time the grid route where it is off.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from chmmtrade import inference, jittered_params, oracle
from chmmtrade.cli import _default_sim_params
from chmmtrade.training import FitConfig, fit


def recursion_inputs(n: int, seed: int, steps: int):
    """Row 0 of a decode trellis and the recursion's inputs, as ``coupled_viterbi`` builds them."""
    truth = _default_sim_params(n, 8, 42)
    train = oracle.sample_chmm(truth, 2_000, seed=(seed, 1)).observations
    held = oracle.sample_chmm(truth, steps, seed=(seed, 2)).observations
    p = fit(jittered_params(n, 8, seed=seed), train, FitConfig(sweeps=10, rel_tol=0.0)).params
    with np.errstate(divide="ignore"):
        log_a, log_pi, log_emit = np.log(p.trans), np.log(p.priors), np.log(p.emit)
    log_bt = inference._emission_lookup(p, held, log_emit)
    trellis = np.empty((steps, 2, n))
    np.add(log_pi, log_bt[0], out=trellis[0])
    return trellis, (log_a[0], log_a[1].max(axis=1), log_bt), (log_emit, held.bins)


def time_routes(n: int, seed: int, steps: int, rounds: int) -> tuple[float, float, float]:
    """Best loop and grid-route times (s) over ``rounds`` and the grid's share of each lane's steps."""
    trellis, loop_args, grid_args = recursion_inputs(n, seed, steps)
    ref = trellis.copy()
    inference._viterbi_loop(ref, 0, steps, *loop_args)
    loop_s, grid_s = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        inference._viterbi_loop(trellis, 0, steps, *loop_args)
        t1 = time.perf_counter()
        on_grid = inference._viterbi_rows(trellis, *loop_args, *grid_args)
        grid_s.append(time.perf_counter() - t1)
        loop_s.append(t1 - t0)
    if not np.array_equal(trellis, ref):
        raise AssertionError(f"N={n} seed={seed}: the grid route's rows differ from the loop's")
    return min(loop_s), min(grid_s), on_grid / (trellis.shape[1] * (steps - 1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", default="2,3,5,8,10,20", help="comma-separated N")
    parser.add_argument("--seeds", default="42,7,3", help="comma-separated fit seeds")
    parser.add_argument("--steps", type=int, default=50_000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--ungated", action="store_true", help="take the grid route at every N")
    args = parser.parse_args(argv)
    if args.ungated:
        inference._GRID_MAX_STATES = max(map(int, args.states.split(",")))
    for n in map(int, args.states.split(",")):
        for seed in map(int, args.seeds.split(",")):
            loop_s, grid_s, share = time_routes(n, seed, args.steps, args.rounds)
            print(f"N={n:2d} seed={seed:3d}  loop {loop_s * 1e3:7.1f} ms  grid {grid_s * 1e3:7.1f} ms"
                  f"  loop/grid {loop_s / grid_s:5.2f}  on grid {share:.3f}", flush=True)


if __name__ == "__main__":
    main()
