"""Bit-for-bit comparison of the model core and the model pass: a base revision against the working tree.

    python tools/same_bits.py --base HEAD

The base revision is exported with ``git archive`` into a temporary
directory, as ``tools/ab_pairs.py`` does.  Each side runs one fixed,
seeded case set (``cases``) in its own subprocess, with
``PYTHONPATH=<side>/src``, and hashes every case's outputs through the
public API alone (``digest``): the model core and the readouts on a
grid of model sizes and windows, long forward and decode cases, and
backtests and comparisons on a seeded market, with the bytes their files
are written as.  The report names the cases whose sha256
differs; the exit status is 1 on any difference or when a side fails to
run.  Standard library plus numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from ab_pairs import ROOT, export

STATES = (1, 2, 3, 5, 8, 20)
BINS = (1, 3, 8)
LENGTHS = (1, 2, 3, 4, 7, 40, 65, 66, 130, 2000)
STARTS = ("jittered", "uniform", "zero-heavy")
LONG = 50_000  # steps of the two long N=5 cases: a scaled forward and a decode
# Long decodes of each size the decoder's grid route treats apart (N = 20 keeps the step loop)
# from uniform starts (ties) and zero-heavy ones (dead chains, exact zeros).
DECODE_STATES = (1, 2, 3, 8, 20)
DECODE_LENGTH = 20_000


# What a grid case hashes.
PARTS = ("forward", "scaled forward", "gradient", "scaled gradient", "fit", "viterbi", "readout")
BARS = 400  # bars of the seeded market the run cases trade
# Run cases: (name, (N, M), BacktestConfig fields); "compare" in a name runs compare_predictors, else run_backtest.
RUNS = (
    ("rsi-viterbi-warm-L4-N5M8", (5, 8), dict(system="rsi", predictor="viterbi", lookback=4)),
    ("rsi-marginal-literal-cold-L10-N3M20", (3, 20),
     dict(system="rsi", predictor="marginal", fidelity="literal", lookback=10, warm_start=False)),
    ("cci-marginal-dynamic-warm-L10-N5M8", (5, 8),
     dict(system="cci", predictor="marginal", lookback=10, dynamic_allocation=True)),
    ("cci-viterbi-literal-dynamic-cold-L4-N3M20", (3, 20),
     dict(system="cci", predictor="viterbi", fidelity="literal", lookback=4, dynamic_allocation=True, warm_start=False)),
    ("rsi-compare-literal-warm-L10-N3M20", (3, 20), dict(system="rsi", fidelity="literal", lookback=10)),
    ("cci-compare-cold-L4-N5M8", (5, 8), dict(system="cci", lookback=4, warm_start=False)),
)


def cases() -> list[tuple]:
    """Every case as (name, N, M, T, start, parts), in a fixed order: the grid,
    the long cases, then the run cases, whose T is the market's bars and
    whose ``start`` holds their config fields.  ``parts`` names the outputs a
    case hashes."""
    grid = [(f"N{n}-M{m}-T{t}-{start}", n, m, t, start, PARTS)
            for n, m, t, start in product(STATES, BINS, LENGTHS, STARTS)]
    long = [(f"N5-M8-T{LONG}-jittered-forward", 5, 8, LONG, "jittered", ("scaled forward",)),
            (f"N5-M8-T{LONG}-jittered-decode", 5, 8, LONG, "jittered", ("viterbi",))]
    long += [(f"N{n}-M8-T{DECODE_LENGTH}-{start}-decode", n, 8, DECODE_LENGTH, start, ("viterbi",))
             for n, start in product(DECODE_STATES, ("uniform", "zero-heavy"))]
    runs = [(name, n, m, BARS, tuple(fields.items()), ("compare" if "compare" in name else "backtest",))
            for name, (n, m), fields in RUNS]
    return grid + long + runs


def _start(chmm, rng, n, m, start):
    """Start parameters: seeded jitter, uniform, or each entry 0 with probability 0.6
    (an all-zero simplex is uniform)."""
    if start == "jittered":
        return chmm.jittered_params(n, m, seed=int(rng.integers(2**32)))
    if start == "uniform":
        return chmm.uniform_params(n, m)

    def rows(shape, axis):
        raw = rng.uniform(size=shape) * (rng.uniform(size=shape) >= 0.6)
        raw[(raw.sum(axis=axis, keepdims=True) == 0.0).repeat(shape[axis], axis=axis)] = 1.0
        return raw / raw.sum(axis=axis, keepdims=True)

    return chmm.ChmmParams(priors=rows((2, n), 1), trans=rows((2, 2, n, n), 3), emit=rows((2, n, m), 2),
                           coupling=rows((2, 2), 0))


def _run(chmm, n, m, bars, fields, compare):
    """A run case's outputs: a backtest's diagnostics columns, fit records,
    trades and equity, then the bytes of its equity, diagnostics and fit-log
    files, or a comparison's columns, then the bytes of its file, on a
    seeded market."""
    from chmmtrade import data_io

    fields = dict(fields)
    fit = chmm.FitConfig(warm_start=fields.pop("warm_start", True))
    cfg = chmm.BacktestConfig(n_states=n, n_bins=m, seed=7, fit=fit, **fields)
    bars1, bars2 = chmm.synthetic_ohlc(chmm.jittered_params(n, m, seed=11), bars, seed=13)
    if compare:
        c = chmm.compare_predictors(cfg, bars1, bars2)
        return (c.timestamps, c.state_marginal, c.state_viterbi, c.value_marginal, c.value_viterbi,
                *_written((data_io.write_comparison_csv, c)))
    r = chmm.run_backtest(cfg, bars1, bars2)
    d = r.diagnostics
    records = [(rec.window_end, rec.sweeps_run, [v.hex() for v in rec.trace]) for rec in r.fit_records]
    trades = [tuple(vars(tr).values()) for tr in r.trades]
    files = _written((data_io.write_equity_csv, r.equity), (data_io.write_diagnostics_csv, d),
                     (data_io.write_fit_log, r.fit_records))
    return (d.timestamps, d.predicted_value, d.predicted_state, d.transition_prob, d.predicted_value2,
            d.predicted_state2, d.signal_side, records, trades, r.equity.values, *files)


def _written(*writes) -> list[bytes]:
    """The bytes each ``(writer, value)`` writes to a file, in order, as the CLI writes them."""
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        paths = [Path(tmp) / str(i) for i in range(len(writes))]
        for path, (write, value) in zip(paths, writes):
            write(path, value)
        return [path.read_bytes() for path in paths]


def _readout(chmm, params, obs):
    """Both next-state predictors at both fidelities with both chains'
    forecasts, and the allocation fraction of every state of each chain."""
    d = chmm.Discretizer(-140.0, 140.0, params.n_bins)
    vt = chmm.coupled_viterbi(params, obs)
    out = []
    for fidelity in ("corrected", "literal"):
        for psi in (chmm.next_state_marginal(params, fidelity), chmm.next_state_viterbi(params, vt, fidelity)):
            out += [psi, *(chmm.predict_observation(params, psi[c], c, d).hex() for c in (0, 1))]
        out += [chmm.allocation_fraction(params, s, c, fidelity).hex()
                for c in (0, 1) for s in range(params.n_states)]
    return out


def digest(case) -> str:
    """The sha256 of one case's outputs, in ``parts`` order: each array as its
    dtype, shape and bytes, any other value as its repr, and an exception
    raised as its type and message."""
    import chmmtrade as chmm

    name, n, m, t_len, start, parts = case
    if parts[0] in ("backtest", "compare"):
        outputs = {parts[0]: lambda: _run(chmm, n, m, t_len, start, parts[0] == "compare")}
        return _hash(parts, outputs)
    rng = np.random.default_rng(list(name.encode()))
    params = _start(chmm, rng, n, m, start)
    obs = chmm.ObservationSequence(rng.integers(0, m, size=(2, t_len)))

    def trellis(tr):
        return tr.alpha, tr.scale_factors, tr.log_per_chain, tr.log_joint, tr.per_chain_likelihood, tr.joint_likelihood

    def gradient(g):
        return g.d_priors, g.d_trans, g.d_emit, g.d_coupling, g.log_scale

    def fitted(r):
        return chmm.params_to_text(r.params), r.log_likelihoods, r.sweeps_run

    def decoded(v):
        return v.log_delta, v.paths, v.log_best

    outputs = {
        "forward": lambda: trellis(chmm.forward(params, obs)),
        "scaled forward": lambda: trellis(chmm.forward(params, obs, scale=True)),
        "gradient": lambda: gradient(chmm.likelihood_gradient(params, obs)),
        "scaled gradient": lambda: gradient(chmm.likelihood_gradient(params, obs, scale=True)),
        "fit": lambda: fitted(chmm.fit(params, obs, chmm.FitConfig(sweeps=2))),
        "viterbi": lambda: decoded(chmm.coupled_viterbi(params, obs)),
        "readout": lambda: _readout(chmm, params, obs),
    }
    return _hash(parts, outputs)


def _hash(parts, outputs) -> str:
    """The sha256 of each part's outputs, in ``parts`` order (see ``digest``)."""
    h = hashlib.sha256()
    for part in parts:
        try:
            values = outputs[part]()
        except Exception as exc:  # an exception raised is an output too
            values = type(exc).__name__, str(exc)
        for value in (part, *values):
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype}{value.shape}".encode() + value.tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def differing(base: dict, work: dict) -> list[str]:
    """Names of the cases whose digests differ or that one side lacks, in case order."""
    return [name for name, *_ in cases() if name not in base or base[name] != work.get(name)]


def report(base: dict, work: dict, rev: str) -> bool:
    """Print the comparison; True when every case is equal."""
    names = differing(base, work)
    print(f"same_bits: base {rev} against the working tree: {len(cases()) - len(names)} of {len(cases())} cases equal")
    for name in names:
        print(f"  differs: {name}" + ("" if name in base and name in work else " (missing on a side)"))
    return not names


def run_side(src: Path) -> dict:
    """Every case's digest, worked out in a subprocess that imports ``chmmtrade`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"same_bits: the side at {src} failed:\n{done.stderr[-2000:]}")
    out = json.loads(done.stdout)
    if Path(out.pop("chmmtrade")).resolve().parent.parent != src.resolve():
        raise SystemExit(f"same_bits: the side at {src} did not import chmmtrade from it")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)  # one side's digests, as JSON
    args = parser.parse_args(argv)
    if args.emit:
        import chmmtrade

        print(json.dumps({"chmmtrade": chmmtrade.__file__, **{case[0]: digest(case) for case in cases()}}))
        return 0
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        export(args.base, Path(tmp))
        base = run_side(Path(tmp) / "src")
    return 0 if report(base, run_side(ROOT / "src"), args.base) else 1


if __name__ == "__main__":
    sys.exit(main())
