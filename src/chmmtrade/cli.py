"""Command-line front door.

Subcommands: ``backtest`` runs the full pipeline over two OHLC CSVs,
``fit`` trains on an observation file, ``simulate`` writes synthetic
OHLC data drawn from the generative model, ``compare`` measures how
often the marginal and Viterbi predictors agree, and ``stats`` recomputes
performance figures from an equity file.  All randomness is seed
controlled; identical invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data_io
from .backtest import PREDICTORS, SYSTEM_DEFAULTS, BacktestConfig, compare_predictors, perf_stats, run_backtest
from .indicators import OhlcSeries
from .model import ChmmParams, _check_seed, _params_by_family, _size, jittered_params, load_params, save_params
from .oracle import synthetic_ohlc
from .strategy import FIDELITIES
from .training import DegenerateModelError, FitConfig, fit

_CONFIG_FLAGS = ("system", "predictor", "fidelity", "seed")
# compare reads both predictors, sizes nothing and reads only the traded
# chain, which the fidelity switch leaves alone.
_BACKTEST_ONLY_KEYS = ("predictor", "dynamic_allocation", "fidelity")


def _load_backtest_config(args, rejected=()) -> BacktestConfig:
    mapping = dict(data_io.load_config(args.config)) if args.config else {}
    for key in rejected:
        if key in mapping:
            raise ValueError(f"{args.config}: config key {key!r} does not apply to {args.command}")
    for flag in _CONFIG_FLAGS:
        value = getattr(args, flag, None)
        if value is not None:
            mapping[flag] = str(value)
    if getattr(args, "dynamic", False):
        mapping["dynamic_allocation"] = "true"
    return data_io.backtest_config_from_mapping(mapping)


def _aligned_pair(args) -> tuple[OhlcSeries, OhlcSeries]:
    """The traded and the filter series on their common timestamps.  The
    filter series takes the traded series' ``Stamps`` column, which equals
    its own after ``align``: only the traded one is read or written."""
    pair = data_io.align(data_io.load_ohlc_csv(args.asset1), data_io.load_ohlc_csv(args.asset2))
    if pair.dropped:
        print(f"dropped {len(pair.dropped)} unmatched bars during alignment", file=sys.stderr)
    bars1, bars2 = pair.bars1, pair.bars2
    return bars1, OhlcSeries(bars1.timestamps, bars2.open, bars2.high, bars2.low, bars2.close)


def _cmd_backtest(args) -> int:
    cfg = _load_backtest_config(args)
    bars1, bars2 = _aligned_pair(args)
    result = run_backtest(cfg, bars1, bars2, baseline_ratio=args.baseline_ratio)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_io.write_trades_csv(out / "trades.csv", result.trades)
    data_io.write_equity_csv(out / "equity.csv", result.equity)
    data_io.write_stats_txt(out / "stats.txt", result.stats)
    data_io.write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)
    data_io.write_fit_log(out / "fits.jsonl", result.fit_records)
    print(f"trades = {len(result.trades)}")
    _print_stats(result.stats)
    return 0


def _print_stats(stats) -> None:
    """Every figure of ``stats`` to six significant digits; an absent delta is left out."""
    for key, value in vars(stats).items():
        if value is not None:
            print(f"{key} = {value:.6g}")


def _check_sizes(args, *flags) -> None:
    """Refuse a size flag below 1, naming the flag, before any file is read or written."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if _size(flag, value) < 1:
            raise ValueError(f"{flag} must be at least 1, got {value!r}")


def _cmd_fit(args) -> int:
    _check_seed(args.seed)
    _check_sizes(args, "--n-states", "--n-bins")
    obs = data_io.load_obs_csv(args.obs)
    n_bins = max(args.n_bins, int(obs.bins.max()) + 1)
    if args.params_in:
        params0 = load_params(args.params_in)
    else:
        params0 = jittered_params(args.n_states, n_bins, seed=args.seed)
    cfg = FitConfig(sweeps=args.sweeps, rel_tol=args.rel_tol)
    result = fit(params0, obs, cfg)
    save_params(result.params, args.params_out)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for v in result.log_likelihoods:
                fh.write(repr(float(v)) + "\n")
    print(f"sweeps_run = {result.sweeps_run}")
    print(f"log_likelihood = {result.log_likelihoods[-1]!r}")
    return 0


def _default_sim_params(n_states: int, n_bins: int, seed) -> ChmmParams:
    """Seeded random model with peaked rows, good enough to drive demos."""
    rng = np.random.default_rng((seed, 3))
    return _params_by_family(n_states, n_bins, lambda uniform: rng.gamma(0.5, size=uniform.shape) + 1e-3)


def _cmd_simulate(args) -> int:
    _check_seed(args.seed)
    _check_sizes(args, "--bars", "--n-states", "--n-bins")
    if args.params:
        params = load_params(args.params)
    else:
        params = _default_sim_params(args.n_states, args.n_bins, args.seed)
    bars1, bars2 = synthetic_ohlc(params, args.bars, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_io.write_ohlc_csv(out / "asset1.csv", bars1)
    data_io.write_ohlc_csv(out / "asset2.csv", bars2)
    print(f"wrote {args.bars} bars to {out / 'asset1.csv'} and {out / 'asset2.csv'}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_backtest_config(args, rejected=_BACKTEST_ONLY_KEYS)
    bars1, bars2 = _aligned_pair(args)
    initial = load_params(args.params) if args.params else None
    result = compare_predictors(cfg, bars1, bars2, initial_params=initial)
    if args.out:
        data_io.write_comparison_csv(args.out, result)
    print(f"bars_compared = {len(result)}")
    print(f"state_agreement = {result.state_agreement:.6f}")
    print(f"value_agreement = {result.value_agreement:.6f}")
    return 0


def _cmd_stats(args) -> int:
    equity = data_io.load_equity_csv(args.equity)
    _print_stats(perf_stats(equity, baseline_ratio=args.baseline_ratio))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chmmtrade",
        description="Coupled-HMM indicator forecasting, training and backtesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--system", choices=list(SYSTEM_DEFAULTS), default=None)

    p = sub.add_parser("backtest", help="run the trading pipeline over two OHLC CSVs")
    add_common(p)
    p.add_argument("--predictor", choices=PREDICTORS, default=None)
    p.add_argument("--fidelity", choices=FIDELITIES, default=None,
                   help="second-chain self-matrix variant for the predictors")
    p.add_argument("--dynamic", action="store_true", help="scale position size by state probability")
    p.add_argument("--asset1", required=True, help="traded instrument OHLC CSV")
    p.add_argument("--asset2", required=True, help="filter instrument OHLC CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--baseline-ratio", type=float, default=None)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("fit", help="train on an o1,o2 observation CSV")
    p.add_argument("--obs", required=True)
    p.add_argument("--params-out", required=True)
    p.add_argument("--params-in", default=None, help="warm-start parameter file")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--n-states", type=int, default=5)
    p.add_argument("--n-bins", type=int, default=8)
    p.add_argument("--sweeps", type=int, default=FitConfig.sweeps)
    p.add_argument("--rel-tol", type=float, default=FitConfig.rel_tol)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="write synthetic OHLC CSVs drawn from a model")
    p.add_argument("--bars", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--params", default=None, help="parameter file; seeded random model if omitted")
    p.add_argument("--n-states", type=int, default=5)
    p.add_argument("--n-bins", type=int, default=8)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="marginal vs Viterbi predictor agreement")
    add_common(p)
    p.add_argument("--asset1", required=True)
    p.add_argument("--asset2", required=True)
    p.add_argument("--params", default=None, help="initial parameter file for the fit chain")
    p.add_argument("--out", default=None, help="optional per-bar comparison CSV")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("stats", help="performance figures from an equity CSV")
    p.add_argument("--equity", required=True)
    p.add_argument("--baseline-ratio", type=float, default=0.0)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DegenerateModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
