"""
Full trading pipeline
=====================

Simulates two coupled assets, then backtests the realized-indicator
baseline against the model-driven predictors, with and without dynamic
sizing, and prints the performance table the engine produces.
"""

from chmmtrade import BacktestConfig, compare_predictors, run_backtest, synthetic_ohlc
from chmmtrade.cli import _default_sim_params

bars1, bars2 = synthetic_ohlc(_default_sim_params(5, 8, seed=11), 700, seed=11, amplitude=0.004)
print(f"simulated {len(bars1)} ten-minute bars per asset "
      f"({bars1.timestamps[0]:%Y-%m-%d %H:%M} .. {bars1.timestamps[-1]:%Y-%m-%d %H:%M})")

runs = [
    ("baseline", dict(predictor="baseline")),
    ("marginal", dict(predictor="marginal")),
    ("viterbi", dict(predictor="viterbi")),
    ("marginal + dynamic", dict(predictor="marginal", dynamic_allocation=True)),
]

baseline_ratio = None
rows = []
for name, overrides in runs:
    cfg = BacktestConfig(system="rsi", seed=3, n_states=3, **overrides)
    result = run_backtest(cfg, bars1, bars2, baseline_ratio=baseline_ratio)
    stats = result.stats
    if baseline_ratio is None:
        baseline_ratio = stats.ratio
    rows.append((name, len(result.trades), stats))

print(f"\n{'system':<20} {'trades':>6} {'ret%':>8} {'vol%':>8} {'ratio':>8} {'d-ratio':>8}")
for name, n_trades, stats in rows:
    delta = "" if stats.delta_ratio is None else f"{stats.delta_ratio:8.3f}"
    print(f"{name:<20} {n_trades:>6} {stats.ret:8.3f} {stats.vol:8.3f} {stats.ratio:8.3f} {delta:>8}")

cfg = BacktestConfig(system="rsi", seed=3, n_states=3)
cmp_result = compare_predictors(cfg, bars1, bars2)
print(f"\npredictor agreement over {len(cmp_result)} bars: "
      f"states {cmp_result.state_agreement:.1%}, forecast values {cmp_result.value_agreement:.1%}")
print("when the two predictors track this closely, the cheaper column-sum",
      "predictor can stand in for the decoder", sep="\n")
