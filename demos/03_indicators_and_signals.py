"""
Indicators, discretization and entry signals
============================================

Computes RSI/CCI/ATR over a synthetic price path, shows how indicator
readings map to observation bins and back, and walks the smoothed-cross
signal rules.
"""

import numpy as np

from chmmtrade import (
    CCI_DISCRETIZER,
    RSI_DISCRETIZER,
    OhlcSeries,
    atr,
    bin_value,
    cci,
    crossing_side,
    discretize,
    rsi,
    sma,
    synthetic_ohlc,
)
from chmmtrade.cli import _default_sim_params

bars, _ = synthetic_ohlc(_default_sim_params(4, 8, seed=5), 120, seed=5, amplitude=0.004)
closes = bars.close

r = rsi(closes, 4)
a = atr(bars.high, bars.low, bars.close, 12)
c = cci(bars.high, bars.low, bars.close, 4)
print("last five bars:")
for i in range(len(bars) - 5, len(bars)):
    print(f"  close={closes[i]:.5f}  rsi={r[i]:6.2f}  cci={c[i]:8.2f}  atr={a[i]:.5f}")

print("\nRSI readings discretize into 8 bins over [0, 100]:")
for value in (r[i] for i in range(len(bars) - 5, len(bars))):
    k = discretize(RSI_DISCRETIZER, value)
    print(f"  rsi {value:6.2f} -> bin {k} -> midpoint {bin_value(RSI_DISCRETIZER, k):.2f}")
print("CCI uses eight bins over [-140, 140]; reading 0 sits in bin",
      discretize(CCI_DISCRETIZER, 0.0))

print("\nsmoothed RSI with a forecast appended:")
history = [14.0, 9.0, 16.0, 18.0]
forecast = 43.75  # midpoint of a predicted bin
series = history + [forecast]
prev, curr = np.mean(history), np.mean(series[1:])
print("  previous window mean:", prev)
print("  current window mean: ", curr)
print("  -> signal:", crossing_side("rsi", prev, curr))

print("\nCCI rule fades strength: smoothed path 110 -> 95 crosses under 105:")
print("  ->", crossing_side("cci", 110.0, 95.0))
print("same cross while already long is suppressed:")
print("  ->", crossing_side("cci", 110.0, 95.0, open_sides={"long"}))

ones = np.ones(30)
flat = OhlcSeries(bars.timestamps[:30], ones, ones, ones, ones)
print("\nflat market sanity: rsi=50, cci=0, atr=0 ->",
      rsi([1.0] * 10, 4)[-1], cci(flat.high, flat.low, flat.close, 4)[-1],
      atr(flat.high, flat.low, flat.close, 12)[-1])
print("sma of a constant series is that constant:", sma([7.0] * 6, 4)[-1])
