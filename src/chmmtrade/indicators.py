"""OHLC series, technical indicators and the bin discretizer feeding the model.

Indicators take price columns (for example ``OhlcSeries.close``) and
return arrays aligned to the input bars, padded with NaN over the
warmup stretch where the window is not yet full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "OhlcSeries",
    "Discretizer",
    "rsi",
    "cci",
    "sma",
    "atr",
    "true_range",
    "discretize",
    "bin_value",
    "RSI_DISCRETIZER",
    "CCI_DISCRETIZER",
]


def _bad_rows(open_, high, low, close) -> np.ndarray:
    """Indices of the rows that are not finite or whose open/close body
    leaves the high/low range; finite ends bound a valid body, and a NaN
    fails every comparison."""
    with np.errstate(invalid="ignore"):
        ok = (
            np.isfinite(low) & np.isfinite(high)
            & (low <= np.minimum(open_, close)) & (np.maximum(open_, close) <= high)
        )
    return np.flatnonzero(~ok)


def _row_problem(timestamp, o: float, h: float, l: float, c: float) -> str:
    kind = "OHLC invariant violated" if all(map(math.isfinite, (o, h, l, c))) else "non-finite OHLC value"
    return f"{kind} at {timestamp}: o={o} h={h} l={l} c={c}"


class OhlcSeries:
    """Price bars as columns: a list of timestamps and four read-only
    float64 arrays of the same length.  Every row must be finite with its
    open/close body inside the high/low range.  Slicing (or indexing with
    an integer array) returns a new series; rows are never objects.
    """

    __slots__ = ("timestamps", "open", "high", "low", "close")

    def __init__(self, timestamps, open, high, low, close):
        stamps = list(timestamps)
        columns = [np.array(col, dtype=np.float64) for col in (open, high, low, close)]
        if any(col.shape != (len(stamps),) for col in columns):
            raise ValueError(f"expected four 1-D columns of {len(stamps)} values, one per timestamp")
        bad = _bad_rows(*columns)
        if bad.size:
            i = int(bad[0])
            raise ValueError(_row_problem(stamps[i], *(float(col[i]) for col in columns)))
        for col in columns:
            col.flags.writeable = False
        self.timestamps = stamps
        self.open, self.high, self.low, self.close = columns

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, key) -> "OhlcSeries":
        if isinstance(key, slice):
            stamps = self.timestamps[key]
        else:
            key = np.asarray(key)
            if key.ndim != 1 or (key.size and key.dtype.kind not in "iu"):
                raise TypeError("index an OhlcSeries with a slice or a 1-D array of row numbers")
            key = key.astype(np.intp, copy=False)
            stamps = [self.timestamps[i] for i in key.tolist()]
        return OhlcSeries(stamps, self.open[key], self.high[key], self.low[key], self.close[key])


@dataclass(frozen=True)
class Discretizer:
    """M equal-width bins covering [lb, ub]."""

    lb: float
    ub: float
    m: int

    def __post_init__(self):
        if not self.lb < self.ub:
            raise ValueError(f"need lb < ub, got [{self.lb}, {self.ub}]")
        if self.m < 1:
            raise ValueError("need at least one bin")

    @property
    def width(self) -> float:
        return (self.ub - self.lb) / self.m


def discretize(d: Discretizer, x: float | np.ndarray) -> int | np.ndarray:
    """Bin index of x, clamped to [0, m - 1]; x == ub maps to the top bin.

    A number gives an int, an array an int64 array of its shape.  Raises
    ValueError naming the first non-finite value.
    """
    values = np.asarray(x, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"cannot discretize non-finite value {float(values[bad][0])!r}")
    idx = np.clip(np.floor((values - d.lb) / d.width), 0, d.m - 1).astype(np.int64)
    return int(idx) if idx.ndim == 0 else idx


def bin_value(d: Discretizer, k: int) -> float:
    """Midpoint of bin k, the numeric stand-in for a predicted bin."""
    if not 0 <= k < d.m:
        raise IndexError(f"bin {k} out of range for {d.m} bins")
    return d.lb + (k + 0.5) * d.width


RSI_DISCRETIZER = Discretizer(0.0, 100.0, 8)
CCI_DISCRETIZER = Discretizer(-140.0, 140.0, 8)


def _window_means(values: np.ndarray, period: int) -> np.ndarray:
    """Trailing-window means; NaN until the first full window."""
    out = np.full(values.size, np.nan)
    if values.size >= period:
        kernel = np.ones(period) / period
        out[period - 1:] = np.convolve(values, kernel, mode="valid")
    return out


def sma(series, period: int) -> np.ndarray:
    """Simple moving average over a trailing window."""
    values = np.asarray(series, dtype=float)
    if period < 1:
        raise ValueError("period must be >= 1")
    if values.size < period:
        raise ValueError(f"need at least {period} values, got {values.size}")
    return _window_means(values, period)


def rsi(closes, period: int) -> np.ndarray:
    """Relative Strength Index with window-local simple averaging.

    RSI = 100 * avg_gain / (avg_gain + avg_loss) over the trailing window
    of ``period`` price changes.  All-gain windows read 100, all-loss
    windows 0 and flat windows 50.
    """
    values = np.asarray(closes, dtype=float)
    if period < 1:
        raise ValueError("period must be >= 1")
    if values.size <= period:
        raise ValueError(f"need more than {period} closes, got {values.size}")
    diffs = np.diff(values)
    gains = _window_means(np.maximum(diffs, 0.0), period)
    losses = _window_means(np.maximum(-diffs, 0.0), period)
    total = gains + losses
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total > 0.0, gains / total, np.where(np.isnan(total), np.nan, 0.5))
    out = np.full(values.size, np.nan)
    out[1:] = 100.0 * ratio
    return out


def true_range(high, low, close) -> np.ndarray:
    """Per-bar true range; NaN at the first bar (no previous close)."""
    highs = np.asarray(high, dtype=float)
    lows = np.asarray(low, dtype=float)
    closes = np.asarray(close, dtype=float)
    out = np.full(closes.size, np.nan)
    if closes.size > 1:
        prev = closes[:-1]
        out[1:] = np.maximum.reduce(
            [highs[1:] - lows[1:], np.abs(highs[1:] - prev), np.abs(lows[1:] - prev)]
        )
    return out


def atr(high, low, close, period: int) -> np.ndarray:
    """Average True Range: simple mean of the trailing true ranges."""
    if period < 1:
        raise ValueError("period must be >= 1")
    tr = true_range(high, low, close)
    if tr.size <= period:
        raise ValueError(f"need more than {period} bars, got {tr.size}")
    out = np.full(tr.size, np.nan)
    out[period:] = _window_means(tr[1:], period)[period - 1:]
    return out


def cci(high, low, close, period: int) -> np.ndarray:
    """Commodity Channel Index of the typical price.

    CCI = (TP - SMA(TP)) / (0.015 * mean |TP - SMA(TP)|) over the trailing
    window; a zero-deviation window reads 0.  The mean absolute deviation
    of every window is taken at once from a strided view of the typical
    prices, each window's sum in the same order as a per-window loop.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    tp = (np.asarray(high, dtype=float) + np.asarray(low, dtype=float) + np.asarray(close, dtype=float)) / 3.0
    if tp.size <= period:
        raise ValueError(f"need more than {period} bars, got {tp.size}")
    means = _window_means(tp, period)[period - 1:]
    dev = sliding_window_view(tp, period) - means[:, None]  # (windows, period)
    mad = np.abs(dev, out=dev).mean(axis=1)
    out = np.full(tp.size, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[period - 1:] = np.where(mad == 0.0, 0.0, (tp[period - 1:] - means) / (0.015 * mad))
    return out
