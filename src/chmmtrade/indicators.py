"""Technical indicators and the bin discretizer feeding the model.

All series functions return arrays aligned to the input bars, padded
with NaN over the warmup stretch where the window is not yet full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "OhlcBar",
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


@dataclass(frozen=True)
class OhlcBar:
    """One price bar; the body must sit inside the high/low range."""

    timestamp: datetime
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self):
        body_hi = max(self.open, self.close)
        body_lo = min(self.open, self.close)
        if not (self.low <= body_lo <= body_hi <= self.high):
            raise ValueError(
                f"OHLC invariant violated at {self.timestamp}: "
                f"o={self.open} h={self.high} l={self.low} c={self.close}"
            )


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


def discretize(d: Discretizer, x: float) -> int:
    """Bin index of x, clamped to [0, m - 1]; x == ub maps to the top bin."""
    if not math.isfinite(x):
        raise ValueError(f"cannot discretize non-finite value {x!r}")
    idx = int(math.floor((x - d.lb) / d.width))
    return min(max(idx, 0), d.m - 1)


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


def true_range(bars) -> np.ndarray:
    """Per-bar true range; NaN at the first bar (no previous close)."""
    highs = np.array([b.high for b in bars], dtype=float)
    lows = np.array([b.low for b in bars], dtype=float)
    closes = np.array([b.close for b in bars], dtype=float)
    out = np.full(len(bars), np.nan)
    if len(bars) > 1:
        prev = closes[:-1]
        out[1:] = np.maximum.reduce(
            [highs[1:] - lows[1:], np.abs(highs[1:] - prev), np.abs(lows[1:] - prev)]
        )
    return out


def atr(bars, period: int) -> np.ndarray:
    """Average True Range: simple mean of the trailing true ranges."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(bars) <= period:
        raise ValueError(f"need more than {period} bars, got {len(bars)}")
    tr = true_range(bars)
    out = np.full(len(bars), np.nan)
    out[period:] = _window_means(tr[1:], period)[period - 1:]
    return out


def cci(bars, period: int) -> np.ndarray:
    """Commodity Channel Index of the typical price.

    CCI = (TP - SMA(TP)) / (0.015 * mean |TP - SMA(TP)|) over the trailing
    window; a zero-deviation window reads 0.  The mean absolute deviation
    of every window is taken at once from a strided view of the typical
    prices, each window's sum in the same order as a per-window loop.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if len(bars) <= period:
        raise ValueError(f"need more than {period} bars, got {len(bars)}")
    tp = np.array([(b.high + b.low + b.close) / 3.0 for b in bars], dtype=float)
    means = _window_means(tp, period)[period - 1:]
    dev = sliding_window_view(tp, period) - means[:, None]  # (windows, period)
    mad = np.abs(dev, out=dev).mean(axis=1)
    out = np.full(len(bars), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[period - 1:] = np.where(mad == 0.0, 0.0, (tp[period - 1:] - means) / (0.015 * mad))
    return out
