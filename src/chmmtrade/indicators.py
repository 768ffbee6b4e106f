"""OHLC series, technical indicators and the bin discretizer feeding the model.

Indicators take price columns (for example ``OhlcSeries.close``) and
return arrays aligned to the input bars, padded with NaN over the
warmup stretch where the window is not yet full.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import _size

__all__ = [
    "Stamps",
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


# The date-time part every canonical stamp starts with: "0" marks a digit.
_LAYOUT = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_LAYOUT_DIGITS = _LAYOUT == ord("0")


def _canonical(texts: list[str]) -> bool:
    """Whether each of ``texts`` (at least one), all of which a loader has
    read as stamps, is exactly what ``isoformat`` writes for the stamp read.

    The texts must be ASCII and start with the fixed layout
    ``YYYY-MM-DDTHH:MM:SS``, checked over the bytes of all texts of one
    length at once (``fromisoformat`` has checked the ranges; an hour of
    24 is refused too, in case an interpreter reads one).  What follows
    the layout (the offset, with any fraction before it) is checked once
    per distinct suffix, by a round trip: ``fromisoformat`` reads ``Z``,
    ``+00:60``, ``-00:00``, compact offsets and short fractions, and
    writes each of them otherwise.  A naive stamp is not canonical, since
    it is read as UTC.
    """
    width = len(texts[0])
    joined = "".join(texts)
    if len(joined) != width * len(texts):  # texts of several lengths: check each length apart
        widths = set(map(len, texts))
        return all(_canonical([text for text in texts if len(text) == w]) for w in widths)
    if width < _LAYOUT.size or not joined.isascii():
        return False
    rows = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(len(texts), width)
    head = rows[:, : _LAYOUT.size]
    if not (
        ((head[:, _LAYOUT_DIGITS] - ord("0")) <= 9).all()  # uint8: bytes below "0" wrap past 9
        and (head[:, ~_LAYOUT_DIGITS] == _LAYOUT[~_LAYOUT_DIGITS]).all()
        and ((head[:, 11] - ord("0")) * 10 + (head[:, 12] - ord("0")) < 24).all()
    ):
        return False
    tails = rows[:, _LAYOUT.size:]
    if (tails == tails[0]).all():
        suffixes = [texts[0][_LAYOUT.size:]]
    else:
        suffixes = [row.tobytes().decode("ascii") for row in np.unique(tails, axis=0)]
    for suffix in suffixes:
        text = "2000-01-01T00:00:00" + suffix
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            return False
        if ts.tzinfo is None or ts.isoformat() != text:
            return False
    return True


def _pick(items: Sequence, rows) -> Sequence:
    """The ``items`` at ``rows``: a slice, or row numbers (a tuple of them)."""
    return items[rows] if isinstance(rows, slice) else tuple(map(items.__getitem__, rows))


class Stamps(Sequence):
    """A read-only column of aware timestamps that also holds each one's
    ISO-8601 text, for the writers.

    It stands in for ``list[datetime]``: it compares equal to a list of
    the same stamps (either way round), and indexing, slicing, iteration,
    ``len`` and ``bisect`` act as on a list; it is unhashable and has no
    mutators.  A slice, or ``take`` of row numbers, is a new ``Stamps``.
    A column read from text (``_read``, on either route of
    ``data_io.load_ohlc_csv``) keeps it when ``_canonical`` shows that
    ``isoformat`` writes it so; else ``isoformat()`` formats the text
    once, on first use.  A part carries the text its column holds when
    the part is taken; otherwise it formats its own.
    """

    __slots__ = ("_items", "_texts")
    __hash__ = None

    def __init__(self, stamps):
        self._items = list(stamps)
        self._texts: tuple[str, ...] | None = None

    @classmethod
    def _read(cls, stamps: list, texts: list[str]) -> "Stamps":
        """A column of ``stamps`` (at least one) read from ``texts``, which it
        keeps when ``_canonical`` shows that ``isoformat`` writes them so."""
        column = cls(stamps)
        column._texts = tuple(texts) if _canonical(texts) else None
        return column

    def _part(self, rows) -> "Stamps":
        """The stamps at ``rows`` (a slice or row numbers), with their text if this column holds it."""
        part = Stamps(_pick(self._items, rows))
        if self._texts is not None:
            part._texts = _pick(self._texts, rows)
        return part

    def take(self, rows) -> "Stamps":
        """The stamps at the given row numbers, in that order."""
        return self._part(list(rows))

    def isoformat(self) -> tuple[str, ...]:
        """The ISO-8601 text of every stamp, as ``datetime.isoformat`` writes it."""
        if self._texts is None:
            self._texts = tuple(ts.isoformat() for ts in self._items)
        return self._texts

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, key):
        return self._part(key) if isinstance(key, slice) else self._items[key]

    def __eq__(self, other):
        if isinstance(other, Stamps):
            return self._items == other._items
        if isinstance(other, list):
            return self._items == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Stamps({self._items!r})"


class OhlcSeries:
    """Price bars as columns: a ``Stamps`` column of timestamps and four
    read-only float64 arrays of the same length.  Every row must be finite
    with its open/close body inside the high/low range.  Slicing (or
    indexing with an integer array) returns a new series; rows are never
    objects.  Series built from one ``Stamps`` object share it.
    """

    __slots__ = ("timestamps", "open", "high", "low", "close")

    def __init__(self, timestamps, open, high, low, close):
        stamps = timestamps if isinstance(timestamps, Stamps) else Stamps(timestamps)
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
            stamps = self.timestamps.take(key.tolist())
        return OhlcSeries(stamps, self.open[key], self.high[key], self.low[key], self.close[key])


@dataclass(frozen=True)
class Discretizer:
    """M equal-width bins covering [lb, ub]."""

    lb: float
    ub: float
    m: int

    def __post_init__(self):
        if _size("m", self.m) < 1:
            raise ValueError("need at least one bin")
        if not 0.0 < self.width < math.inf:  # also refuses lb >= ub and NaN bounds
            raise ValueError(f"need lb < ub with a finite, positive bin width, got [{self.lb}, {self.ub}]")

    @property
    def width(self) -> float:
        # On Python floats, numpy float bounds whose difference overflows give inf without a warning.
        return (float(self.ub) - float(self.lb)) / self.m


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


def _check_period(period) -> None:
    """Refuse a window length that is not an integer >= 1, naming ``period``."""
    if _size("period", period) < 1:
        raise ValueError("period must be >= 1")


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
    _check_period(period)
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
    _check_period(period)
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
    _check_period(period)
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
    _check_period(period)
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
