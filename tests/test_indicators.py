import math
import re
from bisect import bisect_left, bisect_right
from datetime import timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from chmmtrade import (
    CCI_DISCRETIZER,
    RSI_DISCRETIZER,
    Discretizer,
    OhlcSeries,
    Stamps,
    atr,
    bin_value,
    cci,
    discretize,
    rsi,
    sma,
    true_range,
)
from chmmtrade.oracle import cci_loop
from conftest import T0, bars_from_closes


def test_rsi_rising_closes_read_100():
    assert rsi([1, 2, 3, 4, 5, 6], 4)[-1] == 100.0


def test_rsi_falling_closes_read_0():
    assert rsi([6, 5, 4, 3, 2, 1], 4)[-1] == 0.0


def test_rsi_flat_closes_read_50():
    assert rsi([2, 2, 2, 2, 2], 4)[-1] == 50.0


def test_rsi_alternating_hand_value():
    # gains sum 2 and losses sum 2 over the window, so RSI = 50
    assert rsi([1, 2, 1, 2, 1], 4)[-1] == pytest.approx(50.0)


def test_rsi_warmup_is_nan_and_range_bounded(rng):
    closes = rng.uniform(1.0, 2.0, size=60)
    out = rsi(closes, 4)
    assert np.isnan(out[:4]).all()
    valid = out[4:]
    assert ((valid >= 0.0) & (valid <= 100.0)).all()


def test_rsi_insufficient_data():
    with pytest.raises(ValueError):
        rsi([1, 2, 3, 4], 4)


def test_sma_constant_and_pair():
    assert sma([3.0, 3.0, 3.0], 3)[-1] == 3.0
    assert sma([0.0, 100.0], 2)[-1] == 50.0
    assert_allclose(sma([1.0, 2.0, 3.0], 1), [1.0, 2.0, 3.0])


def test_sma_bounded_by_window_extremes(rng):
    series = rng.normal(size=50)
    out = sma(series, 5)
    for t in range(4, 50):
        window = series[t - 4: t + 1]
        assert window.min() <= out[t] <= window.max()


def test_cci_constant_bars_guard():
    bars = bars_from_closes(np.full(8, 5.0))
    assert cci(bars.high, bars.low, bars.close, 4)[-1] == 0.0


def test_cci_hand_value():
    # typical prices [1, 1, 1, 2]: SMA 1.25, MAD 0.375 -> CCI 133.33...
    v = [1.0, 1.0, 1.0, 2.0, 2.0]
    bars = OhlcSeries(bars_from_closes(np.ones(5)).timestamps, v, v, v, v)
    assert cci(bars.high, bars.low, bars.close, 4)[3] == pytest.approx(0.75 / (0.015 * 0.375))


def test_cci_odd_symmetry(rng):
    closes = 10.0 + np.cumsum(rng.normal(scale=0.1, size=30))
    up = bars_from_closes(closes)
    down = bars_from_closes(20.0 - closes)  # mirrored prices
    a = cci(up.high, up.low, up.close, 4)
    b = cci(down.high, down.low, down.close, 4)
    assert_allclose(a[4:], -b[4:], atol=1e-9)


@st.composite
def ohlc_bars_with_period(draw):
    """OHLC bars on a coarse price grid with a flat stretch, where every
    window inside it has zero deviation, and a CCI period short, past the
    8-element unrolled sum or past numpy's 128-element pairwise block."""
    period = draw(st.one_of(st.integers(1, 8), st.integers(9, 128), st.integers(129, 140)))
    n = draw(st.integers(period + 1, period + 40))
    steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    closes = 100.0 + 0.25 * np.cumsum(steps)
    flat_from = draw(st.integers(0, n - 1))
    flat_len = draw(st.integers(0, n - flat_from))
    closes[flat_from: flat_from + flat_len] = closes[flat_from]
    wicks = draw(st.lists(st.sampled_from([0.0, 0.0, 0.125, 0.5]), min_size=2 * n, max_size=2 * n))
    wicks[2 * flat_from: 2 * (flat_from + flat_len)] = [0.0] * (2 * flat_len)
    b = bars_from_closes(closes)
    bars = OhlcSeries(b.timestamps, b.open, b.high + wicks[0::2], b.low - np.array(wicks[1::2]), b.close)
    return bars, period


@given(case=ohlc_bars_with_period())
def test_cci_equals_per_window_loop(case):
    bars, period = case
    columns = (bars.high, bars.low, bars.close)
    assert_array_equal(cci(*columns, period), cci_loop(*columns, period))


def test_true_range_gap_bar():
    v = [10.0, 11.0]
    bars = OhlcSeries([T0, T0.replace(minute=10)], v, v, v, v)
    assert true_range(bars.high, bars.low, bars.close)[1] == pytest.approx(1.0)


def test_atr_constant_range():
    # every bar moves by the same amount, so ATR equals that move
    bars = bars_from_closes(np.cumsum(np.full(8, 0.5)) + 10.0)
    assert atr(bars.high, bars.low, bars.close, 4)[-1] == pytest.approx(0.5)


def test_atr_hand_mean():
    closes = np.array([10.0, 11.0, 13.0, 16.0, 20.0])  # true ranges 1, 2, 3, 4
    bars = OhlcSeries(bars_from_closes(closes).timestamps, closes, closes, closes, closes)
    out = atr(bars.high, bars.low, bars.close, 4)
    assert out[-1] == pytest.approx(2.5)
    assert np.isnan(out[3])


def test_atr_nonnegative(rng):
    closes = 10.0 + np.cumsum(rng.normal(scale=0.3, size=40))
    bars = bars_from_closes(closes)
    out = atr(bars.high, bars.low, bars.close, 12)
    assert (out[12:] >= 0.0).all()


_CLOSES = np.linspace(1.0, 2.0, 12)
PERIOD_CALLS = {
    "sma": lambda period: sma(_CLOSES, period),
    "rsi": lambda period: rsi(_CLOSES, period),
    "atr": lambda period: atr(_CLOSES + 0.1, _CLOSES - 0.1, _CLOSES, period),
    "cci": lambda period: cci(_CLOSES + 0.1, _CLOSES - 0.1, _CLOSES, period),
}


@pytest.mark.parametrize("name", sorted(PERIOD_CALLS))
def test_indicators_refuse_a_bad_period_by_name(name):
    call = PERIOD_CALLS[name]
    for period in (2.5, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match=re.escape(f"period must be an integer, got {period!r}")):
            call(period)
    for period in (0, -1):
        with pytest.raises(ValueError, match="^period must be >= 1$"):
            call(period)
    assert_array_equal(call(np.int64(3)), call(3))


def test_discretize_footnote_intervals():
    d = Discretizer(0.0, 100.0, 4)
    assert discretize(d, 30.0) == 1
    assert discretize(d, 0.0) == 0
    assert discretize(d, 100.0) == 3  # upper bound maps into the top bin
    assert discretize(d, 250.0) == 3  # clamped
    assert discretize(d, -5.0) == 0


def test_discretize_cci_bounds():
    assert discretize(CCI_DISCRETIZER, 0.0) == 4


def test_discretize_monotone(rng):
    d = RSI_DISCRETIZER
    xs = np.sort(rng.uniform(-10.0, 110.0, size=200))
    bins = [discretize(d, x) for x in xs]
    assert all(b <= c for b, c in zip(bins, bins[1:]))


@pytest.mark.parametrize("lb, ub", [
    (-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308),  # an infinite width
    (0.0, 5e-324), (1.0, 1.0), (1.0, 0.0), (math.nan, 1.0),  # none at all
])
def test_discretizer_refuses_bounds_without_a_usable_width(lb, ub):
    with pytest.raises(ValueError, match=re.escape(f"finite, positive bin width, got [{lb}, {ub}]")):
        Discretizer(lb, ub, 8)


def test_discretizer_refuses_numpy_bounds_whose_width_overflows():
    # The width is taken on Python floats: numpy bounds overflow to an
    # infinite width without a RuntimeWarning (an error here), so the
    # caller gets the ValueError naming the bounds.
    with pytest.raises(ValueError, match=re.escape("finite, positive bin width, got [-1e+308, 1e+308]")):
        Discretizer(np.float64(-1e308), np.float64(1e308), 8)


def test_bin_value_midpoints():
    d = Discretizer(0.0, 100.0, 8)
    assert bin_value(d, 0) == pytest.approx(6.25)
    assert bin_value(d, 7) == pytest.approx(93.75)
    assert bin_value(CCI_DISCRETIZER, 4) == pytest.approx(17.5)
    with pytest.raises(IndexError):
        bin_value(d, 8)


def test_discretize_of_bin_value_is_identity():
    for d in (RSI_DISCRETIZER, CCI_DISCRETIZER, Discretizer(-3.0, 7.0, 5)):
        for k in range(d.m):
            assert discretize(d, bin_value(d, k)) == k


def scalar_bin(d, x):
    """The per-value rule: floor((x - lb) / width), clamped to [0, m - 1]."""
    return min(max(int(math.floor((x - d.lb) / d.width)), 0), d.m - 1)


@st.composite
def discretizer_and_values(draw):
    d = draw(st.one_of(
        st.sampled_from([RSI_DISCRETIZER, CCI_DISCRETIZER]),
        st.builds(lambda lb, span, m: Discretizer(lb, lb + span, m),
                  st.floats(-1e3, 1e3), st.floats(1e-3, 1e4), st.integers(1, 16)),
    ))
    span = d.ub - d.lb
    value = st.one_of(
        st.sampled_from([d.lb, d.ub] + [d.lb + k * d.width for k in range(1, d.m)]),
        st.floats(d.lb - span, d.ub + span),
        st.floats(-1e300, 1e300),
    )
    return d, draw(st.lists(value, min_size=1, max_size=40))


@given(discretizer_and_values())
def test_discretize_array_equals_the_scalar_rule(case):
    d, xs = case
    expected = [scalar_bin(d, x) for x in xs]
    bins = discretize(d, np.array(xs))
    assert bins.dtype == np.int64 and bins.shape == (len(xs),)
    assert bins.tolist() == expected
    singles = [discretize(d, x) for x in xs]
    assert all(type(k) is int for k in singles) and singles == expected


@pytest.mark.parametrize("bad, later", [(np.nan, np.inf), (np.inf, np.nan), (-np.inf, np.nan)])
def test_discretize_rejects_non_finite_naming_the_first(bad, later):
    pattern = re.escape(f"non-finite value {float(bad)!r}") + "$"
    with pytest.raises(ValueError, match=pattern):
        discretize(RSI_DISCRETIZER, np.array([50.0, bad, 12.0, later]))
    with pytest.raises(ValueError, match=pattern):
        discretize(RSI_DISCRETIZER, np.float64(bad))


def test_ohlc_bar_invariant():
    with pytest.raises(ValueError):
        OhlcSeries([T0], open=[1.0], high=[0.9], low=[0.8], close=[1.0])
    with pytest.raises(ValueError):
        OhlcSeries([T0], open=[1.0], high=[1.2], low=[1.05], close=[1.1])


def test_ohlc_series_rejects_non_finite_rows_and_ragged_columns():
    stamps = [T0, T0.replace(minute=10)]
    with pytest.raises(ValueError, match="non-finite OHLC value"):
        OhlcSeries(stamps, [1.0, np.inf], [1.0, np.inf], [1.0, np.inf], [1.0, np.inf])
    with pytest.raises(ValueError, match="non-finite OHLC value"):
        OhlcSeries(stamps, [1.0, np.nan], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="one per timestamp"):
        OhlcSeries(stamps, [1.0], [1.0], [1.0], [1.0])


def test_ohlc_series_columns_are_read_only_and_slices_are_series():
    bars = bars_from_closes(np.array([1.0, 1.2, 0.9, 1.1]))
    with pytest.raises(ValueError):
        bars.close[0] = 2.0
    tail = bars[1:]
    assert len(tail) == 3 and tail.timestamps == bars.timestamps[1:]
    picked = bars[[3, 0]]
    assert picked.timestamps == [bars.timestamps[3], bars.timestamps[0]]
    assert_array_equal(picked.close, [1.1, 1.0])
    with pytest.raises(TypeError):
        bars[0]


# -- the Stamps column stands in for a list of datetimes ----------------------

def test_stamps_compare_slice_index_and_bisect_as_the_list():
    stamps = list(bars_from_closes(np.ones(6)).timestamps)
    column = Stamps(stamps)
    assert column == stamps and stamps == column and column == Stamps(stamps)
    assert not (column != stamps) and not (stamps != column)
    assert column != stamps[1:] and stamps[1:] != column and column != tuple(stamps)
    assert column[1:4] == stamps[1:4] and stamps[::2] == column[::2] and isinstance(column[1:4], Stamps)
    assert column[-1] is stamps[-1] and column[2] is stamps[2]
    assert column.take([4, 0, 4]) == [stamps[4], stamps[0], stamps[4]]
    assert list(column) == stamps and len(column) == 6 and list(reversed(column)) == stamps[::-1]
    assert stamps[3] in column and column.index(stamps[3]) == 3
    for probe in (stamps[0] - timedelta(minutes=1), stamps[2], stamps[2] + timedelta(minutes=1), stamps[-1]):
        assert bisect_left(column, probe) == bisect_left(stamps, probe)
        assert bisect_right(column[1:], probe) == bisect_right(stamps[1:], probe)
    with pytest.raises(IndexError):
        column[6]
    with pytest.raises(TypeError):
        column[1.0]


def test_stamps_refuse_every_mutator():
    column = Stamps(bars_from_closes(np.ones(3)).timestamps)
    with pytest.raises(TypeError):
        hash(column)
    with pytest.raises(TypeError):
        column[0] = T0
    with pytest.raises(TypeError):
        column[0:1] = [T0]
    with pytest.raises(TypeError):
        del column[0]
    with pytest.raises(TypeError):
        column += [T0]
    with pytest.raises(TypeError):
        column *= 2
    for name in ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"):
        assert not hasattr(column, name), name
    with pytest.raises(AttributeError):
        column.extra = 1


def test_parts_of_a_column_carry_its_text():
    stamps = [T0.astimezone(timezone(timedelta(hours=h))) + timedelta(minutes=m) for h, m in ((0, 0), (1, 10), (-5, 20))]
    column = Stamps(stamps)
    part, picked = column[1:], column.take([2, 0])
    assert picked.isoformat() == tuple(ts.isoformat() for ts in (stamps[2], stamps[0]))
    assert column.isoformat() == tuple(ts.isoformat() for ts in stamps)
    assert part.isoformat() == column.isoformat()[1:]
    assert column[1:][1:].isoformat() == (stamps[2].isoformat(),)
    assert Stamps([]).isoformat() == ()
