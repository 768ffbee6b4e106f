import math
import re
from bisect import bisect_right
from datetime import timedelta
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from chmmtrade import (
    BacktestConfig,
    ComparisonResult,
    EquityCurve,
    FitConfig,
    OhlcSeries,
    atr,
    compare_predictors,
    perf_stats,
    run_backtest,
    stats_from_ret_vol,
    synthetic_ohlc,
)
from chmmtrade import backtest
from chmmtrade.cli import _default_sim_params
from chmmtrade.oracle import signal_side
from conftest import T0, bars_from_closes, replace_after


def fixture_closes():
    """Steep decline, gentle turn, then a rally that dwarfs the bracket."""
    closes = [1.0]
    for _ in range(14):
        closes.append(closes[-1] - 0.004)
    for _ in range(3):
        closes.append(closes[-1] + 0.002)
    for _ in range(12):
        closes.append(closes[-1] + 0.010)
    return np.array(closes)


def filler_bars(n):
    return bars_from_closes(5.0 + 0.001 * np.arange(n))


def baseline_cfg(**kw):
    return BacktestConfig(system="rsi", predictor="baseline", **kw)


def test_config_system_defaults():
    rsi_cfg = BacktestConfig(system="rsi")
    assert (rsi_cfg.atr_period, rsi_cfg.stop_mult, rsi_cfg.target_mult) == (12, 2.0, 6.0)
    cci_cfg = BacktestConfig(system="cci")
    assert (cci_cfg.atr_period, cci_cfg.stop_mult, cci_cfg.target_mult) == (24, 4.0, 10.0)


def test_config_validation():
    with pytest.raises(ValueError):
        BacktestConfig(system="macd")
    with pytest.raises(ValueError):
        BacktestConfig(stop_mult=6.0, target_mult=2.0)
    for stop, target in ((0.0, 6.0), (-1.0, 6.0), (math.nan, 6.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError, match="need 0 < stop_mult < target_mult < inf"):
            BacktestConfig(stop_mult=stop, target_mult=target)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="notional must be positive and finite"):
            BacktestConfig(notional=bad)
    with pytest.raises(ValueError):
        BacktestConfig(lookback=0)


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"),
    ("7", "seed must be an integer, got '7'"),
    (-1, "seed must be non-negative, got -1"),
])
def test_config_refuses_a_bad_seed_by_name(seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BacktestConfig(seed=seed)


@pytest.mark.parametrize("make, field, value", [
    (lambda v: FitConfig(rel_tol=v), "rel_tol", "1e-6"),
    (lambda v: FitConfig(rel_tol=v), "rel_tol", None),
    (lambda v: FitConfig(rel_tol=v), "rel_tol", True),
    (lambda v: BacktestConfig(notional=v), "notional", "1e6"),
    (lambda v: BacktestConfig(notional=v), "notional", None),
    (lambda v: BacktestConfig(notional=v), "notional", 1e6 + 0j),
    (lambda v: BacktestConfig(stop_mult=v), "stop_mult", "1e-6"),
    (lambda v: BacktestConfig(stop_mult=v), "stop_mult", True),
    (lambda v: BacktestConfig(target_mult=v), "target_mult", "1e-6"),
])
def test_a_real_field_that_is_not_a_real_number_is_refused_by_name(make, field, value):
    # A bool is a flag, not a number; ints and numpy floats are numbers.
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
        make(value)
    assert make(np.float64(3.0)) is not None and make(3) is not None


def test_a_comparison_without_rows_is_refused():
    # Its agreement rates would divide by zero.
    with pytest.raises(ValueError, match="^no comparison rows$"):
        ComparisonResult([], np.array([], dtype=int), np.array([], dtype=int), np.array([]), np.array([]))


@pytest.mark.parametrize("lengths", [(1, 3, 2, 2), (2, 2, 2, 1), (2, 2, 3, 2), (0, 2, 2, 2)])
def test_a_comparison_column_of_another_length_is_refused(lengths):
    # Columns of 1 and 3 rows against 2 stamps used to read a state agreement of 0.5.
    stamps = [T0, T0 + timedelta(minutes=10)]
    columns = [np.zeros(k, dtype=int) for k in lengths[:2]] + [np.zeros(k) for k in lengths[2:]]
    message = (
        "comparison columns must have one row per timestamp: 2 timestamps, "
        "state_marginal {}, state_viterbi {}, value_marginal {}, value_viterbi {}".format(*lengths)
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ComparisonResult(stamps, *columns)
    assert len(ComparisonResult(stamps, *[np.zeros(2)] * 4)) == 2


def test_flat_series_has_no_trades():
    bars = bars_from_closes(np.full(60, 1.0))
    res = run_backtest(baseline_cfg(), bars, filler_bars(60))
    assert res.trades == []
    assert res.stats.ret == 0.0
    assert np.isnan(res.stats.ratio)  # flat equity has no defined ratio


def test_misaligned_series_rejected():
    bars = bars_from_closes(np.full(40, 1.0))
    other = filler_bars(41)
    for run in (run_backtest, compare_predictors):
        with pytest.raises(ValueError, match="misaligned"):
            run(baseline_cfg(), bars, other)
        with pytest.raises(ValueError, match="misaligned"):
            run(baseline_cfg(), bars, filler_bars(40)[[*range(1, 40), 0]])


def test_insufficient_data_rejected():
    bars = bars_from_closes(np.full(5, 1.0))
    for run in (run_backtest, compare_predictors):
        with pytest.raises(ValueError, match="insufficient data: need more than 12 bars, got 5"):
            run(baseline_cfg(), bars, filler_bars(5))


@pytest.mark.parametrize("predictor, n_series", [("baseline", 1), ("marginal", 2)])
def test_filter_indicator_computed_only_when_modeled(monkeypatch, predictor, n_series):
    bars1, bars2 = synthetic_ohlc(_default_sim_params(2, 8, 42), 40, seed=1)
    seen = []
    original = backtest._indicator_series

    def counted(cfg, bars):
        seen.append(bars)
        return original(cfg, bars)

    monkeypatch.setattr(backtest, "_indicator_series", counted)
    run_backtest(BacktestConfig(system="cci", predictor=predictor, n_states=2), bars1, bars2)
    assert seen == [bars1, bars2][:n_series]


@pytest.mark.parametrize("system, sma_period", [("rsi", 4), ("cci", 4), ("cci", 1)], ids=["rsi", "cci", "cci-sma1"])
@pytest.mark.parametrize("predictor", ["baseline", "marginal", "viterbi"])
def test_signals_equal_oracle_signal_side_on_each_window(system, sma_period, predictor):
    # The bar loop reads crosses from trigger means and forecast means taken
    # once per run; each bar's side must be oracle.signal_side's on that
    # bar's window, given the positions open at its close.  A one-bar mean
    # leaves the forecast alone in its window.
    bars1, bars2 = synthetic_ohlc(_default_sim_params(2, 8, 42), 300, seed=2)
    cfg = BacktestConfig(system=system, predictor=predictor, n_states=2, sma_period=sma_period)
    res = run_backtest(cfg, bars1, bars2)
    ind1 = backtest._indicator_series(cfg, bars1)
    k = cfg.sma_period
    diag = res.diagnostics
    sides = []
    for i, stamp in enumerate(diag.timestamps):
        t = len(bars1) - len(diag) + i
        if predictor == "baseline":
            window = ind1[t - k: t + 1]
        else:
            window = np.append(ind1[t - k + 1: t + 1], diag.predicted_value[i])
        open_sides = {
            tr.side for tr in res.trades
            if tr.entry_time <= stamp and (tr.exit_reason == "end-of-data" or stamp < tr.exit_time)
        }
        sides.append(signal_side(system, window, k, open_sides=open_sides))
    assert sides == diag.signal_side
    assert {"long", "short"} <= set(sides)


def test_one_trade_fixture_hits_target_exactly():
    closes = fixture_closes()
    bars1 = bars_from_closes(closes)
    res = run_backtest(baseline_cfg(), bars1, filler_bars(len(closes)))
    assert len(res.trades) == 1
    trade = res.trades[0]
    assert trade.side == "long"
    assert trade.exit_reason == "target"
    # the signal fires at bar 17; entry at bar 18's open, bracket from the
    # signal-time ATR
    signal_atr = atr(bars1.high, bars1.low, bars1.close, 12)[17]
    assert trade.entry_price == pytest.approx(closes[17])
    assert abs(trade.pnl - 6.0 * signal_atr * 1_000_000.0) < 1e-9
    assert trade.exit_time > trade.entry_time


def test_trade_bracket_geometry_and_accounting(rng):
    params = _default_sim_params(4, 8, seed=2)
    bars1, bars2 = synthetic_ohlc(params, 420, seed=5, amplitude=0.004)
    cfg = BacktestConfig(system="rsi", predictor="marginal", seed=9,
                         n_states=3, n_bins=8)
    res = run_backtest(cfg, bars1, bars2)
    assert res.trades, "expected trading activity on volatile synthetic data"
    for tr in res.trades:
        if tr.side == "long":
            assert tr.stop_price < tr.entry_price < tr.target_price
        else:
            assert tr.target_price < tr.entry_price < tr.stop_price
        assert tr.exit_reason in ("stop", "target", "end-of-data")
    pnl_total = sum(tr.pnl for tr in res.trades)
    assert abs((res.equity.values[-1] - res.equity.values[0]) - pnl_total) < 1e-9 * max(
        1.0, abs(pnl_total)
    )


# Bars at 4.0 whose high and low sit 0.125 away, so every full ATR window
# reads 0.25 exactly: a long entered at 4.0 stops at 3.5 and takes its
# target at 5.5, a short at 4.5 and 2.5.  With these periods bar 3 is the
# first decision bar, so a signal there fills at bar 4's open.
BRACKET_CFG = dict(system="rsi", atr_period=2, indicator_period=2, sma_period=1)
SIGNAL_BAR = 3


def flat_bars(n=8, **columns):
    """The flat bars above; ``columns`` maps a column name to {bar: value}."""
    cols = {"open": 4.0, "high": 4.125, "low": 3.875, "close": 4.0}
    cols = {name: np.full(n, value) for name, value in cols.items()}
    for name, rows in columns.items():
        for bar, value in rows.items():
            cols[name][bar] = value
    stamps = [T0 + timedelta(minutes=10 * i) for i in range(n)]
    return OhlcSeries(stamps, cols["open"], cols["high"], cols["low"], cols["close"])


def run_with_one_signal(monkeypatch, side, bars, **cfg):
    """Backtest ``bars`` with ``side`` signalled at the first decision bar only."""
    sides = iter([side])
    monkeypatch.setattr(backtest, "crossing_side", lambda *args: next(sides, "none"))
    return run_backtest(BacktestConfig(**{"predictor": "baseline", **BRACKET_CFG, **cfg}), bars, bars)


@pytest.mark.parametrize("side, entry_bar, reason, price", [
    # A bar that reaches both levels exits at the stop.
    ("long", {"high": {SIGNAL_BAR + 1: 5.5}, "low": {SIGNAL_BAR + 1: 3.5}}, "stop", 3.5),
    ("short", {"high": {SIGNAL_BAR + 1: 4.5}, "low": {SIGNAL_BAR + 1: 2.5}}, "stop", 4.5),
    # A level the bar's extreme equals exactly fills.
    ("long", {"low": {SIGNAL_BAR + 1: 3.5}}, "stop", 3.5),
    ("long", {"high": {SIGNAL_BAR + 1: 5.5}}, "target", 5.5),
    ("short", {"high": {SIGNAL_BAR + 1: 4.5}}, "stop", 4.5),
    ("short", {"low": {SIGNAL_BAR + 1: 2.5}}, "target", 2.5),
])
def test_bracket_exit_rules(monkeypatch, side, entry_bar, reason, price):
    bars = flat_bars(**entry_bar)
    (trade,) = run_with_one_signal(monkeypatch, side, bars).trades
    assert (trade.entry_time, trade.entry_price) == (bars.timestamps[SIGNAL_BAR + 1], 4.0)
    assert (trade.exit_time, trade.exit_reason, trade.exit_price) == (bars.timestamps[SIGNAL_BAR + 1], reason, price)


def test_a_signal_on_a_zero_atr_bar_places_no_order(monkeypatch):
    still = {bar: 4.0 for bar in range(SIGNAL_BAR + 1)}  # no range up to the signal: ATR 0
    res = run_with_one_signal(monkeypatch, "long", flat_bars(high=still, low=still))
    assert res.diagnostics.signal_side[0] == "long"
    assert res.trades == []


@pytest.mark.parametrize("fraction, trades", [(0.0, 0), (0.5, 1)])
def test_a_zero_allocation_fraction_opens_no_trade(monkeypatch, fraction, trades):
    readout = backtest._readout

    def fraction_stub(*args):  # the stacked readout, with every allocation fraction set to ``fraction``
        return {p: (states, values, np.full_like(fractions, fraction))
                for p, (states, values, fractions) in readout(*args).items()}

    monkeypatch.setattr(backtest, "_readout", fraction_stub)
    res = run_with_one_signal(
        monkeypatch, "long", flat_bars(), predictor="marginal", dynamic_allocation=True, lookback=2, n_states=2
    )
    assert [tr.size for tr in res.trades] == [500_000.0] * trades


def test_backtest_is_bit_reproducible():
    params = _default_sim_params(4, 8, seed=2)
    bars1, bars2 = synthetic_ohlc(params, 300, seed=5)
    cfg = BacktestConfig(system="rsi", predictor="viterbi", seed=4, n_states=3)
    a = run_backtest(cfg, bars1, bars2)
    b = run_backtest(cfg, bars1, bars2)
    assert_array_equal(a.equity.values, b.equity.values)
    assert len(a.trades) == len(b.trades)
    for ta, tb in zip(a.trades, b.trades):
        assert (ta.entry_time, ta.entry_price, ta.pnl) == (tb.entry_time, tb.entry_price, tb.pnl)
    assert_array_equal(a.diagnostics.predicted_state, b.diagnostics.predicted_state)


MODEL_COLUMNS = ("predicted_value", "predicted_state", "transition_prob", "predicted_value2", "predicted_state2")


@pytest.mark.parametrize("system", ["rsi", "cci"])
@pytest.mark.parametrize("warm_start", [True, False])
def test_the_model_pass_is_the_same_in_blocks_of_any_size(monkeypatch, system, warm_start):
    # Blocks only reorder calls: the fits stay in window order, then each
    # block's decodes and readout follow, so no block size moves a bit.
    bars1, bars2 = synthetic_ohlc(_default_sim_params(4, 8, seed=2), 170, seed=5)
    cfg = BacktestConfig(system=system, seed=4, fit=FitConfig(warm_start=warm_start))
    ind1, ind2, _, t0 = backtest._decision_inputs(cfg, bars1, bars2, modeled=True)
    stamps = bars1.timestamps[t0:]
    assert len(stamps) > 2 * 64 and len(stamps) % 64

    def model_pass(windows_per_block):
        monkeypatch.setattr(backtest, "_PHASE_WINDOWS", windows_per_block)
        records, readouts = backtest._model_pass(cfg, stamps, ind1, ind2, t0, ("marginal", "viterbi"))
        return (
            [(r.window_end, r.sweeps_run, [v.hex() for v in r.trace]) for r in records],
            {p: [getattr(cols, name).tobytes() for name in MODEL_COLUMNS] for p, cols in readouts.items()},
        )

    window_by_window = model_pass(1)
    for windows_per_block in (2, 63, 64, 65, len(stamps) + 1):
        assert model_pass(windows_per_block) == window_by_window


def scramble_after(bars, cutoff_index, seed=99):
    """Replace everything after the cutoff with an unrelated random walk."""
    rng = np.random.default_rng(seed)
    closes = [bars.close[cutoff_index]]
    for _ in range(len(bars) - cutoff_index - 1):
        closes.append(closes[-1] * (1.0 + rng.normal(scale=0.01)))
    return replace_after(bars, cutoff_index, bars_from_closes(np.array(closes))[1:])


@pytest.mark.parametrize("predictor", ["baseline", "marginal"])
def test_no_look_ahead_under_future_scramble(predictor):
    params = _default_sim_params(3, 8, seed=6)
    bars1, bars2 = synthetic_ohlc(params, 260, seed=6, amplitude=0.004)
    cfg = BacktestConfig(system="rsi", predictor=predictor, seed=1, n_states=3)
    full = run_backtest(cfg, bars1, bars2)
    cutoff = 180
    scrambled1 = scramble_after(bars1, cutoff)
    scrambled2 = scramble_after(bars2, cutoff, seed=123)
    part = run_backtest(cfg, scrambled1, scrambled2)

    cut_ts = bars1.timestamps[cutoff]
    a, b = full.diagnostics, part.diagnostics
    k = bisect_right(a.timestamps, cut_ts)
    assert a.timestamps[:k] == b.timestamps[:k]
    assert a.signal_side[:k] == b.signal_side[:k]
    for name in ("predicted_state", "predicted_value"):
        if predictor == "baseline":
            assert getattr(a, name) is getattr(b, name) is None
        else:
            assert_array_equal(getattr(a, name)[:k], getattr(b, name)[:k])
    full_entries = [(t.entry_time, t.side, t.entry_price, t.size) for t in full.trades if t.entry_time <= cut_ts]
    part_entries = [(t.entry_time, t.side, t.entry_price, t.size) for t in part.trades if t.entry_time <= cut_ts]
    assert full_entries == part_entries


@lru_cache(maxsize=None)
def _market(n_bars: int):
    return synthetic_ohlc(_default_sim_params(2, 8, 42), n_bars, seed=3, amplitude=0.004)


def _decisions_up_to(result, cut_ts):
    """Everything a run has decided by ``cut_ts``: its diagnostics columns,
    its equity marks and the trades it entered."""
    d = result.diagnostics
    k = bisect_right(d.timestamps, cut_ts)
    diagnostics = [d.timestamps[:k], d.signal_side[:k]] + [
        None if col is None else list(map(repr, col[:k].tolist()))
        for col in (d.predicted_state, d.predicted_state2, d.predicted_value, d.predicted_value2, d.transition_prob)
    ]
    equity = [(ts, v) for ts, v in zip(result.equity.timestamps, result.equity.values.tolist()) if ts <= cut_ts]
    entries = [
        (t.entry_time, t.side, t.entry_price, t.size, t.stop_price, t.target_price)
        for t in result.trades if t.entry_time <= cut_ts
    ]
    return diagnostics, equity, entries


def perturb_after(bars, cutoff_index, seed, scale):
    """Replace every bar after the cutoff with a seeded random walk of
    per-bar scale ``scale`` and random wicks, on the original timestamps."""
    rng = np.random.default_rng(seed)
    n = len(bars) - cutoff_index - 1
    path = bars.close[cutoff_index] * np.exp(np.cumsum(rng.normal(scale=scale, size=n + 1)))
    opens, closes = path[:-1], path[1:]
    wicks = np.abs(rng.normal(scale=scale, size=(2, n)))
    tail = OhlcSeries(
        bars.timestamps[cutoff_index + 1:], opens,
        np.maximum(opens, closes) * (1.0 + wicks[0]), np.minimum(opens, closes) * (1.0 - wicks[1]), closes,
    )
    return replace_after(bars, cutoff_index, tail)


def _check_no_look_ahead(cfg, n_bars, cutoff, seed, scale):
    bars1, bars2 = _market(n_bars)
    full = run_backtest(cfg, bars1, bars2)
    part = run_backtest(cfg, perturb_after(bars1, cutoff, seed, scale), perturb_after(bars2, cutoff, seed + 1, scale))
    cut_ts = bars1.timestamps[cutoff]
    assert _decisions_up_to(full, cut_ts) == _decisions_up_to(part, cut_ts)
    # A trade entered at the next open was sized and bracketed at the cutoff
    # close; only its entry price may move, and its bracket moves with it.
    if cutoff + 1 < n_bars:
        next_ts = bars1.timestamps[cutoff + 1]
        entered = [[t for t in r.trades if t.entry_time == next_ts] for r in (full, part)]
        sides = [[(t.side, t.size) for t in e] for e in entered]
        assert sides[0] == sides[1]
        for a, b in zip(*entered):
            for level in ("stop_price", "target_price"):
                gap_a, gap_b = getattr(a, level) - a.entry_price, getattr(b, level) - b.entry_price
                assert gap_a == pytest.approx(gap_b, rel=1e-9)


PERTURBATION = dict(seed=st.integers(0, 2**32 - 2), scale=st.sampled_from([0.001, 0.01, 0.1]))


@pytest.mark.parametrize("system", ["rsi", "cci"])
@given(cutoff=st.integers(0, 198), **PERTURBATION)
def test_baseline_has_no_look_ahead(system, cutoff, seed, scale):
    _check_no_look_ahead(BacktestConfig(system=system, predictor="baseline"), 200, cutoff, seed, scale)


@settings(max_examples=12)
@given(cutoff=st.integers(0, 38), **PERTURBATION)
def test_marginal_has_no_look_ahead(cutoff, seed, scale):
    cfg = BacktestConfig(system="rsi", predictor="marginal", n_states=2, seed=1)
    _check_no_look_ahead(cfg, 40, cutoff, seed, scale)


def test_dynamic_allocation_scales_size():
    params = _default_sim_params(4, 8, seed=2)
    bars1, bars2 = synthetic_ohlc(params, 420, seed=5, amplitude=0.004)
    base = BacktestConfig(system="rsi", predictor="marginal", seed=9, n_states=3)
    dyn = BacktestConfig(system="rsi", predictor="marginal", seed=9, n_states=3,
                         dynamic_allocation=True)
    full = run_backtest(base, bars1, bars2)
    sized = run_backtest(dyn, bars1, bars2)
    assert full.trades and sized.trades
    assert all(tr.size == 1_000_000.0 for tr in full.trades)
    assert all(0.0 < tr.size < 1_000_000.0 for tr in sized.trades)


def test_cci_system_runs_end_to_end():
    params = _default_sim_params(3, 8, seed=8)
    bars1, bars2 = synthetic_ohlc(params, 300, seed=8, amplitude=0.005)
    cfg = BacktestConfig(system="cci", predictor="marginal", seed=2, n_states=3)
    res = run_backtest(cfg, bars1, bars2)
    assert len(res.diagnostics) > 0
    assert np.isfinite(res.equity.values).all()


@pytest.mark.parametrize("system", ["rsi", "cci"])
def test_compare_rows_equal_backtest_diagnostics(system):
    params = _default_sim_params(3, 8, seed=5)
    bars1, bars2 = synthetic_ohlc(params, 200, seed=5, amplitude=0.005)
    cfg = BacktestConfig(system=system, n_states=3, seed=4)
    cmp = compare_predictors(cfg, bars1, bars2)
    m, v = (
        run_backtest(BacktestConfig(system=system, n_states=3, seed=4, predictor=p), bars1, bars2).diagnostics
        for p in ("marginal", "viterbi")
    )
    assert len(cmp) == len(m) == len(v) > 100
    assert cmp.timestamps == m.timestamps == v.timestamps
    assert_array_equal(cmp.state_marginal, m.predicted_state)
    assert_array_equal(cmp.value_marginal, m.predicted_value)
    assert_array_equal(cmp.state_viterbi, v.predicted_state)
    assert_array_equal(cmp.value_viterbi, v.predicted_value)


def test_compare_refuses_initial_params_without_warm_start():
    params = _default_sim_params(3, 8, seed=5)
    bars1, bars2 = synthetic_ohlc(params, 60, seed=5, amplitude=0.005)
    cold = BacktestConfig(n_states=3, seed=4, fit=FitConfig(warm_start=False))
    with pytest.raises(ValueError, match="^initial parameters start only warm-started fits, but the config sets "
                                         "warm_start = false$"):
        compare_predictors(cold, bars1, bars2, initial_params=params)
    assert len(compare_predictors(cold, bars1, bars2)) > 0


def test_stats_from_ret_vol_paper_rows():
    stats = stats_from_ret_vol(5.51, 6.88, baseline_ratio=-4.55 / 5.18)
    assert stats.ratio == pytest.approx(0.801, abs=1e-3)
    assert stats.delta_ratio == pytest.approx(1.679, abs=1e-3)
    standard = stats_from_ret_vol(-4.55, 5.18)
    assert standard.ratio == pytest.approx(-0.878, abs=1e-3)
    cci_dyn = stats_from_ret_vol(0.37, 0.81)
    assert cci_dyn.ratio == pytest.approx(0.457, abs=1e-3)


def test_stats_zero_volatility_gives_nan_ratio():
    # A flat equity curve has no defined ratio: NaN, and a NaN delta
    # when a baseline is given, by the same rule run_backtest reports.
    stats = stats_from_ret_vol(1.0, 0.0)
    assert (stats.ret, stats.vol, stats.delta_ratio) == (1.0, 0.0, None)
    assert np.isnan(stats.ratio)
    flat = EquityCurve(timestamps=[], values=np.full(10, 100.0))
    stats = perf_stats(flat, 0.0)
    assert (stats.ret, stats.vol) == (0.0, 0.0)
    assert np.isnan(stats.ratio) and np.isnan(stats.delta_ratio)


def test_perf_stats_identity_and_horizon_scaling():
    values = np.array([100.0, 101.0, 100.5, 102.0, 103.0])
    curve = EquityCurve(timestamps=[], values=values)
    stats = perf_stats(curve, baseline_ratio=0.0)
    assert stats.ret == pytest.approx((values[-1] / values[0] - 1.0) * 100.0)
    rets = np.diff(values) / values[:-1]
    assert stats.vol == pytest.approx(rets.std() * np.sqrt(rets.size) * 100.0)
    assert stats.ratio * stats.vol == pytest.approx(stats.ret, abs=1e-9)
    # One point is a flat curve, as a backtest of a single decision bar
    # reports it; no point at all has no return to speak of.
    flat = perf_stats(EquityCurve(timestamps=[], values=np.array([1.0])), 0.0)
    assert (flat.ret, flat.vol) == (0.0, 0.0)
    assert np.isnan(flat.ratio) and np.isnan(flat.delta_ratio)
    with pytest.raises(ValueError, match="empty equity curve"):
        perf_stats(EquityCurve(timestamps=[], values=np.array([])), 0.0)
