import logging
from datetime import datetime, timezone

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from chmmtrade import BacktestConfig, EquityCurve, ObservationSequence, PerfStats, TradeRecord
from chmmtrade.backtest import ComparisonRow, DiagnosticRow, FitRecord
from chmmtrade import data_io
from conftest import T0, bars_from_closes


OHLC_TEXT = """timestamp,open,high,low,close
2013-01-01T00:00:00+00:00,1.0,1.2,0.9,1.1
2013-01-01T00:10:00+00:00,1.1,1.3,1.0,1.2
2013-01-01T00:20:00+00:00,1.2,1.4,1.1,1.3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_ohlc_happy_path(tmp_path):
    bars = data_io.load_ohlc_csv(write(tmp_path, "a.csv", OHLC_TEXT))
    assert len(bars) == 3
    assert bars[0].timestamp == datetime(2013, 1, 1, tzinfo=timezone.utc)
    assert bars[2].close == 1.3
    assert all(a.timestamp < b.timestamp for a, b in zip(bars, bars[1:]))


def test_load_ohlc_accepts_zulu_and_naive_timestamps(tmp_path):
    text = "timestamp,open,high,low,close\n2013-01-01T00:00:00Z,1,1,1,1\n2013-01-01 00:10:00,1,1,1,1\n"
    bars = data_io.load_ohlc_csv(write(tmp_path, "z.csv", text))
    assert bars[0].timestamp.tzinfo is not None
    assert bars[1].timestamp.tzinfo is not None


def test_load_ohlc_invariant_violation_names_line(tmp_path):
    text = OHLC_TEXT + "2013-01-01T00:30:00+00:00,1.0,0.9,1.1,1.0\n"  # low > high
    with pytest.raises(ValueError, match="line 5"):
        data_io.load_ohlc_csv(write(tmp_path, "bad.csv", text))


def test_load_ohlc_malformed_row_names_line(tmp_path):
    text = OHLC_TEXT + "2013-01-01T00:30:00+00:00,oops,1.0,0.9,1.0\n"
    with pytest.raises(ValueError, match="line 5"):
        data_io.load_ohlc_csv(write(tmp_path, "bad.csv", text))
    with pytest.raises(ValueError, match="5 fields"):
        data_io.load_ohlc_csv(write(tmp_path, "short.csv", OHLC_TEXT + "2013-01-01T00:30:00,1.0\n"))


def test_load_ohlc_empty_and_headerless(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        data_io.load_ohlc_csv(write(tmp_path, "empty.csv", ""))
    with pytest.raises(ValueError, match="no data rows"):
        data_io.load_ohlc_csv(write(tmp_path, "only.csv", "timestamp,open,high,low,close\n"))
    with pytest.raises(ValueError, match="header"):
        data_io.load_ohlc_csv(write(tmp_path, "hdr.csv", "time,o,h,l,c\n1,2,3,4,5\n"))


def test_load_ohlc_duplicate_keeps_last_and_warns(tmp_path, caplog):
    text = OHLC_TEXT + "2013-01-01T00:10:00+00:00,1.1,1.35,1.05,1.25\n"
    with caplog.at_level(logging.WARNING):
        bars = data_io.load_ohlc_csv(write(tmp_path, "dup.csv", text))
    assert len(bars) == 3
    assert bars[1].close == 1.25  # later record wins
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_load_ohlc_sorts_out_of_order_rows(tmp_path):
    lines = OHLC_TEXT.splitlines()
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
    bars = data_io.load_ohlc_csv(write(tmp_path, "shuf.csv", shuffled))
    stamps = [b.timestamp for b in bars]
    assert stamps == sorted(stamps)


def test_ohlc_round_trip(tmp_path):
    bars = bars_from_closes(np.array([1.0, 1.01, 0.99, 1.02]))
    path = tmp_path / "rt.csv"
    data_io.write_ohlc_csv(path, bars)
    again = data_io.load_ohlc_csv(path)
    assert all(
        (a.timestamp, a.open, a.high, a.low, a.close) == (b.timestamp, b.open, b.high, b.low, b.close)
        for a, b in zip(bars, again)
    )


def test_align_identity():
    bars = bars_from_closes(np.full(5, 1.0))
    pair = data_io.align(bars, list(bars))
    assert pair.dropped == []
    assert len(pair.bars1) == len(pair.bars2) == 5


def test_align_drops_unmatched():
    bars1 = bars_from_closes(np.full(5, 1.0))
    bars2 = bars_from_closes(np.full(5, 2.0))[1:]
    pair = data_io.align(bars1, bars2)
    assert len(pair.bars1) == len(pair.bars2) == 4
    assert pair.dropped == [bars1[0].timestamp]
    assert [b.timestamp for b in pair.bars1] == [b.timestamp for b in pair.bars2]


def test_align_is_idempotent():
    bars1 = bars_from_closes(np.full(6, 1.0))
    bars2 = bars_from_closes(np.full(4, 2.0))
    pair = data_io.align(bars1, bars2)
    again = data_io.align(pair.bars1, pair.bars2)
    assert again.dropped == []
    assert len(again.bars1) == len(pair.bars1)


def test_align_disjoint_rejected():
    bars1 = bars_from_closes(np.full(3, 1.0))
    bars2 = bars_from_closes(np.full(3, 1.0), start_time=T0.replace(year=2014))
    with pytest.raises(ValueError, match="overlap"):
        data_io.align(bars1, bars2)
    with pytest.raises(ValueError, match="empty"):
        data_io.align([], bars1)


def test_config_round_trip(tmp_path):
    cfg = BacktestConfig(system="cci", predictor="viterbi", dynamic_allocation=True, seed=7)
    path = write(tmp_path, "c.cfg", data_io.config_to_text(cfg))
    loaded = data_io.backtest_config_from_mapping(data_io.load_config(path))
    assert loaded == cfg


def test_config_text_of_defaults():
    assert data_io.config_to_text(BacktestConfig()) == (
        "system = rsi\n"
        "lookback = 4\n"
        "n_states = 5\n"
        "n_bins = 8\n"
        "indicator_period = 4\n"
        "sma_period = 4\n"
        "atr_period = 12\n"
        "stop_mult = 2.0\n"
        "target_mult = 6.0\n"
        "dynamic_allocation = false\n"
        "predictor = marginal\n"
        "notional = 1000000.0\n"
        "fidelity = corrected\n"
        "seed = 0\n"
        "sweeps = 3\n"
        "rel_tol = 1e-06\n"
        "warm_start = true\n"
    )


def test_config_defaults_and_comments(tmp_path):
    path = write(tmp_path, "c.cfg", "# cci run\nsystem = cci\nsweeps = 5\n")
    cfg = data_io.backtest_config_from_mapping(data_io.load_config(path))
    assert cfg.system == "cci"
    assert cfg.atr_period == 24
    assert cfg.fit.sweeps == 5


def test_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "c.cfg", "stystem = rsi\n")
    with pytest.raises(ValueError, match="unknown config key"):
        data_io.backtest_config_from_mapping(data_io.load_config(path))


def test_config_rejects_bad_boolean(tmp_path):
    with pytest.raises(ValueError, match="boolean"):
        data_io.backtest_config_from_mapping({"dynamic_allocation": "maybe"})
    with pytest.raises(ValueError, match="^config key 'lookback': expected an integer, got 'four'$"):
        data_io.backtest_config_from_mapping({"lookback": "four"})


def test_trades_round_trip(tmp_path):
    tr = TradeRecord(
        entry_time=T0, entry_price=1.0, side="long", size=500_000.0,
        stop_price=0.99, target_price=1.03,
    )
    tr.close(T0.replace(hour=5), 1.03, "target")
    open_tr = TradeRecord(
        entry_time=T0.replace(hour=6), entry_price=1.1, side="short", size=1_000_000.0,
        stop_price=1.12, target_price=1.04,
    )
    path = tmp_path / "trades.csv"
    data_io.write_trades_csv(path, [tr, open_tr])
    again = data_io.load_trades_csv(path)
    assert again[0].pnl == tr.pnl
    assert again[0].exit_reason == "target"
    assert again[1].exit_time is None
    assert again[1].side == "short"


def test_equity_round_trip(tmp_path):
    curve = EquityCurve(
        timestamps=[T0, T0.replace(minute=10)], values=np.array([1_000_000.0, 1_000_123.456])
    )
    path = tmp_path / "eq.csv"
    data_io.write_equity_csv(path, curve)
    again = data_io.load_equity_csv(path)
    assert again.timestamps == curve.timestamps
    assert_array_equal(again.values, curve.values)
    with pytest.raises(ValueError, match="no equity rows"):
        data_io.load_equity_csv(write(tmp_path, "empty.csv", "timestamp,equity\n"))


def test_diagnostics_round_trip(tmp_path):
    rows = [
        DiagnosticRow(timestamp=T0, predicted_value=43.75, predicted_state=2,
                      transition_prob=0.41, predicted_value2=81.25, predicted_state2=4,
                      signal_side="long"),
        DiagnosticRow(timestamp=T0.replace(minute=10)),  # baseline row: all NaN/None
    ]
    path = tmp_path / "diag.csv"
    data_io.write_diagnostics_csv(path, rows)
    again = data_io.load_diagnostics_csv(path)
    assert again[0].predicted_state == 2
    assert again[0].signal_side == "long"
    assert again[1].predicted_state is None
    assert np.isnan(again[1].predicted_value)


def test_stats_round_trip(tmp_path):
    stats = PerfStats(ret=5.51, vol=6.88, ratio=5.51 / 6.88, delta_ratio=1.679)
    path = tmp_path / "stats.txt"
    data_io.write_stats_txt(path, stats)
    again = data_io.load_stats_txt(path)
    assert again == stats
    data_io.write_stats_txt(path, PerfStats(ret=1.0, vol=2.0, ratio=0.5, delta_ratio=None))
    assert data_io.load_stats_txt(path).delta_ratio is None


def test_obs_round_trip(tmp_path):
    obs = ObservationSequence.from_lists([0, 3, 7], [1, 2, 5])
    path = tmp_path / "obs.csv"
    data_io.write_obs_csv(path, obs)
    again = data_io.load_obs_csv(path)
    assert_array_equal(again.bins, obs.bins)
    with pytest.raises(ValueError, match="no observation rows"):
        data_io.load_obs_csv(write(tmp_path, "empty.csv", "o1,o2\n"))
    with pytest.raises(ValueError, match="integer"):
        data_io.load_obs_csv(write(tmp_path, "bad.csv", "o1,o2\n1.5,2\n"))


def test_fit_log_round_trip(tmp_path):
    records = [
        FitRecord(window_end=T0, sweeps_run=3, trace=[-10.5, -9.2, -9.0, -8.9]),
        FitRecord(window_end=T0.replace(minute=10), sweeps_run=1, trace=[-8.8, -8.7]),
    ]
    path = tmp_path / "fits.jsonl"
    data_io.write_fit_log(path, records)
    again = data_io.load_fit_log(path)
    assert again == records


def test_comparison_round_trip(tmp_path):
    rows = [
        ComparisonRow(timestamp=T0, state_marginal=2, state_viterbi=4,
                      value_marginal=43.75, value_viterbi=0.1 + 0.2),
        ComparisonRow(timestamp=T0.replace(minute=10), state_marginal=0, state_viterbi=0,
                      value_marginal=81.25, value_viterbi=81.25),
    ]
    path = tmp_path / "compare.csv"
    data_io.write_comparison_csv(path, rows)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "timestamp,state_marginal,state_viterbi,value_marginal,value_viterbi",
        "2013-01-01T00:00:00+00:00,2,4,43.75,0.30000000000000004",
        "2013-01-01T00:10:00+00:00,0,0,81.25,81.25",
    ]
    assert data_io.load_comparison_csv(path) == rows
