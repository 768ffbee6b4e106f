import csv
import dataclasses
import io
import itertools
import logging
import math
import pickle
import re
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from chmmtrade import (
    BacktestConfig, EquityCurve, ObservationSequence, OhlcSeries, PerfStats, TradeRecord, compare_predictors,
    load_params, run_backtest, save_params,
)
from chmmtrade.backtest import ComparisonResult, Diagnostics, FitRecord
from chmmtrade.indicators import _canonical
from chmmtrade import cli, data_io, oracle
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
    assert bars.timestamps[0] == datetime(2013, 1, 1, tzinfo=timezone.utc)
    assert bars.close[2] == 1.3
    assert all(a < b for a, b in zip(bars.timestamps, bars.timestamps[1:]))


def test_load_ohlc_accepts_zulu_and_naive_timestamps(tmp_path):
    text = "timestamp,open,high,low,close\n2013-01-01T00:00:00Z,1,1,1,1\n2013-01-01 00:10:00,1,1,1,1\n"
    bars = data_io.load_ohlc_csv(write(tmp_path, "z.csv", text))
    assert bars.timestamps[0].tzinfo is not None
    assert bars.timestamps[1].tzinfo is not None


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
    assert bars.close[1] == 1.25  # later record wins
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_load_ohlc_sorts_out_of_order_rows(tmp_path):
    lines = OHLC_TEXT.splitlines()
    shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n"
    bars = data_io.load_ohlc_csv(write(tmp_path, "shuf.csv", shuffled))
    stamps = bars.timestamps
    assert stamps == sorted(stamps)


@pytest.mark.parametrize("row", [
    "inf,inf,inf,inf",
    "1.0,inf,0.9,1.0",
    "1.0,1.1,-inf,1.0",
    "nan,1.1,0.9,1.0",
])
def test_load_ohlc_rejects_non_finite_naming_the_line(tmp_path, row):
    text = OHLC_TEXT + f"2013-01-01T00:30:00+00:00,{row}\n"
    with pytest.raises(ValueError, match="line 5: non-finite OHLC value"):
        data_io.load_ohlc_csv(write(tmp_path, "inf.csv", text))


def test_ohlc_round_trip(tmp_path):
    bars = bars_from_closes(np.array([1.0, 1.01, 0.99, 1.02]))
    path = tmp_path / "rt.csv"
    data_io.write_ohlc_csv(path, bars)
    again = data_io.load_ohlc_csv(path)
    assert all(
        a == b
        for a, b in zip(zip(bars.timestamps, bars.open, bars.high, bars.low, bars.close),
                        zip(again.timestamps, again.open, again.high, again.low, again.close))
    )


def test_align_identity():
    bars = bars_from_closes(np.full(5, 1.0))
    pair = data_io.align(bars, bars[:])
    assert pair.dropped == []
    assert len(pair.bars1) == len(pair.bars2) == 5


def test_align_drops_unmatched():
    bars1 = bars_from_closes(np.full(5, 1.0))
    bars2 = bars_from_closes(np.full(5, 2.0))[1:]
    pair = data_io.align(bars1, bars2)
    assert len(pair.bars1) == len(pair.bars2) == 4
    assert pair.dropped == [bars1.timestamps[0]]
    assert pair.bars1.timestamps == pair.bars2.timestamps


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
        data_io.align(bars1[:0], bars1)


def test_config_round_trip(tmp_path):
    cfg = BacktestConfig(system="cci", predictor="viterbi", dynamic_allocation=True, seed=7)
    path = write(tmp_path, "c.cfg", data_io.config_to_text(cfg))
    loaded = data_io.backtest_config_from_mapping(data_io.load_config(path))
    assert loaded == cfg


@pytest.mark.parametrize("system", ["rsi", "cci"])
def test_a_config_is_frozen_and_its_text_round_trips(tmp_path, system):
    # An assignment after construction would skip the checks and could
    # write a config that the loader refuses, such as ``n_states = True``.
    cfg = BacktestConfig(system=system)
    for field, value in (("n_states", True), ("atr_period", None), ("fit", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
    assert cfg == BacktestConfig(system=system)
    path = write(tmp_path, "c.cfg", data_io.config_to_text(cfg))
    assert data_io.backtest_config_from_mapping(data_io.load_config(path)) == cfg


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


def test_writers_keep_each_stamps_offset(tmp_path):
    # Equal instants at another offset are other stamps: reusing the text
    # of the previous file's column for them would rewrite their offset.
    utc = [T0, T0.replace(minute=10)]
    plus_one = [ts.astimezone(timezone(timedelta(hours=1))) for ts in utc]
    assert plus_one == utc
    path = tmp_path / "eq.csv"
    for stamps in (utc, plus_one):
        data_io.write_equity_csv(path, EquityCurve(timestamps=stamps, values=np.array([1.0, 2.0])))
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [f"{ts.isoformat()},{v}" for ts, v in zip(stamps, (1.0, 2.0))]


MODEL_COLUMNS = ("predicted_value", "predicted_state", "transition_prob", "predicted_value2", "predicted_state2")


def test_diagnostics_round_trip(tmp_path):
    stamps = [T0, T0.replace(minute=10)]
    model = Diagnostics(stamps, np.array([43.75, 0.1 + 0.2]), np.array([2, 0]), np.array([0.41, 1.0]),
                        np.array([81.25, 6.25]), np.array([4, 1]), ["long", "none"])
    baseline = Diagnostics(stamps, signal_side=["none", "short"])  # no model columns
    header = "timestamp,predicted_value,predicted_state,transition_prob,predicted_value2,predicted_state2,signal_side"
    path = tmp_path / "diag.csv"
    data_io.write_diagnostics_csv(path, model)
    assert path.read_text(encoding="utf-8").splitlines() == [
        header,
        "2013-01-01T00:00:00+00:00,43.75,2,0.41,81.25,4,long",
        "2013-01-01T00:10:00+00:00,0.30000000000000004,0,1.0,6.25,1,none",
    ]
    again = data_io.load_diagnostics_csv(path)
    assert (again.timestamps, again.signal_side) == (stamps, model.signal_side)
    for name in MODEL_COLUMNS:
        assert_array_equal(getattr(again, name), getattr(model, name))
        assert getattr(again, name).dtype == getattr(model, name).dtype
    data_io.write_diagnostics_csv(path, baseline)
    assert path.read_text(encoding="utf-8").splitlines() == [
        header,
        "2013-01-01T00:00:00+00:00,nan,,nan,nan,,none",
        "2013-01-01T00:10:00+00:00,nan,,nan,nan,,short",
    ]
    again = data_io.load_diagnostics_csv(path)
    assert (again.timestamps, again.signal_side) == (stamps, baseline.signal_side)
    assert all(getattr(again, name) is None for name in MODEL_COLUMNS)


def test_stats_round_trip(tmp_path):
    stats = PerfStats(ret=5.51, vol=6.88, ratio=5.51 / 6.88, delta_ratio=1.679)
    path = tmp_path / "stats.txt"
    data_io.write_stats_txt(path, stats)
    again = data_io.load_stats_txt(path)
    assert again == stats
    noted = "".join(f"{line}  # note\n" for line in path.read_text(encoding="utf-8").splitlines())
    assert data_io.load_stats_txt(write(tmp_path, "noted.txt", noted)) == stats
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
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(first + "\n  \n" + second, encoding="utf-8")  # blank lines are skipped
    assert data_io.load_fit_log(path) == records


@pytest.mark.parametrize("fields, detail", [
    ('"sweeps_run": 5, "trace": [1.0]', "trace must be a list of sweeps_run + 1 = 6 numbers, got [1.0]"),
    ('"sweeps_run": -2, "trace": []', "sweeps_run must be a non-negative integer, got -2"),
    ('"sweeps_run": 1.7, "trace": [1.0, 2.0]', "sweeps_run must be a non-negative integer, got 1.7"),
    ('"sweeps_run": 1.0, "trace": [1.0, 2.0]', "sweeps_run must be a non-negative integer, got 1.0"),
    ('"sweeps_run": true, "trace": [1.0, 2.0]', "sweeps_run must be a non-negative integer, got True"),
    ('"sweeps_run": "1", "trace": [1.0, 2.0]', "sweeps_run must be a non-negative integer, got '1'"),
    ('"sweeps_run": 1, "trace": [1.0, true]', "trace must be a list of sweeps_run + 1 = 2 numbers, got [1.0, True]"),
    ('"sweeps_run": 1, "trace": [1.0, "2.0"]', "trace must be a list of sweeps_run + 1 = 2 numbers, got [1.0, '2.0']"),
    ('"sweeps_run": 0, "trace": {"0": 1.0}', "trace must be a list of sweeps_run + 1 = 1 numbers, got {'0': 1.0}"),
    ('"sweeps_run": 0, "trace": [1' + "0" * 400 + "]", "int too large to convert to float"),
    ('"sweeps_run": 0', "missing field 'trace'"),
], ids=["short-trace", "negative", "fraction", "float", "bool", "string", "bool-value", "string-value", "object",
        "huge-value", "no-trace"])
def test_fit_log_refuses_records_no_fit_makes(tmp_path, fields, detail):
    good = '{"window_end": "2013-01-01T00:00:00+00:00", "sweeps_run": 1, "trace": [-2, -1.5]}\n'
    path = write(tmp_path, "fits.jsonl", good + '{"window_end": "2013-01-01T00:10:00+00:00", ' + fields + "}\n")
    with pytest.raises(ValueError) as info:
        data_io.load_fit_log(path)
    assert str(info.value) == f"{path}: line 2: not a fit record: {detail}"
    path.write_text(good, encoding="utf-8")  # integer trace values are numbers, read as floats
    assert data_io.load_fit_log(path) == [FitRecord(window_end=T0, sweeps_run=1, trace=[-2.0, -1.5])]


@pytest.mark.parametrize("window_end, sweeps, trace, detail", [
    (T0, 2, [-3.5, -3.25], "trace must be a list of sweeps_run + 1 = 3 numbers, got [-3.5, -3.25]"),
    (T0, True, [-3.5, -3.25], "sweeps_run must be a non-negative integer, got True"),
    ("x", 0, [1.0], "window_end must be a datetime, got 'x'"),
    (T0.date(), 0, [1.0], "window_end must be a datetime, got datetime.date(2013, 1, 1)"),
], ids=["short-trace", "bool-sweeps", "text-window-end", "date-window-end"])
def test_a_fit_record_the_loader_would_refuse_is_never_built(tmp_path, window_end, sweeps, trace, detail):
    # The rule lives in FitRecord, so the writer cannot write a record the
    # loader refuses (nor fail part way through the log on one), and a
    # built record cannot be changed into one.
    with pytest.raises(ValueError) as info:
        FitRecord(window_end=window_end, sweeps_run=sweeps, trace=trace)
    assert str(info.value) == detail
    record = FitRecord(window_end=T0, sweeps_run=1, trace=[-3, -3.25])
    assert record.trace == [-3.0, -3.25] and type(record.trace[0]) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.sweeps_run = sweeps
    path = tmp_path / "fits.jsonl"
    data_io.write_fit_log(path, [record])
    assert path.read_text(encoding="utf-8") == '{"window_end": "2013-01-01T00:00:00+00:00", "sweeps_run": 1, "trace": [-3.0, -3.25]}\n'
    assert data_io.load_fit_log(path) == [record]


def test_comparison_round_trip(tmp_path):
    comparison = ComparisonResult(
        [T0, T0.replace(minute=10)], state_marginal=np.array([2, 0]), state_viterbi=np.array([4, 0]),
        value_marginal=np.array([43.75, 81.25]), value_viterbi=np.array([0.1 + 0.2, 81.25]),
    )
    path = tmp_path / "compare.csv"
    data_io.write_comparison_csv(path, comparison)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "timestamp,state_marginal,state_viterbi,value_marginal,value_viterbi",
        "2013-01-01T00:00:00+00:00,2,4,43.75,0.30000000000000004",
        "2013-01-01T00:10:00+00:00,0,0,81.25,81.25",
    ]
    again = data_io.load_comparison_csv(path)
    assert again.timestamps == comparison.timestamps
    for name in ("state_marginal", "state_viterbi", "value_marginal", "value_viterbi"):
        assert_array_equal(getattr(again, name), getattr(comparison, name))
        assert getattr(again, name).dtype == getattr(comparison, name).dtype
    assert (again.state_agreement, again.value_agreement) == (0.5, 0.5)
    # A header alone is no comparison: its agreement rates would divide by zero.
    empty = write(tmp_path, "empty.csv", ",".join(data_io.COMPARISON_HEADER) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{empty}: no comparison rows")):
        data_io.load_comparison_csv(empty)


@pytest.mark.parametrize("loader, text, message", [
    (data_io.load_trades_csv, "entry,side\n2013-01-01T00:00:00+00:00,long\n",
     "line 1: expected header entry_time,side,size,"),
    (data_io.load_diagnostics_csv, "timestamp,predicted_value\n2013-01-01T00:00:00+00:00,1.0\n",
     "line 1: expected header timestamp,predicted_value,predicted_state,"),
    (data_io.load_diagnostics_csv, "timestamp,predicted_value,predicted_state,transition_prob,predicted_value2,"
     "predicted_state2,signal_side\n2013-01-01T00:00:00+00:00,43.75,2,0.41,81.25,4,long\n"
     "2013-01-01T00:10:00+00:00,nan,,nan,nan,,none\n", "line 3: state cells are empty on some rows and filled"),
    (data_io.load_comparison_csv, "timestamp,state_marginal,state_viterbi,value_marginal,value_viterbi\n"
     "2013-01-01T00:00:00+00:00,2,4,43.75\n", "line 2: expected 5 fields, got 4"),
    (data_io.load_stats_txt, "ret = 1.0\nvol = 2.0\n", "missing key 'ratio'"),
    (data_io.load_fit_log, '{"window_end": "2013-01-01T00:00:00+00:00", "sweeps_run": 0, "trace": [-1.0]}\n'
     "not json\n", "line 2: not a fit record"),
    (data_io.load_obs_csv, "o1,o2\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
    (data_io.load_obs_csv, "o1,o2\n1,2\n\n0,-1\n", "line 4: negative observation bin -1"),
    (data_io.load_stats_txt, "ret = 1.0\nvol 2.0\n", "line 2: expected 'key = value'"),
    (data_io.load_config, "# run\nsystem = rsi\nlookback 4\n", "line 3: expected 'key = value'"),
    (load_params, "n_states = 2\n", "missing key 'n_bins'"),
    (load_params, "n_states = 1\nn_bins = 1\nprior_1 = 1.0 # one state\nprior_2 = one\n",
     "key 'prior_2': could not convert string to float: 'one'"),
], ids=["trades", "diagnostics", "diagnostics-mixed-states", "comparison", "stats", "fit-log", "obs-width", "obs-negative",
        "stats-no-equals", "config-no-equals", "params-missing-key", "params-bad-number"])
def test_result_loaders_name_the_file_and_line(tmp_path, loader, text, message):
    path = write(tmp_path, "malformed.txt", text)
    with pytest.raises(ValueError) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: {message}")


# -- properties of the columnar OHLC path ------------------------------------

# Stamp styles and their offsets; a naive stamp is read as UTC.
OFFSETS = {
    "Z": timezone.utc, "+00:00": timezone.utc, "+01:00": timezone(timedelta(hours=1)),
    "-05:30": timezone(-timedelta(hours=5, minutes=30)), "naive": None, "naive space": None,
}


def _stamp_text(instant: datetime, style: str) -> str:
    if OFFSETS[style] is None:
        return instant.replace(tzinfo=None).isoformat(sep=" " if style == "naive space" else "T")
    text = instant.astimezone(OFFSETS[style]).isoformat()
    return text.replace("+00:00", "Z") if style == "Z" else text


@st.composite
def ohlc_values(draw):
    """One valid bar: four finite prices, the outer two as low and high."""
    low, a, b, high = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
    )))
    return (a, high, low, b) if draw(st.booleans()) else (b, high, low, a)


@st.composite
def ohlc_records(draw):
    """Rows in file order: instants from a small pool, so duplicates are
    common, each written in one of the OFFSETS styles."""
    n = draw(st.integers(1, 25))
    return [
        (T0 + timedelta(minutes=10 * draw(st.integers(0, 12))),
         draw(st.sampled_from(sorted(OFFSETS))),
         draw(ohlc_values()))
        for _ in range(n)
    ]


@contextmanager
def _scratch_dir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


@contextmanager
def _duplicate_warnings():
    """Collect the duplicate-timestamp warnings of the loaders in data_io
    and oracle."""
    seen = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: seen.append(record.getMessage())
    logger = logging.getLogger("chmmtrade")
    logger.addHandler(handler)
    try:
        yield seen
    finally:
        logger.removeHandler(handler)


@given(records=ohlc_records())
def test_load_ohlc_equals_a_dict_model(records):
    # The model: the last record of each instant wins, output sorted by instant.
    model = {}
    for instant, style, values in records:
        model[instant] = (instant.astimezone(OFFSETS[style] or timezone.utc), values)
    expected = [model[k] for k in sorted(model)]
    text = "timestamp,open,high,low,close\n" + "".join(
        _stamp_text(instant, style) + "," + ",".join(map(repr, values)) + "\n"
        for instant, style, values in records
    )
    with _scratch_dir() as d, _duplicate_warnings() as warned:
        bars = data_io.load_ohlc_csv(write(d, "rows.csv", text))
    assert [(ts, ts.utcoffset()) for ts in bars.timestamps] == [(ts, ts.utcoffset()) for ts, _ in expected]
    assert list(zip(bars.open, bars.high, bars.low, bars.close)) == [values for _, values in expected]
    assert len(warned) == len(records) - len(model)
    assert all("duplicate timestamp" in message for message in warned)


@st.composite
def ohlc_series(draw, max_bars=20):
    """A valid series on distinct, increasing instants at mixed offsets."""
    steps = draw(st.lists(st.integers(1, 10_000_000), min_size=1, max_size=max_bars))
    instants = [T0 + timedelta(microseconds=int(us)) for us in np.cumsum(steps)]
    offsets = draw(st.lists(st.sampled_from([0, 60, -330]), min_size=len(steps), max_size=len(steps)))
    stamps = [ts.astimezone(timezone(timedelta(minutes=m))) for ts, m in zip(instants, offsets)]
    rows = draw(st.lists(ohlc_values(), min_size=len(steps), max_size=len(steps)))
    return OhlcSeries(stamps, *zip(*rows))


def _same_series(a: OhlcSeries, b: OhlcSeries) -> bool:
    """Equal stamps (with their offsets) and bit-equal columns."""
    return (
        [(ts, ts.utcoffset()) for ts in a.timestamps] == [(ts, ts.utcoffset()) for ts in b.timestamps]
        and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("open", "high", "low", "close"))
    )


@given(bars=ohlc_series())
def test_ohlc_write_load_is_bit_stable(bars):
    with _scratch_dir() as d:
        data_io.write_ohlc_csv(d / "rt.csv", bars)
        again = data_io.load_ohlc_csv(d / "rt.csv")
        data_io.write_ohlc_csv(d / "rt2.csv", again)
        assert (d / "rt.csv").read_bytes() == (d / "rt2.csv").read_bytes()
    assert _same_series(bars, again)


@given(bars=ohlc_series(max_bars=30), data=st.data())
def test_align_of_shuffled_or_trimmed_pairs_is_idempotent(bars, data):
    n = len(bars)
    rows1 = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1), label="rows1")
    rows2 = data.draw(st.permutations(range(n)), label="order")[: data.draw(st.integers(1, n), label="kept")]
    bars1, bars2 = bars[sorted(rows1)], bars[rows2]
    common = set(rows1) & set(rows2)
    if not common:
        with pytest.raises(ValueError, match="overlap"):
            data_io.align(bars1, bars2)
        return
    pair = data_io.align(bars1, bars2)
    assert pair.dropped == sorted(bars.timestamps[i] for i in set(rows1) ^ set(rows2))
    assert sorted(pair.bars1.timestamps) == sorted(pair.bars2.timestamps) == [bars.timestamps[i] for i in sorted(common)]
    again = data_io.align(pair.bars1, pair.bars2)
    assert again.dropped == []
    assert _same_series(again.bars1, pair.bars1) and _same_series(again.bars2, pair.bars2)


# -- the block reader against the row-by-row reference -----------------------

DIGITS_AR = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
def _with_underscore(text: str, at: int) -> str:
    """``text`` with an underscore between two of its adjacent digits, which
    ``float`` reads as the same number; unchanged without such a pair."""
    pairs = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    if not pairs:
        return text
    i = pairs[at % len(pairs)]
    return text[:i] + "_" + text[i:]


def _price_text(value: float, form: str, at: int) -> str:
    text = repr(value)
    return {
        "repr": text,
        "exp": f"{value:.16e}",
        "digits": f"{value:.25f}",
        "spaces": f" {text} ",
        "unicode spaces": f"\xa0{text}\u2003",
        "underscore": _with_underscore(text, at),
        "arabic digits": text.translate(DIGITS_AR),
        "quoted": f'"{text}"',
        "quoted newline": f'"{text}\n"',
        "nan": "nan",
        "inf": "inf",
        "-inf": "-inf",
        "word": "oops",
        "empty": "",
        "file separator": text + "\x1c",
    }[form]


def _stamp_text_form(text: str, form: str) -> str:
    return {
        "spaces": f" {text} ",
        "quoted": f'"{text}"',
        "bad date": "2013-02-30T00:00:00",
        "word": "yesterday",
    }[form]


# Irregular rows and cells: kinds the csv row route reads or refuses.
ROW_KINDS = ("blank", "spaces only", "four fields", "six fields", "swap high low")
STAMP_FORMS = ("spaces", "quoted", "bad date", "word")
PRICE_FORMS = (
    "spaces", "unicode spaces", "underscore", "arabic digits", "quoted", "quoted newline",
    "nan", "inf", "-inf", "word", "empty", "file separator",
)


@st.composite
def ohlc_texts(draw):
    """An OHLC file's text: rows on a small pool of instants (so duplicates
    and out-of-order stamps are common) at mixed offsets, prices written
    as repr or as long decimals, lines ended by LF, CRLF or CR.  Up to a
    third of the rows, a share drawn per file, hold one irregular row kind
    or cell form."""
    dirt = draw(st.integers(0, 3))
    lines = ["timestamp,open,high,low,close"]
    for _ in range(draw(st.integers(0, 12))):
        instant = T0 + timedelta(minutes=10 * draw(st.integers(0, 8)))
        o, h, l, c = draw(ohlc_values())
        cells = [_stamp_text(instant, draw(st.sampled_from(sorted(OFFSETS))))]
        cells += [_price_text(v, draw(st.sampled_from(["repr", "repr", "exp", "digits"])), 0) for v in (o, h, l, c)]
        if draw(st.integers(0, 9)) < dirt:
            kind = draw(st.sampled_from(ROW_KINDS + STAMP_FORMS + PRICE_FORMS))
            if kind in STAMP_FORMS:
                cells[0] = _stamp_text_form(cells[0], kind)
            elif kind in PRICE_FORMS:
                k = draw(st.integers(1, 4))
                cells[k] = _price_text((o, h, l, c)[k - 1], kind, draw(st.integers(0, 20)))
            elif kind == "four fields":
                cells.pop()
            elif kind == "six fields":
                cells.append(cells[-1])
            elif kind == "swap high low":
                cells[2], cells[3] = cells[3], cells[2]
            else:
                cells = ["" if kind == "blank" else "   "]
        lines.append(",".join(cells))
    ends = draw(st.one_of(
        st.sampled_from(["\n", "\r\n", "\r"]).map(lambda end: [end] * len(lines)),
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)),
    ))
    if not draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(map(str.__add__, lines, ends))


def _load_outcome(loader, path):
    """What a loader makes of a file: the series' stamps with their offsets
    and the bytes of each column, or the error's type and text; and the
    duplicate warnings either way."""
    with _duplicate_warnings() as warned:
        try:
            bars = loader(path)
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            result = (type(exc), str(exc))
        else:
            result = (
                [(ts, ts.utcoffset()) for ts in bars.timestamps],
                [getattr(bars, f).tobytes() for f in ("open", "high", "low", "close")],
            )
    return result, warned


@settings(max_examples=600)
@given(text=ohlc_texts(), block=st.integers(1, 3))
def test_block_reader_equals_the_row_reader(text, block):
    with _scratch_dir() as d:
        path = d / "ohlc.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _load_outcome(oracle.load_ohlc_rows, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_BLOCK_LINES", block)
            assert _load_outcome(data_io.load_ohlc_csv, path) == expected
        assert _load_outcome(data_io.load_ohlc_csv, path) == expected


def test_block_reader_loads_rows_of_every_route(tmp_path):
    # Plain rows (naive and offset stamps), a quoted price spanning two
    # lines, a price numpy refuses and float reads, and a blank line, at
    # every block size from one line up.
    rows = [
        "2013-01-01T00:00:00+00:00,1.0,1.2,0.9,1.1",
        "2013-01-01 00:10:00,1.1,1.3,1.0,1.2",
        '2013-01-01T00:20:00+00:00,"1.2\n",1_400,1.1,1.3',
        "2013-01-01T01:30:00+01:00,١.٢,1.4,1.1,1.3",
        "",
        "2012-12-31T19:10:00-05:30,1.2,1.4,1.1,1.3",
    ]
    path = write(tmp_path, "routes.csv", "timestamp,open,high,low,close\r\n" + "\r\n".join(rows) + "\r\n")
    bars = data_io.load_ohlc_csv(path)
    assert [ts.utcoffset() for ts in bars.timestamps] == [timedelta(hours=h) for h in (0, 0, 0, 1, -5.5)]
    assert (bars.open[3], bars.high[2], len(bars)) == (1.2, 1400.0, 5)
    for block in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_BLOCK_LINES", block)
            assert _load_outcome(data_io.load_ohlc_csv, path) == _load_outcome(oracle.load_ohlc_rows, path)
    # One line a block: the first block that is not plain, the quoted
    # record's first line, sends the whole file to the row route.
    plain, parse = [], data_io._plain_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_BLOCK_LINES", 1)
        mp.setattr(data_io, "_plain_block", lambda block: plain.append(parse(block) is not None) or parse(block))
        data_io.load_ohlc_csv(path)
    assert plain == [True, True, False]


def test_plain_files_take_the_block_route(tmp_path, monkeypatch):
    # A written series, the simulate output and plain rows shuffled with
    # duplicates never reach the row route, across several blocks; one
    # quoted cell sends the whole file there, once.
    written = tmp_path / "written.csv"
    data_io.write_ohlc_csv(written, bars_from_closes(np.linspace(1.0, 1.5, 150)))
    assert cli.main(["simulate", "--bars", "300", "--seed", "42", "--out", str(tmp_path / "sim")]) == 0
    header, *rows = written.read_text().splitlines(keepends=True)
    shuffled = write(tmp_path, "shuffled.csv", header + "".join(rows[90:] + rows[:100]))
    stamp, open_, rest = rows[120].split(",", 2)
    rows[120] = f'{stamp},"{open_}",{rest}'
    quoted = write(tmp_path, "quoted.csv", header + "".join(rows))
    paths = [written, tmp_path / "sim" / "asset1.csv", tmp_path / "sim" / "asset2.csv", shuffled, quoted]
    expected = [_load_outcome(oracle.load_ohlc_rows, path) for path in paths]
    assert len(expected[3][1]) == 10  # the shuffled file's duplicates warned
    assert len(expected[4][0][0]) == 150  # the quoted file loads
    calls = []
    monkeypatch.setattr(data_io, "_BLOCK_LINES", 64)
    monkeypatch.setattr(data_io, "_load_ohlc_rows", lambda path: calls.append(path) or oracle.load_ohlc_rows(path))
    assert [_load_outcome(data_io.load_ohlc_csv, path) for path in paths] == expected
    assert calls == [quoted]


@pytest.mark.parametrize("bad_row", [None, "yesterday,1.0,1.2,0.9,1.1", "2013-01-01T00:20:00+00:00,1.0"])
@pytest.mark.parametrize("block", [1, 3, 4096])
def test_block_reader_meets_a_decode_error_where_the_row_reader_does(tmp_path, bad_row, block):
    # The byte that is not UTF-8 sits past the first 8 KiB the text layer
    # decodes, so the rows before it are read first: a bad row among them
    # is reported before the decode error.
    rows = [f"{(T0 + timedelta(minutes=10 * i)).isoformat()},1.0,1.2,0.9,1.1" for i in range(400)]
    if bad_row is not None:
        rows[2] = bad_row
    path = tmp_path / "undecodable.csv"
    path.write_bytes(("timestamp,open,high,low,close\n" + "\n".join(rows) + "\n").encode() + b"\xff,1,1,1,1\n")
    expected = _load_outcome(oracle.load_ohlc_rows, path)
    assert expected[0][0] is (UnicodeDecodeError if bad_row is None else ValueError)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_BLOCK_LINES", block)
        assert _load_outcome(data_io.load_ohlc_csv, path) == expected


# -- the streamed writers against csv.writer -----------------------------------

def _csv_writer_bytes(header, rows) -> bytes:
    """The bytes csv.writer writes for a header and rows: the reference
    for every CSV writer, which streams its lines without csv."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _iso_column(stamps):
    return [ts.isoformat() for ts in stamps]


def _reference_rows(name, value):
    """The rows each writer handed csv.writer before it streamed its own
    lines."""
    if name == "ohlc":
        columns = (value.open, value.high, value.low, value.close)
        return zip(_iso_column(value.timestamps), *(map(repr, col.tolist()) for col in columns))
    if name == "equity":
        return zip(_iso_column(value.timestamps), map(repr, np.asarray(value.values, dtype=float).tolist()))
    if name == "diagnostics":
        d = value
        nan, blank = itertools.repeat("nan"), itertools.repeat("")
        model = (nan, blank, nan, nan, blank) if d.predicted_value is None else (
            map(repr, d.predicted_value.tolist()), d.predicted_state.tolist(), map(repr, d.transition_prob.tolist()),
            map(repr, d.predicted_value2.tolist()), d.predicted_state2.tolist(),
        )
        return zip(_iso_column(d.timestamps), *model, d.signal_side)
    if name == "trades":
        return [(
            tr.entry_time.isoformat(), tr.side, repr(float(tr.size)), repr(float(tr.entry_price)),
            repr(float(tr.stop_price)), repr(float(tr.target_price)),
            tr.exit_time.isoformat() if tr.exit_time else "",
            repr(float(tr.exit_price)) if tr.exit_price is not None else "",
            tr.exit_reason or "",
            repr(float(tr.pnl)) if tr.pnl is not None else "",
        ) for tr in value]
    if name == "comparison":
        c = value
        return zip(_iso_column(c.timestamps), c.state_marginal.tolist(), c.state_viterbi.tolist(),
                   map(repr, c.value_marginal.tolist()), map(repr, c.value_viterbi.tolist()))
    assert name == "obs"
    return ((int(a), int(b)) for a, b in zip(value.bins[0], value.bins[1]))


WRITERS = {
    "ohlc": (data_io.write_ohlc_csv, data_io.OHLC_HEADER),
    "equity": (data_io.write_equity_csv, data_io.EQUITY_HEADER),
    "diagnostics": (data_io.write_diagnostics_csv, data_io.DIAG_HEADER),
    "trades": (data_io.write_trades_csv, data_io.TRADES_HEADER),
    "comparison": (data_io.write_comparison_csv, data_io.COMPARISON_HEADER),
    "obs": (data_io.write_obs_csv, data_io.OBS_HEADER),
}

# Any float64, the edges spelled out: signed zeros, NaN, infinities, subnormals.
ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308]),
    st.floats(),
)


@st.composite
def mixed_stamps(draw, n):
    """``n`` stamps at offsets of whole hours, half hours and seconds."""
    offsets = [timedelta(0), timedelta(hours=1), -timedelta(hours=5, minutes=30), timedelta(seconds=17)]
    return [
        (T0 + timedelta(microseconds=draw(st.integers(0, 10**12)))).astimezone(timezone(draw(st.sampled_from(offsets))))
        for _ in range(n)
    ]


@st.composite
def trade_records(draw):
    """A long or short trade with a valid bracket, open or closed."""
    side = draw(st.sampled_from(["long", "short"]))
    low, mid, high = sorted(draw(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3, unique=True)))
    stop, target = (low, high) if side == "long" else (high, low)
    tr = TradeRecord(entry_time=draw(mixed_stamps(1))[0], entry_price=mid, side=side,
                     size=draw(st.floats(1.0, 1e7)), stop_price=stop, target_price=target)
    if draw(st.booleans()):
        tr.close(draw(mixed_stamps(1))[0], draw(ANY_FLOAT), draw(st.sampled_from(["stop", "target", "end"])))
    return tr


@st.composite
def writer_inputs(draw):
    """A writer's name and a value for it with zero to four rows (at least
    one for observations and comparisons, which cannot be empty)."""
    name = draw(st.sampled_from(sorted(WRITERS)))
    n = draw(st.integers(1 if name in ("obs", "comparison") else 0, 4))
    stamps = draw(mixed_stamps(n))
    floats = lambda: np.array(draw(st.lists(ANY_FLOAT, min_size=n, max_size=n)), dtype=float)  # noqa: E731
    ints = lambda: np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=np.int64)  # noqa: E731
    if name == "ohlc":
        rows = draw(st.lists(ohlc_values(), min_size=n, max_size=n))
        return name, OhlcSeries(stamps, *(zip(*rows) if rows else [()] * 4))
    if name == "equity":
        return name, EquityCurve(timestamps=stamps, values=floats())
    if name == "diagnostics":
        sides = draw(st.lists(st.sampled_from(["long", "short", "none"]), min_size=n, max_size=n))
        if draw(st.booleans()):
            return name, Diagnostics(stamps, signal_side=sides)
        return name, Diagnostics(stamps, floats(), ints(), floats(), floats(), ints(), sides)
    if name == "trades":
        return name, draw(st.lists(trade_records(), min_size=n, max_size=n))
    if name == "comparison":
        return name, ComparisonResult(stamps, ints(), ints(), floats(), floats())
    return name, ObservationSequence(np.stack([ints(), ints()]))


@given(case=writer_inputs())
def test_writers_write_the_bytes_of_csv_writer(case):
    # Pins the claim that no written field needs quoting: a field that did
    # would come out quoted from csv.writer and bare from the writer.
    name, value = case
    write_csv, header = WRITERS[name]
    with _scratch_dir() as d:
        write_csv(d / "out.csv", value)
        assert (d / "out.csv").read_bytes() == _csv_writer_bytes(header, _reference_rows(name, value))


# -- stamp text carried from the file ---------------------------------------------

# Stamp forms beyond the OFFSETS styles: ones fromisoformat reads but
# isoformat writes otherwise, and ones it writes as they are.
ODD_STAMPS = {
    "+00:60": lambda t: t.astimezone(timezone(timedelta(hours=1))).isoformat().replace("+01:00", "+00:60"),
    "-00:00": lambda t: t.isoformat().replace("+00:00", "-00:00"),
    "+05:30:15": lambda t: t.astimezone(timezone(timedelta(hours=5, minutes=30, seconds=15))).isoformat(),
    "space": lambda t: t.isoformat(sep=" "),
    "x": lambda t: t.isoformat(sep="x"),
    ".000000": lambda t: t.isoformat(timespec="microseconds"),
    ".5": lambda t: t.isoformat()[:19] + ".5" + t.isoformat()[19:],
    "3-digit": lambda t: (t + timedelta(milliseconds=250)).isoformat(timespec="milliseconds"),
    ".123456": lambda t: (t + timedelta(microseconds=123456)).isoformat(),
}


def _reads_as_written(text: str) -> bool:
    """Whether isoformat writes the stamp fromisoformat reads in ``text``
    exactly as ``text``; a naive stamp does not count, as the loaders read
    it as UTC."""
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        return False
    return ts.tzinfo is not None and ts.isoformat() == text


# The styles above that isoformat writes as they are.
AS_WRITTEN = ["+00:00", "+01:00", "-05:30", "+05:30:15", ".123456"]


@st.composite
def stamp_texts(draw, styles=tuple(sorted(OFFSETS) + sorted(ODD_STAMPS))):
    instant = T0 + timedelta(minutes=10 * draw(st.integers(0, 8)))
    style = draw(st.sampled_from(styles))
    return ODD_STAMPS[style](instant) if style in ODD_STAMPS else _stamp_text(instant, style)


@settings(max_examples=300)
@given(
    texts=st.one_of(
        st.lists(stamp_texts(), min_size=1, max_size=10),
        st.lists(stamp_texts(AS_WRITTEN), min_size=1, max_size=10),
    ),
    block=st.sampled_from([1, 2, 3, None]),
)
def test_loaded_stamps_carry_their_isoformat_text(texts, block):
    # The file's stamp text is kept exactly when every stamp reads as
    # written; whichever text a column holds, the files written from it
    # are those of a column formatted afresh.
    rows = [f"{text},1.0,1.2,0.9,1.1" for text in texts]
    with _scratch_dir() as d, pytest.MonkeyPatch.context() as mp:
        path = write(d, "stamps.csv", "timestamp,open,high,low,close\n" + "\n".join(rows) + "\n")
        if block is not None:
            mp.setattr(data_io, "_BLOCK_LINES", block)
        expected = _load_outcome(oracle.load_ohlc_rows, path)
        assert _load_outcome(data_io.load_ohlc_csv, path) == expected
        if isinstance(expected[0][0], type):  # an error: stamps this interpreter does not read
            return
        with _duplicate_warnings():
            bars = data_io.load_ohlc_csv(path)
        carried = bars.timestamps._texts
        event("text carried" if carried is not None else "text formatted")
        assert (carried is not None) == all(map(_reads_as_written, texts))
        if carried is not None:
            assert list(carried) == [ts.isoformat() for ts in bars.timestamps]
        fresh = OhlcSeries(list(bars.timestamps), bars.open, bars.high, bars.low, bars.close)
        for name, value, again in (
            ("ohlc.csv", bars, fresh),
            ("equity.csv", EquityCurve(bars.timestamps[1:], bars.close[1:]), EquityCurve(list(bars.timestamps)[1:], bars.close[1:])),
        ):
            write_csv = data_io.write_ohlc_csv if name == "ohlc.csv" else data_io.write_equity_csv
            write_csv(d / name, value)
            write_csv(d / f"fresh-{name}", again)
            assert (d / name).read_bytes() == (d / f"fresh-{name}").read_bytes()


def test_canonical_rule_refuses_what_isoformat_writes_otherwise():
    canonical = [
        "2013-01-01T00:00:00+00:00", "2013-12-31T23:59:59-05:30", "2013-01-01T00:00:00+05:30:15",
        "2013-01-01T00:00:00.123456+01:00", "2013-01-01T00:00:00+23:59:59.999999",
    ]
    for text in canonical:
        assert _canonical([text]) and _reads_as_written(text), text
    assert _canonical(canonical)  # several lengths and suffixes in one block
    for text in (
        "2013-01-01T00:00:00+00:60", "2013-01-01T00:00:00-00:00", "2013-01-01x00:00:00+00:00",
        "2013-01-01 00:00:00+00:00", "2013-01-01T00:00:00.000000+00:00", "2013-01-01T00:00:00",
        "2013-01-01T00:00:00 +00:00",
    ):
        assert not _canonical([text]) and not _canonical(canonical + [text]), text
    for text in ("2013-01-01T00:00:00.5+00:00", "2013-01-01T00:00:00.250+00:00", "2013-01-01T00:00:00Z"):
        if sys.version_info >= (3, 11):  # 3.10 reads none of these
            assert not _canonical([text]), text


class CountingStamp(datetime):
    """A datetime that counts its ``isoformat`` calls by the text written;
    arithmetic with a timedelta keeps the class."""

    formatted: Counter = Counter()

    def isoformat(self, *args, **kwargs):
        text = super().isoformat(*args, **kwargs)
        CountingStamp.formatted[text] += 1
        return text


def _counting_start():
    CountingStamp.formatted.clear()
    return CountingStamp(2013, 1, 1, tzinfo=timezone.utc)


def _counting_run():
    """A config and two series built apart on equal counting stamps, as a
    caller would hand them in, with the count reset."""
    params = cli._default_sim_params(3, 8, 5)
    sim = oracle.synthetic_ohlc(params, 120, seed=5, amplitude=0.005, start_time=_counting_start())
    bars1, bars2 = (OhlcSeries(list(b.timestamps), b.open, b.high, b.low, b.close) for b in sim)
    assert type(bars1.timestamps[0]) is CountingStamp
    return BacktestConfig(system="rsi", predictor="viterbi", n_states=3, seed=4), bars1, bars2


def _formatted_once(path, rows):
    """The first column of ``path``'s rows is every stamp formatted so far, each once."""
    written = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert len(written) == rows > 50
    assert set(written) == set(CountingStamp.formatted)
    assert set(CountingStamp.formatted.values()) == {1}


def test_backtest_writers_format_each_stamp_at_most_once(tmp_path):
    # The equity and diagnostics columns are one part of the first series'
    # column, so one formatting serves both files.
    result = run_backtest(*_counting_run())
    assert CountingStamp.formatted == Counter()
    data_io.write_equity_csv(tmp_path / "equity.csv", result.equity)
    data_io.write_diagnostics_csv(tmp_path / "diagnostics.csv", result.diagnostics)
    _formatted_once(tmp_path / "equity.csv", len(result.diagnostics))


def test_comparison_writer_formats_each_stamp_once(tmp_path):
    comparison = compare_predictors(*_counting_run())
    assert CountingStamp.formatted == Counter()
    data_io.write_comparison_csv(tmp_path / "comparison.csv", comparison)
    _formatted_once(tmp_path / "comparison.csv", len(comparison))


def test_simulate_formats_each_stamp_once_for_both_files(tmp_path, monkeypatch):
    synthetic_ohlc = oracle.synthetic_ohlc
    monkeypatch.setattr(cli, "synthetic_ohlc", lambda *a, **k: synthetic_ohlc(*a, **k, start_time=_counting_start()))
    assert cli.main(["simulate", "--bars", "60", "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
    assert len(CountingStamp.formatted) == 60 and set(CountingStamp.formatted.values()) == {1}
    monkeypatch.undo()
    assert cli.main(["simulate", "--bars", "60", "--seed", "3", "--out", str(tmp_path / "plain")]) == 0
    for name in ("asset1.csv", "asset2.csv"):
        assert (tmp_path / "sim" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# -- a byte order mark ahead of any input ------------------------------------------

def _bom_copy(path: Path) -> Path:
    """A copy of ``path`` that starts with the UTF-8 byte order mark, as
    spreadsheet tools write one."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def test_every_loader_reads_a_file_that_starts_with_a_bom(tmp_path):
    stamps = [T0, T0.replace(minute=10)]
    trade = TradeRecord(entry_time=T0, entry_price=1.0, side="long", size=5.0, stop_price=0.99, target_price=1.03)
    trade.close(T0.replace(minute=10), 1.03, "target")
    files = {name: tmp_path / name for name in (
        "ohlc.csv", "run.cfg", "params.txt", "stats.txt", "fits.jsonl", "trades.csv", "equity.csv",
        "diagnostics.csv", "obs.csv", "comparison.csv",
    )}
    files["ohlc.csv"].write_text(OHLC_TEXT, encoding="utf-8")
    files["run.cfg"].write_text("# a comment\n" + data_io.config_to_text(BacktestConfig()), encoding="utf-8")
    save_params(cli._default_sim_params(3, 8, 1), files["params.txt"])
    data_io.write_stats_txt(files["stats.txt"], PerfStats(ret=1.5, vol=2.0, ratio=0.75, delta_ratio=None))
    data_io.write_fit_log(files["fits.jsonl"], [FitRecord(window_end=T0, sweeps_run=1, trace=[-3.5, -3.25])])
    data_io.write_trades_csv(files["trades.csv"], [trade])
    data_io.write_equity_csv(files["equity.csv"], EquityCurve(timestamps=stamps, values=np.array([1.0, 2.5])))
    data_io.write_diagnostics_csv(files["diagnostics.csv"], Diagnostics(stamps, signal_side=["long", "none"]))
    data_io.write_obs_csv(files["obs.csv"], ObservationSequence(np.array([[0, 3], [2, 1]])))
    data_io.write_comparison_csv(
        files["comparison.csv"], ComparisonResult(stamps, np.array([1, 2]), np.array([1, 0]), np.array([0.5, 1.5]), np.array([0.5, 2.5]))
    )
    loaders = [
        (data_io.load_ohlc_csv, "ohlc.csv"), (oracle.load_ohlc_rows, "ohlc.csv"), (data_io.load_config, "run.cfg"),
        (load_params, "params.txt"), (data_io.load_stats_txt, "stats.txt"), (data_io.load_fit_log, "fits.jsonl"),
        (data_io.load_trades_csv, "trades.csv"), (data_io.load_equity_csv, "equity.csv"),
        (data_io.load_diagnostics_csv, "diagnostics.csv"), (data_io.load_obs_csv, "obs.csv"),
        (data_io.load_comparison_csv, "comparison.csv"),
    ]
    for loader, name in loaders:
        # pickle compares every field, arrays and the stamps' carried text included
        assert pickle.dumps(loader(_bom_copy(files[name]))) == pickle.dumps(loader(files[name])), loader.__name__
    assert data_io.load_ohlc_csv(_bom_copy(files["ohlc.csv"])).timestamps._texts is not None


# -- spaces around a stamp ---------------------------------------------------------

def test_every_stamp_loader_reads_a_stamp_padded_with_spaces(tmp_path):
    # The OHLC and equity loaders have always read a padded stamp cell;
    # the other loaders of stamped files read one the same way.
    stamps = [T0, T0.replace(minute=10)]
    trade = TradeRecord(entry_time=T0, entry_price=1.0, side="long", size=5.0, stop_price=0.99, target_price=1.03)
    trade.close(T0.replace(minute=10), 1.03, "target")
    files = [
        ("trades.csv", data_io.write_trades_csv, [trade], data_io.load_trades_csv),
        ("diagnostics.csv", data_io.write_diagnostics_csv, Diagnostics(stamps, signal_side=["long", "none"]),
         data_io.load_diagnostics_csv),
        ("comparison.csv", data_io.write_comparison_csv,
         ComparisonResult(stamps, np.array([1, 2]), np.array([1, 0]), np.array([0.5, 1.5]), np.array([0.5, 2.5])),
         data_io.load_comparison_csv),
        ("fits.jsonl", data_io.write_fit_log, [FitRecord(window_end=T0, sweeps_run=1, trace=[-3.5, -3.25])],
         data_io.load_fit_log),
    ]
    for name, write_file, value, load in files:
        path, padded = tmp_path / name, tmp_path / f"padded-{name}"
        write_file(path, value)
        data = path.read_bytes()
        for ts in stamps:
            data = data.replace(ts.isoformat().encode(), f"  {ts.isoformat()} ".encode())
        assert data.count(b"  2013-01-01T00:") == (1 if name == "fits.jsonl" else 2), name
        padded.write_bytes(data)
        assert pickle.dumps(load(padded)) == pickle.dumps(load(path)), name


# -- the stamp text of a file on the row route --------------------------------------

def _quoted_stamps(data: bytes) -> bytes:
    """OHLC CSV bytes with every data row's stamp cell quoted."""
    header, *rows = data.split(b"\r\n")
    return b"\r\n".join([header] + [b'"' + row.replace(b",", b'",', 1) if row else row for row in rows])


@pytest.mark.parametrize(
    "edit", [lambda data: data + b"\r\n", _quoted_stamps], ids=["trailing-blank-line", "quoted-stamps"]
)
def test_a_canonical_file_on_the_row_route_keeps_its_stamp_text(tmp_path, monkeypatch, edit):
    # The row route hands its stamp text to Stamps as the block route
    # does, so a canonical file that takes it loads as its plain copy,
    # text included, and the backtest writes the same bytes from it.
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--bars", "80", "--seed", "7", "--out", str(sim)]) == 0
    plain, copy = sim / "asset1.csv", sim / "row-route-asset1.csv"
    copy.write_bytes(edit(plain.read_bytes()))
    load_rows, routed = data_io._load_ohlc_rows, []
    monkeypatch.setattr(data_io, "_load_ohlc_rows", lambda path: routed.append(path) or load_rows(path))
    bars = data_io.load_ohlc_csv(copy)
    assert routed == [copy]
    assert bars.timestamps._texts is not None
    assert pickle.dumps(bars) == pickle.dumps(data_io.load_ohlc_csv(plain))
    for asset1, out in ((plain, "out-plain"), (copy, "out-row-route")):
        argv = ["backtest", "--asset1", str(asset1), "--asset2", str(sim / "asset2.csv"), "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0
    for name in ("equity.csv", "diagnostics.csv"):
        assert (tmp_path / "out-row-route" / name).read_bytes() == (tmp_path / "out-plain" / name).read_bytes(), name
