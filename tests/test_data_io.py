import logging
import tempfile
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from chmmtrade import BacktestConfig, EquityCurve, ObservationSequence, OhlcSeries, PerfStats, TradeRecord, load_params
from chmmtrade.backtest import ComparisonResult, Diagnostics, FitRecord
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
    (data_io.load_fit_log, '{"window_end": "2013-01-01T00:00:00+00:00", "sweeps_run": 1, "trace": [-1.0]}\n'
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

OFFSETS = {"Z": timezone.utc, "+01:00": timezone(timedelta(hours=1)), "naive": None}


def _stamp_text(instant: datetime, style: str) -> str:
    if style == "naive":
        return instant.replace(tzinfo=None).isoformat()
    text = instant.astimezone(OFFSETS[style]).isoformat()
    return text.replace("+00:00", "Z")


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
    common, each written Z, +01:00 or naive."""
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
    """Collect the loader's duplicate-timestamp warnings."""
    seen = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: seen.append(record.getMessage())
    logger = logging.getLogger("chmmtrade.data_io")
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
