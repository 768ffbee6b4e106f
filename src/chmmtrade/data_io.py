"""File formats: OHLC CSV ingestion, alignment, config text, result export.

All files are plain delimited text with fixed column orders; every
writer here has a matching loader so outputs round-trip.  Numbers are
written with ``repr`` so float64 values survive a round trip bit-stably.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .backtest import (
    BacktestConfig,
    ComparisonRow,
    DiagnosticRow,
    EquityCurve,
    FitRecord,
    PerfStats,
    TradeRecord,
)
from .indicators import OhlcBar
from .training import FitConfig

__all__ = [
    "AlignedPair",
    "load_ohlc_csv",
    "write_ohlc_csv",
    "align",
    "load_config",
    "backtest_config_from_mapping",
    "config_to_text",
    "write_trades_csv",
    "load_trades_csv",
    "write_equity_csv",
    "load_equity_csv",
    "write_diagnostics_csv",
    "load_diagnostics_csv",
    "write_stats_txt",
    "load_stats_txt",
    "write_obs_csv",
    "load_obs_csv",
    "write_fit_log",
    "load_fit_log",
    "write_comparison_csv",
    "load_comparison_csv",
]

log = logging.getLogger(__name__)

OHLC_HEADER = ["timestamp", "open", "high", "low", "close"]


@dataclass(frozen=True)
class AlignedPair:
    """Two series trimmed to their common timestamps."""

    bars1: list[OhlcBar]
    bars2: list[OhlcBar]
    dropped: list[datetime]


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def load_ohlc_csv(path) -> list[OhlcBar]:
    """Read, validate, sort and deduplicate an OHLC file.

    Expects the exact header ``timestamp,open,high,low,close`` with
    ISO-8601 UTC timestamps.  Duplicate timestamps keep the last record
    in file order (with a logged warning); every bar must satisfy the
    OHLC invariant.  Errors name the offending line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != OHLC_HEADER:
            raise ValueError(f"{path}: line 1: expected header {','.join(OHLC_HEADER)}")
        by_ts: dict[datetime, OhlcBar] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ValueError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            try:
                ts = _parse_timestamp(row[0].strip())
                o, h, l, c = (float(v) for v in row[1:])
                bar = OhlcBar(timestamp=ts, open=o, high=h, low=l, close=c)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if ts in by_ts:
                log.warning("%s: line %d: duplicate timestamp %s, keeping later record", path, lineno, ts)
            by_ts[ts] = bar
    if not by_ts:
        raise ValueError(f"{path}: no data rows")
    return [by_ts[ts] for ts in sorted(by_ts)]


def write_ohlc_csv(path, bars) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OHLC_HEADER)
        for b in bars:
            writer.writerow([b.timestamp.isoformat(), repr(float(b.open)), repr(float(b.high)), repr(float(b.low)), repr(float(b.close))])


def align(bars1, bars2) -> AlignedPair:
    """Inner-join two series on timestamp; dropped stamps are reported.

    Bars missing on either side are dropped rather than filled, so no
    synthetic prices ever reach the indicators.  Raises ValueError when
    the intersection is empty.
    """
    if not bars1 or not bars2:
        raise ValueError("cannot align an empty series")
    ts1 = {b.timestamp for b in bars1}
    ts2 = {b.timestamp for b in bars2}
    common = ts1 & ts2
    if not common:
        raise ValueError("no overlapping timestamps between the two series")
    dropped = sorted(ts1 ^ ts2)
    out1 = [b for b in bars1 if b.timestamp in common]
    out2 = [b for b in bars2 if b.timestamp in common]
    return AlignedPair(bars1=out1, bars2=out2, dropped=dropped)


# -- flat key-value config ------------------------------------------------

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}

_CONFIG_KEYS = {
    "system": str,
    "lookback": int,
    "n_states": int,
    "n_bins": int,
    "indicator_period": int,
    "sma_period": int,
    "atr_period": int,
    "stop_mult": float,
    "target_mult": float,
    "dynamic_allocation": bool,
    "predictor": str,
    "notional": float,
    "fidelity": str,
    "seed": int,
    "sweeps": int,
    "rel_tol": float,
    "warm_start": bool,
}
_FIT_KEYS = ("sweeps", "rel_tol", "warm_start")


def load_config(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def backtest_config_from_mapping(mapping: dict) -> BacktestConfig:
    """Build a BacktestConfig (and its embedded FitConfig) from raw strings."""
    parsed: dict = {}
    for key, raw in mapping.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            parsed[key] = _BOOL_WORDS[str(raw).strip().lower()] if kind is bool else kind(raw)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"config key {key!r}: expected {_KIND_NAMES[kind]}, got {raw!r}") from None
    fit_kwargs = {k: parsed.pop(k) for k in _FIT_KEYS if k in parsed}
    return BacktestConfig(fit=FitConfig(**fit_kwargs), **parsed)


def config_to_text(cfg: BacktestConfig) -> str:
    lines = []
    for key, kind in _CONFIG_KEYS.items():
        value = getattr(cfg.fit if key in _FIT_KEYS else cfg, key)
        if kind is bool:
            text = str(value).lower()
        elif kind is float:
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


# -- result files ----------------------------------------------------------

TRADES_HEADER = [
    "entry_time", "side", "size", "entry_price", "stop_price", "target_price",
    "exit_time", "exit_price", "exit_reason", "pnl",
]


def write_trades_csv(path, trades) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRADES_HEADER)
        for tr in trades:
            writer.writerow([
                tr.entry_time.isoformat(), tr.side, repr(float(tr.size)), repr(float(tr.entry_price)),
                repr(float(tr.stop_price)), repr(float(tr.target_price)),
                tr.exit_time.isoformat() if tr.exit_time else "",
                repr(float(tr.exit_price)) if tr.exit_price is not None else "",
                tr.exit_reason or "",
                repr(float(tr.pnl)) if tr.pnl is not None else "",
            ])


def load_trades_csv(path) -> list[TradeRecord]:
    trades = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            tr = TradeRecord(
                entry_time=_parse_timestamp(row["entry_time"]),
                entry_price=float(row["entry_price"]),
                side=row["side"],
                size=float(row["size"]),
                stop_price=float(row["stop_price"]),
                target_price=float(row["target_price"]),
            )
            if row["exit_time"]:
                tr.exit_time = _parse_timestamp(row["exit_time"])
                tr.exit_price = float(row["exit_price"])
                tr.exit_reason = row["exit_reason"]
                tr.pnl = float(row["pnl"])
            trades.append(tr)
    return trades


EQUITY_HEADER = ["timestamp", "equity"]


def write_equity_csv(path, equity: EquityCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EQUITY_HEADER)
        for ts, v in zip(equity.timestamps, equity.values):
            writer.writerow([ts.isoformat(), repr(float(v))])


def load_equity_csv(path) -> EquityCurve:
    """Read an equity file headed ``timestamp,equity``; errors name the line."""
    stamps, values = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != EQUITY_HEADER:
            raise ValueError(f"{path}: line 1: expected header {','.join(EQUITY_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                stamps.append(_parse_timestamp(row[0].strip()))
                values.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not stamps:
        raise ValueError(f"{path}: no equity rows")
    return EquityCurve(timestamps=stamps, values=np.asarray(values))


DIAG_HEADER = [
    "timestamp", "predicted_value", "predicted_state", "transition_prob",
    "predicted_value2", "predicted_state2", "signal_side",
]


def write_diagnostics_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAG_HEADER)
        for r in rows:
            writer.writerow([
                r.timestamp.isoformat(),
                repr(float(r.predicted_value)),
                "" if r.predicted_state is None else r.predicted_state,
                repr(float(r.transition_prob)),
                repr(float(r.predicted_value2)),
                "" if r.predicted_state2 is None else r.predicted_state2,
                r.signal_side,
            ])


def load_diagnostics_csv(path) -> list[DiagnosticRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(
                DiagnosticRow(
                    timestamp=_parse_timestamp(row["timestamp"]),
                    predicted_value=float(row["predicted_value"]),
                    predicted_state=int(row["predicted_state"]) if row["predicted_state"] else None,
                    transition_prob=float(row["transition_prob"]),
                    predicted_value2=float(row["predicted_value2"]),
                    predicted_state2=int(row["predicted_state2"]) if row["predicted_state2"] else None,
                    signal_side=row["signal_side"],
                )
            )
    return rows


def write_stats_txt(path, stats: PerfStats) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ret = {float(stats.ret)!r}\n")
        fh.write(f"vol = {float(stats.vol)!r}\n")
        fh.write(f"ratio = {float(stats.ratio)!r}\n")
        fh.write(f"delta_ratio = {'' if stats.delta_ratio is None else repr(float(stats.delta_ratio))}\n")


def load_stats_txt(path) -> PerfStats:
    with open(path, "r", encoding="utf-8") as fh:
        fields = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    delta = fields.get("delta_ratio", "")
    return PerfStats(
        ret=float(fields["ret"]),
        vol=float(fields["vol"]),
        ratio=float(fields["ratio"]),
        delta_ratio=float(delta) if delta else None,
    )


def write_obs_csv(path, obs) -> None:
    """Observation bins as two integer columns headed ``o1,o2``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["o1", "o2"])
        for a, b in zip(obs.bins[0], obs.bins[1]):
            writer.writerow([int(a), int(b)])


def load_obs_csv(path):
    from .model import ObservationSequence

    o1, o2 = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            try:
                o1.append(int(row["o1"]))
                o2.append(int(row["o2"]))
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{path}: line {lineno}: expected integer columns o1,o2") from None
    if not o1:
        raise ValueError(f"{path}: no observation rows")
    return ObservationSequence.from_lists(o1, o2)


def write_fit_log(path, records) -> None:
    """Per-fit diagnostics as line-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "window_end": rec.window_end.isoformat(),
                "sweeps_run": int(rec.sweeps_run),
                "trace": [float(v) for v in rec.trace],
            }) + "\n")


def load_fit_log(path) -> list[FitRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            records.append(
                FitRecord(
                    window_end=_parse_timestamp(obj["window_end"]),
                    sweeps_run=int(obj["sweeps_run"]),
                    trace=[float(v) for v in obj["trace"]],
                )
            )
    return records


COMPARISON_HEADER = ["timestamp", "state_marginal", "state_viterbi", "value_marginal", "value_viterbi"]


def write_comparison_csv(path, rows) -> None:
    """Per-bar predictor comparison rows, one line per decision bar."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for r in rows:
            writer.writerow([
                r.timestamp.isoformat(), r.state_marginal, r.state_viterbi,
                repr(r.value_marginal), repr(r.value_viterbi),
            ])


def load_comparison_csv(path) -> list[ComparisonRow]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(
                ComparisonRow(
                    timestamp=_parse_timestamp(row["timestamp"]),
                    state_marginal=int(row["state_marginal"]),
                    state_viterbi=int(row["state_viterbi"]),
                    value_marginal=float(row["value_marginal"]),
                    value_viterbi=float(row["value_viterbi"]),
                )
            )
    return rows
