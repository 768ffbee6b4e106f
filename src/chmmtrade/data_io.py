"""File formats: OHLC CSV ingestion, alignment, config text, result export.

All files are plain delimited text with fixed column orders; every
writer here has a matching loader so outputs round-trip.  Numbers are
written with ``repr`` so float64 values survive a round trip bit-stably.
Every reader accepts a leading UTF-8 byte order mark and spaces around a
stamp.  The OHLC reader parses a file of plain lines in blocks and any
other file one ``csv`` row at a time; either way ``Stamps`` gets the text
the stamps were read from and keeps it if ``isoformat`` writes it so.  A
``Stamps`` column supplies the ``isoformat`` text the writers write and
formats it at most once; the per-bar results sliced from a column that
holds its text (a loaded series) carry that text, so no writer formats
them again.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import islice
from typing import get_args, get_type_hints

import numpy as np

from .backtest import (
    BacktestConfig,
    ComparisonResult,
    Diagnostics,
    EquityCurve,
    FitRecord,
    PerfStats,
    TradeRecord,
)
from .indicators import OhlcSeries, Stamps, _bad_rows, _row_problem
from .model import ObservationSequence, _key_values
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

    bars1: OhlcSeries
    bars2: OhlcSeries
    dropped: list[datetime]


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _iso(stamps) -> Sequence[str]:
    """The ISO-8601 text of each stamp: a ``Stamps`` column's own text,
    else formatted here."""
    return stamps.isoformat() if isinstance(stamps, Stamps) else [ts.isoformat() for ts in stamps]


def _header_reader(fh, path, header: list[str]):
    """A ``csv`` reader over ``fh`` past its first record, which must be
    exactly ``header``; an empty file or a wrong header raises ValueError
    naming the path."""
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None:
        raise ValueError(f"{path}: empty file")
    if [h.strip() for h in first] != header:
        raise ValueError(f"{path}: line 1: expected header {','.join(header)}")
    return reader


def _csv_rows(path, header: list[str]):
    """``(line number, fields)`` of every data row of a CSV that must start
    with exactly ``header``; blank lines are skipped, and an empty file, a
    wrong header or a row of another width raises ValueError naming the
    path and line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _header_reader(fh, path, header)
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            yield lineno, row


def _csv_records(path, header: list[str], parse) -> list:
    """``parse(fields)`` of every data row of ``_csv_rows``; a ValueError
    from ``parse`` names the path and line."""
    records = []
    for lineno, row in _csv_rows(path, header):
        try:
            records.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def _write_csv(path, header: list[str], fmt: str, *columns) -> None:
    """Write the header line, then ``fmt.format`` of each row of
    ``columns``; ``fmt`` ends its line in ``\\r\\n``.  No field written
    here holds a comma, a quote or a line break, so none needs quoting and
    the bytes are those ``csv.writer`` would write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(fmt.format, *columns))


# Lines per block of an OHLC file; the tests patch it down to put rows at
# block boundaries.
_BLOCK_LINES = 4096
# Characters that send a file to the row route: the quote, NUL, and
# \x1c-\x1f, which numpy's number parser strips as white space and
# ``float`` does not.
_ROW_ROUTE_CHARS = '"\0\x1c\x1d\x1e\x1f'


def _plain_block(block: list[str]):
    """``(stamps, texts, prices)`` of a block of plain OHLC lines, else
    None; ``texts`` is the stamps' text as written.

    Plain lines are ASCII, hold none of ``_ROW_ROUTE_CHARS``, fit the csv
    field size limit and have exactly five comma-separated fields: an
    ISO-8601 stamp that ``fromisoformat`` reads as it is, then four prices
    that numpy's parser reads (one ``loadtxt`` call for the block; on such
    text it and ``float`` agree bit for bit).  The comma count caps the
    total width and ``loadtxt`` refuses a line short of five fields, so
    every line has exactly five.  A blank line, which ``loadtxt`` skips,
    makes the block not plain: its row count falls short of its line
    count.  A naive stamp is read as UTC.
    """
    text = "".join(block)
    if (
        not text.isascii()
        or any(map(text.__contains__, _ROW_ROUTE_CHARS))
        or text.count(",") != 4 * len(block)
        or max(map(len, block)) > csv.field_size_limit()
    ):
        return None
    try:
        prices = np.loadtxt(block, dtype=np.float64, delimiter=",", comments=None, usecols=(1, 2, 3, 4), ndmin=2)
        texts = [line.partition(",")[0] for line in block]
        stamps = list(map(datetime.fromisoformat, texts))
    except ValueError:
        return None
    if len(prices) != len(block):
        return None
    if None in map(operator.attrgetter("tzinfo"), stamps):
        stamps = [ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts for ts in stamps]
    return stamps, texts, prices


def _load_ohlc_rows(path) -> OhlcSeries:
    """``load_ohlc_csv`` one ``csv`` row at a time.  A stamp, width or
    decode error is raised where it is met, an unreadable price once every
    row is read."""
    stamps: list[datetime] = []
    texts: list[str] = []
    cells: list[str] = []  # open, high, low, close of every row, row after row
    lines: list[int] = []
    for lineno, row in _csv_rows(path, OHLC_HEADER):
        texts.append(row[0].strip())
        try:
            stamps.append(_parse_timestamp(texts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        cells += row[1:]
        lines.append(lineno)
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells)).reshape(-1, 4)
    except ValueError:
        for k, lineno in enumerate(lines):  # name the first row that does not parse
            try:
                [float(v) for v in cells[4 * k: 4 * k + 4]]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        raise
    return _ohlc_series(path, stamps, texts, values, lines)


def _ohlc_series(path, stamps: list[datetime], texts: list[str], values: np.ndarray, lines) -> OhlcSeries:
    """The series of an OHLC file's rows, in file order: their stamps, the
    text each was read from (for ``Stamps._read``), their ``(rows, 4)``
    prices and line numbers.  The checks, sort and dedupe of ``load_ohlc_csv``."""
    if not stamps:
        raise ValueError(f"{path}: no data rows")
    column = Stamps._read(stamps, texts)
    bad = _bad_rows(*values.T)
    if not bad.size and all(map(operator.lt, stamps, islice(stamps, 1, None))):
        return OhlcSeries(column, *values.T)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: line {lines[i]}: {_row_problem(stamps[i], *values[i].tolist())}")
    last: dict[datetime, int] = {}
    for i, ts in enumerate(stamps):
        if ts in last:
            log.warning("%s: line %d: duplicate timestamp %s, keeping later record", path, lines[i], ts)
        last[ts] = i
    keep = [last[ts] for ts in sorted(last)]
    return OhlcSeries(column.take(keep), *values[keep].T)


def load_ohlc_csv(path) -> OhlcSeries:
    """Read, validate, sort and deduplicate an OHLC file.

    Expects the exact header ``timestamp,open,high,low,close`` with
    ISO-8601 UTC timestamps.  Duplicate timestamps keep the last record
    in file order (with a logged warning); every row must be finite and
    satisfy the OHLC invariant.  Errors name the offending line, counting
    lines as the ``csv`` reader counts records.

    When every block of ``_BLOCK_LINES`` lines is plain (``_plain_block``),
    the file is parsed block by block and row ``i`` is line ``i + 2``.  At
    the first block that is not plain, or at a decode error, the whole
    file is read again by ``_load_ohlc_rows``, so a file that is plain but
    for one block reads at the row route's speed.  Both routes end in
    ``_ohlc_series``, which hands the stamps' text to ``Stamps._read``.
    """
    stamps: list[datetime] = []
    texts: list[str] = []
    prices = [np.empty((0, 4))]  # (rows, 4) open, high, low, close of each block
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        _header_reader(fh, path, OHLC_HEADER)
        plain = ()  # no block read yet
        try:
            while block := list(islice(fh, _BLOCK_LINES)):
                plain = _plain_block(block)
                if plain is None:
                    break
                stamps += plain[0]
                texts += plain[1]
                prices.append(plain[2])
        except UnicodeDecodeError:
            plain = None
    if plain is None:
        return _load_ohlc_rows(path)
    return _ohlc_series(path, stamps, texts, np.concatenate(prices), range(2, 2 + len(stamps)))


def write_ohlc_csv(path, bars: OhlcSeries) -> None:
    columns = (bars.open, bars.high, bars.low, bars.close)
    _write_csv(
        path, OHLC_HEADER, "{},{!r},{!r},{!r},{!r}\r\n", _iso(bars.timestamps), *(col.tolist() for col in columns)
    )


def align(bars1: OhlcSeries, bars2: OhlcSeries) -> AlignedPair:
    """Inner-join two series on timestamp; dropped stamps are reported.

    Bars missing on either side are dropped rather than filled, so no
    synthetic prices ever reach the indicators.  Series whose timestamps
    already match come back as they are.  Raises ValueError when the
    intersection is empty.
    """
    if not len(bars1) or not len(bars2):
        raise ValueError("cannot align an empty series")
    if bars1.timestamps == bars2.timestamps:
        return AlignedPair(bars1=bars1, bars2=bars2, dropped=[])
    ts1 = set(bars1.timestamps)
    ts2 = set(bars2.timestamps)
    common = ts1 & ts2
    if not common:
        raise ValueError("no overlapping timestamps between the two series")
    keep1 = [i for i, ts in enumerate(bars1.timestamps) if ts in common]
    keep2 = [i for i, ts in enumerate(bars2.timestamps) if ts in common]
    return AlignedPair(bars1=bars1[keep1], bars2=bars2[keep2], dropped=sorted(ts1 ^ ts2))


# -- flat key-value config ------------------------------------------------

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


def _field_kinds(cls) -> dict[str, type]:
    """Field name -> value kind of a config dataclass, in field order; an
    optional field's kind is its non-None type."""
    hints = get_type_hints(cls)
    return {
        f.name: next((k for k in get_args(hints[f.name]) if k is not type(None)), hints[f.name])
        for f in fields(cls)
    }


# The config file's keys, in file order: every BacktestConfig field but the
# embedded FitConfig, then that FitConfig's own fields.
_FIT_KINDS = _field_kinds(FitConfig)
_CONFIG_KINDS = {key: kind for key, kind in _field_kinds(BacktestConfig).items() if kind is not FitConfig}
_CONFIG_KINDS.update(_FIT_KINDS)


def load_config(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _key_values(fh, path)


def backtest_config_from_mapping(mapping: dict) -> BacktestConfig:
    """Build a BacktestConfig (and its embedded FitConfig) from raw strings.

    A key is a field of either dataclass and its text is read as that
    field's kind; an unknown key or an unreadable value raises ValueError.
    """
    parsed: dict = {}
    for key, raw in mapping.items():
        if key not in _CONFIG_KINDS:
            raise ValueError(f"unknown config key {key!r}")
        kind = _CONFIG_KINDS[key]
        try:
            parsed[key] = _BOOL_WORDS[str(raw).strip().lower()] if kind is bool else kind(raw)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"config key {key!r}: expected {_KIND_NAMES[kind]}, got {raw!r}") from None
    fit_kwargs = {k: parsed.pop(k) for k in _FIT_KINDS if k in parsed}
    return BacktestConfig(fit=FitConfig(**fit_kwargs), **parsed)


def config_to_text(cfg: BacktestConfig) -> str:
    lines = []
    for key, kind in _CONFIG_KINDS.items():
        value = getattr(cfg.fit if key in _FIT_KINDS else cfg, key)
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
    """One line per trade; an open trade's exit fields are empty."""
    _write_csv(path, TRADES_HEADER, "{}\r\n", (
        ",".join((
            tr.entry_time.isoformat(), tr.side, repr(float(tr.size)), repr(float(tr.entry_price)),
            repr(float(tr.stop_price)), repr(float(tr.target_price)),
            tr.exit_time.isoformat() if tr.exit_time else "",
            repr(float(tr.exit_price)) if tr.exit_price is not None else "",
            tr.exit_reason or "",
            repr(float(tr.pnl)) if tr.pnl is not None else "",
        ))
        for tr in trades
    ))


def _trade(row: list[str]) -> TradeRecord:
    entry_time, side, size, entry_price, stop_price, target_price, exit_time, exit_price, exit_reason, pnl = row
    tr = TradeRecord(entry_time=_parse_timestamp(entry_time), entry_price=float(entry_price), side=side,
                     size=float(size), stop_price=float(stop_price), target_price=float(target_price))
    if exit_time:
        tr.exit_time = _parse_timestamp(exit_time)
        tr.exit_price = float(exit_price)
        tr.exit_reason = exit_reason
        tr.pnl = float(pnl)
    return tr


def load_trades_csv(path) -> list[TradeRecord]:
    """Read a trades file; a wrong header or a bad row names the line."""
    return _csv_records(path, TRADES_HEADER, _trade)


EQUITY_HEADER = ["timestamp", "equity"]


def write_equity_csv(path, equity: EquityCurve) -> None:
    values = np.asarray(equity.values, dtype=float).tolist()
    _write_csv(path, EQUITY_HEADER, "{},{!r}\r\n", _iso(equity.timestamps), values)


def load_equity_csv(path) -> EquityCurve:
    """Read an equity file headed ``timestamp,equity``; errors name the line."""
    rows = _csv_records(path, EQUITY_HEADER, lambda row: (_parse_timestamp(row[0]), float(row[1])))
    if not rows:
        raise ValueError(f"{path}: no equity rows")
    stamps, values = zip(*rows)
    return EquityCurve(timestamps=list(stamps), values=np.asarray(values))


DIAG_HEADER = [
    "timestamp", "predicted_value", "predicted_state", "transition_prob",
    "predicted_value2", "predicted_state2", "signal_side",
]


def write_diagnostics_csv(path, diagnostics: Diagnostics) -> None:
    """One line per decision bar; a baseline run, which has no model
    columns, writes NaN forecasts and fractions and empty states."""
    d = diagnostics
    if d.predicted_value is None:
        _write_csv(path, DIAG_HEADER, "{},nan,,nan,nan,,{}\r\n", _iso(d.timestamps), d.signal_side)
        return
    _write_csv(
        path, DIAG_HEADER, "{},{!r},{},{!r},{!r},{},{}\r\n", _iso(d.timestamps),
        d.predicted_value.tolist(), d.predicted_state.tolist(), d.transition_prob.tolist(),
        d.predicted_value2.tolist(), d.predicted_state2.tolist(), d.signal_side,
    )


def load_diagnostics_csv(path) -> Diagnostics:
    """Read a diagnostics file; a wrong header or a bad row names the line.
    A file whose state cells are all empty is a baseline run's and loads
    with the model columns None; one mixing empty and filled ones is refused."""
    blank_states: set[bool] = set()

    def parse(row: list[str]) -> tuple:
        stamp, value, state, prob, value2, state2, side = row
        blank_states.update((not state, not state2))
        if len(blank_states) > 1:
            raise ValueError("state cells are empty on some rows and filled on others")
        state, state2 = (int(state), int(state2)) if state else (None, None)
        return _parse_timestamp(stamp), float(value), state, float(prob), float(value2), state2, side

    stamps, *model, sides = list(zip(*_csv_records(path, DIAG_HEADER, parse))) or [()] * 7
    modeled = blank_states == {False}
    return Diagnostics(list(stamps), *(map(np.array, model) if modeled else ()), signal_side=list(sides))


def write_stats_txt(path, stats: PerfStats) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in vars(stats).items():
            fh.write(f"{key} = {'' if value is None else repr(float(value))}\n")


def load_stats_txt(path) -> PerfStats:
    """Read a stats file; a missing key or a bad number names the key and the path."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        fields = _key_values(fh, path)
    numbers = {}
    for key in ("ret", "vol", "ratio", "delta_ratio"):
        text = fields.get(key)
        if key == "delta_ratio" and not text:
            numbers[key] = None
            continue
        if text is None:
            raise ValueError(f"{path}: missing key {key!r}")
        try:
            numbers[key] = float(text)
        except ValueError:
            raise ValueError(f"{path}: key {key!r}: expected a number, got {text!r}") from None
    return PerfStats(**numbers)


OBS_HEADER = ["o1", "o2"]


def write_obs_csv(path, obs) -> None:
    """Observation bins as two integer columns headed ``o1,o2``."""
    _write_csv(path, OBS_HEADER, "{},{}\r\n", *obs.bins.tolist())


def _obs_bins(row: list[str]) -> tuple[int, int]:
    try:
        bins = int(row[0]), int(row[1])
    except ValueError:
        raise ValueError("expected integer columns o1,o2") from None
    if min(bins) < 0:
        raise ValueError(f"negative observation bin {min(bins)}")
    return bins


def load_obs_csv(path) -> ObservationSequence:
    """Read an observation file headed ``o1,o2``; a bad row names the line."""
    rows = _csv_records(path, OBS_HEADER, _obs_bins)
    if not rows:
        raise ValueError(f"{path}: no observation rows")
    return ObservationSequence.from_lists(*zip(*rows))


def write_fit_log(path, records) -> None:
    """Per-fit diagnostics as line-delimited JSON, one ``FitRecord`` a line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "window_end": rec.window_end.isoformat(), "sweeps_run": rec.sweeps_run, "trace": rec.trace,
            }) + "\n")


def load_fit_log(path) -> list[FitRecord]:
    """Read a fit log; a line that is not a fit record (see ``FitRecord``)
    names the path and line."""
    records = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                window_end = _parse_timestamp(obj["window_end"])
                records.append(FitRecord(window_end=window_end, sweeps_run=obj["sweeps_run"], trace=obj["trace"]))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float's range
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"{path}: line {lineno}: not a fit record: {detail}") from None
    return records


COMPARISON_HEADER = ["timestamp", "state_marginal", "state_viterbi", "value_marginal", "value_viterbi"]


def write_comparison_csv(path, comparison: ComparisonResult) -> None:
    """Per-bar predictor comparison, one line per decision bar."""
    c = comparison
    _write_csv(
        path, COMPARISON_HEADER, "{},{},{},{!r},{!r}\r\n", _iso(c.timestamps),
        c.state_marginal.tolist(), c.state_viterbi.tolist(), c.value_marginal.tolist(), c.value_viterbi.tolist(),
    )


def load_comparison_csv(path) -> ComparisonResult:
    """Read a comparison file; a wrong header or a bad row names the line."""
    records = _csv_records(path, COMPARISON_HEADER, lambda r: (
        _parse_timestamp(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4])
    ))
    if not records:
        raise ValueError(f"{path}: no comparison rows")
    stamps, *columns = zip(*records)
    return ComparisonResult(list(stamps), *map(np.array, columns, (int, int, float, float)))
