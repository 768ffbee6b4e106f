"""Bar loop in two passes: a model pass refits and forecasts at every
decision bar, then a trading pass signals, fills and bracket-exits.

Decisions happen at bar closes using only data up to that close; entries
fill at the next bar's open; exits fill at frozen stop/target levels
derived from the ATR at signal time.  Only the first instrument is
traded, the second acts as the coupled filter, though its predictions
are recorded for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .indicators import CCI_DISCRETIZER, RSI_DISCRETIZER, Discretizer, OhlcSeries, atr, cci, discretize, rsi
from .inference import coupled_viterbi, forward
from .model import ChmmParams, ObservationSequence, jittered_params
from .strategy import (
    FIDELITIES,
    allocation_fraction,
    crossing_side,
    next_state_marginal,
    next_state_viterbi,
    predict_observation,
)
from .training import FitConfig, fit

__all__ = [
    "BacktestConfig",
    "TradeRecord",
    "EquityCurve",
    "PerfStats",
    "Diagnostics",
    "FitRecord",
    "BacktestResult",
    "ComparisonResult",
    "run_backtest",
    "compare_predictors",
    "perf_stats",
    "stats_from_ret_vol",
]

SYSTEM_DEFAULTS = {
    # system: (atr_period, stop_mult, target_mult)
    "rsi": (12, 2.0, 6.0),
    "cci": (24, 4.0, 10.0),
}
PREDICTORS = ("baseline", "marginal", "viterbi")


@dataclass
class BacktestConfig:
    """Backtest knobs; None-valued exit fields inherit system defaults."""

    system: str = "rsi"
    lookback: int = 4
    n_states: int = 5
    n_bins: int = 8
    indicator_period: int = 4
    sma_period: int = 4
    atr_period: int | None = None
    stop_mult: float | None = None
    target_mult: float | None = None
    dynamic_allocation: bool = False
    predictor: str = "marginal"
    notional: float = 1_000_000.0
    fidelity: str = "corrected"
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.system not in SYSTEM_DEFAULTS:
            raise ValueError(f"system must be one of {tuple(SYSTEM_DEFAULTS)}, got {self.system!r}")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"predictor must be one of {PREDICTORS}, got {self.predictor!r}")
        d_atr, d_stop, d_target = SYSTEM_DEFAULTS[self.system]
        if self.atr_period is None:
            self.atr_period = d_atr
        if self.stop_mult is None:
            self.stop_mult = d_stop
        if self.target_mult is None:
            self.target_mult = d_target
        for name in ("lookback", "n_states", "n_bins", "indicator_period", "sma_period", "atr_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.stop_mult < self.target_mult < math.inf:
            raise ValueError(f"need 0 < stop_mult < target_mult < inf, got {self.stop_mult!r} and {self.target_mult!r}")
        if not 0.0 < self.notional < math.inf:
            raise ValueError(f"notional must be positive and finite, got {self.notional!r}")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")

    @property
    def discretizer(self) -> Discretizer:
        base = RSI_DISCRETIZER if self.system == "rsi" else CCI_DISCRETIZER
        return Discretizer(base.lb, base.ub, self.n_bins)


@dataclass
class TradeRecord:
    """One round trip; exit fields stay None while the position is open."""

    entry_time: datetime
    entry_price: float
    side: str
    size: float
    stop_price: float
    target_price: float
    exit_time: datetime | None = None
    exit_price: float | None = None
    exit_reason: str | None = None
    pnl: float | None = None

    def __post_init__(self):
        if self.side == "long":
            ok = self.stop_price < self.entry_price < self.target_price
        elif self.side == "short":
            ok = self.target_price < self.entry_price < self.stop_price
        else:
            raise ValueError(f"side must be 'long' or 'short', got {self.side!r}")
        if not ok:
            raise ValueError(
                f"bracket geometry violated: {self.side} stop={self.stop_price} "
                f"entry={self.entry_price} target={self.target_price}"
            )

    @property
    def direction(self) -> int:
        return 1 if self.side == "long" else -1

    def close(self, when: datetime, price: float, reason: str) -> None:
        self.exit_time = when
        self.exit_price = price
        self.exit_reason = reason
        self.pnl = self.direction * (price - self.entry_price) * self.size


@dataclass
class EquityCurve:
    timestamps: list[datetime]
    values: np.ndarray


@dataclass
class PerfStats:
    ret: float
    vol: float
    ratio: float
    delta_ratio: float | None = None


@dataclass(eq=False)
class Diagnostics:
    """Per-decision-bar columns of one run, named and ordered after the
    diagnostics file's header: both chains' forecasts and next states, the
    traded chain's allocation fraction and the side signalled at each
    bar's close.  The model columns are None for the baseline."""

    timestamps: list[datetime]
    predicted_value: np.ndarray | None = None
    predicted_state: np.ndarray | None = None
    transition_prob: np.ndarray | None = None
    predicted_value2: np.ndarray | None = None
    predicted_state2: np.ndarray | None = None
    signal_side: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class FitRecord:
    window_end: datetime
    sweeps_run: int
    trace: list[float]


@dataclass
class BacktestResult:
    trades: list[TradeRecord]
    equity: EquityCurve
    stats: PerfStats
    diagnostics: Diagnostics
    fit_records: list[FitRecord]


def stats_from_ret_vol(ret: float, vol: float, baseline_ratio: float | None = None) -> PerfStats:
    """Ratio arithmetic on already-computed return and volatility figures.

    Zero volatility (a flat equity curve) has no defined ratio: the ratio,
    and the delta when a baseline is given, are NaN.
    """
    ratio = ret / vol if vol != 0.0 else float("nan")
    delta = None if baseline_ratio is None else ratio - baseline_ratio
    return PerfStats(ret=ret, vol=vol, ratio=ratio, delta_ratio=delta)


def perf_stats(equity: EquityCurve, baseline_ratio: float) -> PerfStats:
    """Total return, horizon-scaled volatility and their ratio.

    Volatility is the standard deviation of per-bar percent returns
    scaled by the square root of the bar count, matching the horizon of
    the total return; the risk-free rate is taken as zero.
    """
    values = np.asarray(equity.values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two equity points")
    return stats_from_ret_vol(*_ret_vol(values), baseline_ratio)


def _ret_vol(values: np.ndarray) -> tuple[float, float]:
    """Total percent return and horizon-scaled percent volatility."""
    rets = np.diff(values) / values[:-1]
    total = (values[-1] / values[0] - 1.0) * 100.0
    vol = float(rets.std() * math.sqrt(rets.size) * 100.0) if rets.size else 0.0
    return total, vol


def _indicator_series(cfg: BacktestConfig, bars: OhlcSeries) -> np.ndarray:
    if cfg.system == "rsi":
        return rsi(bars.close, cfg.indicator_period)
    return cci(bars.high, bars.low, bars.close, cfg.indicator_period)


def _decision_inputs(cfg: BacktestConfig, bars1: OhlcSeries, bars2: OhlcSeries, modeled: bool):
    """Indicator series, the traded series' ATR and the first decision bar.

    The filter series' indicator is computed only when the model is
    refit; the baseline reads the traded series alone and gets None in
    its place.  A decision bar needs a finite ATR and a full window of
    finite indicator values: ``sma_period + 1`` of the traded series for
    the baseline, ``max(sma_period, lookback)`` of both series when the
    model is refit.  Raises ValueError on misaligned series or when no
    bar qualifies.
    """
    if bars1.timestamps != bars2.timestamps:
        raise ValueError("series are misaligned: timestamps must match one-to-one")
    n_bars = len(bars1)
    min_bars = max(cfg.indicator_period, cfg.atr_period) + 1
    if n_bars < min_bars:
        raise ValueError(f"insufficient data: need more than {min_bars - 1} bars, got {n_bars}")

    ind1 = _indicator_series(cfg, bars1)
    ind2 = _indicator_series(cfg, bars2) if modeled else None
    atr1 = atr(bars1.high, bars1.low, bars1.close, cfg.atr_period)
    hist = max(cfg.sma_period, cfg.lookback) if modeled else cfg.sma_period + 1
    for t in range(hist - 1, n_bars):
        window = slice(t - hist + 1, t + 1)
        if (
            np.isfinite(atr1[t])
            and np.isfinite(ind1[window]).all()
            and (not modeled or np.isfinite(ind2[window]).all())
        ):
            return ind1, ind2, atr1, t
    raise ValueError("insufficient data: no bar has a full history window")


def _trigger_means(ind1: np.ndarray, sma_period: int) -> np.ndarray:
    """Mean of every trailing ``sma_period`` window of the traded series,
    indexed by the window's last bar; NaN where the window is not full or
    holds a non-finite value, so no cross is read there.

    Each row of the strided view is summed in the order a slice
    ``.mean()`` takes, so every mean is bit-equal to the one
    ``oracle.signal_side`` takes from the same window.
    """
    windows = sliding_window_view(ind1, sma_period)
    means = np.full(ind1.size, np.nan)
    with np.errstate(invalid="ignore"):  # inf - inf, in a window masked anyway
        means[sma_period - 1:] = np.where(np.isfinite(windows).all(axis=1), windows.mean(axis=1), np.nan)
    return means


def _init_params(cfg: BacktestConfig, t: int) -> ChmmParams:
    return jittered_params(cfg.n_states, cfg.n_bins, seed=(cfg.seed, t, 101))


def _model_pass(cfg: BacktestConfig, stamps, ind1, ind2, t0: int, predictors, prev_params=None):
    """Refit once per decision bar and read each named predictor off the fit.

    Both series are discretised once, from the first bar of the first
    window on; the window of bar ``t`` holds the bins of its last
    ``lookback`` bars.  With warm starting on, its fit starts from the
    previous fit (``prev_params`` for the first window) unless those
    parameters give the window zero likelihood; otherwise from seeded
    jittered parameters.  ``stamps`` are the decision bars' timestamps.

    Returns the fit records and, per predictor, the Diagnostics columns
    of both chains' next states, both forecasts and the traded chain's
    allocation fraction; their signal sides are left to the caller.
    """
    disc = cfg.discretizer
    first = t0 - cfg.lookback + 1
    bins = np.stack([discretize(disc, ind1[first:]), discretize(disc, ind2[first:])])
    fit_records: list[FitRecord] = []
    kinds = (float, int, float, float, int)  # the model columns' dtypes
    readouts = {p: Diagnostics(stamps, *(np.empty(len(stamps), dtype=kind) for kind in kinds)) for p in predictors}
    for i, t in enumerate(range(t0, len(ind1))):
        obs = ObservationSequence(bins[:, i: i + cfg.lookback])
        params0 = prev_params if cfg.fit.warm_start and prev_params is not None else _init_params(cfg, t)
        if not np.isfinite(forward(params0, obs, scale=True).log_joint):
            # Warm-started parameters zeroed a bin this window observes.
            params0 = _init_params(cfg, t)
        result = fit(params0, obs, cfg.fit)
        params = prev_params = result.params
        fit_records.append(FitRecord(window_end=stamps[i], sweeps_run=result.sweeps_run, trace=result.log_likelihoods))
        for predictor, cols in readouts.items():
            if predictor == "viterbi":
                psi = next_state_viterbi(params, coupled_viterbi(params, obs), cfg.fidelity)
            else:
                psi = next_state_marginal(params, cfg.fidelity)
            cols.predicted_state[i], cols.predicted_state2[i] = psi
            cols.predicted_value[i] = predict_observation(params, psi[0], 0, disc)
            cols.predicted_value2[i] = predict_observation(params, psi[1], 1, disc)
            cols.transition_prob[i] = allocation_fraction(params, psi[0], 0, cfg.fidelity)
    return fit_records, readouts


def run_backtest(
    cfg: BacktestConfig, bars1: OhlcSeries, bars2: OhlcSeries, baseline_ratio: float | None = None
) -> BacktestResult:
    """Run the bar loop over two aligned OHLC series; see module docs.

    Deterministic for a fixed ``cfg.seed``.  Raises ValueError on
    misaligned series or when no bar has enough history to decide on.
    """
    modeled = cfg.predictor != "baseline"
    ind1, ind2, atr1, t0 = _decision_inputs(cfg, bars1, bars2, modeled)
    n_bars = len(bars1)
    stamps = bars1.timestamps[t0:]
    means = _trigger_means(ind1, cfg.sma_period)

    # A cross runs from the trigger mean one point back to the mean ending
    # at the last point, which is this bar's value for the baseline and
    # the model's forecast otherwise.  The forecast means come from one
    # (bars, sma_period) matrix, each row summed in the order a 1-D
    # ``.mean()`` takes, as in _trigger_means.
    if modeled:
        fit_records, readouts = _model_pass(cfg, stamps, ind1, ind2, t0, (cfg.predictor,))
        diagnostics = readouts[cfg.predictor]
        k = cfg.sma_period
        windows = np.empty((n_bars - t0, k))
        windows[:, :-1] = sliding_window_view(ind1, k - 1)[t0 - k + 2: n_bars - k + 2]
        windows[:, -1] = diagnostics.predicted_value
        prevs, currs = means[t0:], windows.mean(axis=1)
    else:
        fit_records = []
        diagnostics = Diagnostics(stamps)
        prevs, currs = means[t0 - 1: -1], means[t0:]
    fractions = diagnostics.transition_prob.tolist() if modeled and cfg.dynamic_allocation else repeat(1.0)
    sides = diagnostics.signal_side
    opens, highs, lows, closes, atrs = (
        col[t0:].tolist() for col in (bars1.open, bars1.high, bars1.low, bars1.close, atr1)
    )

    cash = cfg.notional
    # At most one position per side, in fill order.
    open_trades: dict[str, TradeRecord] = {}
    trades: list[TradeRecord] = []
    equity_vals: list[float] = []
    pending = None  # (side, size_fraction, stop_dist, target_dist)

    for t, stamp, open_, high, low, close, atr_now, prev, curr, size_fraction in zip(
        range(t0, n_bars), stamps, opens, highs, lows, closes, atrs, prevs, currs, fractions
    ):
        # 1. Fill the signal raised at the previous close at this bar's open.
        if pending is not None:
            side, frac, stop_dist, target_dist = pending
            pending = None
            if frac > 0.0 and side not in open_trades:
                direction = 1 if side == "long" else -1
                open_trades[side] = TradeRecord(
                    entry_time=stamp, entry_price=open_, side=side, size=cfg.notional * frac,
                    stop_price=open_ - direction * stop_dist, target_price=open_ + direction * target_dist,
                )

        # 2. Bracket exits; the stop is checked first when both levels
        #    sit inside the bar's range.
        for side, tr in list(open_trades.items()):
            hit_stop = low <= tr.stop_price if side == "long" else high >= tr.stop_price
            hit_target = high >= tr.target_price if side == "long" else low <= tr.target_price
            if hit_stop:
                tr.close(stamp, tr.stop_price, "stop")
            elif hit_target:
                tr.close(stamp, tr.target_price, "target")
            if tr.exit_reason is not None:
                cash += tr.pnl
                trades.append(tr)
                del open_trades[side]

        # 3. Mark to market at the close.
        unrealized = sum(tr.direction * (close - tr.entry_price) * tr.size for tr in open_trades.values())
        equity_vals.append(cash + unrealized)

        # 4. Decide at the close.
        side = crossing_side(cfg.system, prev, curr, open_trades)
        sides.append(side)
        if side != "none" and t + 1 < n_bars and atr_now > 0.0:
            pending = (side, size_fraction, cfg.stop_mult * atr_now, cfg.target_mult * atr_now)

    # 5. Force-close whatever is still open at the final close.
    for tr in open_trades.values():
        tr.close(stamps[-1], closes[-1], "end-of-data")
        cash += tr.pnl
        trades.append(tr)

    equity = EquityCurve(timestamps=stamps, values=np.asarray(equity_vals))
    stats = stats_from_ret_vol(*_ret_vol(equity.values), baseline_ratio)
    return BacktestResult(trades=trades, equity=equity, stats=stats, diagnostics=diagnostics, fit_records=fit_records)


@dataclass(eq=False)
class ComparisonResult:
    """Both predictors' next state and forecast for the traded chain, one
    entry per decision bar, named after the comparison file's header."""

    timestamps: list[datetime]
    state_marginal: np.ndarray
    state_viterbi: np.ndarray
    value_marginal: np.ndarray
    value_viterbi: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def state_agreement(self) -> float:
        return np.count_nonzero(self.state_marginal == self.state_viterbi) / len(self)

    @property
    def value_agreement(self) -> float:
        return np.count_nonzero(self.value_marginal == self.value_viterbi) / len(self)


def compare_predictors(
    cfg: BacktestConfig, bars1: OhlcSeries, bars2: OhlcSeries, initial_params: ChmmParams | None = None
) -> ComparisonResult:
    """Run both predictors over every decision bar and measure agreement.

    Each bar refits the model exactly as the backtest would, then asks
    both the marginal and the Viterbi predictor for the traded chain's
    next state and forecast value.  Agreement rates are the fraction of
    bars on which the two coincide; when they track each other closely
    the cheaper marginal predictor can stand in for the decoder.  Raises
    ValueError when ``initial_params`` is not of the config's model size.
    """
    if initial_params is not None and (initial_params.n_states, initial_params.n_bins) != (cfg.n_states, cfg.n_bins):
        raise ValueError(
            f"initial parameters have {initial_params.n_states} states and {initial_params.n_bins} bins, "
            f"but the config asks for {cfg.n_states} states and {cfg.n_bins} bins"
        )
    ind1, ind2, _, t0 = _decision_inputs(cfg, bars1, bars2, modeled=True)
    _, readouts = _model_pass(cfg, bars1.timestamps[t0:], ind1, ind2, t0, ("marginal", "viterbi"), initial_params)
    m, v = readouts["marginal"], readouts["viterbi"]
    return ComparisonResult(m.timestamps, m.predicted_state, v.predicted_state, m.predicted_value, v.predicted_value)
