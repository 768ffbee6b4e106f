"""Per-layer tracing for the benchmark: timing wrappers around the public
functions of each chmmtrade module, and the per-layer metrics derived
from the spans they record.

``Tracer.install`` rebinds, in every loaded ``chmmtrade`` module (the
package itself included), each attribute whose value is one of the
original public functions.  A call is therefore caught wherever the
function was imported to: ``check_params`` inside ``inference`` and
``training``, ``fit``/``forward``/``coupled_viterbi`` inside
``backtest``, ``run_backtest`` inside ``cli``.  ``Tracer.restore`` puts
every original back.  Spans are kept in memory until the caller asks
for them.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import types
from functools import wraps

PACKAGE = "chmmtrade"
LAYERS = ("model", "inference", "training", "indicators", "strategy", "backtest", "data_io", "cli")

# A span is a list [layer, name, start, end, parent, note]; parent is the
# index of the enclosing span (-1 at top level) and note holds what the
# per-layer metrics need from the call's arguments or result.
LAYER, NAME, START, END, PARENT, NOTE = range(6)


def _steps(args, kwargs):
    obs = args[1] if len(args) > 1 else kwargs["obs"]
    return obs.length


def _rows(obj) -> int:
    if hasattr(obj, "__len__"):
        return len(obj)
    if hasattr(obj, "values"):  # EquityCurve
        return len(obj.values)
    return 1  # PerfStats: one stats record


# What each traced call records beyond its timing.
_NOTES = {
    # (T, id of the params probed, log_joint finite)
    "forward": lambda a, k, r: (_steps(a, k), id(a[0]), math.isfinite(r.log_joint)),
    "coupled_viterbi": lambda a, k, r: (_steps(a, k),),
    # (T, id of the fitted params, accepted sweeps)
    "fit": lambda a, k, r: (_steps(a, k), id(r.params), r.sweeps_run),
    "run_backtest": lambda a, k, r: len(r.diagnostics),
}


def _note_for(layer: str, name: str):
    if layer == "data_io" and name.startswith("load_"):
        return lambda a, k, r: _rows(r)
    if layer == "data_io" and name.startswith("write_"):
        return lambda a, k, r: _rows(a[1] if len(a) > 1 else next(iter(k.values())))
    return _NOTES.get(name)


def public_functions() -> dict:
    """{original function: (layer, name)} for every layer module."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found[obj] = (layer, name)
    return found


class Tracer:
    """Installs and removes the timing wrappers; owns the recorded spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = -1
        self._bindings: list[tuple] = []  # (module, attribute, original)
        self._wrappers: set = set()

    def _wrap(self, fn, layer: str, name: str):
        note = _note_for(layer, name)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, self._current, None]
            parent = self._current
            self._current = len(self.spans)
            self.spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._current = parent
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every reference to a public layer function."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {fn: self._wrap(fn, *where) for fn, where in originals.items()}
        self._wrappers = set(wrappers.values())
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if isinstance(value, types.FunctionType) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    def leftover(self) -> int:
        """Attributes of the package that still hold one of this tracer's wrappers."""
        return sum(
            value in self._wrappers
            for module in self._modules()
            for value in vars(module).values()
            if isinstance(value, types.FunctionType)
        )

    def _modules(self):
        prefix = PACKAGE + "."
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def take_spans(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# -- per-layer metrics -------------------------------------------------------

COUNT_METRICS = (
    "model.validate_calls",
    "inference.forward_calls",
    "inference.viterbi_calls",
    "training.fit_calls",
    "training.reestimate_calls",
    "training.gradient_passes",
    "training.accepted_sweep_ratio",
    "backtest.decision_bars",
    "backtest.warm_start_fallbacks",
    "backtest.warm_started_windows",
    "indicators.discretize_calls",
    "strategy.calls",
    "data_io.rows_read",
    "data_io.rows_written",
)

UNITS = {
    "model.validate_calls": "count",
    "model.validate_s": "s",
    "inference.forward_calls": "count",
    "inference.forward_us_per_step": "us",
    "inference.viterbi_calls": "count",
    "inference.viterbi_us_per_step": "us",
    "training.fit_calls": "count",
    "training.reestimate_calls": "count",
    "training.gradient_passes": "count",
    "training.gradient_us_per_step": "us",
    "training.reestimate_s": "s",
    "training.accepted_sweep_ratio": "ratio",
    "training.fit_ms_p50": "ms",
    "training.fit_ms_p99": "ms",
    "backtest.decision_bars": "count",
    "backtest.self_s": "s",
    "backtest.warm_start_fallbacks": "count",
    "backtest.warm_started_windows": "count",
    "indicators.s": "s",
    "indicators.discretize_calls": "count",
    "strategy.calls": "count",
    "strategy.s": "s",
    "data_io.rows_read": "count",
    "data_io.read_s": "s",
    "data_io.rows_written": "count",
    "data_io.write_s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition.

    Self time is a span's duration minus that of its direct children.  A
    layer's time (``indicators.s``, ``strategy.s``) sums the spans of
    that layer not nested in another span of the same layer.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def spans_named(name):
        return [i for i in range(n) if spans[i][NAME] == name]

    def layer_time(layer):
        return sum(
            dur[i] for i in range(n)
            if spans[i][LAYER] == layer and (spans[i][PARENT] < 0 or spans[spans[i][PARENT]][LAYER] != layer)
        )

    def layer_self(layer):
        return sum(self_t[i] for i in range(n) if spans[i][LAYER] == layer)

    fwd = spans_named("forward")
    vit = spans_named("coupled_viterbi")
    fits = spans_named("fit")
    reest = spans_named("reestimate")

    # Each fit makes one gradient pass up front and one per re-estimated
    # candidate, so its passes are 1 + the reestimate calls nested in it.
    passes = {i: 1 for i in fits}
    for i in reest:
        if spans[i][PARENT] in passes:
            passes[spans[i][PARENT]] += 1
    pass_steps = sum(passes[i] * spans[i][NOTE][0] for i in fits)
    accepted = sum(spans[i][NOTE][2] for i in fits)

    # A probe is the forward run_backtest calls before each window's fit;
    # it is warm-started when it scores the previous window's fitted params.
    backtests = set(spans_named("run_backtest"))
    warm = fallbacks = 0
    last_fitted = None
    for i in range(n):
        s = spans[i]
        if s[NAME] == "fit" and s[PARENT] in backtests:
            last_fitted = s[NOTE][1]
        elif s[NAME] == "forward" and s[PARENT] in backtests and s[NOTE][1] == last_fitted:
            warm += 1
            fallbacks += not s[NOTE][2]

    def per_step_us(idx):
        steps = sum(spans[i][NOTE][0] for i in idx)
        return 1e6 * sum(self_t[i] for i in idx) / steps if steps else 0.0

    io_spans = [i for i in range(n) if spans[i][LAYER] == "data_io"]
    reads = [i for i in io_spans if spans[i][NAME].startswith("load_")]
    writes = [i for i in io_spans if spans[i][NAME].startswith("write_")]
    fit_ms = [1e3 * dur[i] for i in fits]

    return {
        "model.validate_calls": len(spans_named("validate_params")),
        "model.validate_s": sum(dur[i] for i in spans_named("validate_params")),
        "inference.forward_calls": len(fwd),
        "inference.forward_us_per_step": per_step_us(fwd),
        "inference.viterbi_calls": len(vit),
        "inference.viterbi_us_per_step": per_step_us(vit),
        "training.fit_calls": len(fits),
        "training.reestimate_calls": len(reest),
        "training.gradient_passes": len(fits) + len(reest),
        "training.gradient_us_per_step": 1e6 * sum(self_t[i] for i in fits) / pass_steps if pass_steps else 0.0,
        "training.reestimate_s": sum(dur[i] for i in reest),
        "training.accepted_sweep_ratio": accepted / len(reest) if reest else 0.0,
        "training.fit_ms_p50": _percentile(fit_ms, 50),
        "training.fit_ms_p99": _percentile(fit_ms, 99),
        "backtest.decision_bars": sum(spans[i][NOTE] for i in backtests),
        "backtest.self_s": layer_self("backtest"),
        "backtest.warm_start_fallbacks": fallbacks,
        "backtest.warm_started_windows": warm,
        "indicators.s": layer_time("indicators"),
        "indicators.discretize_calls": len(spans_named("discretize")),
        "strategy.calls": sum(1 for s in spans if s[LAYER] == "strategy"),
        "strategy.s": layer_time("strategy"),
        "data_io.rows_read": sum(spans[i][NOTE] for i in reads),
        "data_io.read_s": sum(dur[i] for i in reads),
        "data_io.rows_written": sum(spans[i][NOTE] for i in writes),
        "data_io.write_s": sum(dur[i] for i in writes),
        "cli.self_s": layer_self("cli"),
    }


def combine(reps: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each timing over repetitions; counts from the first.

    Returns the combined metrics and whether every count repeated exactly.
    """
    first = reps[0]
    out = {}
    for key in first:
        out[key] = first[key] if key in COUNT_METRICS else statistics.median(r[key] for r in reps)
    repeat = all(r[key] == first[key] for r in reps for key in COUNT_METRICS)
    return out, repeat
