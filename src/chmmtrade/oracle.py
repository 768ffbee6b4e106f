"""Brute-force references and generators used for verification.

Everything here recomputes model quantities another way than the
library does (exhaustive enumeration, numerical differencing,
forward-mode derivative propagation, per-step and per-window loops), so
tests can cross-check the two routes.  What a comparison leaves
unchecked is shared: ``step_forward`` and ``alpha_gradients`` build an
``inference.ForwardTrellis``, which derives the likelihoods, from a
step-major buffer as the library does; the three step loops look up
emissions with ``inference._emission_lookup`` and build their own
coupled operator; ``step_adjoint`` reads the trellis's final mass and
forms its gradients with ``training._gradient_set``,
``score_path`` and ``brute_viterbi`` share one private path scorer,
``fd_gradient`` differences likelihoods of ``inference._forward``,
``cci_loop`` takes window means from ``indicators._window_means``, and
``load_ohlc_rows`` is ``data_io``'s own row route, the reference for
its block route.  The per-family references (``validate_by_family``,
``reestimate_by_family``, ``params_by_family``) read and build
``ChmmParams`` through its arrays and its constructor, never through
its flat buffer.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .data_io import _load_ohlc_rows
from .indicators import Discretizer, OhlcSeries, Stamps, _window_means
from .inference import ForwardTrellis, _emission_lookup, _forward
from .model import (
    _FAMILIES, SIMPLEX_ATOL, ChmmParams, ObservationSequence, _family_arrays, _family_shapes, _size, check_params,
)
from .strategy import crossing_side
from .training import GradientSet, _gradient_set

__all__ = [
    "AlphaGradients",
    "alpha_gradients",
    "SampledPaths",
    "sample_chmm",
    "step_forward",
    "step_adjoint",
    "brute_likelihood",
    "brute_viterbi",
    "score_path",
    "fd_gradient",
    "joint_transition",
    "cci_loop",
    "load_ohlc_rows",
    "signal_side",
    "synthetic_ohlc",
    "permutation_aligned_mae",
    "validate_by_family",
    "reestimate_by_family",
    "params_by_family",
]

MAX_ENUM_PATHS = 4096
# Steps per uniform draw in sample_chmm, so its temporaries stay small at any length.
_SAMPLE_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class SampledPaths:
    """Seeded draw from the generative model: states plus observations."""

    states: np.ndarray  # (2, T) int64
    observations: ObservationSequence
    seed: object


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """Inverse-CDF tables along the last axis, with the arithmetic of
    ``Generator.choice(n, p=row)``: a running sum, then division by its
    last entry."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def sample_chmm(params: ChmmParams, length: int, seed=0) -> SampledPaths:
    """Sample hidden paths and observations.

    The first states come from the priors; afterwards each chain's state
    is drawn from the coupling-weighted blend of the two transition rows
    selected by both chains' previous states.  Observations are drawn
    from the emission row of the current state.

    Every draw is an inverse-CDF lookup: a uniform double ``u`` picks the
    first index whose cumulative probability exceeds it.  Step t reads
    four doubles of the generator's ``random`` stream, in the order
    chain-1 state, chain-2 state, chain-1 observation, chain-2
    observation; they are drawn ``_SAMPLE_BLOCK`` steps at a time, which
    reads the same stream as one ``random((length, 4))`` call.  The
    samples therefore depend only on that stream, and they equal those of
    four ``rng.choice(k, p=row)`` calls per step in that order.
    """
    check_params(params)
    length = _size("length", length)
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    n = params.n_states
    theta, trans = params.coupling, params.trans
    # blend[c, i, j] is chain c's next-state row after previous states (i, j).
    blend = np.stack(
        [theta[0, c] * trans[0, c][:, None, :] + theta[1, c] * trans[1, c][None, :, :] for c in range(2)]
    )
    next1, next2 = _choice_cdf(blend).tolist()
    # A virtual start state n: from (n, n) each chain draws from its prior.
    for table, prior in zip((next1, next2), _choice_cdf(params.priors).tolist()):
        table.append([prior] * (n + 1))
    emit_cdf = _choice_cdf(params.emit)

    states = np.empty((2, length), dtype=np.int64)
    obs = np.empty_like(states)
    s1 = s2 = n
    for start in range(0, length, _SAMPLE_BLOCK):
        u = rng.random((min(_SAMPLE_BLOCK, length - start), 4))
        path1, path2 = [], []
        # A memoryview yields one float at a time; .tolist() would hold them all.
        for a, b in zip(memoryview(u[:, 0]), memoryview(u[:, 1])):
            s1, s2 = bisect_right(next1[s1][s2], a), bisect_right(next2[s1][s2], b)
            path1.append(s1)
            path2.append(s2)
        block = slice(start, start + len(u))
        states[:, block] = path1, path2
        for c in range(2):
            for s in range(n):
                at = states[c, block] == s
                obs[c, block][at] = emit_cdf[c, s].searchsorted(u[at, 2 + c], side="right")

    states.setflags(write=False)
    return SampledPaths(
        states=states,
        observations=ObservationSequence(obs),
        seed=seed,
    )


def step_forward(params: ChmmParams, obs: ObservationSequence, scale: bool = False) -> ForwardTrellis:
    """The coupled forward recursion one step at a time; the reference for
    the blocked scan of ``inference.forward``, which equals it bit for bit
    up to ``inference._SCAN_MIN_BLOCK + 1`` steps."""
    check_params(params)
    n = params.n_states
    t_len = obs.length
    bt = _emission_lookup(params, obs)  # (T, 2, N)

    steps = np.empty((t_len, 2, n))  # step-major: steps[t] is alpha[:, t]
    scales = np.ones(t_len) if scale else None
    w = params.coupling[:, :, None, None] * params.trans  # (a, c, i, j)

    for t in range(t_len):
        # mass[c, j] = sum_{c', i} coupling[c', c] * trans[c', c, i, j] * alpha[c', t-1, i] after
        # the first step, read from ``step``, which still holds alpha[:, t-1]; then the emissions.
        step = (params.priors if t == 0 else np.einsum("acij,ai->cj", w, step)) * bt[t]  # (2, N)
        if scale:
            s = step.sum()
            if s > 0.0:
                step /= s
                scales[t] = s
        steps[t] = step
    steps.setflags(write=False)
    return ForwardTrellis(steps.transpose(1, 0, 2), scales)


def step_adjoint(params: ChmmParams, obs: ObservationSequence, trellis: ForwardTrellis) -> GradientSet:
    """The reverse (adjoint) sweep one step at a time over a forward
    trellis of ``params`` on ``obs``; the reference for the blocked scan
    of ``training``'s gradient pass.  No check for a zero likelihood."""
    t_len, n = obs.length, params.n_states
    scales = trellis.scale_factors if trellis.scale_factors is not None else np.ones(t_len)
    bt = _emission_lookup(params, obs)  # (T, 2, N)
    w = (params.coupling[:, :, None, None] * params.trans).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)  # (ai, cj)
    u = np.empty((t_len, 2, n))
    u[-1] = trellis._final_mass[::-1, None] / scales[-1]
    for t in range(t_len - 1, 0, -1):
        u[t - 1] = (w @ (bt[t] * u[t]).ravel()).reshape(2, n) / scales[t - 1]
    return _gradient_set(params, obs, trellis, bt, w.reshape(2, n, 2, n), u)


def joint_transition(params: ChmmParams, chain: int, s1: int, s2: int, j: int) -> float:
    """Probability that chain ``chain`` lands on state ``j`` given both
    chains' previous states ``(s1, s2)``, one transition at a time; the
    library applies all of them at once through ``inference._forward``'s
    stacked coupled operator.

    The value is the coupling-weighted blend of the two source rows:
    ``coupling[0, chain] * trans[0, chain][s1, j] + coupling[1, chain] * trans[1, chain][s2, j]``.
    """
    n = params.n_states
    if chain not in (0, 1):
        raise IndexError(f"chain must be 0 or 1, got {chain}")
    for label, idx in (("s1", s1), ("s2", s2), ("j", j)):
        if not 0 <= idx < n:
            raise IndexError(f"{label}={idx} out of range for {n} states")
    theta = params.coupling
    return float(
        theta[0, chain] * params.trans[0, chain][s1, j]
        + theta[1, chain] * params.trans[1, chain][s2, j]
    )


def _guard_size(params: ChmmParams, obs: ObservationSequence) -> None:
    if params.n_states ** obs.length > MAX_ENUM_PATHS:
        raise ValueError(
            f"instance too large to enumerate: N^T = {params.n_states ** obs.length} > {MAX_ENUM_PATHS}"
        )


def brute_likelihood(params: ChmmParams, obs: ObservationSequence):
    """Exhaustive expansion of the forward recursion.

    Unrolling the recursion, each summand picks a source chain at every
    step, so the total is a sum over chain-assignment sequences ending at
    the target chain and over all state sequences along those chains.
    Returns ``(P1, P2, P)`` with ``P = P1 * P2``.
    """
    check_params(params)
    _guard_size(params, obs)
    n = params.n_states
    t_len = obs.length
    bins = obs.bins
    per_chain = np.zeros(2)

    for c in range(2):
        total = 0.0
        for gamma_head in itertools.product(range(2), repeat=t_len - 1):
            gamma = (*gamma_head, c)
            for xs in itertools.product(range(n), repeat=t_len):
                g0 = gamma[0]
                term = params.priors[g0, xs[0]] * params.emit[g0, xs[0], bins[g0, 0]]
                for t in range(1, t_len):
                    gp, gc = gamma[t - 1], gamma[t]
                    term *= (
                        params.coupling[gp, gc]
                        * params.trans[gp, gc][xs[t - 1], xs[t]]
                        * params.emit[gc, xs[t], bins[gc, t]]
                    )
                total += term
        per_chain[c] = total
    return float(per_chain[0]), float(per_chain[1]), float(per_chain[0] * per_chain[1])


def _decoder_logs(params: ChmmParams):
    """Log priors, transitions and emissions, as the decoder reads them."""
    with np.errstate(divide="ignore"):
        return np.log(params.priors), np.log(params.trans), np.log(params.emit)


def _path_score(logs, bins: np.ndarray, chain: int, path) -> float:
    """Log score of one chain's state path from ``_decoder_logs``, the decoder's
    terms added in its order: own-chain transition, then the best free choice
    of the other matrix's source row, then the emission."""
    log_pi, log_a, log_b = logs
    free = log_a[1, chain].max(axis=0)
    s = log_pi[chain, path[0]] + log_b[chain, path[0], bins[chain, 0]]
    for t in range(1, bins.shape[1]):
        s = ((s + log_a[0, chain][path[t - 1], path[t]]) + free[path[t]]) + log_b[chain, path[t], bins[chain, t]]
    return float(s)


def score_path(params: ChmmParams, obs: ObservationSequence, chain: int, path) -> float:
    """Log score of one chain's state path under the decoder's rule.

    Uses the same accumulation order as the dynamic program, so a decoded
    path scores bit-identically.  Distinct paths can collapse to the same
    float score (addition rounds), which is why decoders and exhaustive
    search may legitimately disagree on the argmax while agreeing on the
    score.
    """
    return _path_score(_decoder_logs(params), obs.bins, chain, path)


def brute_viterbi(params: ChmmParams, obs: ObservationSequence):
    """Exhaustive best-path search under the decoder's scoring rule.

    Each candidate path is scored as ``score_path`` scores it.  Among
    equal-scoring paths the one with the smallest states reading
    backwards from the end wins, matching the decoder's lowest-index
    tie-breaks.  Returns ``(paths, log_scores)``.
    """
    check_params(params)
    _guard_size(params, obs)
    logs = _decoder_logs(params)
    paths = np.zeros((2, obs.length), dtype=np.int64)
    log_scores = np.empty(2)
    for c in range(2):
        best_score, best_path = -np.inf, None
        for q in itertools.product(range(params.n_states), repeat=obs.length):
            s = _path_score(logs, obs.bins, c, q)
            if best_path is None or s > best_score or (
                s == best_score and tuple(reversed(q)) < tuple(reversed(best_path))
            ):
                best_score = s
                best_path = q
        paths[c] = best_path
        log_scores[c] = best_score
    paths.setflags(write=False)
    return paths, log_scores


def validate_by_family(params: ChmmParams) -> list[str]:
    """``model.validate_params`` family by family: the entries and the
    simplex sums of each of the four arrays reduced on their own, then
    joined; the reference for the reductions over the flat buffer."""
    arrays = _family_arrays(params)
    entries = np.concatenate([arr.ravel() for arr in arrays])
    in_range = entries.min() >= 0.0 and entries.max() <= 1.0
    with nullcontext() if in_range else np.errstate(invalid="ignore"):
        sums = np.concatenate([arr.sum(axis=fam.axis).ravel() for fam, arr in zip(_FAMILIES, arrays)])
    off = np.abs(sums - 1.0) > SIMPLEX_ATOL
    if in_range and not off.any():
        return []
    ends = np.cumsum([arr.size for arr in arrays])
    outside = np.split(~((entries >= 0.0) & (entries <= 1.0)), ends[:-1])
    issues = [f"{fam.name}: entries outside [0, 1]" for fam, bad in zip(_FAMILIES, outside) if bad.any()]
    labels = [
        fam.label.format(*(i + 1 for i in idx))
        for fam, arr in zip(_FAMILIES, arrays)
        for idx in np.ndindex(arr.shape[:fam.axis] + arr.shape[fam.axis + 1:])
    ]
    issues += [f"{labels[k]}: sums to {sums[k]!r}" for k in np.flatnonzero(off)]
    return issues


def _normalize_along(num: np.ndarray, axis: int, keep: np.ndarray) -> np.ndarray:
    """``num`` divided by its sums along ``axis``; a simplex whose sum is
    not positive takes ``keep``'s values."""
    denom = num.sum(axis=axis, keepdims=True)
    return np.divide(num, denom, out=np.array(keep), where=denom > 0.0)


def reestimate_by_family(params: ChmmParams, grads: GradientSet) -> ChmmParams:
    """``training.reestimate`` family by family, each simplex normalized
    along its own array's axis."""
    return ChmmParams(*[
        _normalize_along(w * getattr(grads, "d_" + fam.name), fam.axis, w)
        for fam, w in zip(_FAMILIES, _family_arrays(params))
    ])


def params_by_family(n_states: int, n_bins: int, draw=None) -> ChmmParams:
    """``model._params_by_family`` with one ``draw`` per family: each
    family's uniform array goes to ``draw`` in ``_FAMILIES`` order and the
    result is normalized along its simplex axis."""
    shapes = _family_shapes(max(_size("n_states", n_states), 0), max(_size("n_bins", n_bins), 0))
    uniforms = [np.full(shape, 1.0 / max(shape[fam.axis], 1)) for fam, shape in zip(_FAMILIES, shapes)]
    if draw is None:
        return ChmmParams(*uniforms)
    return ChmmParams(*[_normalize_along(draw(u), fam.axis, u) for fam, u in zip(_FAMILIES, uniforms)])


def perturbed(params: ChmmParams, family: str, index, delta: float) -> ChmmParams:
    """Copy of ``params`` with one raw entry shifted by ``delta``.

    No renormalization is applied: the likelihood's partial derivatives
    treat every entry as a free variable, so the matching numerical
    derivative must perturb entries without projecting back onto the
    simplex.
    """
    if family not in [fam.name for fam in _FAMILIES]:
        raise ValueError(f"unknown parameter family {family!r}")
    arr = np.array(getattr(params, family))
    arr[index] += delta
    return replace(params, **{family: arr})


def fd_gradient(
    params: ChmmParams,
    obs: ObservationSequence,
    family: str,
    index,
    h: float = 1e-6,
) -> float:
    """Central finite difference of the joint likelihood in one raw entry."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    if family not in [fam.name for fam in _FAMILIES]:
        raise ValueError(f"unknown parameter family {family!r}")
    w = float(getattr(params, family)[index])
    if not (0.0 <= w - h and w + h <= 1.0):
        raise ValueError(f"perturbation leaves [0, 1]: {family}[{index}] = {w} with h = {h}")
    up = _forward(perturbed(params, family, index, +h), obs, scale=False)[0].joint_likelihood
    down = _forward(perturbed(params, family, index, -h), obs, scale=False)[0].joint_likelihood
    return (up - down) / (2.0 * h)


@dataclass(frozen=True, eq=False)
class AlphaGradients:
    """Trellis derivatives d alpha_t(c, j) / d w for all parameters w.

    The leading axes of each array are (t, chain, state); trailing axes
    index the parameter the derivative is taken in.
    """

    d_priors: np.ndarray    # (T, 2, N, 2, N)
    d_trans: np.ndarray     # (T, 2, N, 2, 2, N, N)
    d_emit: np.ndarray      # (T, 2, N, 2, N, M)
    d_coupling: np.ndarray  # (T, 2, N, 2, 2)
    trellis: ForwardTrellis


def alpha_gradients(params: ChmmParams, obs: ObservationSequence, scale: bool = False) -> AlphaGradients:
    """Forward-mode derivative recursion: full trellis derivative history.

    The derivatives of alpha propagate through the same linear recursion
    as the trellis itself, with one source term per parameter family.
    Contracting the last step with the other chain's trellis mass,
    ``einsum("c,cj...->...", tail[::-1], d[-1])``, gives the likelihood
    gradient.  With ``scale=True`` the trellis and every derivative are
    divided by the same per-step normalizer; the contracted gradient then
    carries the squared cumulative factor relative to its true value.
    Cost grows as T N^4 in the transition block, so this is a reference,
    not a training path.
    """
    check_params(params)
    n, m = params.n_states, params.n_bins
    t_len = obs.length
    bt = _emission_lookup(params, obs)          # (T, 2, N)
    hot = np.eye(m)[obs.bins.T]                 # (T, 2, M) one-hot
    eye2 = np.eye(2)
    eyen = np.eye(n)

    steps = np.empty((t_len, 2, n))  # step-major: steps[t] is alpha[:, t]
    scales = np.ones(t_len) if scale else None

    d_pi = np.einsum("pa,qi,pq->pqai", eye2, eyen, bt[0])
    d_a = np.zeros((2, n, 2, 2, n, n))
    d_b = np.einsum("pa,qj,pk,pq->pqajk", eye2, eyen, hot[0], params.priors)
    d_th = np.zeros((2, n, 2, 2))

    step = params.priors * bt[0]
    if scale:
        s = step.sum()
        if s > 0.0:
            step = step / s
            d_pi = d_pi / s
            d_b = d_b / s
            scales[0] = s
    steps[0] = step

    history = ([d_pi], [d_a], [d_b], [d_th])

    for t in range(1, t_len):
        aprev = steps[t - 1]
        z = params.coupling[:, :, None, None] * params.trans * bt[t][None, :, None, :]

        new_pi = np.einsum("acij,ai...->cj...", z, d_pi)
        new_a = np.einsum("acij,ai...->cj...", z, d_a)
        new_b = np.einsum("acij,ai...->cj...", z, d_b)
        new_th = np.einsum("acij,ai...->cj...", z, d_th)

        # Direct terms: derivative of this step's own factors.
        core_a = np.einsum("ac,cj,ai->acij", params.coupling, bt[t], aprev)
        new_a += np.einsum("pc,qj,acij->pqacij", eye2, eyen, core_a)
        mass = np.einsum("ac,acij,ai->cj", params.coupling, params.trans, aprev)
        new_b += np.einsum("pc,qj,ck,cj->pqcjk", eye2, eyen, hot[t], mass)
        core_th = np.einsum("acij,ai->acj", params.trans, aprev) * bt[t][None, :, :]
        new_th += np.einsum("pc,acj->pjac", eye2, core_th)

        step = mass * bt[t]
        if scale:
            s = step.sum()
            if s > 0.0:
                step = step / s
                new_pi = new_pi / s
                new_a = new_a / s
                new_b = new_b / s
                new_th = new_th / s
                scales[t] = s
        steps[t] = step
        d_pi, d_a, d_b, d_th = new_pi, new_a, new_b, new_th
        for hist, arr in zip(history, (d_pi, d_a, d_b, d_th)):
            hist.append(arr)

    d_pi, d_a, d_b, d_th = (np.stack(h) for h in history)
    steps.setflags(write=False)
    trellis = ForwardTrellis(steps.transpose(1, 0, 2), scales)
    return AlphaGradients(d_priors=d_pi, d_trans=d_a, d_emit=d_b, d_coupling=d_th, trellis=trellis)


def permutation_aligned_mae(true_params: ChmmParams, fitted: ChmmParams) -> float:
    """Mean absolute error of the four transition matrices under the best
    independent relabeling of each chain's states."""
    n = true_params.n_states
    if fitted.n_states != n:
        raise ValueError("state counts differ")
    best = np.inf
    for perm1 in itertools.permutations(range(n)):
        for perm2 in itertools.permutations(range(n)):
            perms = (list(perm1), list(perm2))
            err = 0.0
            for cp in range(2):
                for c in range(2):
                    remapped = fitted.trans[cp, c][np.ix_(perms[cp], perms[c])]
                    err += np.abs(remapped - true_params.trans[cp, c]).sum()
            best = min(best, err / (4 * n * n))
    return float(best)


def cci_loop(high, low, close, period: int) -> np.ndarray:
    """CCI with one mean absolute deviation per window, window by window;
    the reference for ``indicators.cci``."""
    tp = np.array([(h + l + c) / 3.0 for h, l, c in zip(high, low, close)], dtype=float)
    out = np.full(tp.size, np.nan)
    means = _window_means(tp, period)
    for t in range(period - 1, tp.size):
        window = tp[t - period + 1: t + 1]
        mad = np.abs(window - means[t]).mean()
        out[t] = 0.0 if mad == 0.0 else (tp[t] - means[t]) / (0.015 * mad)
    return out


# The row route of ``data_io.load_ohlc_csv``, under the name the tests use
# for the reference its block route is checked against.
load_ohlc_rows = _load_ohlc_rows


def signal_side(kind: str, series, sma_period: int, open_sides=()) -> str:
    """Entry side read off one raw indicator window; the reference for the
    backtest's trigger means and ``strategy.crossing_side``.

    ``series`` holds realized indicator values with the model's forecast
    appended last (or realized values only in baseline mode).  The cross
    runs from the mean of the ``sma_period`` values one step back to the
    mean of the last ``sma_period``.  Too little history, or a non-finite
    value among the last ``sma_period + 1``, gives "none".
    """
    if kind not in ("rsi", "cci"):
        raise ValueError(f"kind must be 'rsi' or 'cci', got {kind!r}")
    values = np.asarray(series, dtype=float)
    if values.size < sma_period + 1 or not np.isfinite(values[-sma_period - 1:]).all():
        return "none"
    prev = float(values[-sma_period - 1: -1].mean())
    curr = float(values[-sma_period:].mean())
    return crossing_side(kind, prev, curr, open_sides)


_START_PRICES = (0.95, 1600.0)
_BAR_MINUTES = 10
_VALUE_RANGE = (0.0, 100.0)


def synthetic_ohlc(
    params: ChmmParams,
    n_bars: int,
    seed=0,
    *,
    start_time: datetime | None = None,
    amplitude: float = 0.002,
) -> tuple[OhlcSeries, OhlcSeries]:
    """Turn sampled observations into two aligned synthetic OHLC series.

    Each sampled bin maps to its midpoint in ``_VALUE_RANGE``; the signed
    distance from the range center scales a per-bar close-to-close
    return of at most ``amplitude``.  Wicks are small seeded extensions
    beyond the open/close body, so every bar satisfies the OHLC
    invariant.  Deterministic for a fixed seed.
    """
    draw = sample_chmm(params, n_bars, seed=seed)
    rng = np.random.default_rng((seed, 7))
    disc = Discretizer(_VALUE_RANGE[0], _VALUE_RANGE[1], params.n_bins)
    center = 0.5 * (_VALUE_RANGE[0] + _VALUE_RANGE[1])
    halfspan = 0.5 * (_VALUE_RANGE[1] - _VALUE_RANGE[0])
    t0 = start_time or datetime(2013, 1, 1, tzinfo=timezone.utc)
    # One column for both series, so writing both formats each stamp once.
    stamps = Stamps(t0 + timedelta(minutes=_BAR_MINUTES * t) for t in range(n_bars))

    series = []
    for c in range(2):
        values = disc.lb + (draw.observations.bins[c] + 0.5) * disc.width  # bin midpoints
        ret = amplitude * (values - center) / halfspan
        # Each close is the previous one times (1 + ret), multiplied in bar order.
        prices = np.multiply.accumulate(np.concatenate(([_START_PRICES[c]], 1.0 + ret)))
        open_, close = prices[:-1], prices[1:]
        wick = rng.uniform(0.0, 0.25 * amplitude, size=(n_bars, 2))
        high = np.maximum(open_, close) * (1.0 + wick[:, 0])
        low = np.minimum(open_, close) * (1.0 - wick[:, 1])
        series.append(OhlcSeries(stamps, open_, high, low, close))
    return series[0], series[1]
