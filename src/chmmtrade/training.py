"""Likelihood gradients and multiplicative re-estimation.

The joint likelihood is the product of the two chains' trellis masses at
the last step, each linear in the forward trellis.  One reverse sweep
through the coupled recursion, seeded with the other chain's mass,
carries the adjoint of every trellis entry back to the first step, as
the forward pass's blocked scan read backwards; the four gradient
families are then sums over steps of trellis values times adjoints.
Re-estimation is the Baum-Eagon growth transform
``w <- w * dP/dw / normalizer`` applied per simplex row, which never
decreases the likelihood and keeps every simplex, so ``model`` records
a candidate of a validated state as valid and its check is a lookup.
The gradient pass packs the four families into one buffer and hands it
to ``model._adopt``; re-estimation multiplies buffers.  The forward-mode derivative recursion lives on in
``oracle.alpha_gradients`` as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import _CHAINS, ForwardTrellis, _forward, _scan
from .model import ChmmParams, ObservationSequence, _Buffered, _adopt, _real, _simplex_normalize, _size, check_params

__all__ = [
    "DegenerateModelError",
    "GradientSet",
    "FitConfig",
    "FitResult",
    "likelihood_gradient",
    "reestimate",
    "fit",
]


class DegenerateModelError(RuntimeError):
    """One chain assigns zero likelihood to its observations."""


@dataclass(frozen=True, eq=False)
class GradientSet(_Buffered):
    """Partial derivatives of the joint likelihood for every parameter.

    When computed with per-step scaling all entries share a single
    positive factor ``exp(log_scale)``; the multiplicative update is
    invariant to it, so re-estimation can consume scaled gradients from
    arbitrarily long sequences.  The arrays share one buffer, as in
    ``ChmmParams``, of which they are views (``model._Buffered``);
    re-estimation reads the buffer alone.
    """

    _names = tuple("d_" + name for name in ChmmParams._names)
    d_priors: np.ndarray    # (2, N)
    d_trans: np.ndarray     # (2, 2, N, N)
    d_emit: np.ndarray      # (2, N, M)
    d_coupling: np.ndarray  # (2, 2)
    log_scale: float = 0.0


def _checked_forward(params: ChmmParams, obs: ObservationSequence, scale: bool):
    """Validated forward pass of one gradient evaluation.

    Returns ``inference._forward``'s trellis, emission lookup and
    coupling-weighted transitions.  Raises DegenerateModelError when
    either chain's final trellis mass is zero.
    """
    check_params(params)
    trellis, bt, w = _forward(params, obs, scale)
    if trellis.log_joint == -math.inf:  # a chain's final mass is 0
        raise DegenerateModelError(f"zero likelihood: per-chain trellis mass {trellis._final_mass.tolist()}")
    return trellis, bt, w


def _adjoint_pass(params: ChmmParams, obs: ObservationSequence, trellis: ForwardTrellis, bt, w) -> GradientSet:
    """Reverse sweep over a forward trellis; every gradient family at once.

    ``bt`` and ``w`` are the emission lookup and the coupling-weighted
    transitions (a, i, c, j) the forward pass built for ``params``.

    ``u[t, c, j]`` is the derivative of the likelihood in the step-t
    trellis entry before its scaling, i.e. the adjoint of alpha_t divided
    by that step's normalizer.  With a scaled trellis the result is the
    true gradient divided by the squared product of the normalizers,
    which ``log_scale`` records and the growth transform ignores.  The
    sweep is the forward's blocked scan read backwards in t
    (``inference._scan``); its step loop is ``oracle.step_adjoint``.
    """
    t_len, n = obs.length, params.n_states
    scales = trellis.scale_factors if trellis.scale_factors is not None else np.ones(t_len)
    w_flat = w.reshape(2 * n, 2 * n)  # a view: rows (a, i), columns (c, j)

    # The scan runs from the last step to the first, on (2N, 1) columns:
    # u[t-1] = w_flat @ (bt[t] * u[t]) / scales[t-1] for one step or every block at once.
    back_bt, back_div = bt[::-1].reshape(t_len, 2 * n, 1), scales[-2::-1, None, None]

    # dP/dalpha_T weighs each chain by the other chain's final mass.
    u = np.empty((t_len, 2, n))
    np.divide(trellis._final_mass[::-1, None], scales[-1], out=u[-1])
    _scan(u[::-1].reshape(t_len, 2 * n, 1), w_flat, (np.divide, back_div), before=back_bt)
    return _gradient_set(params, obs, trellis, bt, w, u)


def _gradient_set(params: ChmmParams, obs: ObservationSequence, trellis: ForwardTrellis, bt, w, u) -> GradientSet:
    """The four families as sums over steps of trellis entries times the
    adjoints ``u`` (T, 2, N) of the reverse sweep, with ``w`` (a, i, c, j)
    from the forward; each step's emission term is added at its bin.  The
    sums read the forward's step buffer, C-contiguous.  The families are
    packed into the gradient buffer at once."""
    n, m = params.n_states, params.n_bins
    steps = trellis.alpha.transpose(1, 0, 2)           # (T, 2, N)
    bu = bt * u                                        # (T, 2, N)
    x = np.einsum("tai,tcj->acij", steps[:-1], bu[1:])
    mass = np.empty_like(u)                            # what multiplies bt[t] in the forward step
    mass[0] = params.priors
    np.einsum("aicj,tai->tcj", w, steps[:-1], out=mass[1:])
    mass *= u                                          # each step's emission gradient, at its bin
    d_emit = np.zeros((2, n, m))
    np.add.at(d_emit, (_CHAINS, slice(None), obs.bins.T), mass)  # [c, :, bins[c, t]] += [t, c]
    d_coupling = np.einsum("acij,acij->ac", params.trans, x)
    buf = np.concatenate((bu[0], params.coupling[:, :, None, None] * x, d_emit, d_coupling), axis=None)
    return _adopt(object.__new__(GradientSet), buf, n, m, log_scale=2.0 * trellis._log_scale)


def likelihood_gradient(params: ChmmParams, obs: ObservationSequence, scale: bool = False) -> GradientSet:
    """Exact gradient of the joint likelihood in every raw parameter.

    Raises DegenerateModelError when either chain assigns probability
    zero to its observation sequence.
    """
    return _adjoint_pass(params, obs, *_checked_forward(params, obs, scale))


def reestimate(params: ChmmParams, grads: GradientSet) -> ChmmParams:
    """One multiplicative re-estimation step; the input is not mutated.

    Each simplex row moves to ``w * g / sum(w * g)``.  Rows whose
    normalizer vanishes (the likelihood does not depend on them) keep
    their previous values, the unique continuous completion.
    """
    return _simplex_normalize(params._buf * grads._buf, params.n_states, params.n_bins, keep=params)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the sweep loop.

    sweeps: update passes per fit; rel_tol: smallest relative likelihood
    improvement worth keeping; warm_start: seed each sliding-window fit
    from the previous window's result.
    """

    sweeps: int = 3
    rel_tol: float = 1e-6
    warm_start: bool = True

    def __post_init__(self):
        if _size("sweeps", self.sweeps) < 1:
            raise ValueError("sweeps must be >= 1")
        if not _real("rel_tol", self.rel_tol) >= 0.0:
            raise ValueError("rel_tol must be >= 0")


@dataclass(frozen=True, eq=False)
class FitResult:
    params: ChmmParams
    log_likelihoods: list[float]  # natural log of the joint likelihood per accepted state
    sweeps_run: int


def fit(params0: ChmmParams, obs: ObservationSequence, cfg: FitConfig = FitConfig()) -> FitResult:
    """Run up to ``cfg.sweeps`` gradient + re-estimation passes.

    A candidate whose relative likelihood improvement falls below
    ``cfg.rel_tol`` is rejected and the loop stops, so the returned trace
    is strictly the accepted states and is non-decreasing.  Deterministic:
    identical inputs give bit-identical parameters.
    """
    params = params0
    forward = _checked_forward(params, obs, scale=True)  # (trellis, bt, w)
    trace = [forward[0].log_joint]
    for _ in range(cfg.sweeps):
        # The reverse sweep runs only for a state about to be re-estimated,
        # so the last accepted candidate never pays for one.
        cand = reestimate(params, _adjoint_pass(params, obs, *forward))
        cand_forward = _checked_forward(cand, obs, scale=True)
        log_joint = cand_forward[0].log_joint
        # Relative improvement below rel_tol, compared in log space so huge
        # likelihood jumps cannot overflow: P1/P0 - 1 < tol  <=>  log P1 - log P0 < log1p(tol).
        if log_joint - trace[-1] < math.log1p(cfg.rel_tol):
            break
        params, forward = cand, cand_forward
        trace.append(log_joint)
    return FitResult(params=params, log_likelihoods=trace, sweeps_run=len(trace) - 1)
