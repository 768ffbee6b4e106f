"""Forward likelihood recursion and coupled Viterbi decoding.

The forward pass propagates per-chain trellis mass where each step mixes
contributions from both chains' previous steps through the coupling
weights.  The decoder intentionally uses a different rule: per chain it
maximizes over pairs of source states scored by the plain product of the
two incoming transition rows, with no coupling weights, and only the
chain's own source state carries trellis mass forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChmmParams, ObservationSequence, check_params

__all__ = ["ForwardTrellis", "ViterbiTrellis", "forward", "coupled_viterbi"]


@dataclass(frozen=True)
class ForwardTrellis:
    """Forward recursion output.

    ``alpha[c, t, j]`` is the trellis mass of chain ``c`` in state ``j``
    after observing the first ``t + 1`` symbols.  When ``scale_factors``
    is not None the stored alpha values are normalized per step and the
    likelihoods are only representable in log space.
    """

    alpha: np.ndarray                    # (2, T, N)
    per_chain_likelihood: np.ndarray     # (2,)
    joint_likelihood: float
    log_per_chain: np.ndarray            # (2,)
    log_joint: float
    scale_factors: np.ndarray | None = None  # (T,) per-step normalizers


@dataclass(frozen=True)
class ViterbiTrellis:
    """Decoder output for both chains.

    ``psi[c, t, k]`` stores the (i, j) source-state pair that maximized
    the score of landing on state ``k`` at step ``t``; backtracking
    follows the i component, the chain's own trellis index.  Scores are
    kept in log space with ``-inf`` marking impossible configurations.
    """

    log_delta: np.ndarray   # (2, T, N)
    psi: np.ndarray         # (2, T, N, 2) int64
    paths: np.ndarray       # (2, T) int64
    log_best: np.ndarray    # (2,)
    best_prob: np.ndarray   # (2,)


def _emission_lookup(params: ChmmParams, obs: ObservationSequence) -> np.ndarray:
    """bt[t, c, j] = emission probability of chain c's symbol at step t."""
    if int(obs.bins.max()) >= params.n_bins:
        raise ValueError(
            f"observation bin {int(obs.bins.max())} out of range for {params.n_bins} bins"
        )
    # emit is (2, N, M); chain c reads its own symbol's column at each step.
    # Indexing with bins.T puts the step axis first, so each step's (2, N)
    # block is contiguous for the per-step recursions.
    return params.emit[[[0, 1]], :, obs.bins.T]  # (T, 2, N)


def forward(params: ChmmParams, obs: ObservationSequence, scale: bool = False) -> ForwardTrellis:
    """Run the coupled forward recursion.

    With ``scale=False`` (default) alpha is raw probability mass, safe for
    the short windows this model is refit on.  With ``scale=True`` each
    step is normalized by the total mass of both chains and the factors
    are retained, so arbitrarily long sequences stay in range and the
    likelihood is recoverable through ``log_per_chain`` / ``log_joint``.
    """
    check_params(params)
    return _forward(params, obs, scale)[0]


def _forward(params: ChmmParams, obs: ObservationSequence, scale: bool):
    """Unvalidated forward recursion; returns the trellis and the emission
    lookup ``bt`` it used, so the gradient's reverse sweep can reuse both."""
    n = params.n_states
    t_len = obs.length
    bt = _emission_lookup(params, obs)  # (T, 2, N)

    alpha = np.empty((2, t_len, n))
    scales = np.ones(t_len) if scale else None
    w = params.coupling[:, :, None, None] * params.trans  # (a, c, i, j)

    step = params.priors * bt[0]  # (2, N)
    if scale:
        s = step.sum()
        if s > 0.0:
            step = step / s
            scales[0] = s
    alpha[:, 0] = step

    for t in range(1, t_len):
        # mass[c, j] = sum_{c', i} coupling[c', c] * trans[c', c, i, j] * alpha[c', t-1, i],
        # read from ``step``, which still holds alpha[:, t-1]; then the emissions.
        step = np.einsum("acij,ai->cj", w, step)
        step *= bt[t]
        if scale:
            s = step.sum()
            if s > 0.0:
                step /= s
                scales[t] = s
        alpha[:, t] = step

    tail = alpha[:, -1].sum(axis=1)  # (2,)
    with np.errstate(divide="ignore"):
        if scale:
            log_total = float(np.log(scales).sum())
            log_pc = np.log(tail) + log_total
        else:
            log_pc = np.log(tail)
    log_joint = float(log_pc.sum())
    with np.errstate(over="ignore"):
        per_chain = np.exp(log_pc) if scale else tail
        joint = float(np.exp(log_joint)) if scale else float(tail[0] * tail[1])

    alpha.setflags(write=False)
    if scales is not None:
        scales.setflags(write=False)
    return ForwardTrellis(
        alpha=alpha,
        per_chain_likelihood=per_chain,
        joint_likelihood=joint,
        log_per_chain=log_pc,
        log_joint=log_joint,
        scale_factors=scales,
    ), bt


# Pair scores held at once while back-pointers are recovered (about 1 MB
# of float64); bounds the decoder's temporaries independently of T.
_PSI_BLOCK_SCORES = 1 << 17


def _psi_block_steps(n_states: int) -> int:
    """Steps per back-pointer block: 2 * N^3 pair scores per step."""
    return max(1, _PSI_BLOCK_SCORES // (2 * n_states**3))


def coupled_viterbi(params: ChmmParams, obs: ObservationSequence) -> ViterbiTrellis:
    """Decode the best state path of each chain.

    Recursion per chain c and target state k:

        delta_t(k) = max_{i,j} [delta_{t-1}(i) + log a1[i, k] + log a2[j, k]] + log b_k(o_t)

    where a1, a2 are the two transition matrices pointing into chain c
    and i indexes the chain's own previous state.  All argmax operations
    break ties toward the lowest index (row-major over (i, j) pairs), so
    decoding is deterministic across platforms.  The recursion keeps only
    the maximum; the maximizing pairs ``psi`` are recovered from the
    finished trellis in blocks of steps, with the same scores and ties.
    """
    check_params(params)
    n = params.n_states
    t_len = obs.length
    with np.errstate(divide="ignore"):
        log_a = np.log(params.trans)    # (2, 2, N, N)
        log_pi = np.log(params.priors)  # (2, N)
        log_bt = np.log(_emission_lookup(params, obs))  # (T, 2, N)

    own_a, cross_a = log_a[0], log_a[1]  # log a1[c, i, k], log a2[c, j, k]
    # A pair (i, j) scores own(i) + cross(j), with own(i) = delta_{t-1}(i)
    # + log a1[i, k] and cross(j) = log a2[j, k].  Rounding is monotone in
    # each operand, so the largest rounded pair score is exactly
    # fl(max_i own(i) + max_j cross(j)): the recursion carries only that.
    cross_max = cross_a.max(axis=1)  # (c, k)

    log_delta = np.empty((2, t_len, n))
    log_delta[:, 0] = log_pi + log_bt[0]
    for t in range(1, t_len):
        own = log_delta[:, t - 1, :, None] + own_a  # (c, i, k)
        log_delta[:, t] = own.max(axis=1) + cross_max + log_bt[t]

    # Back-pointers from the finished trellis, a block of steps at a time:
    # every pair score of each target state and the first maximum among them.
    psi = np.zeros((2, t_len, n, 2), dtype=np.int64)
    block = _psi_block_steps(n)
    for t0 in range(1, t_len, block):
        t1 = min(t0 + block, t_len)
        partial = log_delta[:, t0 - 1 : t1 - 1, :, None] + own_a[:, None]  # (c, t, i, k)
        scores = partial[:, :, :, None, :] + cross_a[:, None, None]       # (c, t, i, j, k)
        best = np.argmax(scores.reshape(2, t1 - t0, n * n, n), axis=2)    # first max: lowest (i, j)
        np.divmod(best, n, out=(psi[:, t0:t1, :, 0], psi[:, t0:t1, :, 1]))

    # Backtrack through the own-state pointers, a block of steps at a time
    # read as Python lists, so no T-long list is held.
    paths = np.zeros((2, t_len), dtype=np.int64)
    log_best = np.empty(2)
    for c in range(2):
        q = int(np.argmax(log_delta[c, -1]))
        log_best[c] = log_delta[c, -1, q]
        paths[c, -1] = q
        for t1 in range(t_len, 1, -block):
            t0 = max(1, t1 - block)
            walk = []
            for row in reversed(psi[c, t0:t1, :, 0].tolist()):
                q = row[q]
                walk.append(q)
            paths[c, t0 - 1 : t1 - 1] = walk[::-1]

    for arr in (log_delta, psi, paths, log_best):
        arr.setflags(write=False)
    with np.errstate(over="ignore"):
        best_prob = np.exp(log_best)
    best_prob.setflags(write=False)
    return ViterbiTrellis(
        log_delta=log_delta, psi=psi, paths=paths, log_best=log_best, best_prob=best_prob
    )
