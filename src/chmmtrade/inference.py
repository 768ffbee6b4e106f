"""Forward likelihood recursion and coupled Viterbi decoding.

The forward pass propagates per-chain trellis mass where each step mixes
contributions from both chains' previous steps through the coupling
weights.  Each step is linear in the stacked (2N) trellis vector, so the
pass runs as a blocked scan (``_scan``): about 3 sqrt(T) Python-level
steps instead of T, and up to ``_SCAN_MIN_BLOCK + 1`` steps the step
loop itself, each step written in place into a step-major buffer.  The
decoder intentionally uses a different rule: per chain it maximizes over
pairs of source states scored by the plain product of the two incoming
transition rows, with no coupling weights, and only the chain's own
source state carries trellis mass forward.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import count, repeat

import numpy as np

from .model import ChmmParams, ObservationSequence, check_params

__all__ = ["ForwardTrellis", "ViterbiTrellis", "forward", "coupled_viterbi"]


@dataclass(frozen=True, eq=False)
class ForwardTrellis:
    """Forward recursion output, built from the trellis and its normalizers.

    ``alpha[c, t, j]`` is the trellis mass of chain ``c`` in state ``j``
    after observing the first ``t + 1`` symbols, a view of a step-major
    (T, 2, N) buffer (not C-contiguous), as ``log_delta`` is.  When
    ``scale_factors`` is not None the stored alpha values are normalized
    per step and the likelihoods are only representable in log space.
    Construction freezes both arrays and derives every other field once,
    read-only: one ``log`` of the two final masses (silenced only when one
    is zero) and one of the normalizers; ``log_joint`` is the Python sum
    of the two per-chain logs.  The linear likelihoods are properties, so
    a caller reading only logs pays no ``exp``.
    """

    alpha: np.ndarray                        # (2, T, N)
    scale_factors: np.ndarray | None = None  # (T,) per-step normalizers
    log_per_chain: np.ndarray = field(init=False)  # (2,)
    log_joint: float = field(init=False)
    _final_mass: np.ndarray = field(init=False, repr=False)  # (2,) alpha[:, -1] summed per chain
    _log_scale: float = field(init=False, repr=False)       # log of the scale_factors' product

    def __post_init__(self):
        alpha, scales = self.alpha, self.scale_factors
        mass = np.add.reduce(alpha[:, -1], 1)
        with np.errstate(divide="ignore") if 0.0 in mass.tolist() else nullcontext():
            log_0, log_1 = np.log(mass).tolist()
        log_scale = 0.0
        if scales is not None:  # normalizers are positive: a step with zero mass keeps factor 1
            scales.setflags(write=False)
            log_scale = float(np.add.reduce(np.log(scales)))
            log_0, log_1 = log_0 + log_scale, log_1 + log_scale  # as Python floats: no numpy scalar
        log_pc = np.array((log_0, log_1))
        for arr in (alpha, mass, log_pc):
            arr.setflags(write=False)
        vars(self).update(_final_mass=mass, _log_scale=log_scale, log_per_chain=log_pc, log_joint=log_0 + log_1)

    @property
    def per_chain_likelihood(self) -> np.ndarray:  # (2,)
        if self.scale_factors is None:
            return self._final_mass.copy()
        with np.errstate(over="ignore"):
            return np.exp(self.log_per_chain)

    @property
    def joint_likelihood(self) -> float:
        if self.scale_factors is None:
            return float(self._final_mass[0] * self._final_mass[1])
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_joint))


@dataclass(frozen=True, eq=False)
class ViterbiTrellis:
    """Decoder output for both chains.

    ``paths[c]`` is chain ``c``'s best state path, backtracked through the
    own source state i of each step's lowest maximizing (i, j) pair; no
    back-pointer array is kept.  Scores are kept in log space with
    ``-inf`` marking impossible configurations; ``best_prob`` is
    ``exp(log_best)``.
    """

    log_delta: np.ndarray   # (2, T, N)
    paths: np.ndarray       # (2, T) int64
    log_best: np.ndarray    # (2,)

    def __post_init__(self):
        for arr in (self.log_delta, self.paths, self.log_best):
            arr.setflags(write=False)

    @property
    def best_prob(self) -> np.ndarray:  # (2,)
        with np.errstate(over="ignore"):
            return np.exp(self.log_best)


# Row index of each chain's emission matrix, shaped to broadcast against bins.T.
_CHAINS = np.array([[0, 1]])


def _emission_lookup(params: ChmmParams, obs: ObservationSequence, table: np.ndarray | None = None) -> np.ndarray:
    """bt[t, c, j] = emission probability of chain c's symbol at step t, or the entry
    of ``table`` (2, N, M), laid as ``emit``, when one is given."""
    # emit is (2, N, M); chain c reads its own symbol's column at each step.
    # Indexing with bins.T puts the step axis first, so each step's (2, N)
    # block is contiguous for the per-step recursions.  Bins are never
    # negative, so only a bin past the last can miss.
    try:
        return (params.emit if table is None else table)[_CHAINS, :, obs.bins.T]  # (T, 2, N)
    except IndexError:
        raise ValueError(
            f"observation bin {int(obs.bins.max())} out of range for {params.n_bins} bins"
        ) from None


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
    """Unvalidated forward recursion; returns the trellis, the emission
    lookup ``bt`` and the coupling-weighted transitions ``w`` it used, so
    the gradient's reverse sweep can reuse all three.

    The recursion runs step-major, ``steps[t, c, j] = alpha[c, t, j]``
    (T, 2, N), so that each step's (2, N) block is contiguous and written
    in place; the trellis's ``alpha`` is its (2, T, N) transposed view.
    ``w[a, i, c, j] = coupling[a, c] * trans[a, c, i, j]``, C-contiguous,
    so ``w.reshape(2N, 2N)`` is the stacked operator as a view.  Later
    steps run as one blocked scan (``_scan``) of ``oracle.step_forward``'s loop."""
    n = params.n_states
    t_len = obs.length
    bt = _emission_lookup(params, obs)  # (T, 2, N)

    steps = np.empty((t_len, 2, n))
    scales = np.ones(t_len) if scale else None
    w = np.multiply(params.coupling[:, None, :, None], params.trans.transpose(0, 2, 1, 3), order="C")

    start = np.multiply(params.priors, bt[0], out=steps[0])
    if scale:  # as every later step: zero mass keeps its zeros and factor 1
        total = np.add.reduce(start, None)
        if total > 0.0:
            start /= total
            scales[0] = total

    # mass[c, j] = sum_{c', i} coupling[c', c] * trans[c', c, i, j] * alpha[c', t-1, i]
    # for one step or every block at once, then the emissions: the step loop's arithmetic.
    matrix = w.reshape(2 * n, 2 * n).T  # columns (a, i), rows (c, j)
    _scan(steps, matrix, (np.multiply, bt[1:]), partial(np.einsum, "aicj,...ai->...cj", w), scales=scales)
    steps.setflags(write=False)
    return ForwardTrellis(steps.transpose(1, 0, 2), scales), bt, w


# Fewest steps per block of the scan.  A sequence of up to this many steps
# after the first is a single block, which is the step loop itself, so the
# short refit windows keep its results bit for bit.
_SCAN_MIN_BLOCK = 64


def _next_start(op: np.ndarray, log_norm: np.ndarray, x: np.ndarray, keep_mass: bool) -> np.ndarray:
    """One block's map applied to a stacked vector ``x`` (2N,):
    ``op @ (exp(log_norm) * x)`` for columns ``op`` of total 1 (or 0) and
    their log totals.  The weights are taken relative to the largest
    ``log_norm + log x``, so no column under- or overflows on its own.
    Without ``keep_mass`` the result is normalised to total 1."""
    with np.errstate(divide="ignore"):
        v = log_norm + np.log(x)
    top = v.max()
    if top == -np.inf:  # every path from x has died
        return np.zeros_like(x)
    y = op @ np.exp(v - top)
    if keep_mass:
        y *= np.exp(top)
    else:
        y /= y.sum()
    return y


def _scan(out: np.ndarray, matrix: np.ndarray, after, contract=None, before=None, scales: np.ndarray | None = None) -> None:
    """Fill ``out[1:]`` from ``out[0]`` by a linear recursion, in blocks.

    ``out[t]`` is the stacked (2N) vector at position t, a C-contiguous
    block in the shape the step works in: (2, N) for the forward pass, a
    (2N, 1) column for the adjoint.  ``matrix`` is the (2N, 2N) linear
    map on the stacked vector.  The step from position t to t + 1 is
    given as ufunc calls on one such vector or a batch ``x`` (k, ...) of
    them, so that it runs in place:

        x = before[t] * x             (only with ``before``)
        x = contract(x)               (the linear map; it takes ``out=``;
                                       default ``matrix @ x``)
        x = ufunc(x, operands[t])     (``after = (ufunc, operands)``)

    With ``scales`` (T,), every later step is normalised by its total
    mass and the total recorded, as in the scaled step loop, from a
    normalised ``out[0]``; a step with zero mass keeps its zeros and
    factor 1.

    Steps 1..T-1 are split into blocks of L = max(_SCAN_MIN_BLOCK,
    isqrt(T)).  A single block, as every window of up to 65 steps, is the
    step loop itself: each step writes ``out[t + 1]`` from ``out[t]``.
    Otherwise phase 1 maps the unit vectors through every block but
    the last, all at once in L batched products: the step with
    ``matrix @`` for ``contract``, on (k, 2N, 2N) batches of columns,
    normalising each column and keeping its log total.  Phase 2 chains
    the blocks' start vectors, one product per block.  Phase 3 runs the
    step from all starts at once for L steps and writes each result into
    ``out``: about 3 sqrt(T) Python-level steps instead of T.  Block 0
    starts from ``out[0]``, so its steps are the step loop's bit for bit.
    """
    t_len = out.shape[0]
    size = max(_SCAN_MIN_BLOCK, math.isqrt(t_len))
    ufunc, operands = after
    contract = contract or partial(np.matmul, matrix)
    ragged = t_len - 1  # steps in the last block
    if ragged <= size:  # one block: the step loop, each step written into its row of ``out``
        scratch, pres = (None, repeat(None)) if before is None else (np.empty_like(out[0]), before)
        for t, x, y, pre, post in zip(count(1), out[:-1], out[1:], pres, operands):
            if pre is not None:
                x = np.multiply(pre, x, scratch)
            contract(x, out=y)
            ufunc(y, post, y)
            if scales is not None:
                total = np.add.reduce(y, None)
                if total > 0.0:
                    np.divide(y, total, y)
                    scales[t] = total
        return

    n_blocks = -(-ragged // size)
    ragged -= size * (n_blocks - 1)
    x = np.empty((n_blocks,) + out.shape[1:])
    x[0] = out[0]
    width = x[0].size  # 2N
    ops = np.tile(np.eye(width), (n_blocks - 1, 1, 1))
    log_norm = np.zeros((n_blocks - 1, width))
    with np.errstate(divide="ignore"):
        for l in range(size):
            src = slice(l, l + size * (n_blocks - 1), size)
            if before is not None:
                ops = before[src] * ops
            ops = matrix @ ops
            ufunc(ops, operands[src].reshape(len(ops), -1, 1), out=ops)
            total = ops.sum(axis=1)  # (k, 2N), one total per column
            log_norm += np.log(total)  # -inf once a column has died
            total[total == 0.0] = 1.0
            ops /= total[:, None]
    for k in range(1, n_blocks):
        x[k].flat = _next_start(ops[k - 1], log_norm[k - 1], x[k - 1].ravel(), scales is None)
    later = out[1:]
    for l in range(size):
        if l == ragged:  # the last block is done
            x = x[:-1]
        src = slice(l, t_len - 1, size)
        if before is not None:
            x = before[src] * x
        x = contract(x)
        ufunc(x, operands[src], out=x)
        if scales is not None:
            total = x.sum(axis=(1, 2), keepdims=True)
            total[total == 0.0] = 1.0  # a step with zero mass keeps its zeros and factor 1
            x /= total
            scales[1:][src] = total.ravel()
        later[src] = x


# Floats of temporaries per back-pointer block, which sets its step count;
# a step's (c, i, k) temporaries hold 2 N^2, so they stay bounded in T.
_PSI_BLOCK_FLOATS = 1 << 15


def _psi_block_steps(n_states: int) -> int:
    """Steps per back-pointer block: 2 * N^2 floats per step."""
    return max(1, _PSI_BLOCK_FLOATS // (2 * n_states**2))


def _viterbi_loop(trellis: np.ndarray, start: int, stop: int, own_a, cross_max, log_bt) -> None:
    """The decoder's step loop: rows ``start + 1 .. stop - 1`` of the step-major trellis from
    row ``start``, four ufunc calls a step (see ``coupled_viterbi``)."""
    own = np.empty(own_a.shape)  # (c, i, k)
    add, reduce_max = np.add, np.maximum.reduce
    for prev, row, bt in zip(trellis[start : stop - 1, :, :, None], trellis[start + 1 : stop], log_bt[start + 1 : stop]):
        add(prev, own_a, out=own)
        reduce_max(own, axis=1, out=row)
        add(row, cross_max, out=row)
        add(row, bt, out=row)


# The decoder's grid route (``_viterbi_rows``) runs at up to _GRID_MAX_STATES states, where it
# measures faster than the step loop (phase 1 costs N^3 a step; ``tools/grid_per_n.py`` times
# both routes per N).  _GRID_MIN_STEPS is the shortest segment tried and the loop's stretch
# between tries, and _GRID_FLOATS floats of temporaries bound a segment's length and its blocks.
_GRID_MAX_STATES = 8
_GRID_MIN_STEPS = 64
_GRID_FLOATS = 1 << 14
_NO_PATH = -np.inf  # the max-plus zero, the score of no path: phase 1's identity off its diagonal


def _grid_plan(row: list, t: int):
    """Where row ``t`` (per chain, a list of N scores) stands: ``(exps, room)``.

    ``exps`` holds each chain's binade exponent e, such that every finite score of the chain
    lies in (-2^e, -2^(e-1)], or is None when a chain has a 0.0 (in no binade) or scores in
    two binades.  A chain of -inf scores alone stays so on any grid, and takes e = 0.  ``room``
    is the steps until a chain's lowest score is estimated, at the chain's mean descent
    -max/t a step, to leave its binade."""
    exps, room = [], math.inf
    for scores in row:
        finite = [v for v in scores if v > -math.inf]
        if not finite:
            exps.append(0)
            continue
        top, low = max(finite), min(finite)
        e = math.frexp(top)[1]
        if top == 0.0 or math.frexp(low)[1] != e:
            return None, 0
        exps.append(e)
        room = min(room, (2.0**e + low) * t / -top)
    return exps, room


def _grid_segment(trellis: np.ndarray, t: int, steps: int, exps: list, consts: np.ndarray, bins: np.ndarray) -> int:
    """Rows ``t + 1 .. t + steps`` of the trellis by max-plus on each chain's ulp grid, in
    blocks; returns how many of them are verified, each equal to the step loop's.

    ``consts`` (2, N^2 + N + N M) holds each chain's constants: log a1 (i, k), the cross
    maxima and the log emissions.  Each is rounded once to a multiple of its chain's ulp
    u = 2^(e - 53); a constant half way between two multiples (a tie) verifies nothing.  Then
    ``_scan``'s three phases in max-plus, with each step's rounded cross maxima plus emissions,
    ``inc`` (2, N, steps), added by broadcasting: phase 1 maps every block but the last from
    the identity, phase 2 chains the blocks' starts from row ``t``, and phase 3 runs every
    block from its start for L steps, writing the rows.  The blocks are the last axis of the
    batched arrays, so each max runs over contiguous rows of blocks."""
    n = trellis.shape[2]
    shift = 53 - np.array(exps)[:, None]  # (2, 1)
    scaled = np.ldexp(consts, shift)
    grid = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # -inf minus -inf, which is no tie
        if (np.abs(scaled - grid) == 0.5).any():
            return 0
    np.ldexp(grid, -shift, out=grid)
    r_a = grid[:, : n * n].reshape(2, n, n, 1)  # (c, i, k, b)
    inc = np.empty((2, n, steps))
    for c, table in enumerate(grid[:, n * n + n :].reshape(2, n, -1)):
        np.take(table, bins[c, t + 1 : t + 1 + steps], axis=1, out=inc[c])
    inc += grid[:, n * n : n * n + n, None]

    # L ~ sqrt(steps), or longer where phase 1's pair scores, 2 N^3 floats a block, would pass the budget.
    size = max(math.isqrt(steps), -(-steps * 2 * n**3 // _GRID_FLOATS))
    n_blocks = -(-steps // size)
    ragged = steps - size * (n_blocks - 1)  # steps in the last block
    eye = np.where(np.eye(n, dtype=bool), 0.0, _NO_PATH)[:, :, None]
    ops = np.broadcast_to(eye, (2, n, n, n_blocks - 1))  # (c, i0, i, b)
    pairs, maps = np.empty((2, n, n, n, n_blocks - 1)), np.empty((2, n, n, n_blocks - 1))
    for l in range(size):
        np.add(ops[:, :, :, None], r_a[:, None], out=pairs)  # (c, i0, i, k, b)
        ops = np.maximum.reduce(pairs, axis=2, out=maps)  # (c, i0, k, b)
        ops += inc[:, None, :, l : l + size * (n_blocks - 1) : size]
    starts = np.empty((n_blocks, 2, n))
    starts[0] = trellis[t]
    for k in range(1, n_blocks):
        np.maximum.reduce(starts[k - 1][:, :, None] + ops[..., k - 1], axis=1, out=starts[k])
    rows = trellis[t + 1 : t + 1 + steps]
    x, own = starts.transpose(1, 2, 0), np.empty((2, n, n, n_blocks))  # own: (c, i, k, b)
    for l in range(size):
        if l == ragged:  # the last block is done
            x, own = x[..., :-1], own[..., :-1]
        y = rows[l::size].transpose(1, 2, 0)  # (c, k, b)
        np.add(x[:, :, None], r_a, out=own)
        np.maximum.reduce(own, axis=1, out=y)
        y += inc[:, :, l::size]
        x = y

    # Keep the rows up to the first with a finite score outside its chain's binade, and up to
    # the first block whose phase-2 start is not the phase-3 row that ends the block before.
    lo, hi = (-np.ldexp(1.0, np.array(exps)[:, None] - d) for d in (0, 1))
    good = (((rows > lo) & (rows <= hi)) | (rows == -np.inf)).all(axis=(1, 2))
    kept = steps if good.all() else int(good.argmin())
    same = (starts[1:] == rows[size - 1 : size * (n_blocks - 1) : size]).all(axis=(1, 2))
    if not same.all():
        kept = min(kept, size * (int(same.argmin()) + 1))
    return kept


def _viterbi_rows(trellis: np.ndarray, own_a, cross_max, log_bt, log_emit, bins) -> int:
    """Fill rows 1.. of the step-major trellis from row 0; returns the steps taken on the grid.

    Up to ``_SCAN_MIN_BLOCK`` steps, and every step at more than ``_GRID_MAX_STATES`` states,
    are the step loop's.  From each later row that ``_grid_plan`` finds in one binade per
    chain, with room for at least ``_GRID_MIN_STEPS`` steps, a grid segment of up to
    ``_GRID_FLOATS / 2N`` steps is tried (``_grid_segment``) and its verified rows kept.
    After a segment cut short, or from any other row, the loop runs ``_GRID_MIN_STEPS`` steps."""
    t_len, _, n = trellis.shape
    t = min(t_len - 1, _SCAN_MIN_BLOCK) if n <= _GRID_MAX_STATES else t_len - 1
    _viterbi_loop(trellis, 0, t + 1, own_a, cross_max, log_bt)
    if t == t_len - 1:
        return 0
    consts = np.concatenate((own_a.reshape(2, -1), cross_max, log_emit.reshape(2, -1)), axis=1)
    cap = _GRID_FLOATS // (2 * n)
    on_grid = 0
    while t < t_len - 1:
        exps, room = _grid_plan(trellis[t].tolist(), t)
        steps = int(min(t_len - 1 - t, cap, room))
        if exps is not None and steps >= _GRID_MIN_STEPS:
            kept = _grid_segment(trellis, t, steps, exps, consts, bins)
            t, on_grid = t + kept, on_grid + kept
            if kept == steps:
                continue
        stop = min(t_len, t + 1 + _GRID_MIN_STEPS)
        _viterbi_loop(trellis, t, stop, own_a, cross_max, log_bt)
        t = stop - 1
    return on_grid


def coupled_viterbi(params: ChmmParams, obs: ObservationSequence) -> ViterbiTrellis:
    """Decode the best state path of each chain.

    Recursion per chain c and target state k:

        delta_t(k) = max_{i,j} [delta_{t-1}(i) + log a1[i, k] + log a2[j, k]] + log b_k(o_t)

    where a1, a2 are the two transition matrices pointing into chain c
    and i indexes the chain's own previous state.  All argmax operations
    break ties toward the lowest index (row-major over (i, j) pairs), so
    decoding is deterministic across platforms.  The recursion keeps only
    the maximum; the backtrack then takes each step's pointer from the
    finished trellis, a block of steps at a time: the first i reaching the
    maximum with the best j, which is the i of the lowest maximizing pair.

    A decoded path must score exactly ``log_best`` under
    ``oracle.score_path``, which adds the terms in the step loop's order,
    so every score is the step loop's bit for bit: a step is four ufunc
    calls into a step-major (T, 2, N) buffer, of which ``log_delta`` is a
    view.  Long stretches still run in about 3 sqrt(S) Python-level steps
    per segment of S, by this lemma.  Let B = [2^(e-1), 2^e) be a binade
    and u = 2^(e-53) its ulp.  Every addend (log a1, the cross maximum,
    log b) is at most 0, so while every finite score of a chain lies in
    -B before and after a step, fl(x + a) = x + r(a), with r(a) the
    multiple of u nearest to a, unless a / u is exactly a half-integer,
    where ties-to-even reads x's last bit.  The rounded recursion is then
    exact max-plus arithmetic on multiples of u, which is associative, so
    ``_grid_segment`` runs a segment as ``_scan``'s blocked scan in
    max-plus with constants rounded once.  Its guards: no constant is a
    tie, every finite score stays in its chain's binade (-inf stays
    exact and is left out; 0.0 lies in no binade), and each block's
    chained start equals the row that ends the block before.  The rows up
    to the first failed guard are kept; all else, as short segments, a
    row in two binades and every step at more than ``_GRID_MAX_STATES``
    states, is the step loop's (``_viterbi_rows``).  The back-pointer
    blocks lay the source state last, (c, t, k, i).
    """
    check_params(params)
    n = params.n_states
    t_len = obs.length
    with np.errstate(divide="ignore"):
        log_a = np.log(params.trans)    # (2, 2, N, N)
        log_pi = np.log(params.priors)  # (2, N)
        log_emit = np.log(params.emit)  # (2, N, M)
    log_bt = _emission_lookup(params, obs, log_emit)  # (T, 2, N)

    own_a, cross_a = log_a[0], log_a[1]  # log a1[c, i, k], log a2[c, j, k]
    # A pair (i, j) scores own(i) + cross(j), with own(i) = delta_{t-1}(i)
    # + log a1[i, k] and cross(j) = log a2[j, k].  Rounding is monotone in
    # each operand, so the largest rounded pair score is exactly
    # fl(max_i own(i) + max_j cross(j)): the recursion carries only that.
    cross_max = cross_a.max(axis=1)  # (c, k)

    trellis = np.empty((t_len, 2, n))  # step-major: trellis[t] is step t's (c, k) block
    np.add(log_pi, log_bt[0], out=trellis[0])
    _viterbi_rows(trellis, own_a, cross_max, log_bt, log_emit, obs.bins)
    trellis.setflags(write=False)
    log_delta = trellis.transpose(1, 0, 2)  # (2, T, N)

    # Backtrack from the end a block of steps at a time, taking each block's back-pointers
    # as Python lists: a pair (i, j) reaches the maximum only if fl(own(i) + cross_max) does,
    # so the first such i is the own state of the lowest maximizing pair.  Scores are never
    # NaN, so the last step's Python max and its first index are numpy's max and argmax.
    last = trellis[-1].tolist()  # (c, k)
    log_best = [max(row) for row in last]
    states = [row.index(best) for row, best in zip(last, log_best)]  # each chain's state at the block's end
    paths = np.empty((2, t_len), dtype=np.int64)
    paths[:, -1] = states
    block = _psi_block_steps(n)
    own_t = own_a.swapaxes(1, 2)[:, None]  # (c, 1, k, i): sums in C order put i last, contiguous
    for t1 in range(t_len, 1, -block):
        t0 = max(1, t1 - block)
        own = np.add(log_delta[:, t0 - 1 : t1 - 1, None, :], own_t, order="C")  # (c, t, k, i)
        own += cross_max[:, None, :, None]
        for c, rows in enumerate(own.argmax(axis=3).tolist()):  # (t, k) per chain
            state, walk = states[c], []
            for row in reversed(rows):
                state = row[state]
                walk.append(state)
            states[c] = state
            paths[c, t0 - 1 : t1 - 1] = walk[::-1]
    return ViterbiTrellis(log_delta=log_delta, paths=paths, log_best=np.array(log_best))
