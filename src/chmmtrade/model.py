"""Parameter space and observation model for a two-chain coupled HMM.

Two discrete-emission hidden Markov chains evolve jointly: each chain's
next state is drawn from a convex blend of the rows of four transition
matrices, one per (source chain, target chain) pair, weighted by the
coupling matrix.  Observations are bin indices into a discretized
indicator range.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product

import numpy as np

N_CHAINS = 2
SIMPLEX_ATOL = 1e-9


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChmmParams:
    """Full parameter set of the two-chain coupled HMM.

    Attributes
    ----------
    priors : (2, N) array
        Initial state distribution per chain.
    trans : (2, 2, N, N) array
        ``trans[src, dst]`` is the row-stochastic matrix giving the
        probability contribution of landing on a state of chain ``dst``
        when chain ``src`` sits in a given state.
    emit : (2, N, M) array
        Per-chain emission probabilities over M observation bins.
    coupling : (2, 2) array
        ``coupling[src, dst]`` weighs chain ``src``'s influence on chain
        ``dst``'s transition; each column sums to one.

    Instances are immutable; the arrays are copied on construction and
    marked read-only, so params are safe to share across threads.
    """

    priors: np.ndarray
    trans: np.ndarray
    emit: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        priors = _frozen(self.priors)
        trans = _frozen(self.trans)
        emit = _frozen(self.emit)
        coupling = _frozen(self.coupling)
        if priors.ndim != 2 or priors.shape[0] != N_CHAINS:
            raise ValueError(f"priors must have shape (2, N), got {priors.shape}")
        n = priors.shape[1]
        if n < 1:
            raise ValueError("need at least one state per chain")
        if trans.shape != (N_CHAINS, N_CHAINS, n, n):
            raise ValueError(f"trans must have shape (2, 2, {n}, {n}), got {trans.shape}")
        if emit.ndim != 3 or emit.shape[:2] != (N_CHAINS, n) or emit.shape[2] < 1:
            raise ValueError(f"emit must have shape (2, {n}, M), got {emit.shape}")
        if coupling.shape != (N_CHAINS, N_CHAINS):
            raise ValueError(f"coupling must have shape (2, 2), got {coupling.shape}")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "emit", emit)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n_states(self) -> int:
        return self.priors.shape[1]

    @property
    def n_bins(self) -> int:
        return self.emit.shape[2]


@dataclass(frozen=True)
class ObservationSequence:
    """Per-chain sequences of observation bin indices, equal length T >= 1."""

    bins: np.ndarray  # (2, T) int64

    def __post_init__(self):
        bins = _frozen(self.bins, dtype=np.int64)
        if bins.ndim != 2 or bins.shape[0] != N_CHAINS:
            raise ValueError(f"bins must have shape (2, T), got {bins.shape}")
        if bins.shape[1] < 1:
            raise ValueError("observation sequence must have length >= 1")
        if (bins < 0).any():
            raise ValueError("observation bins must be non-negative")
        object.__setattr__(self, "bins", bins)

    @classmethod
    def from_lists(cls, obs1, obs2) -> "ObservationSequence":
        o1 = np.asarray(obs1, dtype=np.int64)
        o2 = np.asarray(obs2, dtype=np.int64)
        if o1.shape != o2.shape:
            raise ValueError("both chains must observe the same number of bars")
        return cls(np.stack([o1, o2]))

    @property
    def length(self) -> int:
        return self.bins.shape[1]


def validate_params(params: ChmmParams) -> list[str]:
    """Check every simplex and range constraint; return violation messages.

    All entries and all simplex sums (prior rows, transition rows,
    emission rows, coupling columns) are reduced at once; an empty list
    means every entry lies in [0, 1] and every sum is within
    ``SIMPLEX_ATOL`` of one.  Otherwise the messages come from those same
    arrays: first each family with an entry outside [0, 1] (NaN
    included), then each sum off by more than the tolerance, in the
    order above.  A NaN sum fails no comparison, so NaN is reported by
    the range check alone.  Chains, rows and columns are 1-based to match
    the serialized text format.
    """
    families = {"priors": params.priors, "trans": params.trans, "emit": params.emit, "coupling": params.coupling}
    entries = np.concatenate([arr.ravel() for arr in families.values()])
    in_range = entries.min() >= 0.0 and entries.max() <= 1.0
    # Entries in [0, 1] sum without warnings; out of range, +inf and -inf
    # in one simplex sum to NaN, which the range message already covers.
    with nullcontext() if in_range else np.errstate(invalid="ignore"):
        sums = np.concatenate(
            [
                params.priors.sum(axis=1),
                params.trans.sum(axis=3).ravel(),
                params.emit.sum(axis=2).ravel(),
                params.coupling.sum(axis=0),
            ]
        )
    off = np.abs(sums - 1.0) > SIMPLEX_ATOL
    if in_range and not off.any():
        return []

    ends = np.cumsum([arr.size for arr in families.values()])
    outside = np.split(~((entries >= 0.0) & (entries <= 1.0)), ends[:-1])
    issues = [f"{name}: entries outside [0, 1]" for name, bad in zip(families, outside) if bad.any()]
    chains, states = range(1, N_CHAINS + 1), range(1, params.n_states + 1)
    labels = (
        [f"prior chain {c}" for c in chains]
        + [f"transition matrix ({cp},{c}) row {i}" for cp, c, i in product(chains, chains, states)]
        + [f"emission matrix chain {c} row {j}" for c, j in product(chains, states)]
        + [f"coupling column {c}" for c in chains]
    )
    issues += [f"{labels[k]}: sums to {sums[k]!r}" for k in np.flatnonzero(off)]
    return issues


def check_params(params: ChmmParams) -> None:
    """Raise ValueError when validate_params finds any violation."""
    issues = validate_params(params)
    if issues:
        raise ValueError("invalid parameters: " + "; ".join(issues))


def joint_transition(params: ChmmParams, chain: int, s1: int, s2: int, j: int) -> float:
    """Probability that chain ``chain`` lands on state ``j`` given both
    chains' previous states ``(s1, s2)``.

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


def _sizes(n_states: int, n_bins: int) -> tuple[int, int]:
    """The sizes as integers; one below 1 raises ``ChmmParams``' ValueError."""
    n, m = int(n_states), int(n_bins)
    if n < 1:
        raise ValueError("need at least one state per chain")
    if m < 1:
        raise ValueError(f"emit must have shape (2, {n}, M), got (2, {n}, {m})")
    return n, m


def uniform_params(n_states: int, n_bins: int) -> ChmmParams:
    """Uniform distributions everywhere, coupling weights 1/2."""
    n, m = _sizes(n_states, n_bins)
    return ChmmParams(
        priors=np.full((N_CHAINS, n), 1.0 / n),
        trans=np.full((N_CHAINS, N_CHAINS, n, n), 1.0 / n),
        emit=np.full((N_CHAINS, n, m), 1.0 / m),
        coupling=np.full((N_CHAINS, N_CHAINS), 0.5),
    )


def jittered_params(n_states: int, n_bins: int, seed=0, jitter: float = 0.05) -> ChmmParams:
    """Uniform parameters with seeded multiplicative jitter, renormalized.

    Each entry is scaled by an independent factor in [1 - jitter, 1 + jitter]
    before its simplex (row or coupling column) is renormalized.  Exact
    uniformity is a fixed point of the multiplicative re-estimation update,
    so training always starts from a jittered point.
    """
    rng = np.random.default_rng(seed)
    n, m = _sizes(n_states, n_bins)

    def jig(shape, value, axis):
        noisy = np.full(shape, value) * rng.uniform(1.0 - jitter, 1.0 + jitter, size=shape)
        return noisy / noisy.sum(axis=axis, keepdims=True)

    return ChmmParams(
        priors=jig((N_CHAINS, n), 1.0 / n, axis=1),
        trans=jig((N_CHAINS, N_CHAINS, n, n), 1.0 / n, axis=3),
        emit=jig((N_CHAINS, n, m), 1.0 / m, axis=2),
        coupling=jig((N_CHAINS, N_CHAINS), 0.5, axis=0),
    )


# Serialized text format: one `key = values` line per tensor, row-major,
# 17 significant digits so float64 values round-trip bit-stably.
_FLOAT_FMT = "%.17g"


def params_to_text(params: ChmmParams) -> str:
    def row(arr):
        return " ".join(_FLOAT_FMT % v for v in np.asarray(arr).ravel())

    lines = [
        f"n_states = {params.n_states}",
        f"n_bins = {params.n_bins}",
        f"prior_1 = {row(params.priors[0])}",
        f"prior_2 = {row(params.priors[1])}",
    ]
    for cp in range(N_CHAINS):
        for c in range(N_CHAINS):
            lines.append(f"trans_{cp + 1}_{c + 1} = {row(params.trans[cp, c])}")
    lines.append(f"emit_1 = {row(params.emit[0])}")
    lines.append(f"emit_2 = {row(params.emit[1])}")
    lines.append(f"coupling = {row(params.coupling)}")
    return "\n".join(lines) + "\n"


def _key_values(lines, source) -> dict[str, str]:
    """The ``key = value`` lines of a text, later keys overriding earlier
    ones; '#' starts a comment and blank lines are skipped.  A line without
    '=' raises ValueError naming ``source`` and the line."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{source}: line {lineno}: expected 'key = value'")
        fields[key.strip()] = value.strip()
    return fields


def params_from_text(text: str) -> ChmmParams:
    return _params_from_fields(_key_values(text.splitlines(), "parameter text"), "parameter text")


def _params_from_fields(fields: dict[str, str], source) -> ChmmParams:
    """Parameters from the parsed lines of a parameter text; errors name ``source``."""

    def need(key, parse):
        if key not in fields:
            raise ValueError(f"{source}: missing key {key!r}")
        try:
            return parse(fields[key])
        except ValueError as exc:
            raise ValueError(f"{source}: key {key!r}: {exc}") from None

    n = need("n_states", int)
    m = need("n_bins", int)

    def vec(key, shape):
        vals = need(key, lambda text: np.array([float(v) for v in text.split()]))
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"{source}: key {key!r}: expected {int(np.prod(shape))} values, got {vals.size}")
        return vals.reshape(shape)

    priors = np.stack([vec("prior_1", (n,)), vec("prior_2", (n,))])
    trans = np.stack(
        [
            np.stack([vec(f"trans_{cp + 1}_{c + 1}", (n, n)) for c in range(N_CHAINS)])
            for cp in range(N_CHAINS)
        ]
    )
    emit = np.stack([vec("emit_1", (n, m)), vec("emit_2", (n, m))])
    coupling = vec("coupling", (N_CHAINS, N_CHAINS))
    return ChmmParams(priors=priors, trans=trans, emit=emit, coupling=coupling)


def save_params(params: ChmmParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(params_to_text(params))


def load_params(path) -> ChmmParams:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _params_from_fields(_key_values(fh, path), path)
