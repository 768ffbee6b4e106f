"""Parameter space and observation model for a two-chain coupled HMM.

Two discrete-emission hidden Markov chains evolve jointly: each chain's
next state is drawn from a convex blend of the rows of four transition
matrices, one per (source chain, target chain) pair, weighted by the
coupling matrix.  Observations are bin indices into a discretized
indicator range.  The parameter layout (family order, shapes, simplex axes
and text keys) is stated once, in ``_FAMILIES`` and ``_family_shapes``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import lru_cache
from math import inf, prod
from numbers import Real
from operator import attrgetter, index
from typing import NamedTuple

import numpy as np

N_CHAINS = 2
SIMPLEX_ATOL = 1e-9
_JITTER = 0.05  # half-width of the multiplicative jitter of ``jittered_params``


class _Family(NamedTuple):
    name: str        # ChmmParams field
    stem: str        # text key: ``stem_c...`` per index of the chain axes, 1-based
    chain_axes: int  # leading axes that split the family into text lines
    axis: int        # the axis each simplex runs along
    label: str       # a simplex in validation messages, formatted with its 1-based index


# The parameter layout in library order; ``_family_shapes`` gives the shapes.
_FAMILIES = (
    _Family("priors", "prior", 1, 1, "prior chain {}"),
    _Family("trans", "trans", 2, 3, "transition matrix ({},{}) row {}"),
    _Family("emit", "emit", 1, 2, "emission matrix chain {} row {}"),
    _Family("coupling", "coupling", 0, 0, "coupling column {}"),
)
_family_arrays = attrgetter(*(fam.name for fam in _FAMILIES))  # a ChmmParams' four arrays, in table order


def _family_shapes(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The shape of each family, in ``_FAMILIES`` order, for N states and M bins."""
    return (N_CHAINS, n), (N_CHAINS, N_CHAINS, n, n), (N_CHAINS, n, m), (N_CHAINS, N_CHAINS)


class _Layout(NamedTuple):  # see ``_layout``
    parts: tuple[tuple[slice, tuple[int, ...]], ...]  # (place, shape) of each family
    rows: tuple[tuple[slice, tuple[int, int], slice], ...]  # (place, 2-D shape, sums) of the rows of each length
    simplex_of: np.ndarray  # each entry's index in ``_simplex_sums``
    uniform: np.ndarray  # each entry 1 / the length of its simplex
    short_rows: bool  # every simplex short enough that its entries, divided by their sum, sum within SIMPLEX_ATOL of 1


@lru_cache(maxsize=16)
def _layout(n: int, m: int) -> _Layout:
    """The flat buffer of N states and M bins: the families in ``_FAMILIES`` order, each in C order, so
    rows of length N (priors, transitions), then of length M (emissions), then the coupling's columns."""
    shapes = _family_shapes(n, m)
    ends = np.cumsum([prod(shape) for shape in shapes]).tolist()
    head, tail = ends[1], ends[2]
    starts = np.cumsum([0, head // n, (tail - head) // m]).tolist()
    rows = tuple(zip(map(slice, [0, head], [head, tail]), [(-1, n), (-1, m)], map(slice, starts, starts[1:])))
    simplex_of = np.concatenate((np.arange(head) // n, starts[1] + np.arange(tail - head) // m,
                                 starts[2] + np.tile(np.arange(N_CHAINS), N_CHAINS)))
    uniform = 1.0 / np.bincount(simplex_of)[simplex_of]
    for arr in (simplex_of, uniform):
        arr.setflags(write=False)  # every caller gets these very arrays
    short_rows = 2 * (max(n, m, N_CHAINS) + 1) * 2.0**-53 <= SIMPLEX_ATOL
    return _Layout(tuple(zip(map(slice, [0, *ends], ends), shapes)), rows, simplex_of, uniform, short_rows)


def _views(buf: np.ndarray, n: int, m: int) -> list[np.ndarray]:
    """The four families of a flat buffer (P,), or of a stack of K of them (K, P), as views of it in
    ``_FAMILIES`` order; a stack's leading axis is kept, so family ``f`` of row k is ``_views(buf[k])[f]``."""
    return [buf[..., part].reshape(buf.shape[:-1] + shape) for part, shape in _layout(n, m).parts]


def _adopt(obj, buf: np.ndarray, n: int, m: int, **attrs):
    """Set ``obj``'s ``_buf``, made read-only, its model size ``n_states`` and ``n_bins``, ``attrs``
    and its families as views of ``buf``."""
    buf.setflags(write=False)
    state = vars(obj)
    state.update(_buf=buf, n_states=n, n_bins=m, **attrs)
    state.update(zip(obj._names, _views(buf, n, m)))
    return obj


def _simplex_sums(buf: np.ndarray, n: int, m: int) -> np.ndarray:
    """Every simplex sum of a flat buffer, in ``_FAMILIES`` order, each as numpy sums the family's own array."""
    lay = _layout(n, m)
    sums = np.empty(lay.simplex_of[-1] + 1)
    for part, shape, into in lay.rows:
        np.add.reduce(buf[part].reshape(shape), 1, out=sums[into])
    np.add(buf[-4:-2], buf[-2:], out=sums[-2:])  # the coupling's columns: row 1 added to row 0
    return sums


def _simplex_normalize(num: np.ndarray, n: int, m: int, keep: ChmmParams | None = None) -> ChmmParams:
    """Parameters from buffer ``num``, each simplex divided by its sum or, where that is not positive, kept from
    ``keep`` (``None``: the layout's uniform buffer).  When the kept rows are known valid (uniform, or ``keep``'s
    verdict is valid), the result's verdict is recorded as valid if every entry of ``num`` is at least 0 and every
    simplex sum is finite: a rounded sum of non-negative numbers is at least each of them, so each divided entry lies
    in [0, 1], and a divided row of L entries sums within about 2 (L + 1) 2^-53 of one, inside ``SIMPLEX_ATOL`` for
    the rows ``_layout`` allows.  Otherwise ``validate_params`` works the verdict out when it is asked."""
    lay = _layout(n, m)
    sums = _simplex_sums(num, n, m)
    denom = sums[lay.simplex_of]
    buf = np.divide(num, denom, out=(lay.uniform if keep is None else keep._buf).copy(), where=denom > 0.0)
    params = _adopt(object.__new__(ChmmParams), buf, n, m)
    kept_valid = keep is None or vars(keep).get("_verdict") == ()
    if kept_valid and lay.short_rows and np.minimum.reduce(num) >= 0.0 and np.maximum.reduce(sums) < inf:  # NaN fails both
        vars(params)["_verdict"] = ()
    return params


class _Buffered:
    """The four families (fields ``_names``) as read-only views of one flat buffer, ``_buf``, of a
    model of ``n_states`` and ``n_bins``.  Construction packs a copy of the fields into the buffer
    and replaces them with views of it (read-only with it, so no view needs its own flag).  Every
    attribute, these included, is a plain instance attribute, so its loads are specialised."""

    _names = tuple(fam.name for fam in _FAMILIES)

    def __post_init__(self):
        names = self._names
        priors, trans, emit, coupling = arrays = [np.asarray(vars(self).pop(name), dtype=float) for name in names]
        if priors.ndim != 2 or priors.shape[0] != N_CHAINS:
            raise ValueError(f"{names[0]} must have shape (2, N), got {priors.shape}")
        n = priors.shape[1]
        if n < 1:
            raise ValueError("need at least one state per chain")
        if trans.shape != (N_CHAINS, N_CHAINS, n, n):
            raise ValueError(f"{names[1]} must have shape (2, 2, {n}, {n}), got {trans.shape}")
        if emit.ndim != 3 or emit.shape[:2] != (N_CHAINS, n) or emit.shape[2] < 1:
            raise ValueError(f"{names[2]} must have shape (2, {n}, M), got {emit.shape}")
        if coupling.shape != (N_CHAINS, N_CHAINS):
            raise ValueError(f"{names[3]} must have shape (2, 2), got {coupling.shape}")
        _adopt(self, np.concatenate(arrays, axis=None), n, emit.shape[2])  # a copy, whatever the arrays were

    def __reduce__(self):  # copies and pickles pack a new buffer through the constructor
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _size(name: str, value) -> int:
    """``value`` as an int; a bool, or a value ``operator.index`` refuses, raises ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, or a value that is not a real number, raises ValueError naming ``name``."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_seed(value) -> None:
    """Refuse a seed that is not a non-negative integer, naming ``seed``."""
    if _size("seed", value) < 0:
        raise ValueError(f"seed must be non-negative, got {value!r}")


@dataclass(frozen=True, eq=False)
class ChmmParams(_Buffered):
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

    n_states, n_bins : int
        N and M, set on construction.

    Instances are immutable; the arrays are copied on construction into one read-only
    buffer (``_layout``), of which they are views, so params are safe to share across threads.
    """

    priors: np.ndarray
    trans: np.ndarray
    emit: np.ndarray
    coupling: np.ndarray


def _integer_bins(arr: np.ndarray) -> np.ndarray:
    """A float, unsigned or object array as int64 when each entry is an
    integer in int64 range; any other entry or dtype raises ValueError, not
    truncated or wrapped."""
    if arr.dtype.kind in "fuO":
        try:
            with np.errstate(invalid="ignore"):  # an out-of-range float fails the comparison
                exact = arr.astype(np.int64)
            if (exact == arr).all():
                return exact
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError("observation bins must be integers in int64 range")


@dataclass(frozen=True, eq=False)
class ObservationSequence:
    """Per-chain sequences of observation bin indices, equal length T >= 1."""

    bins: np.ndarray  # (2, T) int64

    def __post_init__(self):
        bins = np.asarray(self.bins)
        if bins.dtype.kind not in "ib":  # signed integer and bool arrays convert as they are
            bins = _integer_bins(bins)
        bins = np.array(bins, dtype=np.int64)
        bins.setflags(write=False)
        if bins.ndim != 2 or bins.shape[0] != N_CHAINS:
            raise ValueError(f"bins must have shape (2, T), got {bins.shape}")
        if bins.shape[1] < 1:
            raise ValueError("observation sequence must have length >= 1")
        if bins.min() < 0:
            raise ValueError("observation bins must be non-negative")
        object.__setattr__(self, "bins", bins)

    @classmethod
    def from_lists(cls, obs1, obs2) -> "ObservationSequence":
        o1, o2 = np.asarray(obs1), np.asarray(obs2)
        if o1.shape != o2.shape:
            raise ValueError("both chains must observe the same number of bars")
        return cls(np.stack([o1, o2]))

    @property
    def length(self) -> int:
        return self.bins.shape[1]


def validate_params(params: ChmmParams) -> list[str]:
    """Check every simplex and range constraint; return violation messages.

    Parameters are immutable, so the messages are worked out on the first
    call and kept with the instance; a later call returns a new list of
    the same messages.  One min and max over the parameter buffer and
    one max over the deviations of its simplex sums (prior rows,
    transition rows, emission rows, coupling columns) decide; an
    empty list means every entry lies in [0, 1] and every sum is within
    ``SIMPLEX_ATOL`` of one.  Otherwise the messages come from those same
    arrays: first each family with an entry outside [0, 1] (NaN
    included), then each sum off by more than the tolerance, in the
    order above.  A NaN sum fails no comparison, so NaN is reported by
    the range check alone.  Chains, rows and columns are 1-based to match
    the serialized text format.
    """
    verdict = vars(params).get("_verdict")
    if verdict is None:
        verdict = vars(params)["_verdict"] = tuple(_violations(params))
    return list(verdict)


def _violations(params: ChmmParams) -> list[str]:
    """The messages ``validate_params`` returns, worked out."""
    buf = params._buf
    in_range = buf.min() >= 0.0 and buf.max() <= 1.0
    # Entries in [0, 1] sum without warnings; out of range, +inf and -inf
    # in one simplex sum to NaN, which the range message already covers.
    with nullcontext() if in_range else np.errstate(invalid="ignore"):
        sums = _simplex_sums(buf, params.n_states, params.n_bins)
    dev = np.abs(sums - 1.0)
    if in_range and dev.max() <= SIMPLEX_ATOL:
        return []

    arrays = _family_arrays(params)
    issues = [f"{fam.name}: entries outside [0, 1]" for fam, arr in zip(_FAMILIES, arrays)
              if not ((arr >= 0.0) & (arr <= 1.0)).all()]
    labels = [
        fam.label.format(*(i + 1 for i in idx))
        for fam, arr in zip(_FAMILIES, arrays)
        for idx in np.ndindex(arr.shape[:fam.axis] + arr.shape[fam.axis + 1:])
    ]
    issues += [f"{labels[k]}: sums to {sums[k]!r}" for k in np.flatnonzero(dev > SIMPLEX_ATOL)]
    return issues


def check_params(params: ChmmParams) -> None:
    """Raise ValueError when validate_params finds any violation."""
    issues = validate_params(params)
    if issues:
        raise ValueError("invalid parameters: " + "; ".join(issues))


def _params_by_family(n_states: int, n_bins: int, draw=None) -> ChmmParams:
    """Parameters with every simplex uniform or, given ``draw``, the flat buffer ``draw(uniform)`` normalized."""
    n, m = _size("n_states", n_states), _size("n_bins", n_bins)
    if n < 1 or m < 1:  # no layout: ChmmParams refuses the empty family by name
        return ChmmParams(*[np.ones(shape) for shape in _family_shapes(max(n, 0), max(m, 0))])
    uniform = _layout(n, m).uniform
    if draw is None:
        return _adopt(object.__new__(ChmmParams), uniform.copy(), n, m)
    return _simplex_normalize(draw(uniform), n, m)


def uniform_params(n_states: int, n_bins: int) -> ChmmParams:
    """Uniform distributions everywhere, coupling weights 1/2."""
    return _params_by_family(n_states, n_bins)


def jittered_params(n_states: int, n_bins: int, seed=0) -> ChmmParams:
    """Uniform parameters with seeded multiplicative jitter, renormalized.

    Each entry is scaled by an independent factor in
    [1 - _JITTER, 1 + _JITTER] before its simplex (row or coupling column)
    is renormalized.  Exact uniformity is a fixed point of the
    multiplicative re-estimation update, so training always starts from a
    jittered point.
    """
    rng = np.random.default_rng(seed)
    return _params_by_family(
        n_states, n_bins, lambda uniform: uniform * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER, size=uniform.shape)
    )


# Serialized text format: one `key = values` line per tensor, row-major,
# 17 significant digits so float64 values round-trip bit-stably.
_FLOAT_FMT = "%.17g"


def _text_lines(fam: _Family):
    """The key of each text line of a family, with the chain index it holds."""
    for idx in np.ndindex((N_CHAINS,) * fam.chain_axes):
        yield "_".join([fam.stem, *(str(c + 1) for c in idx)]), idx


def params_to_text(params: ChmmParams) -> str:
    lines = [f"n_states = {params.n_states}", f"n_bins = {params.n_bins}"]
    for fam, arr in zip(_FAMILIES, _family_arrays(params)):
        for key, idx in _text_lines(fam):
            lines.append(f"{key} = " + " ".join(_FLOAT_FMT % v for v in arr[idx].ravel()))
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

    def size(text):
        value = int(text)
        if value < 1:
            raise ValueError(f"must be at least 1, got {value}")
        return value

    n = need("n_states", size)
    m = need("n_bins", size)

    def vec(key, shape):
        vals = need(key, lambda text: np.array([float(v) for v in text.split()]))
        if vals.size != int(np.prod(shape)):
            raise ValueError(f"{source}: key {key!r}: expected {int(np.prod(shape))} values, got {vals.size}")
        return vals.reshape(shape)

    return ChmmParams(*[
        np.reshape([vec(key, shape[fam.chain_axes:]) for key, _ in _text_lines(fam)], shape)
        for fam, shape in zip(_FAMILIES, _family_shapes(n, m))
    ])


def save_params(params: ChmmParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(params_to_text(params))


def load_params(path) -> ChmmParams:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _params_from_fields(_key_values(fh, path), path)
