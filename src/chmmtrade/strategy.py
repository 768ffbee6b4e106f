"""Next-state prediction, indicator forecasting and entry signals.

Two predictors are provided.  The marginal predictor ranks target states
by the coupling-weighted column sums of the transition matrices; the
Viterbi predictor conditions the same blend on the decoded tail states.
The printed source for the second chain's self term is ambiguous, so
both a symmetric ("corrected", default) and a literal variant ship
behind the ``fidelity`` switch.

The readouts run on a stack of K windows' parameters at once
(``_readout``, which the backtest calls once per block of windows); the
public readouts are that route for one window.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .indicators import Discretizer, bin_value
from .inference import ViterbiTrellis
from .model import ChmmParams, _size, _views

__all__ = [
    "next_state_marginal",
    "next_state_viterbi",
    "predict_observation",
    "allocation_fraction",
    "crossing_side",
    "RSI_LONG_LEVEL",
    "RSI_SHORT_LEVEL",
    "CCI_LONG_LEVEL",
    "CCI_SHORT_LEVEL",
]

RSI_LONG_LEVEL = 20.0
RSI_SHORT_LEVEL = 80.0
CCI_LONG_LEVEL = 105.0
CCI_SHORT_LEVEL = -105.0

FIDELITIES = ("corrected", "literal")


def _check_fidelity(fidelity: str) -> None:
    if fidelity not in FIDELITIES:
        raise ValueError(f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")


def _stack(params: Sequence[ChmmParams]) -> list[np.ndarray]:
    """The transitions (K, 2, 2, N, N), emissions (K, 2, N, M) and coupling
    (K, 2, 2) of K parameter sets of one model size, as ``model._views`` of
    their buffers stacked into one (K, P) array."""
    return _views(np.stack([p._buf for p in params]), params[0].n_states, params[0].n_bins)[1:]


def _scores(trans: np.ndarray, coupling: np.ndarray, fidelity: str, tails: np.ndarray | None = None) -> np.ndarray:
    """(K, 2, N) score of each chain's target states in K windows: the
    coupling-weighted blend of the two transition matrices feeding the
    chain, taken as column sums (``tails`` None) or as the rows that the
    (K, 2) decoded tail states select.

    For chain 0 the self term is trans[0, 0] weighted by coupling[0, 0]
    and the cross term trans[1, 0] weighted by coupling[1, 0].  For chain
    1 the corrected variant mirrors that with trans[1, 1] / trans[0, 1];
    the literal variant keeps trans[0, 0] as the printed self matrix.  The
    self matrix's row is indexed by the chain's own tail state, the cross
    matrix's row by the other chain's.
    """
    # A column sum adds the source rows in order whatever K is, so each
    # stacked row keeps the bits of the one-window route.
    scores = np.empty((len(trans), 2, trans.shape[-1]))
    rows = np.arange(len(trans))
    for chain in range(2):
        m_self = trans[:, 0, 0] if fidelity == "literal" else trans[:, chain, chain]
        m_cross = trans[:, 1 - chain, chain]
        if tails is None:
            m_self, m_cross = m_self.sum(axis=1), m_cross.sum(axis=1)
        else:
            m_self, m_cross = m_self[rows, tails[:, chain]], m_cross[rows, tails[:, 1 - chain]]
        w_self, w_cross = coupling[:, chain, chain, None], coupling[:, 1 - chain, chain, None]
        np.add(w_self * m_self, w_cross * m_cross, out=scores[:, chain])
    return scores


def _midpoints(rows: np.ndarray, d: Discretizer) -> np.ndarray:
    """Midpoint of the most probable bin of each emission row (..., M),
    lowest bin on ties; a bin past ``d``'s raises the IndexError of
    ``bin_value`` for the first such row."""
    bins = rows.argmax(axis=-1)
    past = bins[bins >= d.m]
    if past.size:
        bin_value(d, int(past[0]))  # raises
    return np.array([bin_value(d, k) for k in range(bins.max() + 1)], dtype=float)[bins]


def _fractions(marginal: np.ndarray, states) -> np.ndarray:
    """Each window's (K, N) marginal score of its state, over the scores' sum."""
    return marginal[np.arange(len(marginal)), states] / marginal.sum(axis=1)


def _readout(
    params: Sequence[ChmmParams], fidelity: str, d: Discretizer, predictors, tails: np.ndarray | None = None
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each named predictor's readout of K fitted windows in one pass: both
    chains' next states (K, 2), both forecasts (K, 2) and the traded
    chain's allocation fraction (K,).  ``tails`` holds the (K, 2) decoded
    tail states that the "viterbi" predictor conditions on.  Row k is bit
    for bit what the one-window public calls give for window k, which are
    this route at K = 1."""
    trans, emit, coupling = _stack(params)
    marginal = _scores(trans, coupling, fidelity)
    rows = np.arange(len(params))[:, None]
    out = {}
    for predictor in predictors:
        scores = marginal if predictor == "marginal" else _scores(trans, coupling, fidelity, tails)
        states = scores.argmax(axis=-1)
        out[predictor] = states, _midpoints(emit[rows, (0, 1), states], d), _fractions(marginal[:, 0], states[:, 0])
    return out


def next_state_marginal(params: ChmmParams, fidelity: str = "corrected") -> tuple[int, int]:
    """Most probable next state per chain from column-summed transitions.

    For each chain, every target state is scored by summing its incoming
    probability over all source states of both matrices feeding the
    chain, blending the two sums with the coupling weights; the argmax
    wins, lowest index on ties.
    """
    _check_fidelity(fidelity)
    trans, _, coupling = _stack((params,))
    return tuple(_scores(trans, coupling, fidelity)[0].argmax(axis=-1).tolist())


def next_state_viterbi(
    params: ChmmParams, vt: ViterbiTrellis, fidelity: str = "corrected"
) -> tuple[int, int]:
    """Most probable next state per chain given the decoded tail states.

    The tail states of the two decoded paths select one row of each
    source matrix; the coupling-weighted blend of those rows is ranked.
    The self matrix's row is indexed by the chain's own tail state, the
    cross matrix's row by the other chain's.  A decode of another number
    of states raises ValueError.
    """
    _check_fidelity(fidelity)
    decoded = vt.log_delta.shape[-1]
    if decoded != params.n_states:
        raise ValueError(f"the decode has {decoded} states but the parameters have {params.n_states}")
    trans, _, coupling = _stack((params,))
    return tuple(_scores(trans, coupling, fidelity, vt.paths[None, :, -1])[0].argmax(axis=-1).tolist())


def _state_and_chain(params: ChmmParams, psi, chain) -> tuple[int, int]:
    """``psi`` and ``chain`` as ints: a bool or a non-integer raises ValueError
    naming the argument, a state or chain out of range IndexError."""
    psi = _size("psi", psi)
    if not 0 <= psi < params.n_states:
        raise IndexError(f"state {psi} out of range")
    chain = _size("chain", chain)
    if chain not in (0, 1):
        raise IndexError(f"chain must be 0 or 1, got {chain}")
    return psi, chain


def predict_observation(params: ChmmParams, psi: int, chain: int, d: Discretizer) -> float:
    """Midpoint of the most probable emission bin of state ``psi``."""
    psi, chain = _state_and_chain(params, psi, chain)
    return float(_midpoints(params.emit[chain, psi], d))


def allocation_fraction(params: ChmmParams, psi: int, chain: int, fidelity: str = "corrected") -> float:
    """Probability mass of switching to ``psi`` relative to all targets.

    Summing the blended transition scores over every source-state pair
    and normalizing over target states yields a probability measure; the
    fraction for the predicted state scales position size under dynamic
    allocation.  Sums to 1 over all targets.
    """
    _check_fidelity(fidelity)
    psi, chain = _state_and_chain(params, psi, chain)
    trans, _, coupling = _stack((params,))
    return float(_fractions(_scores(trans, coupling, fidelity)[:, chain], [psi])[0])


def _crossed_over(prev: float, curr: float, level: float) -> bool:
    return prev < level and curr >= level


def _crossed_under(prev: float, curr: float, level: float) -> bool:
    return prev > level and curr <= level


def crossing_side(kind: str, prev: float, curr: float, open_sides=()) -> str:
    """Side entered when the smoothed indicator moves from ``prev`` to ``curr``.

    Landing exactly on the level counts as crossed; a NaN mean never
    crosses.  RSI: long over 20, short under 80.  CCI: long under 105,
    short over -105, and a same-direction open position suppresses the
    new signal.  Returns "long", "short" or "none".
    """
    if kind == "rsi":
        if _crossed_over(prev, curr, RSI_LONG_LEVEL):
            return "long"
        if _crossed_under(prev, curr, RSI_SHORT_LEVEL):
            return "short"
        return "none"
    if kind == "cci":
        if _crossed_under(prev, curr, CCI_LONG_LEVEL):
            side = "long"
        elif _crossed_over(prev, curr, CCI_SHORT_LEVEL):
            side = "short"
        else:
            return "none"
        return "none" if side in open_sides else side
    raise ValueError(f"kind must be 'rsi' or 'cci', got {kind!r}")
