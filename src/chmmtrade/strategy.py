"""Next-state prediction, indicator forecasting and entry signals.

Two predictors are provided.  The marginal predictor ranks target states
by the coupling-weighted column sums of the transition matrices; the
Viterbi predictor conditions the same blend on the decoded tail states.
The printed source for the second chain's self term is ambiguous, so
both a symmetric ("corrected", default) and a literal variant ship
behind the ``fidelity`` switch.
"""

from __future__ import annotations

import numpy as np

from .indicators import Discretizer, bin_value
from .inference import ViterbiTrellis
from .model import ChmmParams

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


def _source_matrices(params: ChmmParams, chain: int, fidelity: str):
    """Self and cross transition matrices with their coupling weights.

    For chain 0 the self term is trans[0, 0] weighted by coupling[0, 0]
    and the cross term trans[1, 0] weighted by coupling[1, 0].  For chain
    1 the corrected variant mirrors that with trans[1, 1] / trans[0, 1];
    the literal variant keeps trans[0, 0] as the printed self matrix.
    """
    theta = params.coupling
    if chain == 0:
        return (theta[0, 0], params.trans[0, 0]), (theta[1, 0], params.trans[1, 0])
    self_mat = params.trans[0, 0] if fidelity == "literal" else params.trans[1, 1]
    return (theta[1, 1], self_mat), (theta[0, 1], params.trans[0, 1])


def _marginal_scores(params: ChmmParams, chain: int, fidelity: str) -> np.ndarray:
    """Coupling-weighted blend of the column sums of the matrices feeding ``chain``."""
    (w_self, m_self), (w_cross, m_cross) = _source_matrices(params, chain, fidelity)
    return w_self * m_self.sum(axis=0) + w_cross * m_cross.sum(axis=0)


def next_state_marginal(params: ChmmParams, fidelity: str = "corrected") -> tuple[int, int]:
    """Most probable next state per chain from column-summed transitions.

    For each chain, every target state is scored by summing its incoming
    probability over all source states of both matrices feeding the
    chain, blending the two sums with the coupling weights; the argmax
    wins, lowest index on ties.
    """
    _check_fidelity(fidelity)
    return tuple(int(_marginal_scores(params, chain, fidelity).argmax()) for chain in range(2))


def next_state_viterbi(
    params: ChmmParams, vt: ViterbiTrellis, fidelity: str = "corrected"
) -> tuple[int, int]:
    """Most probable next state per chain given the decoded tail states.

    The tail states of the two decoded paths select one row of each
    source matrix; the coupling-weighted blend of those rows is ranked.
    The self matrix's row is indexed by the chain's own tail state, the
    cross matrix's row by the other chain's.
    """
    _check_fidelity(fidelity)
    phi = vt.paths[:, -1].tolist()
    out = []
    for chain in range(2):
        (w_self, m_self), (w_cross, m_cross) = _source_matrices(params, chain, fidelity)
        scores = w_self * m_self[phi[chain]] + w_cross * m_cross[phi[1 - chain]]
        out.append(int(scores.argmax()))
    return out[0], out[1]


def predict_observation(params: ChmmParams, psi: int, chain: int, d: Discretizer) -> float:
    """Midpoint of the most probable emission bin of state ``psi``."""
    if not 0 <= psi < params.n_states:
        raise IndexError(f"state {psi} out of range")
    if chain not in (0, 1):
        raise IndexError(f"chain must be 0 or 1, got {chain}")
    k = int(params.emit[chain, psi].argmax())
    return bin_value(d, k)


def allocation_fraction(params: ChmmParams, psi: int, chain: int, fidelity: str = "corrected") -> float:
    """Probability mass of switching to ``psi`` relative to all targets.

    Summing the blended transition scores over every source-state pair
    and normalizing over target states yields a probability measure; the
    fraction for the predicted state scales position size under dynamic
    allocation.  Sums to 1 over all targets.
    """
    _check_fidelity(fidelity)
    if not 0 <= psi < params.n_states:
        raise IndexError(f"state {psi} out of range")
    per_target = _marginal_scores(params, chain, fidelity)
    return float(per_target[psi] / per_target.sum())


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
