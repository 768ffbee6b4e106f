import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chmmtrade import (
    ChmmParams,
    Discretizer,
    allocation_fraction,
    coupled_viterbi,
    crossing_side,
    jittered_params,
    next_state_marginal,
    next_state_viterbi,
    predict_observation,
    uniform_params,
)
from chmmtrade import model
from chmmtrade.backtest import _trigger_means
from chmmtrade.oracle import signal_side
from chmmtrade.strategy import FIDELITIES, _readout, _stack
from conftest import family_bytes, random_obs, random_params, sparse_params


def marginal_oracle(params, fidelity="corrected"):
    """Explicit-loop evaluation of the column-sum predictor."""
    theta = params.coupling
    out = []
    for chain in range(2):
        if chain == 0:
            w_self, m_self = theta[0, 0], params.trans[0, 0]
            w_cross, m_cross = theta[1, 0], params.trans[1, 0]
        else:
            m_self = params.trans[0, 0] if fidelity == "literal" else params.trans[1, 1]
            w_self, w_cross, m_cross = theta[1, 1], theta[0, 1], params.trans[0, 1]
        n = params.n_states
        scores = [
            w_self * sum(m_self[i, j] for i in range(n))
            + w_cross * sum(m_cross[i, j] for i in range(n))
            for j in range(n)
        ]
        out.append(max(range(n), key=lambda j: (scores[j], -j)))
    return tuple(out)


def test_marginal_uniform_ties_break_low():
    assert next_state_marginal(uniform_params(4, 3)) == (0, 0)


def test_marginal_single_source_argmax():
    n = 3
    trans = np.full((2, 2, n, n), 1.0 / n)
    trans[0, 0] = [[0.1, 0.1, 0.8], [0.2, 0.1, 0.7], [0.3, 0.1, 0.6]]  # column 2 dominant
    p = ChmmParams(
        priors=np.full((2, n), 1 / n),
        trans=trans,
        emit=np.full((2, n, 2), 0.5),
        coupling=np.array([[1.0, 0.5], [0.0, 0.5]]),  # chain 1 hears only itself
    )
    assert next_state_marginal(p)[0] == 2


def test_marginal_matches_explicit_sums(rng):
    for _ in range(20):
        p = random_params(rng, int(rng.integers(2, 5)), 3)
        for fidelity in ("corrected", "literal"):
            assert next_state_marginal(p, fidelity) == marginal_oracle(p, fidelity)


def test_marginal_fidelity_variants_differ_when_constructed():
    n = 2
    trans = np.full((2, 2, n, n), 0.5)
    trans[0, 0] = [[0.9, 0.1], [0.9, 0.1]]  # literal self term favors state 0
    trans[1, 1] = [[0.1, 0.9], [0.1, 0.9]]  # corrected self term favors state 1
    p = ChmmParams(
        priors=np.full((2, n), 0.5),
        trans=trans,
        emit=np.full((2, n, 2), 0.5),
        coupling=np.array([[0.1, 0.1], [0.9, 0.9]]),
    )
    assert next_state_marginal(p, "corrected")[1] == 1
    assert next_state_marginal(p, "literal")[1] == 0


def test_viterbi_predictor_identity_transitions_stay_put(rng):
    # Self-dominant coupling, so the absorbing state wins outright; with
    # even weights the two chains' one-hot rows would tie instead.
    n = 3
    eye = np.eye(n)
    priors = np.zeros((2, n))
    priors[0, 1] = 1.0
    priors[1, 2] = 1.0
    p = ChmmParams(
        priors=priors,
        trans=np.broadcast_to(eye, (2, 2, n, n)).copy(),
        emit=np.full((2, n, 2), 0.5),
        coupling=np.array([[0.6, 0.4], [0.4, 0.6]]),
    )
    obs = random_obs(rng, 2, 4)
    vt = coupled_viterbi(p, obs)
    assert (int(vt.paths[0, -1]), int(vt.paths[1, -1])) == (1, 2)
    assert next_state_viterbi(p, vt) == (1, 2)


def test_viterbi_predictor_decoupled_reads_own_row(rng):
    n = 3
    p0 = random_params(rng, n, 2)
    coupling = np.array([[1.0, 0.5], [0.0, 0.5]])
    p = ChmmParams(priors=p0.priors, trans=p0.trans, emit=p0.emit, coupling=coupling)
    obs = random_obs(rng, 2, 3)
    vt = coupled_viterbi(p, obs)
    phi1 = vt.paths[0, -1]
    assert next_state_viterbi(p, vt)[0] == int(np.argmax(p.trans[0, 0][phi1]))


def test_viterbi_predictor_matches_explicit_blend(rng):
    for _ in range(10):
        p = random_params(rng, 3, 3)
        obs = random_obs(rng, 3, 4)
        vt = coupled_viterbi(p, obs)
        phi = (int(vt.paths[0, -1]), int(vt.paths[1, -1]))
        theta = p.coupling
        expected1 = int(np.argmax(theta[0, 0] * p.trans[0, 0][phi[0]] + theta[1, 0] * p.trans[1, 0][phi[1]]))
        expected2 = int(np.argmax(theta[1, 1] * p.trans[1, 1][phi[1]] + theta[0, 1] * p.trans[0, 1][phi[0]]))
        assert next_state_viterbi(p, vt) == (expected1, expected2)
        # literal variant reuses the first chain's self matrix for chain 2
        literal2 = int(np.argmax(theta[1, 1] * p.trans[0, 0][phi[1]] + theta[0, 1] * p.trans[0, 1][phi[0]]))
        assert next_state_viterbi(p, vt, "literal") == (expected1, literal2)


def test_predict_observation_one_hot_row():
    p = uniform_params(2, 8)
    emit = np.array(p.emit)
    emit[0, 1] = np.eye(8)[6]
    p = ChmmParams(priors=p.priors, trans=p.trans, emit=emit, coupling=p.coupling)
    assert predict_observation(p, 1, 0, Discretizer(0.0, 100.0, 8)) == pytest.approx(81.25)


def test_predict_observation_uniform_ties_break_low():
    p = uniform_params(3, 8)
    assert predict_observation(p, 0, 0, Discretizer(0.0, 100.0, 8)) == pytest.approx(6.25)


def test_predict_observation_argmax_midpoint():
    p = uniform_params(2, 4)
    emit = np.array(p.emit)
    emit[1, 0] = [0.1, 0.2, 0.4, 0.3]
    p = ChmmParams(priors=p.priors, trans=p.trans, emit=emit, coupling=p.coupling)
    assert predict_observation(p, 0, 1, Discretizer(0.0, 100.0, 4)) == pytest.approx(62.5)


@pytest.mark.parametrize("n_params, n_decode", [(2, 5), (5, 2)])
def test_next_state_viterbi_refuses_a_decode_of_another_model_size(rng, n_params, n_decode):
    vt = coupled_viterbi(jittered_params(n_decode, 3), random_obs(rng, 3, 4))
    with pytest.raises(ValueError, match=f"^the decode has {n_decode} states but the parameters have {n_params}$"):
        next_state_viterbi(jittered_params(n_params, 3), vt)


READOUTS = {
    "predict_observation": lambda p, psi, chain: predict_observation(p, psi, chain, Discretizer(0.0, 100.0, 3)),
    "allocation_fraction": allocation_fraction,
}


@pytest.mark.parametrize("readout", list(READOUTS.values()), ids=list(READOUTS))
@pytest.mark.parametrize("name", ["psi", "chain"])
@pytest.mark.parametrize("value, error", [
    (2, IndexError), (-1, IndexError), (True, ValueError), (1.0, ValueError), (np.int64(1), None),
], ids=["2", "-1", "True", "1.0", "int64-1"])
def test_readouts_take_a_state_and_a_chain_only_as_integers_in_range(rng, readout, name, value, error):
    p = random_params(rng, 2, 3)
    args = dict(psi=0, chain=0)
    if error is None:  # an integer of another type reads as the int
        assert readout(p, **dict(args, **{name: value})) == readout(p, **dict(args, **{name: 1}))
        return
    message = {
        ValueError: f"{name} must be an integer, got {value!r}",
        IndexError: f"state {value} out of range" if name == "psi" else f"chain must be 0 or 1, got {value}",
    }[error]
    with pytest.raises(error, match=f"^{message}$"):
        readout(p, **dict(args, **{name: value}))


def allocation_oracle(params, psi, chain):
    theta = params.coupling
    n = params.n_states
    if chain == 0:
        w1, m1, w2, m2 = theta[0, 0], params.trans[0, 0], theta[1, 0], params.trans[1, 0]
    else:
        w1, m1, w2, m2 = theta[1, 1], params.trans[1, 1], theta[0, 1], params.trans[0, 1]
    num = sum(w1 * m1[i, psi] + w2 * m2[j, psi] for i in range(n) for j in range(n))
    den = sum(
        w1 * m1[i, k] + w2 * m2[j, k]
        for k in range(n)
        for i in range(n)
        for j in range(n)
    )
    return num / den


def test_allocation_uniform_is_one_over_n():
    p = uniform_params(5, 3)
    for psi in range(5):
        assert allocation_fraction(p, psi, 0) == pytest.approx(0.2)


def test_allocation_single_state_is_one():
    p = uniform_params(1, 3)
    assert allocation_fraction(p, 0, 0) == pytest.approx(1.0)


def test_allocation_matches_triple_sum_and_normalizes(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        p = random_params(rng, n, 3)
        for chain in range(2):
            total = 0.0
            for psi in range(n):
                x = allocation_fraction(p, psi, chain)
                assert x == pytest.approx(allocation_oracle(p, psi, chain), rel=1e-12)
                assert 0.0 <= x <= 1.0
                total += x
            assert total == pytest.approx(1.0, abs=1e-12)


@st.composite
def readout_stacks(draw):
    """K in 1..20 windows of N in 1..6 states and M in 1..8 bins, each
    with its own jittered, uniform (all ties) or zero-heavy parameters
    (each entry 0 with probability 0.6) and a decode of 1 to 6 steps."""
    n, m, k = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    params = []
    for start in draw(st.lists(st.sampled_from(["jittered", "uniform", "zero-heavy"]), min_size=k, max_size=k)):
        if start == "jittered":
            params.append(jittered_params(n, m, seed=int(rng.integers(2**32))))
        else:
            params.append(uniform_params(n, m) if start == "uniform" else sparse_params(rng, n, m, 0.6))
    trellises = [coupled_viterbi(p, random_obs(rng, m, int(rng.integers(1, 7)))) for p in params]
    return params, trellises, draw(st.sampled_from(FIDELITIES))


@given(case=readout_stacks())
def test_row_k_of_a_stacked_readout_is_the_one_window_call_bit_for_bit(case):
    params, trellises, fidelity = case
    d = Discretizer(-140.0, 140.0, params[0].n_bins)
    tails = np.array([vt.paths[:, -1] for vt in trellises])
    stacked = _readout(params, fidelity, d, ("marginal", "viterbi"), tails)
    for k, (p, vt) in enumerate(zip(params, trellises)):
        for predictor, psi in (("marginal", next_state_marginal(p, fidelity)),
                               ("viterbi", next_state_viterbi(p, vt, fidelity))):
            states, values, fractions = (col[k] for col in stacked[predictor])
            assert tuple(states.tolist()) == psi
            assert values.tobytes() == np.array([predict_observation(p, psi[c], c, d) for c in (0, 1)]).tobytes()
            assert fractions.tobytes() == np.float64(allocation_fraction(p, psi[0], 0, fidelity)).tobytes()


@given(k=st.integers(1, 6), n=st.integers(1, 6), m=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_views_of_a_stack_are_each_rows_own_views_byte_for_byte(k, n, m, seed):
    rng = np.random.default_rng(seed)
    params = [random_params(rng, n, m) for _ in range(k)]
    stack = np.stack([p._buf for p in params])
    views = model._views(stack, n, m)
    assert [v.shape for v in views] == [(k, *shape) for shape in model._family_shapes(n, m)]
    assert all(np.shares_memory(v, stack) for v in views)
    for row, p in enumerate(params):
        assert [v[row].tobytes() for v in views] == [v.tobytes() for v in model._views(p._buf, n, m)]
        assert [v[row].tobytes() for v in _stack(params)] == list(family_bytes(p)[1:])


def test_rsi_signal_crosses():
    # smoothed path 18 -> 25 crosses over 20: long
    assert signal_side("rsi", [18.0, 25.0], 1) == "long"
    # smoothed path 85 -> 70 crosses under 80: short
    assert signal_side("rsi", [85.0, 70.0], 1) == "short"
    # landing exactly on the level counts as crossed
    assert signal_side("rsi", [18.0, 20.0], 1) == "long"
    assert signal_side("rsi", [25.0, 30.0], 1) == "none"


def test_cci_signal_crosses():
    assert signal_side("cci", [110.0, 95.0], 1) == "long"
    assert signal_side("cci", [-120.0, -90.0], 1) == "short"
    assert signal_side("cci", [90.0, 95.0], 1) == "none"


def test_cci_same_direction_position_suppresses():
    assert signal_side("cci", [110.0, 95.0], 1, open_sides={"long"}) == "none"
    assert signal_side("cci", [110.0, 95.0], 1, open_sides={"short"}) == "long"


def test_signal_insufficient_history_is_none():
    assert signal_side("rsi", [15.0, 25.0, 30.0], 4) == "none"


def test_signal_windowed_sma_cross(rng):
    # four-period smoothing: previous window all realized, current window
    # ends on the forecast value
    series = [0.0, 0.0, 14.0, 33.0, 60.0]
    prev = np.mean(series[:4])
    curr = np.mean(series[1:])
    assert prev < 20.0 <= curr
    assert signal_side("rsi", series, 4) == "long"


def test_cci_no_consecutive_same_direction_entries(rng):
    # random walks of smoothed values; replaying with the open-side book
    # kept up to date never emits two same-direction entries in a row
    values = np.cumsum(rng.normal(scale=60.0, size=200)) + 50.0
    open_side = None
    last_entry = None
    for t in range(1, len(values)):
        side = signal_side("cci", values[t - 1: t + 1], 1, open_sides={open_side} if open_side else set())
        if side != "none":
            assert side != last_entry or open_side is None
            open_side = side
            last_entry = side
        elif rng.uniform() < 0.3:
            open_side = None  # position exits


def test_signal_side_rejects_unknown_kind():
    with pytest.raises(ValueError):
        signal_side("macd", [1.0, 2.0], 1)
    with pytest.raises(ValueError):
        crossing_side("macd", 1.0, 2.0)


def test_marginal_argmax_invariance_under_shared_shift(rng):
    # adding the same mass to every column of both source matrices cannot
    # change the ranking (argmax invariance under constant shifts)
    p = random_params(rng, 3, 2)
    shifted_trans = np.array(p.trans)
    for cp, c in itertools.product(range(2), range(2)):
        shifted_trans[cp, c] = (p.trans[cp, c] + 0.2) / (1.0 + 0.2 * 3)
    q = ChmmParams(priors=p.priors, trans=shifted_trans, emit=p.emit, coupling=p.coupling)
    assert next_state_marginal(q) == next_state_marginal(p)


# Indicator readings near the RSI and CCI levels, exact level hits and
# non-finite entries.
_readings = st.one_of(
    st.floats(-150.0, 150.0),
    st.sampled_from([20.0, 80.0, 105.0, -105.0, np.nan, np.inf, -np.inf]),
)


@st.composite
def trigger_cases(draw):
    sma_period = draw(st.sampled_from([*range(1, 13), 131]))
    n = draw(st.integers(sma_period + 1, sma_period + 30))
    series = np.array(draw(st.lists(_readings, min_size=n, max_size=n)))
    forecasts = draw(st.lists(st.floats(-150.0, 150.0), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["rsi", "cci"]))
    open_sides = draw(st.sets(st.sampled_from(["long", "short"])))
    return kind, series, sma_period, forecasts, open_sides


@given(case=trigger_cases())
def test_trigger_means_and_crossing_side_equal_signal_side(case):
    # The backtest reads each bar's cross from means taken once per run;
    # on every bar they must give the side oracle.signal_side gives on the
    # realized window (baseline) and on the window ending on the forecast.
    kind, series, k, forecasts, open_sides = case
    means = _trigger_means(series, k)
    for t in range(k - 1, series.size):
        window = series[t - k + 1: t + 1]
        if np.isfinite(window).all():
            assert means[t] == window.mean()  # bit-equal to the slice mean
        else:
            assert np.isnan(means[t])
        with_forecast = np.append(window, forecasts[t])
        with np.errstate(invalid="ignore"):
            curr = float(np.append(series[t - k + 2: t + 1], forecasts[t]).mean())
        expected = signal_side(kind, with_forecast, k, open_sides=open_sides)
        assert crossing_side(kind, float(means[t]), curr, open_sides) == expected
        if t >= k:
            expected = signal_side(kind, series[t - k: t + 1], k, open_sides=open_sides)
            assert crossing_side(kind, float(means[t - 1]), float(means[t]), open_sides) == expected
