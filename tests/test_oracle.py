import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from chmmtrade import (
    ChmmParams,
    ObservationSequence,
    brute_likelihood,
    brute_viterbi,
    fd_gradient,
    likelihood_gradient,
    permutation_aligned_mae,
    sample_chmm,
    synthetic_ohlc,
    uniform_params,
)
from chmmtrade import inference, oracle, training
from chmmtrade.cli import _default_sim_params
from conftest import random_obs, random_params, simplex_instances


def choice_loop_sample(params, length, seed):
    """Reference sampler: one ``rng.choice`` per chain for the state, then
    one per chain for the observation, at every step."""
    rng = np.random.default_rng(seed)
    n, m = params.n_states, params.n_bins
    states = np.zeros((2, length), dtype=np.int64)
    obs = np.zeros((2, length), dtype=np.int64)
    for c in range(2):
        states[c, 0] = rng.choice(n, p=params.priors[c])
    for c in range(2):
        obs[c, 0] = rng.choice(m, p=params.emit[c, states[c, 0]])
    for t in range(1, length):
        prev = states[:, t - 1]
        for c in range(2):
            row = (
                params.coupling[0, c] * params.trans[0, c][prev[0]]
                + params.coupling[1, c] * params.trans[1, c][prev[1]]
            )
            states[c, t] = rng.choice(n, p=row)
        for c in range(2):
            obs[c, t] = rng.choice(m, p=params.emit[c, states[c, t]])
    return states, obs


def assert_sample_equals_choice_loop(params, length, seed):
    draw = sample_chmm(params, length, seed=seed)
    states, obs = choice_loop_sample(params, length, seed)
    assert_array_equal(draw.states, states)
    assert_array_equal(draw.observations.bins, obs)
    assert draw.states.dtype == draw.observations.bins.dtype == np.int64


@given(instance=simplex_instances(), length=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_sampler_equals_choice_loop(instance, length, seed):
    # Exact zeros, N = 1 and M = 1 included: a zero-probability index is
    # never drawn by either route, and both read the same doubles.
    assert_sample_equals_choice_loop(instance[0], length, seed)


def test_sampler_equals_choice_loop_on_the_default_market():
    # 5,000 steps span several of the sampler's uniform-draw blocks.
    assert_sample_equals_choice_loop(_default_sim_params(5, 8, 42), 5_000, (42, 1))


def one_hot_params():
    """Fully deterministic model: unique path and unique observations."""
    n, m = 3, 4
    priors = np.zeros((2, n))
    priors[:, 0] = 1.0
    trans = np.zeros((2, 2, n, n))
    trans[:, :, :, :] = np.eye(n)  # stay put
    emit = np.zeros((2, n, m))
    emit[0, :, 1] = 1.0
    emit[1, :, 2] = 1.0
    coupling = np.full((2, 2), 0.5)
    return ChmmParams(priors=priors, trans=trans, emit=emit, coupling=coupling)


def test_sampler_deterministic_params_give_unique_draw():
    draw = sample_chmm(one_hot_params(), 6, seed=0)
    assert_array_equal(draw.states, np.zeros((2, 6)))
    assert_array_equal(draw.observations.bins[0], np.full(6, 1))
    assert_array_equal(draw.observations.bins[1], np.full(6, 2))


def test_sampler_same_seed_same_draw(rng):
    p = random_params(rng, 3, 4)
    a = sample_chmm(p, 50, seed=123)
    b = sample_chmm(p, 50, seed=123)
    c = sample_chmm(p, 50, seed=124)
    assert_array_equal(a.states, b.states)
    assert_array_equal(a.observations.bins, b.observations.bins)
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("length", [0, -1, np.int64(0)])
def test_sampler_refuses_a_length_below_one(length):
    with pytest.raises(ValueError, match="length must be >= 1"):
        sample_chmm(_default_sim_params(2, 3, 42), length)


def test_sampler_transition_frequencies_follow_decoupled_matrix(rng):
    # With no cross-chain influence on chain 1, its empirical transition
    # counts must match the self matrix; chi-square sanity per row.
    n = 3
    p0 = random_params(rng, n, 3, low=0.3)
    coupling = np.array([[1.0, 0.5], [0.0, 0.5]])
    p = ChmmParams(priors=p0.priors, trans=p0.trans, emit=p0.emit, coupling=coupling)
    draw = sample_chmm(p, 10_000, seed=77)
    states = draw.states[0]
    counts = np.zeros((n, n))
    for a, b in zip(states[:-1], states[1:]):
        counts[a, b] += 1
    chi2 = 0.0
    for i in range(n):
        row_total = counts[i].sum()
        expected = row_total * p.trans[0, 0][i]
        chi2 += ((counts[i] - expected) ** 2 / expected).sum()
    assert chi2 < 35.0  # 6 degrees of freedom; generous deterministic bound


def test_brute_likelihood_single_step():
    rng = np.random.default_rng(5)
    p = random_params(rng, 3, 4)
    obs = ObservationSequence.from_lists([2], [0])
    p1, p2, joint = brute_likelihood(p, obs)
    assert p1 == pytest.approx(float(p.priors[0] @ p.emit[0, :, 2]))
    assert p2 == pytest.approx(float(p.priors[1] @ p.emit[1, :, 0]))
    assert joint == pytest.approx(p1 * p2)


def test_brute_likelihood_uniform_model():
    p = uniform_params(2, 4)
    obs = ObservationSequence.from_lists([0, 3, 1], [2, 2, 0])
    p1, p2, _ = brute_likelihood(p, obs)
    assert p1 == pytest.approx(0.25 ** 3)
    assert p2 == pytest.approx(0.25 ** 3)


def test_brute_likelihood_size_guard():
    p = uniform_params(4, 2)
    obs = ObservationSequence(np.zeros((2, 7), dtype=int))
    with pytest.raises(ValueError, match="too large"):
        brute_likelihood(p, obs)
    with pytest.raises(ValueError, match="too large"):
        brute_viterbi(p, obs)


def test_brute_viterbi_single_state():
    p = uniform_params(1, 3)
    obs = ObservationSequence.from_lists([0, 1], [2, 0])
    paths, scores = brute_viterbi(p, obs)
    assert_array_equal(paths, np.zeros((2, 2)))
    assert scores[0] == pytest.approx(2 * np.log(1 / 3), rel=1e-12)


def test_brute_viterbi_peaked_prior_identity_transitions():
    p = one_hot_params()
    obs = ObservationSequence.from_lists([1, 1, 1], [2, 2, 2])
    paths, _ = brute_viterbi(p, obs)
    assert_array_equal(paths, np.zeros((2, 3)))


def test_fd_gradient_linear_case_is_exact():
    # Off-simplex single-state prior: the likelihood is exactly linear in
    # it, so the central difference equals the true slope to rounding.
    p = ChmmParams(
        priors=np.array([[0.6], [0.7]]),
        trans=np.ones((2, 2, 1, 1)),
        emit=np.full((2, 1, 2), 0.5),
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0], [1])
    fd = fd_gradient(p, obs, "priors", (0, 0), h=1e-6)
    # P = (0.6 * 0.5) * (0.7 * 0.5); slope in priors[0, 0] is 0.5 * 0.35
    assert fd == pytest.approx(0.5 * 0.7 * 0.5, abs=1e-10)


def test_fd_gradient_second_order_convergence(rng):
    p = random_params(rng, 2, 3)
    obs = random_obs(rng, 3, 4)
    exact = likelihood_gradient(p, obs).d_trans[0, 1, 1, 0]
    err_h = abs(fd_gradient(p, obs, "trans", (0, 1, 1, 0), h=1e-3) - exact)
    err_h2 = abs(fd_gradient(p, obs, "trans", (0, 1, 1, 0), h=5e-4) - exact)
    assert err_h2 < err_h * 0.3  # roughly quartering per halving


def test_fd_gradient_domain_errors(rng):
    p = random_params(rng, 2, 2)
    obs = random_obs(rng, 2, 2)
    with pytest.raises(ValueError):
        fd_gradient(p, obs, "priors", (0, 0), h=-1.0)
    boundary = uniform_params(1, 2)
    with pytest.raises(ValueError, match="leaves"):
        fd_gradient(boundary, obs_one(), "priors", (0, 0), h=1e-6)
    with pytest.raises(ValueError, match="family"):
        fd_gradient(p, obs, "weights", (0, 0), h=1e-6)


def obs_one():
    return ObservationSequence.from_lists([0], [1])


def test_permutation_aligned_mae_detects_relabeling(rng):
    p = random_params(rng, 3, 3)
    sigma = np.array([2, 0, 1])
    relabeled = ChmmParams(
        priors=p.priors[:, sigma],
        trans=p.trans[:, :, sigma][:, :, :, sigma],
        emit=p.emit[:, sigma],
        coupling=p.coupling,
    )
    assert permutation_aligned_mae(p, relabeled) == pytest.approx(0.0, abs=1e-15)
    other = random_params(rng, 3, 3)
    assert permutation_aligned_mae(p, other) > 0.0


def test_synthetic_ohlc_is_valid_and_deterministic(rng):
    p = random_params(rng, 3, 8)
    a1, a2 = synthetic_ohlc(p, 100, seed=5)
    b1, _ = synthetic_ohlc(p, 100, seed=5)
    assert len(a1) == len(a2) == 100
    assert a1.timestamps == a2.timestamps
    assert a1.open.tolist() == b1.open.tolist() and a1.close.tolist() == b1.close.tolist()
    for o, h, l, c in zip(a1.open, a1.high, a1.low, a1.close):
        assert l <= min(o, c) <= max(o, c) <= h


@pytest.mark.parametrize("t_len", [1, 4, 65])
@pytest.mark.parametrize("scale", [False, True])
def test_step_adjoint_runs_no_forward_and_no_scan(rng, monkeypatch, t_len, scale):
    # The adjoint reference builds its own emissions and operator: with the
    # library's forward and scan made to raise, it still gives the library's bits.
    params, obs = random_params(rng, 3, 4), random_obs(rng, 4, t_len)
    trellis = oracle.step_forward(params, obs, scale)
    want = training._adjoint_pass(params, obs, *inference._forward(params, obs, scale))

    def refuse(*args, **kwargs):
        raise AssertionError("the adjoint reference ran a library pass")

    for module in (inference, training, oracle):
        for name in ("_forward", "_scan"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = oracle.step_adjoint(params, obs, trellis)
    assert got._buf.tobytes() == want._buf.tobytes()  # one scan block: the scan is the step loop
    assert got.log_scale == want.log_scale
