import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from chmmtrade import (
    ChmmParams,
    DegenerateModelError,
    FitConfig,
    GradientSet,
    ObservationSequence,
    alpha_gradients,
    fd_gradient,
    fit,
    forward,
    jittered_params,
    likelihood_gradient,
    reestimate,
    sample_chmm,
    uniform_params,
    validate_params,
)
from chmmtrade import inference, training
from chmmtrade.model import _family_shapes
from chmmtrade.oracle import reestimate_by_family, step_adjoint, step_forward
from conftest import family_bytes, random_obs, random_params, simplex_instances, sparse_params

FAMILIES = ("priors", "trans", "emit", "coupling")


def grad_arrays(g):
    return dict(priors=g.d_priors, trans=g.d_trans, emit=g.d_emit, coupling=g.d_coupling)


def assert_gradient_matches_fd(params, obs, rel_tol=1e-4, h=1e-6):
    g = likelihood_gradient(params, obs)
    for family, arr in grad_arrays(g).items():
        for idx in np.ndindex(arr.shape):
            fd = fd_gradient(params, obs, family, idx, h=h)
            scale = max(abs(arr[idx]), abs(fd))
            if scale > 1e-14:
                assert abs(arr[idx] - fd) / scale < rel_tol, (family, idx, arr[idx], fd)
            else:
                assert abs(arr[idx] - fd) < 1e-14


def test_first_step_transition_and_coupling_derivatives_vanish(rng):
    p = random_params(rng, 2, 3)
    obs = random_obs(rng, 3, 3)
    ag = alpha_gradients(p, obs)
    assert_array_equal(ag.d_trans[0], np.zeros_like(ag.d_trans[0]))
    assert_array_equal(ag.d_coupling[0], np.zeros_like(ag.d_coupling[0]))


def test_first_step_prior_derivative_is_emission(rng):
    p = random_params(rng, 3, 3)
    obs = random_obs(rng, 3, 2)
    ag = alpha_gradients(p, obs)
    for c in range(2):
        for j in range(3):
            for c1 in range(2):
                for i in range(3):
                    expected = p.emit[c, j, obs.bins[c, 0]] if (c == c1 and j == i) else 0.0
                    assert ag.d_priors[0][c, j, c1, i] == pytest.approx(expected, rel=1e-15)


def test_first_step_emission_derivative_is_prior(rng):
    p = random_params(rng, 2, 3)
    obs = random_obs(rng, 3, 2)
    ag = alpha_gradients(p, obs)
    for c in range(2):
        for j in range(2):
            for c1 in range(2):
                for j1 in range(2):
                    for k in range(3):
                        fires = c == c1 and j == j1 and obs.bins[c, 0] == k
                        expected = p.priors[c, j] if fires else 0.0
                        assert ag.d_emit[0][c, j, c1, j1, k] == pytest.approx(expected, rel=1e-15)


def test_gradients_match_finite_differences(rng):
    # Interior instances only: boundary entries (exact 0 or 1) are outside
    # the finite-difference domain by construction.
    for _ in range(8):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        assert_gradient_matches_fd(random_params(rng, n, m), random_obs(rng, m, t_len))


def test_single_state_prior_gradient_closed_form(rng):
    # With one state and a single step the likelihood is exactly
    # prior * emission per chain, so the prior derivative is P / prior.
    # (For longer sequences the chain mixing makes each chain's mass
    # linear in *both* priors; the homogeneity test below covers that.)
    raw = rng.uniform(0.3, 0.9, size=(2, 1, 3))
    p = ChmmParams(
        priors=np.ones((2, 1)),
        trans=np.ones((2, 2, 1, 1)),
        emit=raw / raw.sum(axis=2, keepdims=True),
        coupling=np.full((2, 2), 0.5),
    )
    obs = random_obs(rng, 3, 1)
    g = likelihood_gradient(p, obs)
    joint = forward(p, obs).joint_likelihood
    for c in range(2):
        assert g.d_priors[c, 0] == pytest.approx(joint / p.priors[c, 0], rel=1e-12)


def test_gradient_euler_identities(rng):
    # The likelihood is a homogeneous polynomial per parameter block: each
    # monomial carries 2 prior factors, 2(T-1) transition factors, 2T
    # emission factors and 2(T-1) coupling factors, so w . dP/dw recovers
    # an exact multiple of P.  Holds for every N including single-state
    # models, where direct finite differencing is out of domain.
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        p = random_params(rng, n, m)
        obs = random_obs(rng, m, t_len)
        g = likelihood_gradient(p, obs)
        joint = forward(p, obs).joint_likelihood
        assert (p.priors * g.d_priors).sum() / joint == pytest.approx(2.0, abs=1e-9)
        assert (p.trans * g.d_trans).sum() / joint == pytest.approx(2.0 * (t_len - 1), abs=1e-9)
        assert (p.emit * g.d_emit).sum() / joint == pytest.approx(2.0 * t_len, abs=1e-9)
        assert (p.coupling * g.d_coupling).sum() / joint == pytest.approx(2.0 * (t_len - 1), abs=1e-9)


def test_unobserved_bin_has_zero_emission_gradient(rng):
    p = random_params(rng, 2, 4)
    obs = ObservationSequence.from_lists([0, 1, 0], [1, 0, 1])  # bins 2, 3 never seen
    g = likelihood_gradient(p, obs)
    assert_array_equal(g.d_emit[:, :, 2:], np.zeros((2, 2, 2)))


def test_gradient_raises_on_degenerate_chain():
    emit = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
    p = ChmmParams(
        priors=np.full((2, 2), 0.5),
        trans=np.full((2, 2, 2, 2), 0.5),
        emit=emit,
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0, 1], [0, 0])  # impossible final symbol
    with pytest.raises(DegenerateModelError):
        likelihood_gradient(p, obs)


def test_scaled_gradient_is_scalar_multiple(rng):
    p = random_params(rng, 3, 3)
    obs = random_obs(rng, 3, 4)
    raw = likelihood_gradient(p, obs)
    scaled = likelihood_gradient(p, obs, scale=True)
    assert raw.log_scale == 0.0
    factor = math.exp(scaled.log_scale)
    for family in FAMILIES:
        assert_allclose(
            grad_arrays(scaled)[family] * factor, grad_arrays(raw)[family], rtol=1e-12
        )


def test_reestimate_uniform_gradient_keeps_row(rng):
    p = random_params(rng, 3, 3)
    g = likelihood_gradient(p, random_obs(rng, 3, 3))
    flat = type(g)(
        d_priors=np.ones_like(g.d_priors),
        d_trans=np.ones_like(g.d_trans),
        d_emit=np.ones_like(g.d_emit),
        d_coupling=np.ones_like(g.d_coupling),
    )
    q = reestimate(p, flat)
    for name in ("priors", "trans", "emit", "coupling"):
        assert_allclose(getattr(q, name), getattr(p, name), rtol=1e-14)


def test_reestimate_single_state_stays_degenerate(rng):
    p = ChmmParams(
        priors=np.ones((2, 1)),
        trans=np.ones((2, 2, 1, 1)),
        emit=np.full((2, 1, 2), 0.5),
        coupling=np.full((2, 2), 0.5),
    )
    g = likelihood_gradient(p, random_obs(rng, 2, 3))
    q = reestimate(p, g)
    assert_array_equal(q.priors, np.ones((2, 1)))
    assert_array_equal(q.trans, np.ones((2, 2, 1, 1)))


def test_reestimate_zero_gradient_rows_freeze(rng):
    p = random_params(rng, 2, 4)
    obs = ObservationSequence.from_lists([0, 1], [1, 0])
    g = likelihood_gradient(p, obs)
    q = reestimate(p, g)
    # bins 2 and 3 are never observed so those entries zero out, but a row
    # with an all-zero normalizer would be kept; emission rows observed
    # bins renormalize over the remaining mass.
    assert validate_params(q) == []
    assert_array_equal(q.emit[:, :, 2:], np.zeros((2, 2, 2)))


def test_reestimate_never_decreases_likelihood(rng):
    for _ in range(60):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        p = random_params(rng, n, m)
        obs = random_obs(rng, m, int(rng.integers(1, 5)))
        before = forward(p, obs).joint_likelihood
        q = reestimate(p, likelihood_gradient(p, obs))
        after = forward(q, obs).joint_likelihood
        assert after >= before * (1.0 - 1e-12)
        assert validate_params(q) == []


@given(instance=simplex_instances(max_len=8), data=st.data())
def test_reestimate_equals_the_per_family_update(instance, data):
    # Drawn gradients are often 0, so whole rows with a zero normalizer
    # occur and keep their old values; the true gradient is checked too.
    p, obs = instance
    entry = st.just(0.0) | st.floats(0.0, 1e6)
    drawn = [np.reshape(data.draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape))), shape)
             for shape in _family_shapes(p.n_states, p.n_bins)]
    grads = [GradientSet(*drawn), GradientSet(*[np.zeros_like(g) for g in drawn])]
    try:
        grads.append(likelihood_gradient(p, obs, scale=True))
    except DegenerateModelError:
        pass
    for g in grads:
        assert family_bytes(reestimate(p, g)) == family_bytes(reestimate_by_family(p, g))
    assert family_bytes(reestimate(p, grads[1])) == family_bytes(p)


@st.composite
def fit_windows(draw):
    """Parameters with N and M in 1..6, entries exactly 0 in some draws,
    and an observation window of 1 to 8 steps."""
    n, m, t_len = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    params = sparse_params(rng, n, m, draw(st.sampled_from([0.0, 0.3])))
    return params, random_obs(rng, m, t_len)


@given(window=fit_windows(), scale=st.booleans())
def test_a_reestimated_candidate_always_validates(window, scale):
    p, obs = window
    try:
        grads = likelihood_gradient(p, obs, scale=scale)
    except DegenerateModelError:
        assume(False)
    assert validate_params(reestimate(p, grads)) == []


def _likelihood_one_instance():
    """M = 1, so the likelihood is 1 and log_joint reads 0.0; after the
    update it reads -2.2e-16, one rounding of the renormalized rows."""
    half = [0.5, 0.5]
    return (
        ChmmParams(
            priors=[half, half],
            trans=[[[half, half], [half, [0.0, 1.0]]], [[half, half], [[2 / 3, 1 / 3], half]]],
            emit=np.ones((2, 2, 1)),
            coupling=[half, half],
        ),
        ObservationSequence(np.zeros((2, 2), dtype=np.int64)),
    )


@given(instance=simplex_instances())
@example(instance=_likelihood_one_instance())
def test_reestimate_never_decreases_scaled_log_joint_with_exact_zeros(instance):
    # Zero entries stay zero under the growth transform and zero-gradient
    # rows freeze, yet the likelihood may still not fall (Baum-Eagon).
    # The bound is relative to the likelihood, as in acceptance criterion
    # 4: a log_joint of 0.0 leaves no room for rounding in a bound
    # relative to the log.
    p, obs = instance
    before = forward(p, obs, scale=True).log_joint
    if not math.isfinite(before):
        return
    q = reestimate(p, likelihood_gradient(p, obs, scale=True))
    after = forward(q, obs, scale=True).log_joint
    assert after >= before + math.log1p(-1e-12)
    assert validate_params(q) == []


def test_fit_noop_with_infinite_tolerance(rng):
    p0 = jittered_params(3, 3, seed=1)
    obs = random_obs(rng, 3, 4)
    res = fit(p0, obs, FitConfig(sweeps=3, rel_tol=math.inf))
    assert len(res.log_likelihoods) == 1
    assert res.sweeps_run == 0
    assert_array_equal(res.params.trans, p0.trans)


def test_fit_trace_is_nondecreasing(rng):
    truth = random_params(rng, 2, 3, low=0.05)
    obs = sample_chmm(truth, 30, seed=9).observations
    p0 = jittered_params(2, 3, seed=2)
    res = fit(p0, obs, FitConfig(sweeps=10, rel_tol=0.0))
    trace = res.log_likelihoods
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_fit_default_runs_three_sweeps(rng):
    p0 = jittered_params(3, 4, seed=5)
    obs = random_obs(rng, 4, 4)
    res = fit(p0, obs, FitConfig(rel_tol=0.0))
    assert res.sweeps_run == 3
    assert len(res.log_likelihoods) == 4  # initial evaluation plus one per sweep


def test_fit_is_bit_deterministic(rng):
    p0 = jittered_params(3, 4, seed=5)
    obs = random_obs(rng, 4, 4)
    a = fit(p0, obs, FitConfig(sweeps=3))
    b = fit(p0, obs, FitConfig(sweeps=3))
    for name in ("priors", "trans", "emit", "coupling"):
        assert_array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.log_likelihoods == b.log_likelihoods


def test_fit_surfaces_degenerate_start():
    emit = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
    p0 = ChmmParams(
        priors=np.full((2, 2), 0.5),
        trans=np.full((2, 2, 2, 2), 0.5),
        emit=emit,
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0, 1], [0, 0])
    with pytest.raises(DegenerateModelError):
        fit(p0, obs)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(sweeps=0)
    with pytest.raises(ValueError):
        FitConfig(rel_tol=-1.0)


def forward_mode_gradient(params, obs, scale):
    """Likelihood gradient by contracting the forward-mode trellis
    derivatives with the other chain's final mass."""
    ag = alpha_gradients(params, obs, scale=scale)
    tail = ag.trellis.alpha[:, -1].sum(axis=1)
    if not (tail > 0.0).all():
        raise DegenerateModelError("zero per-chain trellis mass")
    parts = {f: np.einsum("c,cj...->...", tail[::-1], getattr(ag, "d_" + f)[-1]) for f in FAMILIES}
    log_scale = 2.0 * float(np.log(ag.trellis.scale_factors).sum()) if scale else 0.0
    return parts, log_scale


@given(instance=simplex_instances(), scale=st.booleans())
def test_adjoint_gradient_matches_forward_mode(instance, scale):
    params, obs = instance
    try:
        expected, log_scale = forward_mode_gradient(params, obs, scale)
    except DegenerateModelError:
        with pytest.raises(DegenerateModelError):
            likelihood_gradient(params, obs, scale=scale)
        return
    g = likelihood_gradient(params, obs, scale=scale)
    assert g.log_scale == log_scale
    for family, got in grad_arrays(g).items():
        # Identical zeros keep the growth transform's frozen rows unchanged.
        assert_array_equal(got == 0.0, expected[family] == 0.0, err_msg=family)
        assert_allclose(got, expected[family], rtol=1e-12, atol=0.0, err_msg=family)


@pytest.mark.parametrize("rel_tol", [0.0, math.inf])
@pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
def test_fit_equals_hand_loop_and_skips_unused_reverse_sweeps(rng, monkeypatch, sweeps, rel_tol):
    p0 = jittered_params(3, 4, seed=11)
    obs = random_obs(rng, 4, 5)
    params = p0
    trace = [forward(p0, obs, scale=True).log_joint]
    for _ in range(sweeps):
        cand = reestimate(params, likelihood_gradient(params, obs, scale=True))
        cand_log_p = forward(cand, obs, scale=True).log_joint
        if cand_log_p - trace[-1] < math.log1p(rel_tol):
            break
        params = cand
        trace.append(cand_log_p)

    reverse_sweeps = []
    adjoint = training._adjoint_pass

    def counted(*args):
        reverse_sweeps.append(args[0])
        return adjoint(*args)

    monkeypatch.setattr(training, "_adjoint_pass", counted)
    res = fit(p0, obs, FitConfig(sweeps=sweeps, rel_tol=rel_tol))

    for name in FAMILIES:
        assert_array_equal(getattr(res.params, name), getattr(params, name))
    assert res.log_likelihoods == trace
    assert res.sweeps_run == len(trace) - 1
    # One reverse sweep per candidate evaluated; none for the final state.
    assert len(reverse_sweeps) == min(sweeps, res.sweeps_run + 1)


@st.composite
def refit_windows(draw):
    """A window of 1 to 65 steps (one scan block) over N in 1..6 states and
    M in 1..8 bins, its start jittered, uniform or zero-heavy (each entry
    0 with probability 0.6), and a fit config."""
    n, m, t_len = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 65))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    start = draw(st.sampled_from(["jittered", "uniform", "zero-heavy"]))
    if start == "jittered":
        p0 = jittered_params(n, m, seed=draw(st.integers(0, 2**32)))
    elif start == "uniform":
        p0 = uniform_params(n, m)
    else:
        p0 = sparse_params(rng, n, m, 0.6)
    cfg = FitConfig(sweeps=draw(st.integers(1, 4)), rel_tol=draw(st.sampled_from([0.0, 1e-6, 1e-2])))
    return p0, random_obs(rng, m, t_len), cfg


def _step_loop_fit(p0, obs, cfg):
    """``fit`` restated with the oracle's step loops and per-family growth
    transform; a zero likelihood raises DegenerateModelError as ``fit`` does."""

    def checked_forward(params):
        trellis = step_forward(params, obs, scale=True)
        if trellis.log_joint == -math.inf:
            raise DegenerateModelError("zero likelihood")
        return trellis

    params, trellis = p0, checked_forward(p0)
    trace = [trellis.log_joint]
    for _ in range(cfg.sweeps):
        cand = reestimate_by_family(params, step_adjoint(params, obs, trellis))
        cand_trellis = checked_forward(cand)
        if cand_trellis.log_joint - trace[-1] < math.log1p(cfg.rel_tol):
            break
        params, trellis = cand, cand_trellis
        trace.append(trellis.log_joint)
    return params, trace, len(trace) - 1


@given(window=refit_windows())
def test_fit_equals_the_step_loop_refit_bit_for_bit(window):
    # Up to 65 steps the scans are the step loops, so the whole refit
    # (trace, accepted sweeps and every parameter bit) must match them.
    p0, obs, cfg = window
    try:
        want = _step_loop_fit(p0, obs, cfg)
    except DegenerateModelError:
        with pytest.raises(DegenerateModelError):
            fit(p0, obs, cfg)
        return
    got = fit(p0, obs, cfg)
    assert got.params._buf.tobytes() == want[0]._buf.tobytes()
    assert got.log_likelihoods == want[1]
    assert got.sweeps_run == want[2]


def _one_hot_d_emit(params, obs, scale):
    """``d_emit`` of one gradient pass recomputed the way it used to be formed:
    the pre-emission mass from the (a, c, i, j) operator, then a (T, 2, M)
    one-hot array contracted over steps, from the trellis and the adjoints
    the pass hands to ``_gradient_set``."""
    seen = []
    gradient_set = training._gradient_set

    def spy(params, obs, trellis, bt, w, u):
        seen.append((trellis.alpha, u))
        return gradient_set(params, obs, trellis, bt, w, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_gradient_set", spy)
        got = training._adjoint_pass(params, obs, *inference._forward(params, obs, scale)).d_emit
    (alpha, u), = seen
    mass = np.empty_like(u)
    mass[0] = params.priors
    mass[1:] = np.einsum("acij,ati->tcj", params.coupling[:, :, None, None] * params.trans, alpha[:, :-1])
    hot = np.eye(params.n_bins)[obs.bins.T]
    return got, np.einsum("tck,tcj->cjk", hot, mass * u)


@given(instance=simplex_instances(), scale=st.booleans())
def test_emission_gradient_scatter_equals_the_one_hot_contraction(instance, scale):
    # Zero likelihoods included: the pass runs unchecked.
    got, want = _one_hot_d_emit(*instance, scale)
    assert_array_equal(got, want)


@pytest.mark.parametrize("t_len", [1, 4, 65, 66, 2000])
def test_emission_gradient_scatter_equals_the_one_hot_contraction_over_long_sequences(rng, t_len):
    # 65 steps are one scan block, 66 the first length with two.
    params = random_params(rng, 5, 8)
    got, want = _one_hot_d_emit(params, random_obs(rng, 8, t_len), scale=True)
    assert_array_equal(got, want)


def _chain_major_gradient_buffer(params, obs, trellis, bt, w, u):
    """The gradient buffer as ``_gradient_set`` formed it from a chain-major
    (2, T, N) C-order copy of alpha, summing over its strided step axis."""
    alpha = np.ascontiguousarray(trellis.alpha)
    bu = bt * u
    x = np.einsum("ati,tcj->acij", alpha[:, :-1], bu[1:])
    mass = np.empty_like(u)
    mass[0] = params.priors
    np.einsum("aicj,ati->tcj", w, alpha[:, :-1], out=mass[1:])
    mass *= u
    d_emit = np.zeros((2, params.n_states, params.n_bins))
    np.add.at(d_emit, (np.array([[0, 1]]), slice(None), obs.bins.T), mass)
    d_coupling = np.einsum("acij,acij->ac", params.trans, x)
    return np.concatenate((bu[0], params.coupling[:, :, None, None] * x, d_emit, d_coupling), axis=None)


@given(instance=simplex_instances(max_len=200), scale=st.booleans())
def test_step_major_gradient_sums_equal_the_chain_major_ones(instance, scale):
    # Reading the forward's step buffer, not a chain-major copy, changes no
    # bit of the gradient; zero likelihoods included, as the pass runs unchecked.
    params, obs = instance
    seen = []
    gradient_set = training._gradient_set

    def spy(*args):
        seen.append(args)
        return gradient_set(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_gradient_set", spy)
        got = training._adjoint_pass(params, obs, *inference._forward(params, obs, scale))
    assert got._buf.tobytes() == _chain_major_gradient_buffer(*seen[0]).tobytes()
