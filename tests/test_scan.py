"""The blocked scans of the forward and adjoint sweeps against the step
loops they replace (``oracle.step_forward`` and ``oracle.step_adjoint``)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from chmmtrade import (
    ChmmParams,
    DegenerateModelError,
    FitConfig,
    ObservationSequence,
    fit,
    forward,
    likelihood_gradient,
    reestimate,
)
from chmmtrade import inference, oracle, training
from chmmtrade.cli import _default_sim_params
from conftest import random_obs, simplex_instances

FAMILIES = ("d_priors", "d_trans", "d_emit", "d_coupling")
RTOL = 1e-12


def assert_close(got, want, err_msg="", rtol=RTOL):
    # An exact zero must stay an exact zero (the growth transform freezes
    # rows on it); otherwise relative, except that a subnormal value, which
    # has fewer significant bits, may differ by a few of its last units.
    assert_array_equal(got == 0.0, want == 0.0, err_msg=err_msg)
    assert_allclose(got, want, rtol=rtol, atol=np.finfo(float).tiny, err_msg=err_msg)


def assert_log_close(got, want):
    # Relative, with a floor for a log-likelihood that is exactly 0 (M = 1).
    if math.isinf(want):
        assert got == want
    else:
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-13), (got, want)


def assert_trellis_close(got, want):
    assert_close(got.alpha, want.alpha, "alpha")
    if want.scale_factors is None:
        assert got.scale_factors is None
    else:
        assert_close(got.scale_factors, want.scale_factors, "scale factors")
    assert_log_close(got.log_joint, want.log_joint)


def assert_gradients_close(got, want):
    for family in FAMILIES:
        assert_close(getattr(got, family), getattr(want, family), family)
    assert_log_close(got.log_scale, want.log_scale)


def assert_scan_matches_loops(params, obs, scale):
    trellis, bt, w = inference._forward(params, obs, scale)
    ref = oracle.step_forward(params, obs, scale)
    assert_trellis_close(trellis, ref)
    # The adjoint scan on the loop's own trellis, so each scan is checked alone.
    assert_gradients_close(training._adjoint_pass(params, obs, ref, bt, w), oracle.step_adjoint(params, obs, ref))


@given(instance=simplex_instances(max_len=40), block=st.sampled_from([1, 2, 3]), scale=st.booleans())
def test_scan_matches_step_loops_across_blocks(instance, block, scale):
    # A small block floor splits even short sequences into several blocks
    # with a ragged last one; exact zeros, N = 1 and M = 1 come with the
    # instances, and so do steps with zero mass.
    params, obs = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_SCAN_MIN_BLOCK", block)
        assert_scan_matches_loops(params, obs, scale)


def assert_scan_equals_loops(params, obs, scale):
    trellis, bt, w = inference._forward(params, obs, scale)
    ref = oracle.step_forward(params, obs, scale)
    assert_array_equal(trellis.alpha, ref.alpha)
    if scale:
        assert_array_equal(trellis.scale_factors, ref.scale_factors)
    assert trellis.log_joint == ref.log_joint
    got = training._adjoint_pass(params, obs, trellis, bt, w)
    want = oracle.step_adjoint(params, obs, ref)
    for family in FAMILIES:
        assert_array_equal(getattr(got, family), getattr(want, family), err_msg=family)
    assert got.log_scale == want.log_scale


@given(instance=simplex_instances(), scale=st.booleans())
def test_single_block_is_the_step_loop_bit_for_bit(instance, scale):
    assert_scan_equals_loops(*instance, scale)


@pytest.mark.parametrize("t_len", [1, 2, 63, 64, 65])
@pytest.mark.parametrize("scale", [False, True])
def test_single_block_up_to_the_block_floor(rng, t_len, scale):
    # T - 1 <= _SCAN_MIN_BLOCK steps after the first make one block.
    assert t_len - 1 <= inference._SCAN_MIN_BLOCK
    params = _default_sim_params(3, 4, 7)
    assert_scan_equals_loops(params, random_obs(rng, 4, t_len), scale)


def impossible_bin_params(chains):
    """Bin 3 has probability 0 in every state of the given chains; each
    chain feeds only itself, so a chain that sees bin 3 stays at zero."""
    base = _default_sim_params(3, 4, 11)
    emit = np.array(base.emit)
    for c in chains:
        emit[c, :, 3] = 0.0
        emit[c] /= emit[c].sum(axis=1, keepdims=True)
    return ChmmParams(priors=base.priors, trans=base.trans, emit=emit, coupling=np.eye(2))


@pytest.mark.parametrize("chains", [(0,), (0, 1)], ids=["one-chain", "both-chains"])
@pytest.mark.parametrize("at", [2_500, 4_990], ids=["mid", "last-block"])
def test_zero_emission_mass_past_the_crossover(rng, chains, at):
    # 5,000 steps: blocks of 70, the last one ragged (29 steps from 4,971).
    params = impossible_bin_params(chains)
    bins = rng.integers(0, 3, size=(2, 5_000))
    bins[list(chains), at] = 3
    obs = ObservationSequence(bins)
    trellis = inference._forward(params, obs, True)[0]
    ref = oracle.step_forward(params, obs, True)
    assert_trellis_close(trellis, ref)
    assert not trellis.alpha[0, at:].any()
    if chains == (0, 1):
        # A step with zero mass: zeros from there on, each with factor 1.
        assert not trellis.alpha[:, at:].any()
        assert_array_equal(trellis.scale_factors[at:], 1.0)
    assert trellis.log_joint == -np.inf
    with pytest.raises(DegenerateModelError):
        likelihood_gradient(params, obs, scale=True)


def test_near_deterministic_model_stays_finite():
    # Transitions and emissions 1 - 1e-12, and observations that switch
    # bins at every step: every path pays 1e-12 at least every other step,
    # so a block's operator columns shrink far below the smallest double
    # and the scan must carry their size in log space.
    n, eps = 2, 1e-12
    trans = np.full((2, 2, n, n), eps)
    trans[..., np.arange(n), np.arange(n)] = 1.0 - eps
    emit = np.full((2, n, n), eps)
    emit[:, np.arange(n), np.arange(n)] = 1.0 - eps
    params = ChmmParams(priors=np.full((2, n), 0.5), trans=trans, emit=emit, coupling=np.full((2, 2), 0.5))
    obs = ObservationSequence(np.tile([0, 1], (2, 2_500)))
    ref = oracle.step_forward(params, obs, True)
    assert math.isfinite(ref.log_joint)
    trellis = forward(params, obs, scale=True)
    assert math.isfinite(trellis.log_joint)
    assert_log_close(trellis.log_joint, ref.log_joint)
    # This model forgets its start only over about 1e12 steps, so the
    # rounding of a block's chained start is carried through the block
    # instead of dying out: the trellis agrees to 1e-10, not 1e-12.
    assert_close(trellis.alpha, ref.alpha, "alpha", rtol=1e-10)
    assert_close(trellis.scale_factors, ref.scale_factors, "scale factors", rtol=1e-10)


def test_long_sequence_forward_and_fit_match_the_step_loops():
    params = _default_sim_params(5, 8, 42)
    obs = oracle.sample_chmm(params, 20_000, seed=(42, 1)).observations
    trellis = forward(params, obs, scale=True)
    assert math.isfinite(trellis.log_joint)
    assert_trellis_close(trellis, oracle.step_forward(params, obs, True))

    init = _default_sim_params(5, 8, 7)
    res = fit(init, obs, FitConfig(sweeps=2, rel_tol=0.0))
    # The same two sweeps through the step loops.
    p, trace = init, [oracle.step_forward(init, obs, True).log_joint]
    for _ in range(2):
        p = reestimate(p, oracle.step_adjoint(p, obs, oracle.step_forward(p, obs, True)))
        trace.append(oracle.step_forward(p, obs, True).log_joint)
    assert res.sweeps_run == 2
    assert all(map(math.isfinite, res.log_likelihoods))
    assert_allclose(res.log_likelihoods, trace, rtol=RTOL, atol=0.0)
    for name in ("priors", "trans", "emit", "coupling"):
        assert_close(getattr(res.params, name), getattr(p, name), name)
