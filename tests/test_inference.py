import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from chmmtrade import (
    ChmmParams,
    ObservationSequence,
    brute_likelihood,
    brute_viterbi,
    coupled_viterbi,
    forward,
    uniform_params,
)
from chmmtrade import inference, oracle
from conftest import random_obs, random_params, simplex_instances, sparse_params


def test_forward_single_step_base_case(rng):
    p = random_params(rng, 3, 4)
    obs = ObservationSequence.from_lists([2], [1])
    trellis = forward(p, obs)
    for c, o in ((0, 2), (1, 1)):
        assert_allclose(trellis.alpha[c, 0], p.priors[c] * p.emit[c, :, o])
    assert_allclose(trellis.per_chain_likelihood, trellis.alpha[:, 0].sum(axis=1))
    assert trellis.joint_likelihood == pytest.approx(
        trellis.per_chain_likelihood[0] * trellis.per_chain_likelihood[1]
    )


def test_forward_uniform_model_gives_bin_probability_power():
    p = uniform_params(2, 2)
    obs = ObservationSequence.from_lists([0, 1, 0], [1, 0, 1])
    trellis = forward(p, obs)
    assert_allclose(trellis.per_chain_likelihood, [1 / 8, 1 / 8])
    assert trellis.joint_likelihood == pytest.approx(1 / 64)


def test_forward_matches_brute_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        p = random_params(rng, n, m)
        obs = random_obs(rng, m, t_len)
        trellis = forward(p, obs)
        p1, p2, joint = brute_likelihood(p, obs)
        assert_allclose(trellis.per_chain_likelihood, [p1, p2], rtol=1e-10)
        assert_allclose(trellis.joint_likelihood, joint, rtol=1e-10)


def test_forward_rejects_out_of_range_bins(rng):
    p = random_params(rng, 2, 3)
    obs = ObservationSequence.from_lists([0, 3], [0, 1])
    with pytest.raises(ValueError, match="bin"):
        forward(p, obs)


def _seeded_instance():
    rng = np.random.default_rng(20130610)
    return random_params(rng, 3, 3), random_obs(rng, 3, 4)


@given(instance=simplex_instances())
@example(instance=_seeded_instance())
def test_forward_scaled_matches_linear(instance):
    # simplex_instances bring exact zeros, N = 1 and zero likelihood,
    # where both versions must read -inf.
    p, obs = instance
    lin = forward(p, obs)
    sc = forward(p, obs, scale=True)
    assert sc.scale_factors is not None
    assert_allclose(sc.log_per_chain, lin.log_per_chain, rtol=1e-12, atol=1e-13)  # a log can be 0
    assert_allclose(sc.per_chain_likelihood, lin.per_chain_likelihood, rtol=1e-12)
    assert_allclose(sc.joint_likelihood, lin.joint_likelihood, rtol=1e-12)
    # scaled alpha recovers raw alpha through the cumulative factors
    cum = np.cumprod(sc.scale_factors)
    assert_allclose(sc.alpha * cum[None, :, None], lin.alpha, rtol=1e-12)


def test_forward_scaled_survives_long_sequences(rng):
    p = random_params(rng, 3, 4)
    obs = random_obs(rng, 4, 3000)
    trellis = forward(p, obs, scale=True)
    assert np.isfinite(trellis.log_per_chain).all()
    assert trellis.log_joint < -3000  # far below linear-space underflow


def test_forward_zero_probability_emissions_are_permitted():
    base = uniform_params(2, 2)
    emit = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]])
    p = ChmmParams(priors=base.priors, trans=base.trans, emit=emit, coupling=base.coupling)

    # An impossible symbol at the final step zeroes that chain's tail mass.
    obs = ObservationSequence.from_lists([0, 1], [0, 0])
    trellis = forward(p, obs)
    assert trellis.per_chain_likelihood[0] == 0.0
    assert trellis.log_per_chain[0] == -np.inf
    assert trellis.log_joint == -np.inf

    # Earlier in the sequence the cross-chain mixing revives the trellis;
    # the brute enumeration agrees with the recursion on the exact value.
    obs = ObservationSequence.from_lists([1, 0], [0, 0])
    trellis = forward(p, obs)
    p1, p2, _ = brute_likelihood(p, obs)
    assert trellis.per_chain_likelihood[0] == pytest.approx(p1, rel=1e-12)
    assert p1 > 0.0


@pytest.mark.parametrize("decode", [forward, coupled_viterbi])
def test_off_simplex_params_rejected(rng, decode):
    p = random_params(rng, 3, 4)
    trans = p.trans.copy()
    trans[0, 1, 2, 0] += 0.25
    off = ChmmParams(priors=p.priors, trans=trans, emit=p.emit, coupling=p.coupling)
    with pytest.raises(ValueError, match="invalid parameters"):
        decode(off, random_obs(rng, 4, 5))


def test_viterbi_single_state_path():
    p = ChmmParams(
        priors=np.ones((2, 1)),
        trans=np.ones((2, 2, 1, 1)),
        emit=np.tile([[0.5, 0.3, 0.2]], (2, 1, 1)),
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0, 1, 2], [2, 1, 0])
    vt = coupled_viterbi(p, obs)
    assert_array_equal(vt.paths, np.zeros((2, 3)))
    for c in range(2):
        expected = np.prod([p.emit[c, 0, o] for o in obs.bins[c]])
        assert vt.best_prob[c] == pytest.approx(expected, rel=1e-12)


def test_viterbi_absorbing_chain_stays_put():
    n = 3
    eye = np.eye(n)
    priors = np.zeros((2, n))
    priors[0, 2] = 1.0
    priors[1, 1] = 1.0
    p = ChmmParams(
        priors=priors,
        trans=np.broadcast_to(eye, (2, 2, n, n)).copy(),
        emit=np.full((2, n, 2), 0.5),
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0, 1, 0, 1], [1, 0, 1, 0])
    vt = coupled_viterbi(p, obs)
    assert_array_equal(vt.paths[0], [2, 2, 2, 2])
    assert_array_equal(vt.paths[1], [1, 1, 1, 1])


def test_viterbi_matches_exhaustive_search(rng):
    from chmmtrade.oracle import score_path

    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        p = random_params(rng, n, m)
        obs = random_obs(rng, m, t_len)
        vt = coupled_viterbi(p, obs)
        paths, scores = brute_viterbi(p, obs)
        assert_array_equal(vt.log_best, scores)  # bit-exact under shared tie-break
        for c in range(2):
            if not np.array_equal(vt.paths[c], paths[c]):
                # legitimate only on an exact score tie (rounding collapse)
                assert score_path(p, obs, c, vt.paths[c]) == scores[c]


def test_viterbi_permutation_equivariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p = random_params(rng, n, 3)
        obs = random_obs(rng, 3, 4)
        sigma = rng.permutation(n)
        relabeled = ChmmParams(
            priors=p.priors[:, sigma],
            trans=p.trans[:, :, sigma][:, :, :, sigma],
            emit=p.emit[:, sigma],
            coupling=p.coupling,
        )
        vt = coupled_viterbi(p, obs)
        vt2 = coupled_viterbi(relabeled, obs)
        assert_array_equal(sigma[vt2.paths], vt.paths)


def test_viterbi_handles_zero_transitions():
    # hard zeros become -inf scores; decoding must stay NaN-free
    trans = np.zeros((2, 2, 2, 2))
    trans[:, :, :, 0] = 1.0
    p = ChmmParams(
        priors=np.full((2, 2), 0.5),
        trans=trans,
        emit=np.full((2, 2, 3), 1 / 3),
        coupling=np.full((2, 2), 0.5),
    )
    obs = ObservationSequence.from_lists([0, 1, 2], [2, 1, 0])
    vt = coupled_viterbi(p, obs)
    assert not np.isnan(vt.log_delta).any()
    assert_array_equal(vt.paths[:, 1:], np.zeros((2, 2)))


def test_viterbi_path_steps_through_lowest_maximizing_pairs(rng):
    # Each decoded step paths[c, t-1] -> paths[c, t] = k comes from the own
    # state i of the lowest (row-major) source pair (i, j) scoring k's maximum.
    p = random_params(rng, 3, 3)
    obs = random_obs(rng, 3, 4)
    vt = coupled_viterbi(p, obs)
    log_a = np.log(p.trans)
    for c in range(2):
        for t in range(1, obs.length):
            k = vt.paths[c, t]
            scores = vt.log_delta[c, t - 1][:, None] + log_a[0, c][:, k][:, None] + log_a[1, c][:, k][None, :]
            assert vt.paths[c, t - 1] == np.argmax(scores) // 3


def _per_chain_viterbi_scores(params, obs):
    """The decoder's recursion written one chain at a time, as a reference
    for the chain-vectorised loop: (log_delta, psi)."""
    n = params.n_states
    with np.errstate(divide="ignore"):
        log_a = np.log(params.trans)
        log_bt = np.log(np.stack([params.emit[c][:, obs.bins[c]].T for c in range(2)], axis=1))
        log_delta = np.empty((2, obs.length, n))
        log_delta[:, 0] = np.log(params.priors) + log_bt[0]
    psi = np.zeros((2, obs.length, n, 2), dtype=np.int64)
    for t in range(1, obs.length):
        for c in range(2):
            partial = log_delta[c, t - 1][:, None] + log_a[0, c]
            scores = partial[:, None, :] + log_a[1, c][None, :, :]
            flat = scores.reshape(n * n, n)
            best = np.argmax(flat, axis=0)
            log_delta[c, t] = flat[best, np.arange(n)] + log_bt[t, c]
            psi[c, t, :, 0] = best // n
            psi[c, t, :, 1] = best % n
    return log_delta, psi


@pytest.mark.parametrize("n", [1, 2, 5])
def test_forward_builds_the_stacked_operator_once_as_a_view(rng, n):
    # The forward's coupling-weighted transitions are laid out (a, i, c, j),
    # so the reverse sweep and the scan read the stacked (2N, 2N) operator,
    # rows (a, i) and columns (c, j), without a transpose copy.
    p = random_params(rng, n, 3)
    _, _, w = inference._forward(p, random_obs(rng, 3, 5), scale=False)
    stacked = w.reshape(2 * n, 2 * n)
    assert w.flags.c_contiguous
    assert np.shares_memory(stacked, w)
    want = (p.coupling[:, :, None, None] * p.trans).transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    assert_array_equal(stacked, want)


def _zero_heavy_params(rng, n, m):
    """Small integer weights: exact zeros (-inf scores) and many exact ties."""

    def rows(shape, axis):
        raw = rng.integers(0, 3, size=shape).astype(float)
        raw[(raw.sum(axis=axis, keepdims=True) == 0).repeat(shape[axis], axis=axis)] = 1.0
        return raw / raw.sum(axis=axis, keepdims=True)

    return ChmmParams(
        priors=rows((2, n), 1),
        trans=rows((2, 2, n, n), 3),
        emit=rows((2, n, m), 2),
        coupling=rows((2, 2), 0),
    )


def _assert_viterbi_matches_per_chain_loop(p, obs):
    # The loop is the reference: its additions run in the same order, so
    # every score and argmax must agree bit for bit.
    vt = coupled_viterbi(p, obs)
    log_delta, psi = _per_chain_viterbi_scores(p, obs)
    assert_array_equal(vt.log_delta, log_delta)
    for c in range(2):
        q = [int(np.argmax(log_delta[c, -1]))]
        for t in range(obs.length - 1, 0, -1):
            q.append(int(psi[c, t, q[-1], 0]))
        assert_array_equal(vt.paths[c], q[::-1])
    return vt, log_delta


def test_viterbi_matches_per_chain_loop_with_zero_transitions(rng):
    # Exact ties exercise the first-max rule, exact zeros the -inf handling.
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        p = _zero_heavy_params(rng, n, m)
        _assert_viterbi_matches_per_chain_loop(p, random_obs(rng, m, int(rng.integers(1, 8))))


@pytest.mark.parametrize("n, block_floats", [(5, None), (2, None), (1, 6), (3, 2 * 9 * 4), (4, 1)])
def test_viterbi_matches_per_chain_loop_across_psi_blocks(rng, monkeypatch, n, block_floats):
    # Back-pointers are recovered in blocks of steps after the recursion;
    # lengths on and around the block edges must decode exactly as the
    # step-by-step reference.  A small float budget forces short blocks
    # (down to one step) without long sequences.
    if block_floats is not None:
        monkeypatch.setattr(inference, "_PSI_BLOCK_FLOATS", block_floats)
    block = inference._psi_block_steps(n)
    for t_len in (1, block, block + 1, 2 * block + 3):
        m = int(rng.integers(1, 5))
        p = _zero_heavy_params(rng, n, m)
        _assert_viterbi_matches_per_chain_loop(p, random_obs(rng, m, t_len))


@pytest.mark.parametrize("model", ["default_sim", "zero_heavy"])
def test_viterbi_on_long_sequences_scores_its_paths_and_matches_per_chain_loop(rng, model):
    # The decoder's oracle on a long sequence: the path it returns scores
    # exactly log_best under score_path, and over four back-pointer blocks
    # at N = 5 every field equals the step-by-step loop.
    from chmmtrade.cli import _default_sim_params
    from chmmtrade.oracle import sample_chmm, score_path

    p = _default_sim_params(5, 8, seed=7) if model == "default_sim" else _zero_heavy_params(rng, 5, 8)
    obs = sample_chmm(p, 20_000, seed=3).observations
    vt = coupled_viterbi(p, obs)
    assert np.isfinite(vt.log_best).all()
    for c in range(2):
        assert score_path(p, obs, c, vt.paths[c]) == vt.log_best[c]
    assert inference._psi_block_steps(5) * 3 < 2_000 - 1 <= inference._psi_block_steps(5) * 4
    _assert_viterbi_matches_per_chain_loop(p, ObservationSequence(obs.bins[:, :2_000]))


def test_viterbi_holds_only_its_outputs():
    # Back-pointers are taken block by block during the backtrack, so once
    # the decode returns, the memory it still holds is its trellis and paths:
    # no (2, T, N, 2) pointer array (3.2 MB here) is kept.
    import tracemalloc

    from chmmtrade.cli import _default_sim_params
    from chmmtrade.oracle import sample_chmm

    p = _default_sim_params(5, 8, seed=7)
    obs = sample_chmm(p, 20_000, seed=3).observations
    coupled_viterbi(p, ObservationSequence(obs.bins[:, :50]))  # warm up first-call allocations
    tracemalloc.start()
    try:
        vt = coupled_viterbi(p, obs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= vt.log_delta.nbytes + vt.paths.nbytes + (1 << 16)


def _decode_and_check(p, obs):
    """Decode and check every field against the per-chain loop bit for bit,
    and each chain's path score against ``log_best``."""
    vt, log_delta = _assert_viterbi_matches_per_chain_loop(p, obs)
    assert_array_equal(vt.log_best, log_delta[:, -1].max(axis=1))
    for c in range(2):
        assert oracle.score_path(p, obs, c, vt.paths[c]) == vt.log_best[c]
    return vt


@settings(max_examples=30)
@given(t_len=st.integers(0, 3_000 - 66).map(lambda d: 3_000 - d), n=st.integers(1, 8), m=st.integers(1, 8),
       start=st.sampled_from(["jittered", "uniform", "zero-heavy"]), seed=st.integers(0, 2**32 - 1))
def test_viterbi_equals_the_per_chain_loop_on_long_sequences(t_len, n, m, start, seed):
    # Past _SCAN_MIN_BLOCK + 1 steps the recursion runs long stretches on the
    # ulp grid; every score, path and best score must still be the loop's.
    from chmmtrade import jittered_params

    rng = np.random.default_rng(seed)
    p = {"jittered": lambda: jittered_params(n, m, seed=seed), "uniform": lambda: uniform_params(n, m),
         "zero-heavy": lambda: sparse_params(rng, n, m, 0.6)}[start]()
    _decode_and_check(p, oracle.sample_chmm(p, t_len, seed=seed).observations)


@settings(max_examples=100)
@given(t_len=st.integers(1, 300), n=st.integers(1, 6), m=st.integers(1, 8), chain=st.integers(0, 1),
       start=st.sampled_from(["jittered", "uniform", "zero-heavy"]), seed=st.integers(0, 2**32 - 1))
def test_a_chains_decode_reads_only_its_own_bins(t_len, n, m, chain, start, seed):
    # delta_t(k) = max_i [delta_{t-1}(i) + log a_self[i, k]] + max_j log a_cross[j, k] + log b_k(o_t): the
    # cross maximum is a constant per target state, so the decoder's two chains are two single-chain
    # recursions, coupled only through the parameters.  Redrawing the other chain's bins leaves a chain's
    # scores, path and best score bit-identical, on the step loop and on the grid route past 65 steps.
    from chmmtrade import jittered_params

    rng = np.random.default_rng(seed)
    p = {"jittered": lambda: jittered_params(n, m, seed=seed), "uniform": lambda: uniform_params(n, m),
         "zero-heavy": lambda: _zero_heavy_params(rng, n, m)}[start]()
    bins = rng.integers(0, m, size=(2, t_len))
    redrawn = bins.copy()
    redrawn[1 - chain] = rng.integers(0, m, size=t_len)
    a, b = (coupled_viterbi(p, ObservationSequence(x)) for x in (bins, redrawn))
    for field in ("log_delta", "paths", "log_best"):
        assert getattr(a, field)[chain].tobytes() == getattr(b, field)[chain].tobytes()


def _lane(view):
    """The first lane of a decode trellis (T, L, N) that ``view`` starts at: its offset in lanes."""
    root = view if view.base is None else view.base
    return (view.ctypes.data - root.ctypes.data) // (view.itemsize * view.shape[-1])


@pytest.fixture
def segments(monkeypatch):
    """Every grid segment a decode tries, as (lane, start row, steps, rows kept)."""
    tried, segment = [], inference._grid_segment

    def spy(lane, t, steps, *args):
        kept = segment(lane, t, steps, *args)
        tried.append((_lane(lane), t, steps, kept))
        return kept

    monkeypatch.setattr(inference, "_grid_segment", spy)
    return tried


@pytest.fixture
def stretches(monkeypatch):
    """Every loop stretch a decode runs, as (lanes, rows from start to stop)."""
    ran, loop = [], inference._viterbi_loop

    def spy(trellis, start, stop, *args):
        ran.append((range(_lane(trellis), _lane(trellis) + trellis.shape[1]), stop - start))
        loop(trellis, start, stop, *args)

    monkeypatch.setattr(inference, "_viterbi_loop", spy)
    return ran


def _kept_rows(segments, lane):
    """The rows that ``lane``'s grid segments kept."""
    return {r for c, t, _, kept in segments if c == lane for r in range(t + 1, t + kept + 1)}


def test_the_grid_takes_most_steps_of_a_long_decode(segments):
    from chmmtrade.cli import _default_sim_params

    p = _default_sim_params(3, 8, seed=7)
    _decode_and_check(p, oracle.sample_chmm(p, 6_000, seed=3).observations)
    assert all(len(_kept_rows(segments, c)) > 0.8 * 6_000 for c in (0, 1))


def _one_state_params(p_first, p_second=None):
    """N = 1, M = 2: each chain's score falls by -log p or -log(1 - p) a step, with p =
    ``p_first`` in chain 0 and ``p_second`` (default ``p_first``) in chain 1."""
    p_second = p_first if p_second is None else p_second
    return ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                      emit=[[[p_first, 1.0 - p_first]], [[p_second, 1.0 - p_second]]], coupling=np.full((2, 2), 0.5))


def _tie_at_2_to_the_10():
    """A p in (0.3, 0.7) whose log is a tie on the grid of [1024, 2048), u = 2^-42: log p / u
    is a half-integer, so ties-to-even reads each score's last bit there."""
    candidates = np.random.default_rng(11).uniform(0.3, 0.7, 1 << 16)
    scaled = np.ldexp(np.log(candidates), 42)
    return candidates[np.abs(scaled - np.rint(scaled)) == 0.5][0]


def test_a_tie_constant_leaves_its_binade_to_the_loop(segments):
    vt = _decode_and_check(_one_state_params(_tie_at_2_to_the_10()), random_obs(np.random.default_rng(5), 2, 4_000))
    tops = vt.log_delta.max(axis=2)  # each lane's score at each step
    in_tied = [kept for c, t, _, kept in segments if -2048.0 < tops[c, t] <= -1024.0]
    assert in_tied and not any(in_tied)
    assert sum(kept for *_, kept in segments) > 0  # the grid runs in the binades around it


def test_a_tie_in_one_lane_leaves_the_other_lanes_segments_their_steps(segments):
    # Chain 0's log p is a tie on [1024, 2048); chain 1's constants are no tie on the grids of
    # [2^7, 2^8) to [2^12, 2^13), where its scores lie over those rows.  Chain 0's binade goes to
    # the loop, while chain 1's segments over the same rows keep their steps.
    q = 0.4
    assert (np.ldexp(np.log([[q], [1.0 - q]]), 53 - np.arange(8, 14)) % 1.0 != 0.5).all()
    vt = _decode_and_check(_one_state_params(_tie_at_2_to_the_10(), q), random_obs(np.random.default_rng(5), 2, 4_000))
    tied = {t for t, top in enumerate(vt.log_delta[0].max(axis=1)) if -2048.0 < top <= -1024.0}
    assert len(tied) > 1_000 and not tied & _kept_rows(segments, 0)
    assert len(tied & _kept_rows(segments, 1)) > 0.8 * len(tied)


@pytest.mark.parametrize("scores, e, room", [
    ([-1000.0, -1030.0], None, None),  # straddles 1024
    ([0.0, -0.75], None, None),  # 0.0 beside scores of frexp exponent 0: 0.0 is in no binade
    ([-0.6, -0.9], 0, (1 - 0.9) * 100 / 0.6),
    ([-3000.0, -3001.0], 12, (4096 - 3001) * 100 / 3000),  # the lowest score leaves first
    ([-1000.0, -np.inf], 10, (1024 - 1000) * 100 / 1000),  # -inf is left out
    ([-np.inf, -np.inf], 0, np.inf),  # a dead lane stays so
])
def test_grid_plan_finds_a_lanes_binade_or_none(scores, e, room):
    # At the lane's mean descent max / t a step, room is the steps until its
    # lowest score is estimated to leave its binade.
    found, estimate = inference._grid_plan(scores, 100)
    assert found == e
    if e is not None:
        assert estimate == pytest.approx(room)


def test_a_row_in_two_binades_goes_to_the_loop(segments, monkeypatch):
    # Each binade crossing leaves a lane's rows in two binades for a few
    # steps; those steps are the loop's.
    plans, plan = [], inference._grid_plan
    monkeypatch.setattr(inference, "_grid_plan", lambda scores, t: plans.append(plan(scores, t)) or plans[-1])
    from chmmtrade.cli import _default_sim_params

    p = _default_sim_params(2, 3, seed=5)
    _decode_and_check(p, oracle.sample_chmm(p, 5_000, seed=1).observations)
    assert any(e is None for e, _ in plans) and sum(kept for *_, kept in segments) > 0


def test_rows_that_stay_off_the_grid_take_loop_stretches_of_the_minimum(segments, stretches):
    # Chain 0 keeps its three scores: its transitions are the identity and
    # its only observed bin is certain.  The best, log 0.368, lies just
    # inside (-1, -0.5] and the others, log 0.316, in (-2, -1], so no row of
    # lane 0 is on the grid and the loop runs _GRID_MIN_STEPS steps of it
    # between tries, while lane 1 takes grid segments.
    eye = np.eye(3)
    p = ChmmParams(priors=[[0.368, 0.316, 0.316], [0.2, 0.3, 0.5]],
                   trans=[[eye, np.full((3, 3), 1 / 3)], [eye, np.full((3, 3), 1 / 3)]],  # [own, cross][chain]
                   emit=[[[1.0, 0.0]] * 3, [[0.4, 0.6], [0.5, 0.5], [0.9, 0.1]]], coupling=np.full((2, 2), 0.5))
    t_len = 20_000
    bins = np.random.default_rng(8).integers(0, 2, size=(2, t_len))
    bins[0] = 0
    vt = _decode_and_check(p, ObservationSequence(bins))
    assert (vt.log_delta[0] == vt.log_delta[0, :1]).all()
    steps = t_len - 1 - inference._SCAN_MIN_BLOCK
    assert stretches[0] == (range(2), inference._SCAN_MIN_BLOCK + 1)  # the first stretch, both lanes at once
    lane_0 = [rows - 1 for lanes, rows in stretches if lanes == range(1)]
    assert sum(lane_0) == steps and len(lane_0) == -(-steps // inference._GRID_MIN_STEPS)
    assert {c for c, *_ in segments} == {1} and len(_kept_rows(segments, 1)) > 0.8 * steps


def test_a_chain_that_dies_stays_on_the_grid(segments):
    # Bin 1 has probability 0 in chain 0's only state: from its first
    # occurrence on, chain 0's row is -inf, on any grid, so the dead lane's
    # rows run on the grid.
    p = ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                   emit=np.array([[[0.6, 0.0, 0.4]], [[0.3, 0.3, 0.4]]]), coupling=np.full((2, 2), 0.5))
    bins = np.random.default_rng(2).integers(0, 3, size=(2, 3_000))
    bins[0] = np.where(bins[0] == 1, 0, bins[0])
    bins[0, 2_000] = 1
    vt = _decode_and_check(p, ObservationSequence(bins))
    assert (vt.log_delta[0, 2_000:] == -np.inf).all()
    assert len({r for r in _kept_rows(segments, 0) if r >= 2_000}) > 800  # of 1,000 rows


def test_a_zero_score_keeps_every_step_of_its_lane_in_the_loop(segments):
    # Chain 0 emits its only bin with probability 1: its score stays 0.0,
    # which lies in no binade.  Chain 1's lane takes the grid.
    p = ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                   emit=np.array([[[1.0, 0.0]], [[0.5, 0.5]]]), coupling=np.full((2, 2), 0.5))
    bins = np.random.default_rng(4).integers(0, 2, size=(2, 2_000))
    bins[0] = 0
    vt = _decode_and_check(p, ObservationSequence(bins))
    assert (vt.log_delta[0] == 0.0).all()
    assert {c for c, *_ in segments} == {1} and len(_kept_rows(segments, 1)) > 1_000


def test_a_wrong_block_start_keeps_only_rows_that_are_exact(segments, monkeypatch):
    # With 0 for "no path" off the identity, phase 1's block maps and so the
    # chained starts of blocks 1.. are wrong.  A wrong start may still equal
    # the true row, so a segment can keep a later block; what the guard
    # promises is that every kept row is the step loop's (``_decode_and_check``)
    # and that a segment is cut at the edge of the block whose start differs.
    from chmmtrade.cli import _default_sim_params

    monkeypatch.setattr(inference, "_NO_PATH", 0.0)
    p = _default_sim_params(3, 8, seed=7)
    _decode_and_check(p, oracle.sample_chmm(p, 6_000, seed=3).observations)
    sizes = [max(math.isqrt(steps), -(-steps * 27 // inference._GRID_FLOATS)) for _, _, steps, _ in segments]
    assert any(kept for *_, kept in segments)
    assert any(0 < kept < steps and kept % size == 0 for (*_, steps, kept), size in zip(segments, sizes))


def test_grid_segments_hold_a_fixed_float_budget(monkeypatch):
    # Each grid segment's temporaries (rounded increments, phase 1's block
    # maps and their pair scores) are bounded by _GRID_FLOATS, not by T.
    import tracemalloc

    from chmmtrade.cli import _default_sim_params

    peaks, segment = [], inference._grid_segment

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = segment(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return kept

    monkeypatch.setattr(inference, "_grid_segment", traced)
    p = _default_sim_params(5, 8, seed=7)
    obs = oracle.sample_chmm(p, 50_000, seed=3).observations
    tracemalloc.start()
    try:
        coupled_viterbi(p, obs)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 5 and max(peaks) <= 3 * 8 * inference._GRID_FLOATS


@pytest.mark.parametrize("t_len", [1, 3, 700])
def test_trellis_arrays_and_their_bases_are_read_only(rng, t_len):
    # Decoder and forward outputs are shared, never copied: no array of
    # either trellis, nor the array a field is a view of, takes a write.
    p = random_params(rng, 3, 4)
    obs = random_obs(rng, 4, t_len)
    for trellis in (coupled_viterbi(p, obs), forward(p, obs), forward(p, obs, scale=True)):
        arrays = [a for a in vars(trellis).values() if isinstance(a, np.ndarray)]
        assert arrays
        for arr in arrays:
            while arr is not None:
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 0
                arr = arr.base


@pytest.mark.parametrize("t_len", [4, 700])
def test_trellises_are_views_of_their_step_major_buffers(rng, t_len):
    # Each recursion writes a step-major (T, 2, N) buffer row by row and hands
    # out its (2, T, N) transposed view; the gradient's sums read that buffer,
    # C-contiguous, and neither the view nor the buffer takes a write.
    p = random_params(rng, 3, 4)
    obs = random_obs(rng, 4, t_len)
    views = [forward(p, obs).alpha, forward(p, obs, scale=True).alpha, coupled_viterbi(p, obs).log_delta,
             oracle.step_forward(p, obs).alpha, oracle.step_forward(p, obs, scale=True).alpha]
    for view in views:
        steps = view.base
        assert view.shape == (2, t_len, 3) and not view.flags.writeable
        assert steps.shape == (t_len, 2, 3) and steps.flags.c_contiguous and not steps.flags.writeable
        assert_array_equal(steps.transpose(1, 0, 2), view)


def _three_operand_forward(params, obs, scale):
    """The forward recursion with the coupling weights applied inside a
    three-operand einsum at every step and a stacked emission lookup, as a
    reference for ``_forward``: (alpha, scale_factors, bt, log_joint)."""
    n, t_len = params.n_states, obs.length
    bt = np.stack([params.emit[c][:, obs.bins[c]].T for c in range(2)], axis=1)
    alpha = np.empty((2, t_len, n))
    scales = np.ones(t_len)
    for t in range(t_len):
        if t == 0:
            step = params.priors * bt[0]
        else:
            step = np.einsum("ac,acij,ai->cj", params.coupling, params.trans, alpha[:, t - 1]) * bt[t]
        if scale:
            s = step.sum()
            if s > 0.0:
                step = step / s
                scales[t] = s
        alpha[:, t] = step
    with np.errstate(divide="ignore"):
        log_pc = np.log(alpha[:, -1].sum(axis=1))
        if scale:
            log_pc = log_pc + float(np.log(scales).sum())
    return alpha, scales if scale else None, bt, float(log_pc.sum())


@given(instance=simplex_instances(), scale=st.booleans())
def test_forward_equals_three_operand_recursion(instance, scale):
    params, obs = instance
    trellis, bt, _ = inference._forward(params, obs, scale)
    alpha, scales, bt_ref, log_joint = _three_operand_forward(params, obs, scale)
    assert_array_equal(trellis.alpha, alpha)
    if scale:
        assert_array_equal(trellis.scale_factors, scales)
    else:
        assert trellis.scale_factors is None
    assert_array_equal(bt, bt_ref)
    assert trellis.log_joint == log_joint
