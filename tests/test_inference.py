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


@pytest.fixture
def segments(monkeypatch):
    """Every grid segment a decode tries, as (start row, steps, rows kept)."""
    tried, segment = [], inference._grid_segment

    def spy(trellis, t, steps, *args):
        kept = segment(trellis, t, steps, *args)
        tried.append((t, steps, kept))
        return kept

    monkeypatch.setattr(inference, "_grid_segment", spy)
    return tried


def test_the_grid_takes_most_steps_of_a_long_decode(segments):
    from chmmtrade.cli import _default_sim_params

    p = _default_sim_params(3, 8, seed=7)
    _decode_and_check(p, oracle.sample_chmm(p, 6_000, seed=3).observations)
    assert sum(kept for *_, kept in segments) > 0.8 * 6_000


def _one_state_params(p_first):
    """N = 1, M = 2: each chain's score falls by -log p or -log(1 - p) a step."""
    return ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                      emit=np.tile([[p_first, 1.0 - p_first]], (2, 1, 1)), coupling=np.full((2, 2), 0.5))


def test_a_tie_constant_leaves_its_binade_to_the_loop(segments):
    # log p is a tie on the grid of [1024, 2048), u = 2^-42: a / u is a
    # half-integer, so ties-to-even reads each score's last bit there.
    candidates = np.random.default_rng(11).uniform(0.3, 0.7, 1 << 16)
    scaled = np.ldexp(np.log(candidates), 42)
    p = _one_state_params(candidates[np.abs(scaled - np.rint(scaled)) == 0.5][0])
    vt = _decode_and_check(p, random_obs(np.random.default_rng(5), 2, 4_000))
    tops = vt.log_delta.max(axis=2).min(axis=0)  # the lowest chain's score at each step
    in_tied = [(t, steps, kept) for t, steps, kept in segments if -2048.0 < tops[t] <= -1024.0]
    assert in_tied and all(kept == 0 for *_, kept in in_tied)
    assert sum(kept for *_, kept in segments) > 0  # the grid runs in the binades around it


@pytest.mark.parametrize("row, exps, room", [
    ([[-1000.0, -1030.0], [-3000.0, -3001.0]], None, None),  # chain 0 straddles 1024
    ([[0.0, -0.75], [-0.6, -0.9]], None, None),  # 0.0 beside scores of frexp exponent 0: 0.0 is in no binade
    ([[-0.5, -0.75], [-0.6, -0.9]], [0, 0], (1 - 0.9) * 100 / 0.6),  # chain 1's -0.9 leaves first
    ([[-1000.0, -np.inf], [-3000.0, -3001.0]], [10, 12], (1024 - 1000) * 100 / 1000),  # -inf is left out
    ([[-np.inf, -np.inf], [-3000.0, -3001.0]], [0, 12], (4096 - 3001) * 100 / 3000),  # a dead chain stays so
    ([[-np.inf, -np.inf], [-np.inf, -np.inf]], [0, 0], np.inf),  # an all -inf row
])
def test_grid_plan_finds_one_binade_per_chain_or_none(row, exps, room):
    # At each chain's mean descent max / t a step, room is the steps until a
    # chain's lowest score is estimated to leave its binade.
    found, estimate = inference._grid_plan(row, 100)
    assert found == exps
    if exps is not None:
        assert estimate == pytest.approx(room)


def test_a_row_in_two_binades_goes_to_the_loop(segments, monkeypatch):
    # Each binade crossing leaves rows in two binades for a few steps; those
    # steps are the loop's.
    plans, plan = [], inference._grid_plan
    monkeypatch.setattr(inference, "_grid_plan", lambda row, t: plans.append(plan(row, t)) or plans[-1])
    from chmmtrade.cli import _default_sim_params

    p = _default_sim_params(2, 3, seed=5)
    _decode_and_check(p, oracle.sample_chmm(p, 5_000, seed=1).observations)
    assert any(exps is None for exps, _ in plans) and sum(kept for *_, kept in segments) > 0


def test_rows_that_stay_off_the_grid_take_loop_stretches_of_the_minimum(segments, monkeypatch):
    # Chain 0 keeps its three scores: its transitions are the identity and
    # its only observed bin is certain.  The best, log 0.368, lies just
    # inside (-1, -0.5] and the others, log 0.316, in (-2, -1], so no row
    # is on the grid and the loop runs _GRID_MIN_STEPS steps between tries.
    stretches, loop = [], inference._viterbi_loop
    monkeypatch.setattr(inference, "_viterbi_loop", lambda trellis, start, stop, *args:
                        stretches.append(stop - start) or loop(trellis, start, stop, *args))
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
    assert segments == [] and len(stretches) == 1 + -(-steps // inference._GRID_MIN_STEPS)


def test_a_chain_that_dies_stays_on_the_grid(segments):
    # Bin 1 has probability 0 in chain 0's only state: from its first
    # occurrence on, chain 0's row is -inf, on any grid, and chain 1's
    # binades alone decide the segments.
    p = ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                   emit=np.array([[[0.6, 0.0, 0.4]], [[0.3, 0.3, 0.4]]]), coupling=np.full((2, 2), 0.5))
    bins = np.random.default_rng(2).integers(0, 3, size=(2, 3_000))
    bins[0] = np.where(bins[0] == 1, 0, bins[0])
    bins[0, 2_000] = 1
    vt = _decode_and_check(p, ObservationSequence(bins))
    assert (vt.log_delta[0, 2_000:] == -np.inf).all()
    assert sum(len(range(max(t + 1, 2_000), t + kept + 1)) for t, _, kept in segments) > 800  # of 1,000 rows


def test_a_zero_score_keeps_every_step_in_the_loop(segments):
    # Chain 0 emits its only bin with probability 1: its score stays 0.0,
    # which lies in no binade.
    p = ChmmParams(priors=np.ones((2, 1)), trans=np.ones((2, 2, 1, 1)),
                   emit=np.array([[[1.0, 0.0]], [[0.5, 0.5]]]), coupling=np.full((2, 2), 0.5))
    bins = np.random.default_rng(4).integers(0, 2, size=(2, 2_000))
    bins[0] = 0
    vt = _decode_and_check(p, ObservationSequence(bins))
    assert (vt.log_delta[0] == 0.0).all() and segments == []


def test_a_wrong_block_start_keeps_only_the_blocks_before_it(segments, monkeypatch):
    # With 0 for "no path" off the identity, phase 1's block maps and so the
    # chained starts of blocks 1.. are wrong: a segment keeps block 0 at most.
    from chmmtrade.cli import _default_sim_params

    monkeypatch.setattr(inference, "_NO_PATH", 0.0)
    p = _default_sim_params(3, 8, seed=7)
    _decode_and_check(p, oracle.sample_chmm(p, 6_000, seed=3).observations)
    # Blocks are isqrt(steps) long at N = 3; a segment whose first row leaves
    # its binade keeps none.
    assert any(kept for *_, kept in segments)
    assert all(kept <= math.isqrt(steps) < steps for _, steps, kept in segments)


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
