"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they pass.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from chmmtrade import (
    BacktestConfig,
    ChmmParams,
    FitConfig,
    atr,
    brute_likelihood,
    brute_viterbi,
    coupled_viterbi,
    fd_gradient,
    fit,
    forward,
    jittered_params,
    likelihood_gradient,
    permutation_aligned_mae,
    reestimate,
    run_backtest,
    sample_chmm,
    stats_from_ret_vol,
    validate_params,
)
from chmmtrade.oracle import score_path
from chmmtrade.cli import main
from chmmtrade import data_io
from conftest import bars_from_closes, random_obs, random_params, replace_after

# (name, ret, vol, ratio, delta) rows of the two published performance tables
RSI_TABLE = [
    ("RSI Standard", -4.55, 5.18, -0.878, 0.0),
    ("Viterbi", 5.51, 6.88, 0.801, 1.679),
    ("Non Viterbi", 5.09, 6.18, 0.824, 1.702),
    ("Viterbi w/ Dynamic", 2.98, 2.76, 1.080, 1.958),
    ("Non Viterbi w/ Dynamic", 3.91, 3.74, 1.045, 1.923),
]
CCI_TABLE = [
    ("CCI Standard", 0.35, 0.90, 0.389, 0.0),
    ("Viterbi", 0.45, 1.47, 0.306, -0.083),
    ("Non Viterbi", 0.49, 1.15, 0.426, 0.037),
    ("Viterbi w/ Dynamic", 0.36, 1.03, 0.350, -0.039),
    ("Non Viterbi w/ Dynamic", 0.37, 0.81, 0.457, 0.068),
]


def test_criterion_1_ratio_reproduction():
    for table in (RSI_TABLE, CCI_TABLE):
        baseline = stats_from_ret_vol(table[0][1], table[0][2]).ratio
        for name, ret, vol, ratio, delta in table:
            stats = stats_from_ret_vol(ret, vol, baseline_ratio=baseline)
            assert stats.ratio == pytest.approx(ratio, abs=1e-3), name
            assert stats.delta_ratio == pytest.approx(delta, abs=1e-3), name
    print("\nACCEPTANCE 1 (ratio reproduction, 10 table rows within 0.001): PASS")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(91)
    checked = 0
    tie_mismatches = 0
    for _ in range(210):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        params = random_params(rng, n, m)
        obs = random_obs(rng, m, t_len)

        trellis = forward(params, obs)
        p1, p2, _ = brute_likelihood(params, obs)
        for got, want in zip(trellis.per_chain_likelihood, (p1, p2)):
            assert abs(got - want) / want < 1e-10

        vt = coupled_viterbi(params, obs)
        paths, scores = brute_viterbi(params, obs)
        assert np.array_equal(vt.log_best, scores)  # exact, shared tie-break
        for c in range(2):
            if not np.array_equal(vt.paths[c], paths[c]):
                # argmax may differ only when the two paths score exactly
                # the same: float addition rounds, so distinct paths can
                # collapse to one score even after a strict DP comparison
                assert score_path(params, obs, c, vt.paths[c]) == scores[c]
                tie_mismatches += 1
        checked += 1
    elapsed = time.time() - start
    assert checked >= 200 and elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 (oracle equivalence, {checked} instances, "
        f"{tie_mismatches} exact-tie path splits in {elapsed:.1f}s): PASS"
    )


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(92)
    checked = 0
    worst = 0.0
    for _ in range(55):
        # interior instances: entries at exactly 0 or 1 are outside the
        # finite-difference perturbation domain
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        t_len = int(rng.integers(1, 5))
        params = random_params(rng, n, m)
        obs = random_obs(rng, m, t_len)
        grads = likelihood_gradient(params, obs)
        for family, arr in (
            ("priors", grads.d_priors),
            ("trans", grads.d_trans),
            ("emit", grads.d_emit),
            ("coupling", grads.d_coupling),
        ):
            for idx in np.ndindex(arr.shape):
                fd = fd_gradient(params, obs, family, idx, h=1e-6)
                scale = max(abs(arr[idx]), abs(fd))
                if scale > 1e-14:
                    rel = abs(arr[idx] - fd) / scale
                    worst = max(worst, rel)
                    assert rel < 1e-4, (family, idx)
                else:
                    assert abs(arr[idx] - fd) < 1e-14
        checked += 1
    elapsed = time.time() - start
    assert checked >= 50 and elapsed < 60.0
    print(
        f"\nACCEPTANCE 3 (gradients vs finite differences, {checked} instances, "
        f"worst rel err {worst:.2e} in {elapsed:.1f}s): PASS"
    )


def test_criterion_4_growth_transform_monotonicity():
    rng = np.random.default_rng(93)
    checked = 0
    for _ in range(110):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        params = random_params(rng, n, m, low=0.05)
        obs = random_obs(rng, m, int(rng.integers(1, 5)))
        before = forward(params, obs).joint_likelihood
        updated = reestimate(params, likelihood_gradient(params, obs))
        after = forward(updated, obs).joint_likelihood
        assert after >= before - 1e-12 * before
        assert validate_params(updated) == []
        checked += 1
    print(f"\nACCEPTANCE 4 (multiplicative update monotone, {checked} pairs): PASS")


def test_criterion_5_model_recovery():
    start = time.time()
    truth = ChmmParams(
        priors=[[0.5, 0.5], [0.5, 0.5]],
        trans=[
            [[[0.85, 0.15], [0.25, 0.75]], [[0.7, 0.3], [0.2, 0.8]]],
            [[[0.6, 0.4], [0.35, 0.65]], [[0.8, 0.2], [0.3, 0.7]]],
        ],
        emit=[
            [[0.75, 0.15, 0.05, 0.05], [0.05, 0.05, 0.15, 0.75]],
            [[0.7, 0.2, 0.05, 0.05], [0.05, 0.1, 0.15, 0.7]],
        ],
        coupling=[[0.8, 0.8], [0.2, 0.2]],  # strong coupling: 0.8 / 0.2 per column
    )
    obs = sample_chmm(truth, 5000, seed=2024).observations
    fitted = fit(jittered_params(2, 4, seed=7), obs, FitConfig(sweeps=200, rel_tol=0.0))
    mae = permutation_aligned_mae(truth, fitted.params)
    elapsed = time.time() - start
    assert mae < 0.15
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 (recovery on 5000 bars, aligned MAE {mae:.3f} in {elapsed:.0f}s): PASS")


def _fixture_bars():
    closes = [1.0]
    for _ in range(14):
        closes.append(closes[-1] - 0.004)
    for _ in range(3):
        closes.append(closes[-1] + 0.002)
    for _ in range(12):
        closes.append(closes[-1] + 0.010)
    closes = np.array(closes)
    return bars_from_closes(closes), bars_from_closes(5.0 + 0.001 * np.arange(len(closes)))


def test_criterion_6_backtest_fixture():
    bars1, bars2 = _fixture_bars()
    cfg = BacktestConfig(system="rsi", predictor="baseline")
    result = run_backtest(cfg, bars1, bars2)

    assert len(result.trades) == 1
    trade = result.trades[0]
    signal_atr = atr(bars1.high, bars1.low, bars1.close, cfg.atr_period)[17]  # the engineered cross fires at bar 17
    assert trade.side == "long"
    assert trade.exit_reason == "target"
    assert abs(trade.pnl - 6.0 * signal_atr * cfg.notional) < 1e-9

    # no-look-ahead shuffle: replacing bars after the entry with an
    # unrelated walk must not change any decision up to the cutoff
    cutoff = 20
    rng = np.random.default_rng(55)
    closes = [bars1.close[cutoff]]
    for _ in range(len(bars1) - cutoff - 1):
        closes.append(closes[-1] * (1.0 + rng.normal(scale=0.02)))
    scrambled = replace_after(bars1, cutoff, bars_from_closes(np.array(closes))[1:])
    result2 = run_backtest(cfg, scrambled, bars2)
    cut_ts = bars1.timestamps[cutoff]
    sides1 = [(r.timestamp, r.signal_side) for r in result.diagnostics if r.timestamp <= cut_ts]
    sides2 = [(r.timestamp, r.signal_side) for r in result2.diagnostics if r.timestamp <= cut_ts]
    assert sides1 == sides2
    assert [t.entry_time for t in result2.trades if t.entry_time <= cut_ts] == [
        t.entry_time for t in result.trades
    ]
    print("\nACCEPTANCE 6 (one-trade fixture, pnl = 6*ATR*notional, no look-ahead): PASS")


def test_criterion_7_end_to_end_pipeline(tmp_path):
    start = time.time()
    sim = tmp_path / "sim"
    assert main(["simulate", "--bars", "1000", "--seed", "42", "--out", str(sim)]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "backtest",
            "--asset1", str(sim / "asset1.csv"),
            "--asset2", str(sim / "asset2.csv"),
            "--out", str(out),
            "--seed", "42",
        ])
        assert code == 0
        outs.append(out)
    for name in ("trades.csv", "equity.csv", "stats.txt", "diagnostics.csv", "fits.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # defaults really were the published configuration
    cfg = BacktestConfig()
    assert (cfg.lookback, cfg.n_states, cfg.n_bins, cfg.fit.sweeps) == (4, 5, 8, 3)
    rows = data_io.load_diagnostics_csv(outs[0] / "diagnostics.csv")
    assert len(rows) > 900
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 7 (1000-bar pipeline, bit-reproducible, {elapsed:.0f}s): PASS")
