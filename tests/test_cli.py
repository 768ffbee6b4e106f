import numpy as np
import pytest

from chmmtrade import ObservationSequence, OhlcSeries, data_io, load_params, sample_chmm, save_params
from chmmtrade.cli import _default_sim_params, main
from chmmtrade.model import ChmmParams


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli("simulate", "--bars", "200", "--seed", "7", "--out", str(out)) == 0
    return out


def test_simulate_is_byte_deterministic(tmp_path, sim_dir):
    again = tmp_path / "again"
    assert run_cli("simulate", "--bars", "200", "--seed", "7", "--out", str(again)) == 0
    for name in ("asset1.csv", "asset2.csv"):
        assert (again / name).read_bytes() == (sim_dir / name).read_bytes()


def test_simulate_with_params_file(tmp_path):
    params = _default_sim_params(3, 8, seed=1)
    pfile = tmp_path / "params.txt"
    save_params(params, pfile)
    out = tmp_path / "sim"
    assert run_cli("simulate", "--bars", "50", "--seed", "3", "--params", str(pfile), "--out", str(out)) == 0
    bars = data_io.load_ohlc_csv(out / "asset1.csv")
    assert len(bars) == 50


def test_backtest_writes_all_outputs_and_is_reproducible(tmp_path, sim_dir):
    out1, out2 = tmp_path / "bt1", tmp_path / "bt2"
    for out in (out1, out2):
        code = run_cli(
            "backtest",
            "--asset1", str(sim_dir / "asset1.csv"),
            "--asset2", str(sim_dir / "asset2.csv"),
            "--out", str(out),
            "--seed", "1",
            "--predictor", "marginal",
        )
        assert code == 0
    names = ["trades.csv", "equity.csv", "stats.txt", "diagnostics.csv", "fits.jsonl"]
    for name in names:
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # every output round-trips through its loader
    data_io.load_trades_csv(out1 / "trades.csv")
    equity = data_io.load_equity_csv(out1 / "equity.csv")
    data_io.load_stats_txt(out1 / "stats.txt")
    rows = data_io.load_diagnostics_csv(out1 / "diagnostics.csv")
    fits = data_io.load_fit_log(out1 / "fits.jsonl")
    assert len(rows) == len(equity.values)
    assert fits and all(f.sweeps_run <= 3 for f in fits)


def test_backtest_config_file_with_flag_overrides(tmp_path, sim_dir):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("system = rsi\npredictor = baseline\nsweeps = 2\nseed = 5\n")
    out = tmp_path / "bt"
    code = run_cli(
        "backtest",
        "--config", str(cfg_file),
        "--asset1", str(sim_dir / "asset1.csv"),
        "--asset2", str(sim_dir / "asset2.csv"),
        "--out", str(out),
        "--predictor", "viterbi",  # flag beats file
    )
    assert code == 0
    rows = data_io.load_diagnostics_csv(out / "diagnostics.csv")
    assert rows.predicted_state is not None  # not baseline


def test_fit_command_round_trip(tmp_path):
    params = _default_sim_params(3, 6, seed=4)
    obs = sample_chmm(params, 40, seed=4).observations
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, obs)
    params_out = tmp_path / "fitted.txt"
    trace_out = tmp_path / "trace.txt"
    code = run_cli(
        "fit", "--obs", str(obs_file), "--params-out", str(params_out),
        "--trace-out", str(trace_out), "--n-states", "3", "--n-bins", "6",
        "--sweeps", "4", "--seed", "2",
    )
    assert code == 0
    fitted = load_params(params_out)
    assert fitted.n_states == 3 and fitted.n_bins == 6
    trace = [float(line) for line in trace_out.read_text().splitlines()]
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_fit_command_warm_start(tmp_path):
    params = _default_sim_params(2, 4, seed=9)
    obs = sample_chmm(params, 30, seed=9).observations
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, obs)
    warm_file = tmp_path / "warm.txt"
    save_params(params, warm_file)
    out_file = tmp_path / "fitted.txt"
    code = run_cli(
        "fit", "--obs", str(obs_file), "--params-in", str(warm_file),
        "--params-out", str(out_file), "--sweeps", "2",
    )
    assert code == 0
    assert load_params(out_file).n_states == 2


def test_stats_command(tmp_path, sim_dir, capsys):
    out = tmp_path / "bt"
    run_cli(
        "backtest",
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
        "--out", str(out), "--seed", "1", "--predictor", "baseline",
    )
    capsys.readouterr()
    code = run_cli("stats", "--equity", str(out / "equity.csv"), "--baseline-ratio", "0.0")
    assert code == 0
    printed = capsys.readouterr().out
    assert "ratio =" in printed
    stats = data_io.load_stats_txt(out / "stats.txt")
    line = [ln for ln in printed.splitlines() if ln.startswith("ratio")][0]
    assert float(line.split("=")[1]) == pytest.approx(stats.ratio, abs=5e-7)


def test_stats_of_a_zero_trade_backtest_is_nan(tmp_path, capsys):
    # A flat market trades nothing, so equity.csv is flat: zero volatility
    # reads as a NaN ratio in stats.txt and from the stats command alike.
    from conftest import bars_from_closes

    flat = bars_from_closes(np.full(60, 1.0))
    for name in ("a1.csv", "a2.csv"):
        data_io.write_ohlc_csv(tmp_path / name, flat)
    out = tmp_path / "bt"
    assert run_cli(
        "backtest", "--asset1", str(tmp_path / "a1.csv"), "--asset2", str(tmp_path / "a2.csv"),
        "--out", str(out), "--predictor", "baseline",
    ) == 0
    assert data_io.load_trades_csv(out / "trades.csv") == []
    assert np.isnan(data_io.load_stats_txt(out / "stats.txt").ratio)
    capsys.readouterr()
    assert run_cli("stats", "--equity", str(out / "equity.csv")) == 0
    assert capsys.readouterr().out.splitlines() == ["ret = 0", "vol = 0", "ratio = nan", "delta_ratio = nan"]


def test_compare_identity_transition_model_agrees_fully(tmp_path, capsys):
    # Absorbing construction: one-hot priors, identity transitions, and
    # emissions pinned to the bin a steadily falling RSI lands in (bin 0).
    # The data is consistent with the model, so every refit preserves the
    # structure and both predictors are forced to the decoded tail state.
    n, m = 3, 8
    priors = np.zeros((2, n))
    priors[:, 0] = 1.0
    trans = np.broadcast_to(np.eye(n), (2, 2, n, n)).copy()
    emit = np.zeros((2, n, m))
    emit[:, :, 0] = 1.0
    params = ChmmParams(priors=priors, trans=trans, emit=emit,
                        coupling=np.array([[0.6, 0.4], [0.4, 0.6]]))
    pfile = tmp_path / "ident.txt"
    save_params(params, pfile)
    from conftest import bars_from_closes

    decline = np.cumprod(np.full(120, 0.999))
    data_io.write_ohlc_csv(tmp_path / "a1.csv", bars_from_closes(decline))
    data_io.write_ohlc_csv(tmp_path / "a2.csv", bars_from_closes(1600.0 * decline))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"n_states = {n}\nn_bins = {m}\n")
    capsys.readouterr()
    code = run_cli(
        "compare", "--config", str(cfg_file),
        "--asset1", str(tmp_path / "a1.csv"), "--asset2", str(tmp_path / "a2.csv"),
        "--params", str(pfile), "--seed", "2",
        "--out", str(tmp_path / "cmp.csv"),
    )
    assert code == 0
    printed = capsys.readouterr().out
    rates = {
        line.split("=")[0].strip(): float(line.split("=")[1])
        for line in printed.splitlines()
        if "=" in line
    }
    assert rates["state_agreement"] == pytest.approx(1.0)
    assert rates["value_agreement"] == pytest.approx(1.0)
    assert (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("n_states, n_bins", [(3, 8), (5, 6)])
def test_compare_rejects_params_of_another_model_size(tmp_path, sim_dir, capsys, n_states, n_bins):
    pfile = tmp_path / "params.txt"
    save_params(_default_sim_params(n_states, n_bins, seed=1), pfile)
    capsys.readouterr()
    code = run_cli(
        "compare",
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
        "--params", str(pfile), "--seed", "3",
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: initial parameters have {n_states} states and {n_bins} bins, "
        "but the config asks for 5 states and 8 bins"
    ]


def test_compare_generic_rates_are_probabilities(tmp_path, sim_dir, capsys):
    capsys.readouterr()
    code = run_cli(
        "compare",
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
        "--seed", "3",
    )
    assert code == 0
    printed = capsys.readouterr().out
    for line in printed.splitlines():
        if "agreement" in line:
            value = float(line.split("=")[1])
            assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("key, value", [
    ("predictor", "baseline"), ("dynamic_allocation", "true"), ("fidelity", "literal"),
])
def test_compare_rejects_backtest_only_config_keys(tmp_path, sim_dir, capsys, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"system = rsi\n{key} = {value}\n")
    capsys.readouterr()
    code = run_cli(
        "compare", "--config", str(cfg_file),
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg_file}: config key {key!r} does not apply to compare"
    ]


def test_compare_config_without_backtest_only_keys_changes_nothing(tmp_path, sim_dir, capsys):
    # The config spells out defaults, so both runs must print and write the same.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("system = rsi\nn_states = 5\nn_bins = 8\nwarm_start = true\n")
    outputs = []
    for name, config in (("plain", ()), ("config", ("--config", str(cfg_file)))):
        capsys.readouterr()
        code = run_cli(
            "compare", *config, "--seed", "3",
            "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
            "--out", str(tmp_path / f"{name}.csv"),
        )
        assert code == 0
        outputs.append((capsys.readouterr().out, (tmp_path / f"{name}.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_error_paths(tmp_path, capsys):
    # missing file surfaces as a diagnostic and nonzero exit
    code = run_cli("stats", "--equity", str(tmp_path / "missing.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # unknown command and unknown flags exit nonzero through argparse
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--bars", "10", "--out", str(tmp_path), "--bogus")
    assert exc.value.code == 2
    # compare reads both predictors, sizes nothing and reads only the
    # traded chain, so it takes no backtest-only flag
    for flags in (("--predictor", "baseline"), ("--dynamic",), ("--fidelity", "literal")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--asset1", "a.csv", "--asset2", "b.csv", *flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("time,value\n2013-01-01T00:00:00+00:00,1.0\n", "line 1: expected header timestamp,equity"),
    ("timestamp,equity\n2013-01-01T00:00:00+00:00,1.0\n2013-01-01T00:10:00+00:00\n",
     "line 3: expected 2 fields, got 1"),
    ("timestamp,equity\n2013-01-01T00:00:00+00:00,1.0\n2013-01-01T00:10:00+00:00,lots\n",
     "line 3: could not convert string to float: 'lots'"),
], ids=["header", "short-row", "non-numeric"])
def test_stats_rejects_malformed_equity_naming_the_line(tmp_path, capsys, text, message):
    path = tmp_path / "equity.csv"
    path.write_text(text)
    capsys.readouterr()
    assert run_cli("stats", "--equity", str(path)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


def test_cli_backtest_misaligned_inputs_error(tmp_path, sim_dir, capsys):
    # disjoint timestamp ranges cannot be aligned
    other = tmp_path / "other"
    run_cli("simulate", "--bars", "50", "--seed", "11", "--out", str(other))
    bars = data_io.load_ohlc_csv(other / "asset1.csv")
    from datetime import timedelta

    shifted = OhlcSeries(
        [ts + timedelta(days=400) for ts in bars.timestamps], bars.open, bars.high, bars.low, bars.close
    )
    data_io.write_ohlc_csv(other / "shifted.csv", shifted)
    code = run_cli(
        "backtest",
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(other / "shifted.csv"),
        "--out", str(tmp_path / "bt"),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_fit_widens_bins_to_cover_observations(tmp_path):
    # guard: CLI fit widens n_bins to cover the largest observed bin
    obs = ObservationSequence.from_lists([0, 9], [1, 2])
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, obs)
    out_file = tmp_path / "fitted.txt"
    code = run_cli("fit", "--obs", str(obs_file), "--params-out", str(out_file),
                   "--n-states", "2", "--n-bins", "4", "--sweeps", "1")
    assert code == 0
    assert load_params(out_file).n_bins == 10
