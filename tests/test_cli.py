import argparse

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from chmmtrade import ObservationSequence, OhlcSeries, data_io, load_params, sample_chmm, save_params
from chmmtrade.cli import _aligned_pair, _default_sim_params, main
from chmmtrade.model import ChmmParams, params_to_text
from test_golden import BACKTEST_FILES, BACKTESTS


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


@pytest.mark.parametrize("predictor", ["baseline", "viterbi"])
def test_stats_of_a_one_decision_bar_backtest(tmp_path, capsys, predictor):
    # 13 bars leave one decision bar, so equity.csv holds a single point;
    # the stats command reads it as the flat curve the backtest reported.
    sim, out = tmp_path / "sim", tmp_path / "bt"
    assert run_cli("simulate", "--bars", "13", "--seed", "1", "--out", str(sim)) == 0
    capsys.readouterr()
    assert run_cli(
        "backtest", "--asset1", str(sim / "asset1.csv"), "--asset2", str(sim / "asset2.csv"),
        "--out", str(out), "--predictor", predictor,
    ) == 0
    reported = capsys.readouterr().out.splitlines()[1:]
    assert len(data_io.load_equity_csv(out / "equity.csv").values) == 1
    assert run_cli("stats", "--equity", str(out / "equity.csv")) == 0
    assert capsys.readouterr().out.splitlines() == [*reported, "delta_ratio = nan"]
    assert reported == ["ret = 0", "vol = 0", "ratio = nan"]


@pytest.fixture(scope="module")
def golden_sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-sim")
    assert run_cli("simulate", "--bars", "300", "--seed", "42", "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("run", list(BACKTESTS))
def test_stats_command_reproduces_the_golden_backtests(tmp_path, golden_sim, capsys, run):
    # One statistics route: the figures a backtest prints are the ones the
    # stats command computes from that run's own equity.csv.
    assets = ("--asset1", str(golden_sim / "asset1.csv"), "--asset2", str(golden_sim / "asset2.csv"))
    capsys.readouterr()
    assert run_cli("backtest", *assets, "--seed", "42", "--out", str(tmp_path), *BACKTESTS[run]) == 0
    reported = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(" = ")[0] for line in reported] == ["ret", "vol", "ratio"]
    assert run_cli("stats", "--equity", str(tmp_path / "equity.csv")) == 0
    assert capsys.readouterr().out.splitlines()[:3] == reported


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


def test_compare_rejects_params_when_warm_start_is_off(tmp_path, sim_dir, capsys):
    pfile = tmp_path / "params.txt"
    save_params(_default_sim_params(5, 8, seed=1), pfile)
    cold = tmp_path / "cold.cfg"
    cold.write_text("warm_start = false\n")
    capsys.readouterr()
    code = run_cli(
        "compare", "--config", str(cold),
        "--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"),
        "--params", str(pfile), "--seed", "3",
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: initial parameters start only warm-started fits, but the config sets warm_start = false"
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


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command, flag", [
    ("fit", "--n-states"), ("fit", "--n-bins"),
    ("simulate", "--bars"), ("simulate", "--n-states"), ("simulate", "--n-bins"),
])
def test_a_size_flag_below_one_is_one_error_line_naming_it(tmp_path, capsys, command, flag, value):
    # A size below 1 is refused by its flag name before a file is read or
    # written; fit would otherwise widen --n-bins to the observed bins.
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, ObservationSequence.from_lists([0, 1], [1, 0]))
    argv = {"fit": ("fit", "--obs", str(obs_file), "--params-out", str(tmp_path / "p.txt")),
            "simulate": ("simulate", "--bars", "10", "--out", str(tmp_path / "sim"))}[command]
    capsys.readouterr()
    assert run_cli(*argv, flag, value) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be at least 1, got {value}"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["obs.csv"]


def test_a_negative_seed_is_one_error_line_naming_it(tmp_path, sim_dir, capsys):
    # Every command that takes --seed refuses -1 before it reads or writes a file.
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, ObservationSequence.from_lists([0, 1], [1, 0]))
    assets = ("--asset1", str(sim_dir / "asset1.csv"), "--asset2", str(sim_dir / "asset2.csv"))
    for argv in (("backtest", *assets, "--out", str(tmp_path / "bt")),
                 ("compare", *assets, "--out", str(tmp_path / "compare.csv")),
                 ("fit", "--obs", str(obs_file), "--params-out", str(tmp_path / "p.txt")),
                 ("simulate", "--bars", "10", "--out", str(tmp_path / "sim"))):
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "-1") == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, got -1"], argv[0]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["obs.csv"]


def test_a_parameter_file_with_a_size_below_one_is_one_error_line(tmp_path, capsys):
    pfile = tmp_path / "params.txt"
    pfile.write_text(params_to_text(_default_sim_params(2, 4, seed=1)).replace("n_states = 2", "n_states = -1"))
    obs_file = tmp_path / "obs.csv"
    data_io.write_obs_csv(obs_file, ObservationSequence.from_lists([0, 1], [1, 0]))
    for argv in (("fit", "--obs", str(obs_file), "--params-in", str(pfile), "--params-out", str(tmp_path / "p.txt")),
                 ("simulate", "--bars", "10", "--params", str(pfile), "--out", str(tmp_path / "sim"))):
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {pfile}: key 'n_states': must be at least 1, got -1"]


def test_aligned_filter_series_holds_the_traded_stamp_column(tmp_path, sim_dir):
    # The filter file holds bars the traded file lacks; after alignment
    # both series share the traded series' column.
    traded = data_io.load_ohlc_csv(sim_dir / "asset1.csv")[5:]
    data_io.write_ohlc_csv(tmp_path / "traded.csv", traded)
    args = argparse.Namespace(asset1=str(tmp_path / "traded.csv"), asset2=str(sim_dir / "asset2.csv"))
    bars1, bars2 = _aligned_pair(args)
    assert bars2.timestamps is bars1.timestamps
    assert bars1.timestamps == traded.timestamps
    filter_bars = data_io.load_ohlc_csv(sim_dir / "asset2.csv")[5:]
    for column in ("open", "high", "low", "close"):
        assert_array_equal(getattr(bars2, column), getattr(filter_bars, column))


def test_backtest_of_inputs_that_start_with_a_bom_is_byte_identical(tmp_path, sim_dir, capsys):
    # Spreadsheet tools start a UTF-8 file with a byte order mark; the
    # price files and the config file may each carry one.
    config = tmp_path / "run.cfg"
    config.write_text("n_states = 3\nsweeps = 2\nsystem = cci\n", encoding="utf-8")
    bom = tmp_path / "bom"
    bom.mkdir()
    for path in (sim_dir / "asset1.csv", sim_dir / "asset2.csv", config):
        (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = {}
    for name, inputs in (("plain", (sim_dir / "asset1.csv", sim_dir / "asset2.csv", config)),
                         ("bom", (bom / "asset1.csv", bom / "asset2.csv", bom / "run.cfg"))):
        asset1, asset2, cfg = map(str, inputs)
        out = tmp_path / name
        assert run_cli("backtest", "--config", cfg, "--asset1", asset1, "--asset2", asset2, "--out", str(out),
                       "--seed", "3", "--predictor", "marginal") == 0
        outputs[name] = [capsys.readouterr().out] + [(out / f).read_bytes() for f in BACKTEST_FILES]
    assert outputs["bom"] == outputs["plain"]
