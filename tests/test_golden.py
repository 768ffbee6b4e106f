"""Golden bytes: every CLI output of a fixed set of runs, pinned by sha256.

A 300-bar seed-42 simulation is backtested with every predictor on both
systems, three of them again with dynamic allocation, and compared under
two seeds; the digest of each output file and of each run's stdout must
equal the recorded constant.  A refactor that is meant to leave outputs
unchanged keeps this test green without edits.  A change that alters
output bytes on purpose re-records the constants (print ``_digests``
from a run of this module) and says in CHANGES.md which outputs changed
and why.

A second case backtests a non-canonical rewrite of the same CSVs
(shuffled rows, a duplicated row, ``Z`` stamps and one ``+01:00`` stamp),
so the loader's parse, deduplication, sort and the alignment of equal
instants written with different offsets are pinned as well.

A third case pins the parameter text format: a cold ``fit``, a warm
``fit --params-in`` of its result and ``simulate --params`` on that file.
"""

import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest

from chmmtrade.cli import main

BACKTESTS = {
    "baseline-rsi": ("--predictor", "baseline", "--system", "rsi"),
    "baseline-cci": ("--predictor", "baseline", "--system", "cci"),
    "marginal-rsi": ("--predictor", "marginal", "--system", "rsi"),
    "marginal-cci": ("--predictor", "marginal", "--system", "cci"),
    "viterbi-rsi": ("--predictor", "viterbi", "--system", "rsi"),
    "viterbi-cci": ("--predictor", "viterbi", "--system", "cci"),
    "baseline-rsi-dynamic": ("--predictor", "baseline", "--system", "rsi", "--dynamic"),
    "marginal-rsi-dynamic": ("--predictor", "marginal", "--system", "rsi", "--dynamic"),
    "viterbi-cci-dynamic": ("--predictor", "viterbi", "--system", "cci", "--dynamic"),
}
BACKTEST_FILES = ("trades.csv", "equity.csv", "stats.txt", "diagnostics.csv", "fits.jsonl")
COMPARES = {
    "compare-rsi": ("--system", "rsi", "--seed", "42"),
    "compare-cci": ("--system", "cci", "--seed", "3"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(tmp_path, capsys) -> dict:
    sim = tmp_path / "sim"
    assert main(["simulate", "--bars", "300", "--seed", "42", "--out", str(sim)]) == 0
    capsys.readouterr()  # simulate's stdout names the output directory
    out = {name: _sha((sim / name).read_bytes()) for name in ("asset1.csv", "asset2.csv")}
    assets = ("--asset1", str(sim / "asset1.csv"), "--asset2", str(sim / "asset2.csv"))
    for run, flags in BACKTESTS.items():
        run_dir = tmp_path / run
        assert main(["backtest", *assets, "--seed", "42", "--out", str(run_dir), *flags]) == 0
        out[f"{run}/stdout"] = _sha(capsys.readouterr().out.encode())
        for name in BACKTEST_FILES:
            out[f"{run}/{name}"] = _sha((run_dir / name).read_bytes())
    for run, flags in COMPARES.items():
        csv_path = tmp_path / f"{run}.csv"
        assert main(["compare", *assets, "--out", str(csv_path), *flags]) == 0
        out[f"{run}/stdout"] = _sha(capsys.readouterr().out.encode())
        out[f"{run}/comparison.csv"] = _sha(csv_path.read_bytes())
    return out


GOLDEN = {
    "asset1.csv": "f316057b3b94b621470d7bedddb271b0d91beda6cb85ba2b6cec47398456027c",
    "asset2.csv": "6df880a36179c2cfc9744df48e399e35e706fce3cb35f16fd87a69327d760170",
    "baseline-rsi/stdout": "42e4557d3e06ab655f2e7f978e794a92ec7d5ad466c01b0fb09945085bf1fdd2",
    "baseline-rsi/trades.csv": "66a356af3a0ac0f265dc1d5718cde52704f84efc6b3b511f60c375cd085ce89b",
    "baseline-rsi/equity.csv": "d2a0b3ba379af18afa697707e384b3808cf56ae9aa8b820c1940bc99c9b6690c",
    "baseline-rsi/stats.txt": "e008f30e7ad25717417711983d69fd4e0ece24a85496012cf7a42df222a23dea",
    "baseline-rsi/diagnostics.csv": "0d8f91fd817a917ca51510b541d3535db58fa7b8c4e58175f303de8c72ed9ead",
    "baseline-rsi/fits.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "baseline-cci/stdout": "b3ae7453cd65791852c8602feddf70e2ef2fc097c8f6471e91ef874ffbfc1a18",
    "baseline-cci/trades.csv": "04f222331d40e4ab9b35cab151f19aa8e19b74646c5710a19b58fd215f2b9fc9",
    "baseline-cci/equity.csv": "f124731f6f3250028eb684ead0e9e5c780b99e934668d95209a53f51b4558906",
    "baseline-cci/stats.txt": "c2c99473fe0335d4a6d519bf07a0b0d39c2476ed69f441ff87d32c3f9b723acc",
    "baseline-cci/diagnostics.csv": "9ddf3da8dbf6b0269a883ab9367f87fc2b0eeadf6cdac10f144d0acf821f9fb2",
    "baseline-cci/fits.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "marginal-rsi/stdout": "4d7d3c0d1391e38cc49102594e4947a909e124523f3ebf33b8b5b9276009f2ba",
    "marginal-rsi/trades.csv": "9cd373466ca26e30746b0de8e1e5dfa09e34b25f97a0307ac64df9ab25b38c59",
    "marginal-rsi/equity.csv": "a1811718ea23d7c0a25e92849d4bc53c3c60f36c567fa8181ae848931fb0f65d",
    "marginal-rsi/stats.txt": "8adb215ed29249ffcbd9d86494a171d5497996d3a530ad40bc6103d12929881d",
    "marginal-rsi/diagnostics.csv": "5909ce86059b7bd63f3da95eef4155d006bc6bb3c5b3956b708d2b7440cfdfd0",
    "marginal-rsi/fits.jsonl": "d2a762c3f284f40b7dfd4965ccb41b101d6e91d987fb6d5de86c0c293fdb6a65",
    "marginal-cci/stdout": "0bdeed978148394684564d013d94c6e8cc83ab640c11bd3907b01b4c625c377a",
    "marginal-cci/trades.csv": "25acf0bafdb1de9acc612b6bc3bc3cea6aa9d47efb876cf7f564dfbd50738419",
    "marginal-cci/equity.csv": "a11b0c77778557e9d23c6ac1cd40e265b4f0e43ade2d779f6ba9f40fdb44ba21",
    "marginal-cci/stats.txt": "d2b9db6dd668b918d692ac476b88b8a7a2b8d95830e5b93692147190f5054cda",
    "marginal-cci/diagnostics.csv": "7bb6976e0898ec71a5bebdff15eb9b847e11a848edf9e09149f5967a234a245a",
    "marginal-cci/fits.jsonl": "4cdf77906587f7db37ea5ef574c3121b47997ec02b0b16d617403817df815fd8",
    "viterbi-rsi/stdout": "4d7d3c0d1391e38cc49102594e4947a909e124523f3ebf33b8b5b9276009f2ba",
    "viterbi-rsi/trades.csv": "9cd373466ca26e30746b0de8e1e5dfa09e34b25f97a0307ac64df9ab25b38c59",
    "viterbi-rsi/equity.csv": "a1811718ea23d7c0a25e92849d4bc53c3c60f36c567fa8181ae848931fb0f65d",
    "viterbi-rsi/stats.txt": "8adb215ed29249ffcbd9d86494a171d5497996d3a530ad40bc6103d12929881d",
    "viterbi-rsi/diagnostics.csv": "3cc0d284528dacb2057c61ade7b0ec529c47da9c8bce8a156b32e10052f7d6eb",
    "viterbi-rsi/fits.jsonl": "d2a762c3f284f40b7dfd4965ccb41b101d6e91d987fb6d5de86c0c293fdb6a65",
    "viterbi-cci/stdout": "0bdeed978148394684564d013d94c6e8cc83ab640c11bd3907b01b4c625c377a",
    "viterbi-cci/trades.csv": "25acf0bafdb1de9acc612b6bc3bc3cea6aa9d47efb876cf7f564dfbd50738419",
    "viterbi-cci/equity.csv": "a11b0c77778557e9d23c6ac1cd40e265b4f0e43ade2d779f6ba9f40fdb44ba21",
    "viterbi-cci/stats.txt": "d2b9db6dd668b918d692ac476b88b8a7a2b8d95830e5b93692147190f5054cda",
    "viterbi-cci/diagnostics.csv": "839809bf1771fc92a801d7226982698faef8993d846fab238af5408ac749c40d",
    "viterbi-cci/fits.jsonl": "4cdf77906587f7db37ea5ef574c3121b47997ec02b0b16d617403817df815fd8",
    "baseline-rsi-dynamic/stdout": "42e4557d3e06ab655f2e7f978e794a92ec7d5ad466c01b0fb09945085bf1fdd2",
    "baseline-rsi-dynamic/trades.csv": "66a356af3a0ac0f265dc1d5718cde52704f84efc6b3b511f60c375cd085ce89b",
    "baseline-rsi-dynamic/equity.csv": "d2a0b3ba379af18afa697707e384b3808cf56ae9aa8b820c1940bc99c9b6690c",
    "baseline-rsi-dynamic/stats.txt": "e008f30e7ad25717417711983d69fd4e0ece24a85496012cf7a42df222a23dea",
    "baseline-rsi-dynamic/diagnostics.csv": "0d8f91fd817a917ca51510b541d3535db58fa7b8c4e58175f303de8c72ed9ead",
    "baseline-rsi-dynamic/fits.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "marginal-rsi-dynamic/stdout": "0f47d5435a5c94fbbee6e03b77061d129fa2255f9ed06792801ff45d0014d24c",
    "marginal-rsi-dynamic/trades.csv": "f997f402de37244cdb5d528fccb492f9e40f7b1eb36983208982fb3e128723c8",
    "marginal-rsi-dynamic/equity.csv": "a3ea0cd82a6d5986036e5a7225965467593bca761ef3093a26434d2dc8f0caec",
    "marginal-rsi-dynamic/stats.txt": "bcfc0181349d936f4b99f908592ade6a2a111a4347fbd920a00a5f8fbf940af3",
    "marginal-rsi-dynamic/diagnostics.csv": "5909ce86059b7bd63f3da95eef4155d006bc6bb3c5b3956b708d2b7440cfdfd0",
    "marginal-rsi-dynamic/fits.jsonl": "d2a762c3f284f40b7dfd4965ccb41b101d6e91d987fb6d5de86c0c293fdb6a65",
    "viterbi-cci-dynamic/stdout": "cb5b0ccb3b058bcd4c46a1390ab6d8610a3ec926e4d8c238689fc0e7f7c0e364",
    "viterbi-cci-dynamic/trades.csv": "cc2a589c7e4e477c2699eef6fbac4231ce6ec2bb5dc0655c07334dda0b51332a",
    "viterbi-cci-dynamic/equity.csv": "cdabbdbf7cbca375e7b6293cc6cde29467e4181f46454ee7419b991ff64fdc87",
    "viterbi-cci-dynamic/stats.txt": "326e4d0a41781de1f8680884ea1c9a009013a2ef482533aa5f116e2a7a085259",
    "viterbi-cci-dynamic/diagnostics.csv": "839809bf1771fc92a801d7226982698faef8993d846fab238af5408ac749c40d",
    "viterbi-cci-dynamic/fits.jsonl": "4cdf77906587f7db37ea5ef574c3121b47997ec02b0b16d617403817df815fd8",
    "compare-rsi/stdout": "4481381513f1e7c2b713f6093d4daa90625ccf984ef04a8c1661fc3f85c25c35",
    "compare-rsi/comparison.csv": "41e1b86d02b9c407c8fd75ac1bd0a510a5e5e1bf71b0548cc0c321546049d822",
    "compare-cci/stdout": "0318525acdc623fc121bee3d5589817c7eb239af9ddd7b74cf9cedbb1d6adbeb",
    "compare-cci/comparison.csv": "da49421bca5876b4c51213c14a1b3556fb5fada9a2495f8e72327b7571b6ef15",
}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    assert _digests(tmp_path, capsys) == GOLDEN


# One row per file is written at +01:00, and its outputs keep that offset.
NONCANONICAL_OFFSET_ROWS = {"asset1.csv": 200, "asset2.csv": 120}
NONCANONICAL_FLAGS = ("--predictor", "marginal", "--system", "rsi")


def _rewrite_noncanonical(src, dst, offset_row: int, seed: int) -> None:
    """The same bars as a user might hand them in: ``Z`` stamps, one stamp
    at +01:00, one row duplicated, and every row in shuffled order."""
    header, *rows = src.read_text().splitlines()
    out = []
    for i, row in enumerate(rows):
        stamp, rest = row.split(",", 1)
        ts = datetime.fromisoformat(stamp)
        if i == offset_row:
            stamp = ts.astimezone(timezone(timedelta(hours=1))).isoformat()
        else:
            stamp = ts.isoformat().replace("+00:00", "Z")
        out.append(f"{stamp},{rest}")
    out.append(out[offset_row - 50])  # an exact duplicate: the later copy wins
    random.Random(seed).shuffle(out)
    dst.write_text("\n".join([header, *out]) + "\n")


def _noncanonical_digests(tmp_path, capsys) -> dict:
    sim = tmp_path / "sim"
    assert main(["simulate", "--bars", "300", "--seed", "42", "--out", str(sim)]) == 0
    capsys.readouterr()
    raw = tmp_path / "raw"
    raw.mkdir()
    for seed, (name, row) in enumerate(NONCANONICAL_OFFSET_ROWS.items()):
        _rewrite_noncanonical(sim / name, raw / name, row, seed)
    out = {name: _sha((raw / name).read_bytes()) for name in NONCANONICAL_OFFSET_ROWS}
    run_dir = tmp_path / "run"
    assets = ("--asset1", str(raw / "asset1.csv"), "--asset2", str(raw / "asset2.csv"))
    assert main(["backtest", *assets, "--seed", "42", "--out", str(run_dir), *NONCANONICAL_FLAGS]) == 0
    out["stdout"] = _sha(capsys.readouterr().out.encode())
    for name in BACKTEST_FILES:
        out[name] = _sha((run_dir / name).read_bytes())
    return out


# stdout, trades.csv and stats.txt equal the canonical marginal-rsi run's.
NONCANONICAL_GOLDEN = {
    "asset1.csv": "bec942acee43e71c2212091c72605641fb66b57925b4e37b7a6999ccc64a6aab",
    "asset2.csv": "b0238fe88e19b10652e32b3a2b7f6a91d393ad04f718dae0271127eebe98ff40",
    "stdout": "4d7d3c0d1391e38cc49102594e4947a909e124523f3ebf33b8b5b9276009f2ba",
    "trades.csv": "9cd373466ca26e30746b0de8e1e5dfa09e34b25f97a0307ac64df9ab25b38c59",
    "equity.csv": "be00cd4087441137bd719e717d09c56e878942a7eecbb6dea8437cc7fc7f4f9b",
    "stats.txt": "8adb215ed29249ffcbd9d86494a171d5497996d3a530ad40bc6103d12929881d",
    "diagnostics.csv": "cb841f30e496f26f56f2c93b390a1b64d9c46c239347096eb308a28918748ea8",
    "fits.jsonl": "91bd47b1812b8ddf97a10fc5ae58ee6d3d179cccee676b261bd1a71f0a44bcce",
}


def test_noncanonical_inputs_match_golden_digests(tmp_path, capsys):
    assert _noncanonical_digests(tmp_path, capsys) == NONCANONICAL_GOLDEN


# A parameter-file case: a cold fit on a fixed observation file, a warm fit
# read back from its params file, and a simulation driven by that file.
# This pins ``params_to_text``, ``load_params``, ``jittered_params``,
# ``reestimate`` and ``sample_chmm`` on a model read from text.
FIT_FLAGS = ("--n-states", "4", "--n-bins", "8", "--sweeps", "6", "--seed", "3")


def _write_obs(path, n_rows: int = 150, n_bins: int = 8, seed: int = 17) -> None:
    """Two loosely coupled bin walks, drawn by the standard library only."""
    rng = random.Random(seed)
    a = b = 0
    rows = []
    for _ in range(n_rows):
        a = min(n_bins - 1, max(0, a + rng.choice((-1, 0, 1))))
        b = min(n_bins - 1, max(0, (a + b) // 2 + rng.choice((-1, 0, 1))))
        rows.append(f"{a},{b}")
    path.write_text("o1,o2\n" + "\n".join(rows) + "\n")


def _params_digests(tmp_path, capsys) -> dict:
    obs = tmp_path / "obs.csv"
    _write_obs(obs)
    out = {}
    cold, warm = tmp_path / "cold.txt", tmp_path / "warm.txt"
    runs = {
        "fit": (cold, FIT_FLAGS),
        "fit-warm": (warm, ("--params-in", str(cold), "--sweeps", "3")),
    }
    for run, (params_out, flags) in runs.items():
        trace = tmp_path / f"{run}-trace.txt"
        argv = ["fit", "--obs", str(obs), "--params-out", str(params_out), "--trace-out", str(trace), *flags]
        assert main(argv) == 0
        out[f"{run}/stdout"] = _sha(capsys.readouterr().out.encode())
        out[f"{run}/params.txt"] = _sha(params_out.read_bytes())
        out[f"{run}/trace.txt"] = _sha(trace.read_bytes())
    sim = tmp_path / "sim"
    assert main(["simulate", "--bars", "200", "--seed", "5", "--params", str(cold), "--out", str(sim)]) == 0
    capsys.readouterr()  # simulate's stdout names the output directory
    for name in ("asset1.csv", "asset2.csv"):
        out[f"simulate/{name}"] = _sha((sim / name).read_bytes())
    return out


PARAMS_GOLDEN = {
    "fit/stdout": "a75401e5d93c1e97ca4991e245af131373c8b933d944d919f2eb962cb8b7da29",
    "fit/params.txt": "a5a7b8c8cb84fa956d37cedbb7d1ef510f9455c1475cccdafe6e55d61a73bf3d",
    "fit/trace.txt": "39439e85ca1c2304895bbf55258249ef5dc03f54846a2acb1f613b8615326265",
    "fit-warm/stdout": "70158caa04d2777d2a08cff4e15a8ee1bea68ac112d2f700e3d97165a15890fb",
    "fit-warm/params.txt": "339713ea6412f15cd7de3d34565283d149decfa99130748a6534f4080e86d4a8",
    "fit-warm/trace.txt": "f11c17b092a8b5916c408eb00fbedd474cbf68f79c2b5c912c12cd887976a3e2",
    "simulate/asset1.csv": "bc65ff33864a6889246c8db4b12c4baa6834b6e9a22a1a106e826609da9fa60a",
    "simulate/asset2.csv": "25f8fcaffa355cb8838a98618f9f25cad4bec4e70623a5cd079352e0c7c491f0",
}


def test_parameter_files_match_golden_digests(tmp_path, capsys):
    assert _params_digests(tmp_path, capsys) == PARAMS_GOLDEN
