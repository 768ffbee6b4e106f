"""The case list and the report of ``tools/same_bits.py``, from hand-made
digests; no revision is exported and no side is run here."""

import itertools
import sys
from pathlib import Path

import pytest

from chmmtrade import data_io

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
sys.path.insert(0, _TOOLS)
try:
    import same_bits
finally:
    sys.path.remove(_TOOLS)


def test_the_case_list_is_the_grid_the_long_cases_and_the_run_cases():
    cases = same_bits.cases()
    names = [case[0] for case in cases]
    assert len(names) == len(set(names)) == 6 * 3 * 10 * 3 + 2 + 10 + 6
    grid, long, decodes, runs = cases[:-18], cases[-18:-16], cases[-16:-6], cases[-6:]
    assert {(n, m) for _, n, m, *_ in grid} == set(itertools.product((1, 2, 3, 5, 8, 20), (1, 3, 8)))
    assert {t for _, _, _, t, *_ in grid} == {1, 2, 3, 4, 7, 40, 65, 66, 130, 2000}
    assert {start for *_, start, _ in grid} == {"jittered", "uniform", "zero-heavy"}
    assert all(parts == ("forward", "scaled forward", "gradient", "scaled gradient", "fit", "viterbi", "readout")
               for *_, parts in grid)
    assert [case[1:] for case in long] == [(5, 8, 50_000, "jittered", ("scaled forward",)),
                                           (5, 8, 50_000, "jittered", ("viterbi",))]
    # Long decodes on each side of the grid route's size gate, from ties and dead chains.
    assert [case[1:] for case in decodes] == [(n, 8, 20_000, start, ("viterbi",))
                                              for n in (1, 2, 3, 8, 20) for start in ("uniform", "zero-heavy")]
    # At most eight runs on a 400-bar market, varying every knob the model pass reads.
    assert {(n, m) for _, n, m, *_ in runs} == {(5, 8), (3, 20)} and {t for _, _, _, t, *_ in runs} == {400}
    fields = [dict(start) for *_, start, _ in runs]
    assert {f["system"] for f in fields} == {"rsi", "cci"} and {f["lookback"] for f in fields} == {4, 10}
    assert {f.get("predictor") for f in fields} >= {"marginal", "viterbi"}
    assert {f.get("fidelity", "corrected") for f in fields} == {"corrected", "literal"}
    assert {f.get("warm_start", True) for f in fields} == {True, False}
    assert {parts for *_, parts in runs} == {("backtest",), ("compare",)}
    assert same_bits.cases() == cases  # a fixed order


def test_the_report_names_every_case_that_differs_or_is_missing(capsys):
    names = [case[0] for case in same_bits.cases()]
    base = dict.fromkeys(names, "a" * 64)
    assert same_bits.report(base, dict(base), "REV")
    equal = f"{len(names)} of {len(names)} cases equal"
    assert capsys.readouterr().out == f"same_bits: base REV against the working tree: {equal}\n"

    work = dict(base, **{names[3]: "b" * 64})
    del work[names[-1]]
    del base[names[0]]
    assert same_bits.differing(base, work) == [names[0], names[3], names[-1]]
    assert not same_bits.report(base, work, "REV")
    assert capsys.readouterr().out.splitlines() == [
        f"same_bits: base REV against the working tree: {len(names) - 3} of {len(names)} cases equal",
        f"  differs: {names[0]} (missing on a side)",
        f"  differs: {names[3]}",
        f"  differs: {names[-1]} (missing on a side)",
    ]


@pytest.mark.parametrize("name, writer", [
    ("rsi-viterbi-warm-L4-N5M8", "write_equity_csv"),
    ("rsi-viterbi-warm-L4-N5M8", "write_diagnostics_csv"),
    ("rsi-viterbi-warm-L4-N5M8", "write_fit_log"),
    ("cci-compare-cold-L4-N5M8", "write_comparison_csv"),
])
def test_a_run_case_hashes_the_bytes_its_files_are_written_as(monkeypatch, name, writer):
    case = next(case for case in same_bits.cases() if case[0] == name)
    before = same_bits.digest(case)
    write = getattr(data_io, writer)

    def write_one_more_byte(path, value):
        write(path, value)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")

    monkeypatch.setattr(data_io, writer, write_one_more_byte)
    assert same_bits.digest(case) != before
