"""The case list and the report of ``tools/same_bits.py``, from hand-made
digests; no revision is exported and no side is run here."""

import sys
from pathlib import Path

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
sys.path.insert(0, _TOOLS)
try:
    import same_bits
finally:
    sys.path.remove(_TOOLS)


def test_the_case_list_is_the_grid_and_two_long_cases():
    cases = same_bits.cases()
    names = [case[0] for case in cases]
    assert len(names) == len(set(names)) == 6 * 3 * 10 * 3 + 2
    grid = {(n, m, t, start) for _, n, m, t, start, _ in cases[:-2]}
    assert {n for n, *_ in grid} == {1, 2, 3, 5, 8, 20} and {m for _, m, *_ in grid} == {1, 3, 8}
    assert {t for _, _, t, _ in grid} == {1, 2, 3, 4, 7, 40, 65, 66, 130, 2000}
    assert {start for *_, start in grid} == {"jittered", "uniform", "zero-heavy"}
    assert all(parts == ("forward", "scaled forward", "gradient", "scaled gradient", "fit", "viterbi")
               for *_, parts in cases[:-2])
    assert [case[1:] for case in cases[-2:]] == [(5, 8, 50_000, "jittered", ("scaled forward",)),
                                                  (5, 8, 50_000, "jittered", ("viterbi",))]
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
