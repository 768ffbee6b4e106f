"""The summary that ``tools/ab_pairs.py`` prints, from hand-made verdicts;
the script's runs themselves are not exercised here."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [{"name": "run_s", "better": "lower"}, {"name": "bars_per_s", "better": "higher"}]


def verdict(run_s, bars_per_s, correct=True):
    return {"correct": correct, "metrics": {"run_s": {"value": run_s, "unit": "s"},
                                            "bars_per_s": {"value": bars_per_s, "unit": "1/s"}}}


def test_summary_reads_medians_ratios_wins_and_the_base_iqr():
    pairs = [
        (verdict(1.0, 100.0), verdict(0.8, 125.0)),
        (verdict(2.0, 50.0), verdict(2.0, 50.0)),   # a tie is no win
        (verdict(3.0, 40.0), verdict(3.3, 36.0)),
        (verdict(4.0, 25.0), verdict(2.0, 50.0)),
        (verdict(5.0, 20.0), verdict(4.0, 25.0)),
    ]
    summary = ab_pairs.summarize(pairs, METRICS)
    assert summary["correct"] is True
    run_s = summary["metrics"]["run_s"]
    assert (run_s["base_median"], run_s["work_median"]) == (3.0, 2.0)
    assert run_s["ratios"] == pytest.approx([0.8, 1.0, 1.1, 0.5, 0.8])
    assert (run_s["wins"], run_s["pairs"]) == (3, 5)
    assert run_s["base_iqr"] == pytest.approx(2.0)  # inclusive quartiles of 1..5: 2 and 4
    bars = summary["metrics"]["bars_per_s"]
    assert bars["better"] == "higher" and bars["wins"] == 3
    assert (bars["base_median"], bars["work_median"]) == (40.0, 50.0)


def test_an_incorrect_run_on_either_side_marks_the_summary_incorrect():
    good = verdict(1.0, 1.0)
    for pair in ((verdict(1.0, 1.0, correct=False), good), (good, {"correct": False, "error": "boom"})):
        summary = ab_pairs.summarize([(good, good), pair], METRICS)
        assert summary["correct"] is False
    # The run without metrics adds nothing to them.
    assert summary["metrics"]["run_s"]["pairs"] == 1


def test_one_pair_has_zero_iqr_and_a_zero_base_gives_a_nan_ratio():
    summary = ab_pairs.summarize([(verdict(0.0, 2.0), verdict(1.0, 3.0))], METRICS)
    assert summary["metrics"]["run_s"]["base_iqr"] == 0
    assert math.isnan(summary["metrics"]["run_s"]["ratios"][0])
    assert summary["metrics"]["bars_per_s"]["ratios"] == [1.5]
