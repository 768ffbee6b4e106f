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


def _pairs(base_run_s, work_run_s):
    return [(verdict(b, 1.0 / b), verdict(w, 1.0 / w)) for b, w in zip(base_run_s, work_run_s)]


def test_the_verdict_needs_nine_of_ten_wins_and_a_median_gap_above_the_base_iqr():
    base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # median 1.045, IQR 0.045
    faster = [b - 0.1 for b in base[:9]] + [1.2]  # 9 wins, median 0.955: a gap of 0.09
    summary = ab_pairs.summarize(_pairs(base, faster), METRICS)
    run_s, bars = summary["metrics"]["run_s"], summary["metrics"]["bars_per_s"]
    assert run_s["base_iqr"] == pytest.approx(0.045)
    assert run_s["work_quartiles"] == pytest.approx((0.9225, 0.9675))  # inclusive quartiles of the work runs
    assert (run_s["wins"], run_s["verdict"]) == (9, "gain")
    assert (bars["wins"], bars["verdict"]) == (9, "gain")  # higher is better there
    # Eight wins are too few, however large the gap.
    eight = [b - 0.5 for b in base[:8]] + [1.2, 1.3]
    assert ab_pairs.summarize(_pairs(base, eight), METRICS)["metrics"]["run_s"]["verdict"] == "no gain"
    # Ten wins with a median gap of 0.04, inside the base IQR, are noise.
    close = [b - 0.04 for b in base]
    run_s = ab_pairs.summarize(_pairs(base, close), METRICS)["metrics"]["run_s"]
    assert (run_s["wins"], run_s["verdict"]) == (10, "no gain")
    # Nine pairs, every one won by far, are fewer than the rule reads.
    run_s = ab_pairs.summarize(_pairs(base[:9], faster[:9]), METRICS)["metrics"]["run_s"]
    assert (run_s["wins"], run_s["verdict"]) == (9, "too few pairs")


def test_one_pair_has_its_value_as_both_work_quartiles():
    summary = ab_pairs.summarize([(verdict(2.0, 1.0), verdict(1.0, 3.0))], METRICS)
    assert summary["metrics"]["run_s"]["work_quartiles"] == (1.0, 1.0)
    assert summary["metrics"]["run_s"]["verdict"] == "too few pairs"  # one of one won, gap 1 above an IQR of 0


def test_stage_medians_are_summarised_without_a_verdict():
    def staged(run_s, fit_s, decode_s=None):
        run = verdict(run_s, 1.0 / run_s)
        run["stages"] = {"fit_s": fit_s} if decode_s is None else {"fit_s": fit_s, "decode_s": decode_s}
        return run

    pairs = [(staged(1.0, 0.1, 0.9), staged(0.7, 0.1, 0.6)),
             (staged(1.1, 0.2, 0.9), staged(0.8, 0.2, 0.6)),
             (staged(1.2, 0.3), staged(0.9, 0.3, 0.5))]  # a run without decode_s: that pair is left out of it
    stages = ab_pairs.summarize(pairs, METRICS)["stages"]
    assert stages == {"fit_s": {"base_median": 0.2, "work_median": 0.2, "pairs": 3},
                      "decode_s": {"base_median": 0.9, "work_median": 0.6, "pairs": 2}}
    # Runs without records, as the stand-in of a failed run, have no stages.
    assert ab_pairs.summarize([(verdict(1.0, 1.0), verdict(1.0, 1.0))], METRICS)["stages"] == {}
