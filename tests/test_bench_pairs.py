"""The verdicts of ``scripts/bench_pairs.py`` on fixed synthetic runs.

The script decides from paired runs whether a change met a gain, stayed
within a metric's bound, got worse or could not be told apart from the
parent; these tests pin that rule without running any benchmark.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda parent, change, better, bound, failed=(0, 0): module.summarize(
        parent, change, better, bound, failed)


def test_summary_counts_wins_and_reads_the_bound():
    summarize = _summarize()
    parent = [1.0] * 10
    # a tie counts for neither side: 9 wins of 10 still meet a gain
    s = summarize(parent, [0.5] * 9 + [1.0], "lower", 0.25)
    assert s["change_wins"] == "9/10" and s["verdict"] == "gain met"
    assert s["median_diff"] == -0.5 and s["parent_iqr"] == 0.0
    assert s["parent"]["runs"] == parent and s["change_vs_parent"] == -0.5
    # 8 wins of 10 do not, and the same medians with no spread are within bound
    s = summarize(parent, [0.5] * 8 + [1.0] * 2, "lower", 0.25)
    assert s["change_wins"] == "8/10" and s["verdict"] == "within bound"
    s = summarize(parent, parent, "lower", 0.25)
    assert s["change_wins"] == "0/10" and s["verdict"] == "within bound"
    # higher is better: a rise is a gain, a fall past the bound is worse
    assert summarize([100.0] * 10, [110.0] * 10, "higher", 0.25)["verdict"] == "gain met"
    s = summarize([100.0] * 10, [60.0] * 10, "higher", 0.25)
    assert s["change_wins"] == "0/10" and s["verdict"] == "worse"
    assert summarize([100.0] * 10, [80.0] * 10, "higher", 0.25)["verdict"] == "within bound"
    # lower is better: a rise past the bound is worse
    assert summarize(parent, [1.3] * 10, "lower", 0.25)["verdict"] == "worse"
    assert summarize(parent, [1.2] * 10, "lower", 0.25)["verdict"] == "within bound"


def test_summary_names_a_wide_spread_unresolved():
    summarize = _summarize()
    wide = [1.0, 3.0] * 5          # median 2, IQR 2: wider than a bound of 0.25
    assert summarize(wide, wide, "lower", 0.25)["verdict"] == "unresolved"
    assert summarize(wide, [2.1] * 10, "lower", 0.25)["verdict"] == "unresolved"
    # the spread of the change counts too
    assert summarize([2.0] * 10, wide, "lower", 0.25)["verdict"] == "unresolved"
    # unless every run of the change is better than every run of the parent
    s = summarize(wide, [0.9] * 10, "lower", 0.25)
    assert s["change_wins"] == "10/10" and s["verdict"] == "within bound"
    s = summarize(wide, [3.1] * 10, "higher", 0.25)
    assert s["verdict"] == "within bound"


def test_summary_counts_a_missing_value_against_the_change():
    summarize = _summarize()
    # wins are counted out of every pair run; a pair missing either value is no win
    s = summarize([1.0, None, 1.0], [0.5, 0.5, None], "lower", 0.25)
    assert s["change_wins"] == "1/3" and s["verdict"] != "gain met"
    assert s["parent"]["runs"] == [1.0, 1.0] and s["change"]["runs"] == [0.5, 0.5]
    # 9 wins of 10 with the tenth change value missing still meet a gain ...
    s = summarize([1.0] * 10, [0.5] * 9 + [None], "lower", 0.25)
    assert s["change_wins"] == "9/10" and s["verdict"] == "gain met"
    # ... unless a run reported no failed count, or the change failed more
    for failed in ((0, None), (None, 0), (0, 1)):
        s = summarize([1.0] * 10, [0.5] * 10, "lower", 0.25, failed)
        assert s["change_wins"] == "10/10" and s["verdict"] == "within bound"
    assert summarize([1.0] * 10, [0.5] * 10, "lower", 0.25, (2, 1))["verdict"] == "gain met"
    # a side with no value at all is unresolved
    assert summarize([None], [1.0], "lower", 0.25) == {"change_wins": "0/1",
                                                       "verdict": "unresolved"}
