"""The summary of ``tools/bench_pairs.py``, on canned ``perfbench/run.py`` output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "rate": "higher"}


def run_output(wall_s, rate, failed=0):
    """What ``perfbench/run.py`` prints: a detail line, then the result line."""
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "rate": {"value": rate, "unit": "1/s"}}}
    return json.dumps({"detail": {"wall_s": {"median": wall_s}}}) + "\n" + json.dumps(result) + "\n"


def results(pairs, failed=0):
    return [bench_pairs.parse_result(run_output(w, r, failed)) for w, r in pairs]


def rows_by_metric(parent, change):
    return {row["metric"]: row for row in bench_pairs.summarize(parent, change, BETTER)}


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(run_output(2.5, 7.0))["metrics"]["wall_s"]["value"] == 2.5


def test_quartiles_interpolate_between_samples():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    parent = results([(3.0, 1.0), (3.0, 1.0), (3.0, 1.0), (3.0, 1.0)])
    change = results([(2.0, 2.0), (3.0, 1.0), (4.0, 0.5), (2.5, 3.0)])
    rows = rows_by_metric(parent, change)
    assert (rows["wall_s"]["wins"], rows["wall_s"]["pairs"]) == (2, 4)
    assert rows["rate"]["wins"] == 2


def test_gain_beyond_the_parents_quartile_spread():
    parent = results([(2.8, 1.0), (2.9, 1.0), (3.0, 1.0), (3.1, 1.0), (3.2, 1.0)])
    change = results([(2.5, 1.1), (2.6, 0.9), (2.7, 1.0), (2.6, 1.0), (2.5, 1.0)])
    rows = rows_by_metric(parent, change)
    wall = rows["wall_s"]
    assert wall["parent"] == pytest.approx((2.9, 3.0, 3.1))
    assert wall["change"] == pytest.approx((2.5, 2.6, 2.6))
    assert wall["gain"] == pytest.approx(0.4) and wall["gain_frac"] == pytest.approx(0.4 / 3.0)
    assert wall["parent_iqr"] == pytest.approx(0.2) and wall["beyond_iqr"]
    assert wall["wins"] == 5
    assert rows["rate"]["gain"] == 0.0 and not rows["rate"]["beyond_iqr"]


def test_a_worse_median_is_a_negative_gain():
    parent = results([(2.0, 4.0), (2.0, 4.0)])
    change = results([(2.5, 3.0), (2.5, 3.0)])
    rows = rows_by_metric(parent, change)
    assert rows["wall_s"]["gain"] == pytest.approx(-0.5) and not rows["wall_s"]["beyond_iqr"]
    assert rows["rate"]["gain"] == pytest.approx(-1.0) and rows["rate"]["wins"] == 0


def test_format_names_every_metric_and_the_failures():
    parent = results([(3.0, 1.0), (3.2, 1.0)])
    change = results([(2.0, 1.0), (2.1, 1.0)], failed=1)
    text = bench_pairs.format_rows(bench_pairs.summarize(parent, change, BETTER), parent, change)
    assert "wall_s (s, lower is better): parent 3.1 [3.05, 3.15] -> change 2.05" in text
    assert "change won 2/2" in text and "exceeds parent IQR 0.1" in text
    assert "rate (1/s, higher is better)" in text and "change won 0/2" in text
    assert text.splitlines()[-1] == "failed/attempted: parent 0/20, change 2/20"
