"""The summary of ``tools/bench_pairs.py``, on canned ``perfbench/run.py`` output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.24},
           {"name": "rate", "better": "higher", "bound": 0.05}]


def run_output(wall_s, rate, failed=0):
    """What ``perfbench/run.py`` prints: a detail line, then the result line."""
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "rate": {"value": rate, "unit": "1/s"}}}
    return json.dumps({"detail": {"wall_s": {"median": wall_s}}}) + "\n" + json.dumps(result) + "\n"


def results(pairs, failed=0):
    return [bench_pairs.parse_result(run_output(w, r, failed)) for w, r in pairs]


def rows_by_metric(parent, change):
    return {row["metric"]: row for row in bench_pairs.summarize(parent, change, METRICS)}


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


def test_the_per_pair_ratio_is_reported_with_its_quartiles():
    # Ratios change/parent, pair by pair: 0.5, 0.5, 1.0 and 0.5 for wall_s; the
    # medians' ratio would read 3.5 / 4.5 instead.
    parent = results([(2.0, 1.0), (4.0, 1.0), (5.0, 2.0), (10.0, 4.0)])
    change = results([(1.0, 1.0), (2.0, 3.0), (5.0, 2.0), (5.0, 2.0)])
    rows = rows_by_metric(parent, change)
    assert rows["wall_s"]["ratio"] == pytest.approx((0.5, 0.5, 0.625))
    assert rows["rate"]["ratio"] == pytest.approx((0.875, 1.0, 1.5))
    text = bench_pairs.format_rows(list(rows.values()), parent, change)
    assert "  wall_s per-pair change/parent ratio: median 0.5 [0.5, 0.625]" in text.splitlines()
    assert "  rate per-pair change/parent ratio: median 1 [0.875, 1.5]" in text.splitlines()


def test_format_names_every_metric_and_the_failures():
    parent = results([(3.0, 1.0), (3.2, 1.0)])
    change = results([(2.0, 1.0), (2.1, 1.0)], failed=1)
    text = bench_pairs.format_rows(bench_pairs.summarize(parent, change, METRICS), parent, change)
    assert "wall_s (s, lower is better): parent 3.1 [3.05, 3.15] -> change 2.05" in text
    assert "change won 2/2" in text and "exceeds parent IQR 0.1" in text
    assert "rate (1/s, higher is better)" in text and "change won 0/2" in text
    assert text.splitlines()[-1] == "failed/attempted: parent 0/20, change 2/20"


def test_no_regression_within_the_bound():
    # wall_s 20% worse and rate 4% lower: both inside their bounds (24%, 5%),
    # and the parent's spread (IQR/median 0.1/3.0 and 0) is inside them too.
    parent = results([(2.9, 1.0), (3.0, 1.0), (3.1, 1.0)])
    change = results([(3.5, 0.96), (3.6, 0.96), (3.7, 0.96)])
    rows = rows_by_metric(parent, change)
    for row in rows.values():
        assert not row["regression"] and not row["unresolved"]
    assert rows["wall_s"]["gain_frac"] == pytest.approx(-0.2)
    text = bench_pairs.format_rows(list(rows.values()), parent, change)
    assert "no regression beyond bound 24%" in text and "no regression beyond bound 5%" in text
    assert "REGRESSION" not in text and "UNRESOLVED" not in text


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    # wall_s 30% worse (bound 24%) and rate 10% lower (bound 5%).
    parent = results([(2.9, 1.0), (3.0, 1.0), (3.1, 1.0)])
    change = results([(3.8, 0.9), (3.9, 0.9), (4.0, 0.9)])
    rows = rows_by_metric(parent, change)
    for row in rows.values():
        assert row["regression"] and not row["unresolved"]
    text = bench_pairs.format_rows(list(rows.values()), parent, change)
    assert "REGRESSION beyond bound 24%" in text and "REGRESSION beyond bound 5%" in text


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # The parent's wall_s IQR is 1.0 on a median of 3.0: 33% > 24%.
    parent = results([(2.0, 1.0), (2.5, 1.0), (3.0, 1.0), (3.5, 1.0), (4.0, 1.0)])
    change = results([(2.9, 1.0), (3.0, 1.0), (3.1, 1.0), (2.4, 1.0), (3.3, 1.0)])
    rows = rows_by_metric(parent, change)
    wall = rows["wall_s"]
    assert wall["parent_spread"] == pytest.approx(1.0 / 3.0)
    assert wall["unresolved"] and not wall["regression"]
    assert not rows["rate"]["unresolved"]
    text = bench_pairs.format_rows(list(rows.values()), parent, change)
    assert "UNRESOLVED: parent IQR/median 33.3% exceeds bound" in text
    # Unless every change run beats every parent run.
    faster = results([(1.5, 1.0), (1.6, 1.0), (1.7, 1.0), (1.8, 1.0), (1.9, 1.0)])
    assert not rows_by_metric(parent, faster)["wall_s"]["unresolved"]
    tied = results([(1.5, 1.0), (1.6, 1.0), (1.7, 1.0), (1.8, 1.0), (2.0, 1.0)])
    assert rows_by_metric(parent, tied)["wall_s"]["unresolved"]


WORKLOADS = [w["name"] for w in json.loads(
    (_PATH.parents[1] / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def fake_runs(monkeypatch):
    """Stub out the export and the benchmark runs; return the runs made, in order."""
    calls = []

    def run_benchmark(checkout, workload, seed, seconds):
        side = checkout.name   # main runs each side in a directory named after it
        calls.append((seed, workload, side))
        value = {"parent": 3.0, "change": 2.0}[side] + WORKLOADS.index(workload)
        metrics = {name: {"value": value, "unit": "s"}
                   for name in ("setup_s", "wall_s", "peak_rss_mb")}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    return calls


def summaries(text):
    """The workload named by each summary heading of ``main``'s output, and its wall_s line."""
    lines = text.splitlines()
    return {line[3:-3]: next(row for row in lines[i:] if row.startswith("wall_s"))
            for i, line in enumerate(lines) if line.startswith("== ")}


def test_every_workload_runs_by_default_with_one_summary_each(fake_runs, capsys):
    assert bench_pairs.main(["--rev", "HEAD", "--pairs", "2", "--seed", "5"]) == 0
    assert fake_runs == [(5, w, side) for w in WORKLOADS for side in ("parent", "change")] + [
        (6, w, side) for w in WORKLOADS for side in ("change", "parent")]
    out = capsys.readouterr().out
    found = summaries(out)
    assert list(found) == WORKLOADS
    for i, w in enumerate(WORKLOADS):
        assert found[w].startswith(f"wall_s (s, lower is better): parent {3 + i:g} ")
        assert f"-> change {2 + i:g} " in found[w] and "change won 2/2" in found[w]
        ratio = f"{(2 + i) / (3 + i):.4g}"
        detail = f"  wall_s per-pair change/parent ratio: median {ratio} [{ratio}, {ratio}]"
        assert out.splitlines().index(detail) == out.splitlines().index(found[w]) + 1


def test_workload_may_be_given_more_than_once(fake_runs, capsys):
    picked = WORKLOADS[::-1][:2]
    argv = ["--rev", "HEAD", "--pairs", "1"]
    for w in picked + picked[:1]:
        argv += ["--workload", w]
    assert bench_pairs.main(argv) == 0
    assert [w for _, w, _ in fake_runs] == [picked[0], picked[0], picked[1], picked[1]]
    assert list(summaries(capsys.readouterr().out)) == picked


def test_an_unknown_workload_is_rejected_before_any_run(fake_runs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--rev", "HEAD", "--pairs", "1", "--workload", "no-such-workload"])
    assert exit_info.value.code == 2 and fake_runs == []
    assert "unknown workload no-such-workload" in capsys.readouterr().err


def test_both_sides_run_from_copies_and_the_change_keeps_its_uncommitted_edits(
        tmp_path, monkeypatch, capsys):
    # A checkout with one commit, then an uncommitted edit, an untracked file
    # and an ignored one; the runs are stubbed, the export and the copy are not.
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    (root / ".gitignore").write_text("*.log\n")
    (root / "src" / "code.py").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (root / "src" / "code.py").write_text("edited\n")
    (root / "src" / "new.py").write_text("untracked\n")
    (root / "run.log").write_text("ignored\n")
    seen = {}

    def run_benchmark(checkout, workload, seed, seconds):
        seen.setdefault(checkout.name, (checkout, sorted(
            str(f.relative_to(checkout)) for f in checkout.rglob("*") if f.is_file()),
            (checkout / "src" / "code.py").read_text()))
        metrics = {name: {"value": 1.0, "unit": "s"}
                   for name in ("setup_s", "wall_s", "peak_rss_mb")}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    assert bench_pairs.main(["--rev", "HEAD", "--pairs", "1", "--workload", WORKLOADS[0]]) == 0
    (parent, parent_files, parent_code), (change, change_files, change_code) = (
        seen["parent"], seen["change"])
    assert parent.parent == change.parent and root not in parent.parents
    assert not parent.exists() and not change.exists()   # removed on exit
    assert parent_code == "committed\n" and change_code == "edited\n"
    assert parent_files == [".gitignore", "BENCHMARK.json", "src/code.py"]
    assert change_files == [".gitignore", "BENCHMARK.json", "src/code.py", "src/new.py"]
