"""Run the benchmark on a parent revision and on this checkout, in alternating pairs.

    python3 tools/bench_pairs.py --rev <parent> [--workload <name> ...] --pairs <n> [--seed 1]
                                 [--out BENCH_<name>.json]

Both sides run from copies in sibling temporary directories, which are
removed when the script exits: the parent's committed files, exported
with ``git archive``, and the change, the checkout holding this script,
copied file by file (its tracked and untracked files that git does not
ignore, uncommitted edits included). So neither side runs where the
other's runs leave build or cache files, and both start alike.
``--workload`` may be given more than once; without it, every workload
of ``BENCHMARK.json`` runs. Pair ``i`` runs each workload in turn with
``perfbench/run.py --trace 0`` at seed ``--seed + i`` for
``BENCHMARK.json``'s ``run_seconds`` in both checkouts, the parent first
in even pairs and the change first in odd ones. Each run's end-to-end
metrics are printed as it finishes; at the end, one summary per
workload, giving per end-to-end metric of ``BENCHMARK.json``:

* each side's median and quartiles, and how many pairs the change won
  (ties count for neither side);
* a detail line: the median and quartiles of the per-pair ratio
  change/parent, which pairs out drift that both sides of a pair share.
  It is a report only, and decides neither rule;
* the gain rule: whether the medians differ, in the change's favour, by
  more than the distance between the parent's quartiles (its IQR);
* the no-regression rule, against the metric's relative ``bound``: a
  REGRESSION when the change's median is worse than the parent's by
  more than the bound, and UNRESOLVED when the parent's IQR exceeds the
  bound times its median (too spread to tell), unless every change run
  beats every parent run.

``--out`` also writes all of it to one JSON file: the parent's commit,
``run_seconds``, and per workload every run of each side (its seed, its
result line and its detail line's ``detail``) and the summary rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """The result line ``perfbench/run.py`` prints last, as a dict."""
    return json.loads(stdout.strip().splitlines()[-1])


def parse_run(stdout: str) -> dict:
    """The result line, with the ``detail`` of the detail line printed before it."""
    return {**parse_result(stdout), **json.loads(stdout.strip().splitlines()[-2])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolating between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per entry of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``:
    ``name``, ``better`` ``"lower"`` or ``"higher"``, relative ``bound``) comparing
    the result lines of paired runs, ``parent[i]`` with ``change[i]``."""
    rows = []
    for metric in metrics:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        sign = 1.0 if direction == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        gain = sign * (pq[1] - cq[1])
        gain_frac, spread = gain / pq[1], (pq[2] - pq[0]) / pq[1]
        rows.append({
            "metric": name, "unit": parent[0]["metrics"][name]["unit"], "better": direction,
            "parent": pq, "change": cq,
            "wins": sum(sign * (a - b) > 0 for a, b in zip(p, c)), "pairs": len(p),
            "ratio": quartiles([b / a for a, b in zip(p, c)]),
            "gain": gain, "gain_frac": gain_frac,
            "parent_iqr": pq[2] - pq[0], "beyond_iqr": gain > pq[2] - pq[0],
            "bound": bound, "regression": gain_frac < -bound, "parent_spread": spread,
            "unresolved": spread > bound and not all(sign * (a - b) > 0 for a in p for b in c),
        })
    return rows


def format_rows(rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    lines = []
    for row in rows:
        (p1, p2, p3), (c1, c2, c3), (r1, r2, r3) = row["parent"], row["change"], row["ratio"]
        lines.append(
            f"{row['metric']} ({row['unit']}, {row['better']} is better): "
            f"parent {p2:.4g} [{p1:.4g}, {p3:.4g}] -> change {c2:.4g} [{c1:.4g}, {c3:.4g}]; "
            f"change won {row['wins']}/{row['pairs']}; gain {row['gain']:+.4g} "
            f"({row['gain_frac']:+.1%}) {'exceeds' if row['beyond_iqr'] else 'within'} "
            f"parent IQR {row['parent_iqr']:.4g}; "
            f"{'REGRESSION' if row['regression'] else 'no regression'} beyond bound "
            f"{row['bound']:.0%}"
            + (f"; UNRESOLVED: parent IQR/median {row['parent_spread']:.1%} exceeds bound"
               if row["unresolved"] else ""))
        lines.append(f"  {row['metric']} per-pair change/parent ratio: median {r2:.4g} "
                     f"[{r1:.4g}, {r3:.4g}]")
    lines.append(f"failed/attempted: parent {sum(r['failed'] for r in parent)}/"
                 f"{sum(r['attempted'] for r in parent)}, change "
                 f"{sum(r['failed'] for r in change)}/{sum(r['attempted'] for r in change)}")
    return "\n".join(lines)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}   # each side its own src
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=10 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return parse_run(proc.stdout)


def export(rev: str, into: Path) -> str:
    """Extract the committed files of ``rev`` into ``into``; return its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def snapshot(into: Path) -> None:
    """Copy the checkout's tracked and untracked, non-ignored files into ``into``."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "-co", "--exclude-standard"],
                           capture_output=True, check=True).stdout.split(b"\0")
    for name in filter(None, names):
        src, dst = ROOT / os.fsdecode(name), into / os.fsdecode(name)
        if src.is_file():   # a tracked file deleted in the checkout is left out
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="parent revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run; repeat for more (default: every workload)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", help="JSON file to write every run and summary to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.out and not Path(args.out).parent.is_dir():
        parser.error(f"--out {args.out}: its directory does not exist")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; known: {', '.join(known)}")
    seconds = bench["run_seconds"]
    runs = {w: ([], []) for w in workloads}   # workload -> (parent, change); a repeat runs once
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir, change_dir = Path(tmp, "parent"), Path(tmp, "change")
        parent_dir.mkdir()
        change_dir.mkdir()
        commit = export(args.rev, parent_dir)
        snapshot(change_dir)
        print(f"parent {commit} vs a copy of {ROOT}; workloads {', '.join(runs)}, "
              f"{args.pairs} pairs from seed {args.seed}, {seconds:g} s", flush=True)
        for i in range(args.pairs):
            seed = args.seed + i
            for workload, (parent, change) in runs.items():
                sides = [("parent", parent_dir, parent), ("change", change_dir, change)]
                for name, checkout, results in (sides if i % 2 == 0 else sides[::-1]):
                    results.append(run_benchmark(checkout, workload, seed, seconds))
                    values = ", ".join(f"{k} {v['value']:.4g}"
                                       for k, v in results[-1]["metrics"].items())
                    print(f"pair {i + 1} seed {seed} {workload} {name}: {values}, failed "
                          f"{results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
    report = {"parent": commit, "run_seconds": seconds, "workloads": {}}
    for workload, (parent, change) in runs.items():
        rows = summarize(parent, change, bench["end_to_end"])
        print(f"== {workload} ==")
        print(format_rows(rows, parent, change))
        report["workloads"][workload] = {
            "parent": [{"seed": args.seed + i, **r} for i, r in enumerate(parent)],
            "change": [{"seed": args.seed + i, **r} for i, r in enumerate(change)],
            "summary": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
