"""Run the benchmark on a parent revision and on this checkout, in alternating pairs.

    python3 tools/bench_pairs.py --rev <parent> --workload <name> --pairs <n> [--seed 1]

The parent's committed files are exported with ``git archive`` into a
temporary directory, which is removed when the script exits; "change" is
the checkout holding this script, uncommitted edits included. Pair ``i``
runs ``perfbench/run.py --trace 0`` at seed ``--seed + i`` for
``BENCHMARK.json``'s ``run_seconds`` in both checkouts, the parent first
in even pairs and the change first in odd ones. Each run's end-to-end
metrics are printed as it finishes; at the end, per metric of
``BENCHMARK.json``: each side's median and quartiles, how many pairs the
change won (ties count for neither side), and whether the medians
differ, in the change's favour, by more than the distance between the
parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """The result line ``perfbench/run.py`` prints last, as a dict."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolating between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric of ``better`` (name -> ``"lower"`` or ``"higher"``)
    comparing the result lines of paired runs, ``parent[i]`` with ``change[i]``."""
    rows = []
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        gain = sign * (pq[1] - cq[1])
        rows.append({
            "metric": name, "unit": parent[0]["metrics"][name]["unit"], "better": direction,
            "parent": pq, "change": cq,
            "wins": sum(sign * (a - b) > 0 for a, b in zip(p, c)), "pairs": len(p),
            "gain": gain, "gain_frac": gain / pq[1],
            "parent_iqr": pq[2] - pq[0], "beyond_iqr": gain > pq[2] - pq[0],
        })
    return rows


def format_rows(rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    lines = []
    for row in rows:
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        lines.append(
            f"{row['metric']} ({row['unit']}, {row['better']} is better): "
            f"parent {p2:.4g} [{p1:.4g}, {p3:.4g}] -> change {c2:.4g} [{c1:.4g}, {c3:.4g}]; "
            f"change won {row['wins']}/{row['pairs']}; gain {row['gain']:+.4g} "
            f"({row['gain_frac']:+.1%}) {'exceeds' if row['beyond_iqr'] else 'within'} "
            f"parent IQR {row['parent_iqr']:.4g}")
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
    return parse_result(proc.stdout)


def export(rev: str, into: Path) -> str:
    """Extract the committed files of ``rev`` into ``into``; return its full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="parent revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent, change = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit = export(args.rev, Path(tmp))
        print(f"parent {commit} vs {ROOT}; workload {args.workload}, "
              f"{args.pairs} pairs from seed {args.seed}, {seconds:g} s", flush=True)
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [("parent", Path(tmp), parent), ("change", ROOT, change)]
            for name, checkout, results in (sides if i % 2 == 0 else sides[::-1]):
                results.append(run_benchmark(checkout, args.workload, seed, seconds))
                values = ", ".join(f"{k} {v['value']:.4g}"
                                   for k, v in results[-1]["metrics"].items())
                print(f"pair {i + 1} seed {seed} {name}: {values}, "
                      f"failed {results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
    print(format_rows(summarize(parent, change, better), parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
