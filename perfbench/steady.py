"""Check that the benchmark is steady: two independent sets of runs agree.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

It runs two sets, A and B. Each set runs every chosen workload ``--runs``
times at BENCHMARK.json's ``run_seconds``, each time with a new seed (set A
uses seeds 1.., set B seeds 1001..), one run after another. For every
end-to-end metric it prints both medians, each set's quartile spread as a
share of its median, and whether the sets agree within the bound in
BENCHMARK.json: each spread within the bound, and set B's median not worse
than set A's by more than the bound. A spread above a third of the bound is
flagged as ``wide``. Raw results of both sets go to
``perfbench/.work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = {"A": 1, "B": 1001}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr}")
    *_, detail, result = out.stdout.splitlines()
    return {**json.loads(result), **json.loads(detail)}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and the quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    names = args.workload or [w["name"] for w in bench["workloads"]]

    raw: dict = {}
    for set_name in SET_SEEDS:
        for name in names:
            for i in range(args.runs):
                seed = SET_SEEDS[set_name] + i
                result = one_run(name, seed, bench["run_seconds"])
                raw.setdefault(name, {}).setdefault(set_name, []).append(result)
                values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
                print(f"set {set_name} {name} seed {seed}: failed {result['failed']}/"
                      f"{result['attempted']} {values}", flush=True)
    (HERE / ".work").mkdir(exist_ok=True)
    (HERE / ".work" / "steady.json").write_text(json.dumps(raw, indent=1) + "\n")

    ok = True
    for name in names:
        print(f"\n{name}")
        for metric in bench["end_to_end"]:
            row, bound = [], metric["bound"]
            meds = {}
            for set_name, results in raw[name].items():
                med, sp = spread([r["metrics"][metric["name"]]["value"] for r in results])
                meds[set_name] = med
                flag = " TOO WIDE" if sp > bound else (" wide" if sp > bound / 3 else "")
                ok &= sp <= bound
                row.append(f"{set_name}: median {med:.6g} spread {sp:.3f}{flag}")
            drift = worse_by(metric, meds["A"], meds["B"])
            agree = drift <= bound
            ok &= agree
            row.append(f"B worse by {drift:+.3f} of A ({'ok' if agree else 'DISAGREE'})")
            print(f"  {metric['name']:12s} bound {bound}: " + " | ".join(row))
        failed = sum(r["failed"] for results in raw[name].values() for r in results)
        ok &= failed == 0
        print(f"  failed operations: {failed}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
