"""Smoke test of the benchmark itself, at tiny shapes (16-8-4).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced and asserts that every
metric named in BENCHMARK.json is present with its unit and that no
operation failed. Then it feeds the output checks a reference that is off
by 1e-9 and asserts that operations fail, which shows the checks can
fail. Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must exit non-zero
without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys

import bootstrap


def wrong_reference(params, visible, cfg):
    import checks

    ref = checks.reference_relax(params, visible, cfg)
    return ref._replace(hidden=tuple(h + 1e-9 for h in ref.hidden))


def check_metrics(result: dict, wanted: dict) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"metrics {sorted(set(got) ^ set(wanted))} differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def check_bare_directory(seed: int) -> None:
    import workloads

    bare = workloads.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(bootstrap.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in workloads.HERE.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-single", "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "the benchmark ran without the ffinit sources"
    assert '"metrics"' not in proc.stdout, "the benchmark printed a result without sources"
    shutil.rmtree(bare)


def main() -> int:
    bootstrap.prepare()
    import workloads

    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    seed = 3
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            out = workloads.run(name, seed, 0.2, trace, shape=workloads.TINY)
            result = out["result"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                out["detail"]["problems"]
            check_metrics(result, {m["name"]: m["unit"] for m in bench[kind]})
            print(f"{name} trace={int(trace)}: {result['attempted']} operations, metrics ok")

    for name in ("experiment-paper", "infer-single"):
        out = workloads.run(name, seed, 0.2, False, shape=workloads.TINY,
                            reference=wrong_reference)
        assert out["result"]["failed"] > 0 and out["detail"]["error_frac"] > 0, name
        print(f"{name} with a wrong reference: error_frac {out['detail']['error_frac']:.3g}")

    check_bare_directory(seed)
    print("bare directory: exits non-zero without a result")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
