"""The benchmark's own smoke test must keep passing against this package.

``perfbench`` reaches into the package by module attribute (its tracer
wraps names such as ``ffinit.inference.relax``) and checks outputs
against its own reference sweep, so an API change here can break it
without any other test noticing. Runs ``perfbench/smoke.py`` (tiny
16-8-4 shapes, about 20 s on two cores) and requires exit code 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
