"""Process set-up shared by the benchmark's entry points.

Call :func:`prepare` before numpy is imported: it caps the BLAS thread
pools at the number of usable CPUs and puts the checkout's ``src`` first
on ``sys.path``, so the benchmark always measures the source next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout around the benchmark holds no ``src/ffinit`` package."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    if not (SRC / "ffinit" / "__init__.py").is_file():
        raise MissingSource(f"no ffinit package under {SRC}; run from a full checkout")
    cap = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cap):
            os.environ[var] = str(cap)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
