"""Time one fresh-process set-up of a workload: import ffinit, make the
dataset and, for infer-single, load the checkpoint.

Usage: setup_child.py <n_items> <n_visible> <n_clusters> <spread> <seed> <checkpoint or ""> <t0>

``t0`` is the parent's ``time.monotonic()`` just before it started this
process; the printed ``ready_s`` is the time from then until set-up ended.
The parent puts the checkout's ``src`` on ``PYTHONPATH`` and caps the BLAS
threads, so this process imports nothing of the benchmark's own.
"""

import sys
import time

from ffinit import data


def main(argv: list[str]) -> int:
    n_items, n_visible, n_clusters, spread, seed, checkpoint, t0 = argv
    data.synth_blobs(int(n_items), int(n_visible), int(n_clusters), float(spread), int(seed))
    if checkpoint:
        data.load_params(checkpoint)
    print(f'{{"ready_s": {time.monotonic() - float(t0)!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
