"""Write the infer-single checkpoint: ``ae-gradient`` weights trained on the
workload's dataset, saved with ``save_params``.

Usage: make_fixture.py <shape> <seed> <checkpoint>

It runs in a process of its own, so that the training and the save leave
no trace in the memory peak or the warm caches of the measured process.
"""

import sys
from pathlib import Path

import bootstrap


def main(argv: list[str]) -> int:
    shape, seed, checkpoint = argv
    bootstrap.prepare()
    import workloads

    workloads.write_fixture(workloads.SHAPES[shape], int(seed), Path(checkpoint))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
