"""Set-up step of one benchmark run, in a process of its own: import graphcp,
generate a workload bundle of ``--n`` nodes from the seed and save it.  Prints
the seconds those three steps took.

    python3 perfbench/setup_bundle.py --n 5000 --seed 1 --out DIR

Interpreter start-up and the numpy import come before the clock starts: no
graphcp change can move them, and they are more than half of a 4000-node
set-up's wall time.
"""

import argparse
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before timing on purpose)

from workloads import import_graphcp, make_bundle_files


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    t = time.perf_counter()
    make_bundle_files(import_graphcp(), args.n, args.seed, args.out)
    print(time.perf_counter() - t)


if __name__ == "__main__":
    main()
