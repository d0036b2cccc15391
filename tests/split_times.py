"""Time planted solves in one process and split over two, and print a table.

    PYTHONPATH=src python tests/split_times.py
    PYTHONPATH=src python tests/split_times.py --sizes 100 150 200 300 --rounds 15

For each size n it solves `planted_instance(random.Random(5000 + n), n)` at
lambda (2, 2) with `run_projection_algorithm`, alternating a serial run
(`SPLIT_MIN` set above n) and a split run (`SPLIT_MIN` set to 1) for the
given number of rounds, after one untimed run of each.  For each mode it
prints the forks per solve, the median of this process's minor page faults
per solve (`ru_minflt`, so the copy-on-write faults of the process that
forks, not the child's), and the median and quartiles of the wall time per
solve.  The split column holds only where this process may fork onto two
CPUs.  The standard library and the test generators are all it needs;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import planted_instance  # noqa: E402
from lipsel import selection  # noqa: E402


def time_size(n: int, rounds: int):
    """{mode: (forks per solve, minor faults per solve, wall seconds)} at n."""
    inst = planted_instance(random.Random(5000 + n), n)
    fork, forks = os.fork, []

    def counting():
        forks.append(1)
        return fork()

    os.fork = counting
    modes = {"serial": n + 1, "split": 1}
    out = {mode: ([], [], []) for mode in modes}
    try:
        for r in range(rounds + 1):
            for mode, split_min in modes.items():
                selection.SPLIT_MIN = split_min
                del forks[:]
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                selection.run_projection_algorithm(inst, (2.0, 2.0))
                wall = time.perf_counter() - start
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if r:  # the first round warms caches and is not counted
                    for got, v in zip(out[mode], (len(forks), faults, wall)):
                        got.append(v)
    finally:
        os.fork = fork
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 400, 800, 1600])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    print("n  mode  forks  minflt  wall_median_s  wall_q1_s  wall_q3_s")
    for n in args.sizes:
        for mode, (forks, faults, walls) in time_size(n, args.rounds).items():
            q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
            print(
                f"{n}  {mode}  {statistics.mean(forks):g}  {statistics.median(faults):.0f}"
                f"  {statistics.median(walls):.4f}  {q1:.4f}  {q3:.4f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
