"""Time the exact oracle per system at 6 to 10 points and print a table.

    PYTHONPATH=src python tests/oracle_times.py
    PYTHONPATH=src python tests/oracle_times.py --sizes 6 7 8 --draws 12

For each size n it times `build_sharp_lp(draw, 1)` and then `fm_feasible` of
that system, the two steps of one `sharp` call, on the draws of
`random.Random(100 + n)` in the mix of acceptance criterion 1 (45% random
half-planes, 20% with infinite-distance blocks, 35% planted), elimination
under a SIGALRM limit.  It prints the median and the maximum time of each
step (`build_*` and `fm_*`), the number of systems over the limit and the
number found feasible.  Sizes above the
oracle's variable cap are timed with the cap raised in this process only:
the table is the evidence for where the cap can go.  The standard library
and the test generators are all it needs; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import mixed_instance  # noqa: E402
from lipsel import oracle  # noqa: E402


class _OverLimit(Exception):
    pass


def _alarm(signum, frame):
    raise _OverLimit


def time_size(n: int, draws: int, limit: int):
    """Build seconds per system, elimination seconds per system (None when
    over the limit), and the feasible count."""
    rng = random.Random(100 + n)
    builds, times, feasible = [], [], 0
    for _ in range(draws):
        inst = mixed_instance(rng, n)
        start = time.perf_counter()
        system = oracle.build_sharp_lp(inst, 1)
        builds.append(time.perf_counter() - start)
        signal.alarm(limit)
        start = time.perf_counter()
        try:
            feasible += isinstance(oracle.fm_feasible(system), oracle.FmFeasible)
            times.append(time.perf_counter() - start)
        except _OverLimit:
            times.append(None)
        finally:
            signal.alarm(0)
    return builds, times, feasible


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 7, 8, 9, 10])
    parser.add_argument("--draws", type=int, default=20)
    parser.add_argument("--limit", type=int, default=30, help="seconds per system")
    args = parser.parse_args()
    oracle.FM_VAR_CAP = max(oracle.FM_VAR_CAP, 2 * max(args.sizes))
    signal.signal(signal.SIGALRM, _alarm)
    print("n  build_median_s  build_max_s  fm_median_s  fm_max_s  over_limit  feasible")
    for n in args.sizes:
        builds, times, feasible = time_size(n, args.draws, args.limit)
        # a system over the limit counts as slower than any that finished
        ranked = [float("inf") if t is None else t for t in times]
        over = times.count(None)

        def shown(t: float) -> str:
            return f">{args.limit}" if t == float("inf") else f"{t:.4f}"

        median, top = shown(statistics.median(ranked)), shown(max(ranked))
        build = f"{statistics.median(builds):.6f}  {max(builds):.6f}"
        print(f"{n}  {build}  {median}  {top}  {over}  {feasible}", flush=True)


if __name__ == "__main__":
    main()
