"""Time stage 2's hull routine on the row sets that real solves hull, and
building each instance's angular order, and print a table.

    PYTHONPATH=src python tests/hull_times.py
    PYTHONPATH=src python tests/hull_times.py --rounds 15

It solves two planted half-plane instances with n = 800 at lambda (2, 2)
(`planted_instance(random.Random(5000 + i), 800)`, i = 0, 1) and four planted
polygon instances with n = 100 and 4 sides at lambda (1, 1)
(`random_polygon_instance(random.Random(6000 + i), 100, 4)`, i = 0..3), the
shapes of the planted-solve and polygon-solve benchmark workloads, in one
process (`SPLIT_MIN` set to infinity, above any solve's work), and keeps
every row set that stage 2 passes to `selection._hull_from_rows`, with the
arguments that come with it (a tree whose stage 2 converts rows from its
instance's exact normals passes those).  Then it times `_hull_from_rows`
over each workload's row sets, and building the angular order of each of its
instances (`PolygonInstance.rank` and `.by_angle` on a fresh copy), as this
process's CPU time (`time.process_time`), the best of the given number of
rounds.  A tree without a per-instance order prints "-" for it.  Run it
with `PYTHONPATH=<checkout>/src` on two checkouts to compare them.  The
standard library and the test generators are all it needs; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import planted_instance, random_polygon_instance  # noqa: E402
from lipsel import selection  # noqa: E402

WORKLOADS = {
    "planted": ([planted_instance(random.Random(5000 + i), 800) for i in range(2)], (2.0, 2.0)),
    "polygon": ([random_polygon_instance(random.Random(6000 + i), 100, 4) for i in range(4)], (1.0, 1.0)),
}


def captured_rows(instances, lambdas):
    """Every row set that stage 2 hulls in one serial solve of each
    instance, with the other arguments of its call."""
    hull, out = selection._hull_from_rows, []

    def keep(rows, *args):
        out.append((list(rows), *args))
        return hull(rows, *args)

    split_min = selection.SPLIT_MIN
    selection._hull_from_rows, selection.SPLIT_MIN = keep, math.inf
    try:
        for inst in instances:
            selection.run_projection_algorithm(inst, lambdas)
    finally:
        selection._hull_from_rows, selection.SPLIT_MIN = hull, split_min
    return out


def best_hull_time(sets, rounds: int) -> float:
    """The least CPU time of `_hull_from_rows` over all the row sets."""
    hull, best = selection._hull_from_rows, float("inf")
    for _ in range(rounds):
        start = time.process_time()
        for args in sets:
            hull(*args)
        best = min(best, time.process_time() - start)
    return best


def best_order_time(instances, rounds: int) -> float:
    """The least CPU time of building the angular order of fresh copies of
    the instances, whose `sides` and `offsets` are made beforehand, as in a
    solve."""
    best = float("inf")
    for _ in range(rounds):
        fresh = [selection.PolygonInstance(inst.space, inst.polygons) for inst in instances]
        for inst in fresh:
            inst.sides, inst.offsets
        start = time.process_time()
        for inst in fresh:
            inst.rank, inst.by_angle
        best = min(best, time.process_time() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    has_order = hasattr(selection.PolygonInstance, "rank")
    print("workload  row_sets  rows  hull_ms  order_ms")
    for name, (instances, lambdas) in WORKLOADS.items():
        sets = captured_rows(instances, lambdas)
        hull_ms = 1000 * best_hull_time(sets, args.rounds)
        order = f"{1000 * best_order_time(instances, args.rounds):.2f}" if has_order else "-"
        print(f"{name}  {len(sets)}  {sum(len(args[0]) for args in sets)}  {hull_ms:.2f}  {order}", flush=True)


if __name__ == "__main__":
    main()
