"""Time `load_instance` on the input shapes of the benchmark workloads, and
print a table.

    PYTHONPATH=src python tests/load_times.py
    PYTHONPATH=src python tests/load_times.py --rounds 15

It writes four sets of instance files, as the benchmark writes its inputs
(floats, infinite distances as "inf"), to a temporary directory:

- planted: `planted_instance(random.Random(5000 + i), 800)`, i = 0, 1,
  loaded as `solve` loads them (floats, no triangle check);
- inf-blocks: `random_instance(random.Random(8000 + i), 800,
  inf_blocks=True)`, i = 0, 1, whose rows mix floats with "inf", loaded as
  `solve` loads them;
- polygon: `random_polygon_instance(random.Random(6000 + i), 100, 4)`,
  i = 0..3, loaded as `solve` loads them;
- draws: `mixed_instance(random.Random(7000 + i), 1 + i % 5)`, i = 0..99,
  each loaded as `solve` loads it and as `sharp` and `estimate` load it
  (exact numbers, full triangle check).

For each set it prints the number of loads, the CPU time per load
(`time.process_time`, the best of the given number of rounds) of reading
and decoding a file with `json.load` alone and of `load_instance`, the
cyclic garbage collector's collections and milliseconds (wall time, from
`gc.callbacks`) per `load_instance` call, averaged over all rounds, and
the share of matrix rows and of sides whose numbers are all plain JSON
numbers (`int` or `float`; finite, with a nonzero normal, for a side): the
ones that can skip the per-entry parse.  Run it with `PYTHONPATH=<checkout>/src`
on two checkouts to compare them.  The standard library and the test
generators are all it needs; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import (  # noqa: E402
    instance_doc,
    mixed_instance,
    planted_instance,
    polygon_doc,
    random_instance,
    random_polygon_instance,
)
from lipsel.cli import load_instance  # noqa: E402

SOLVE = (False, False)  # (want_exact, full_triangle) of `solve`
ORACLE = (True, True)  # of `sharp` and `estimate`

SHAPES = {
    "planted": (lambda: [instance_doc(planted_instance(random.Random(5000 + i), 800)) for i in range(2)], [SOLVE]),
    "inf-blocks": (lambda: [instance_doc(random_instance(random.Random(8000 + i), 800, inf_blocks=True))
                            for i in range(2)], [SOLVE]),
    "polygon": (lambda: [polygon_doc(random_polygon_instance(random.Random(6000 + i), 100, 4)) for i in range(4)],
                [SOLVE]),
    "draws": (lambda: [instance_doc(mixed_instance(random.Random(7000 + i), 1 + i % 5)) for i in range(100)],
              [SOLVE, ORACLE]),
}


def _plain(v) -> bool:
    return type(v) in (int, float)


def plain_shares(docs):
    """(plain rows / rows, plain sides / sides) over the documents."""
    rows = sides = plain_rows = plain_sides = 0
    for doc in docs:
        for row in doc["metric"]["matrix"]:
            rows += 1
            plain_rows += all(map(_plain, row))
        found = doc["sets"]
        polys = found["polygons"] if "polygons" in found else [[hp] for hp in found["halfplanes"]]
        for side in (hp for poly in polys for hp in poly):
            nums = (*side["h"], side["alpha"])
            sides += 1
            plain_sides += all(map(_plain, nums)) and all(map(math.isfinite, nums)) and any(side["h"])
    return plain_rows / rows, plain_sides / sides


def best_time(fn, rounds: int) -> float:
    best = math.inf
    for _ in range(rounds):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


class GcClock:
    """Counts the cyclic garbage collector's collections and their wall
    time while it is installed in `gc.callbacks`."""

    def __init__(self) -> None:
        self.collections, self.seconds, self.started = 0, 0.0, 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self.started

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    print("shape  loads  json_ms  load_ms  gc_per_load  gc_ms_per_load  plain_rows  plain_sides")
    with tempfile.TemporaryDirectory(prefix="lipsel-loads-") as tmp:
        for name, (make, flags) in SHAPES.items():
            docs = make()
            paths = []
            for k, doc in enumerate(docs):
                paths.append(os.path.join(tmp, f"{name}-{k}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            loads = [(path, exact, full) for path in paths for exact, full in flags]

            def decode():
                for path, _, _ in loads:
                    with open(path, "r", encoding="utf-8") as fh:
                        json.load(fh)

            def load():
                for path, exact, full in loads:
                    load_instance(path, want_exact=exact, full_triangle=full)

            json_ms = 1000 * best_time(decode, args.rounds) / len(loads)
            with GcClock() as clock:
                load_ms = 1000 * best_time(load, args.rounds) / len(loads)
            calls = args.rounds * len(loads)
            gc_n, gc_ms = clock.collections / calls, 1000 * clock.seconds / calls
            rows, sides = plain_shares(docs)
            times = f"{json_ms:.3f}  {load_ms:.3f}  {gc_n:.2f}  {gc_ms:.3f}"
            print(f"{name}  {len(loads)}  {times}  {rows:.0%}  {sides:.0%}", flush=True)


if __name__ == "__main__":
    main()
