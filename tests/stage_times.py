"""Time the stages of serial solves, and print a table.

    PYTHONPATH=src python tests/stage_times.py
    PYTHONPATH=src python tests/stage_times.py --rounds 7

It solves three shapes with `run_projection_algorithm` in one process,
serially (`SPLIT_MIN` set to infinity, above any solve's work):

- planted-2: `planted_instance(random.Random(5000 + i), 800)`, i = 0, 1, at
  lambda (2, 2), the shape of the planted-solve benchmark workload;
- planted-1: the same instances at lambda (1, 1);
- polygon: `random_polygon_instance(random.Random(6000 + i), 100, 4)`,
  i = 0..3, at lambda (1, 1), the shape of the polygon-solve workload.

Five functions of `lipsel.selection` are wrapped to add up this process's
CPU time (`time.process_time`) spent inside them: stage 1's row pass
(`_point_rows`), the stage-2 hulls (`_hull_from_rows`), the stage-3 folds
(`_fold`), stage 5 (`step5_project`) and the seminorm's rows
(`_row_ratios`).  For each shape it prints its outcomes, then the CPU time
of its solves and of each of the five, in ms over all its instances, each
the best of the given number of rounds after one untimed round, and last
`kept`: the mean number of rows that `_point_rows` returned per call with
a box (stage 2's outer box), the selectivity of its keep test, over all
rounds.  The solve's time includes the wrappers' own cost, a few
microseconds per call.
Run it with `PYTHONPATH=<checkout>/src` on two checkouts to compare them.
The standard library and the test generators are all it needs; pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import planted_instance, random_polygon_instance  # noqa: E402
from lipsel import selection  # noqa: E402

STAGES = {"rows": "_point_rows", "hulls": "_hull_from_rows", "folds": "_fold", "stage5": "step5_project",
          "seminorm": "_row_ratios"}


def shapes():
    planted = [planted_instance(random.Random(5000 + i), 800) for i in range(2)]
    return {
        "planted-2": (planted, (2.0, 2.0)),
        "planted-1": (planted, (1.0, 1.0)),
        "polygon": ([random_polygon_instance(random.Random(6000 + i), 100, 4) for i in range(4)], (1.0, 1.0)),
    }


def time_round(instances, lambdas):
    """Solve each instance once; return the CPU seconds of the solves and
    their outcomes."""
    outcomes = Counter()
    start = time.process_time()
    for inst in instances:
        got = selection.run_projection_algorithm(inst, lambdas)
        outcomes[f"nogo{got.stage}" if isinstance(got, selection.NoGo) else "success"] += 1
    return time.process_time() - start, outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    spent = dict.fromkeys(STAGES, 0.0)
    originals = {stage: getattr(selection, name) for stage, name in STAGES.items()}

    boxed = [0, 0]  # calls of `_point_rows` with a box, and the rows they returned

    def timed(stage, fn):
        def wrapper(*a, **kw):
            start = time.process_time()
            try:
                got = fn(*a, **kw)
            finally:
                spent[stage] += time.process_time() - start
            if stage == "rows" and (a[3] if len(a) > 3 else kw.get("box")) is not None:
                boxed[0] += 1
                boxed[1] += len(got)
            return got
        return wrapper

    split_min = selection.SPLIT_MIN
    selection.SPLIT_MIN = math.inf
    for stage, name in STAGES.items():
        setattr(selection, name, timed(stage, originals[stage]))
    print("shape  outcomes  solve_ms  " + "  ".join(f"{stage}_ms" for stage in STAGES) + "  kept")
    try:
        for name, (instances, lambdas) in shapes().items():
            best = dict.fromkeys(["solve", *STAGES], math.inf)
            boxed[:] = [0, 0]
            for r in range(args.rounds + 1):
                for stage in STAGES:
                    spent[stage] = 0.0
                solve, outcomes = time_round(instances, lambdas)
                if r:  # the first round warms caches and is not counted
                    for key, v in (("solve", solve), *spent.items()):
                        best[key] = min(best[key], v)
            shown = ",".join(f"{k}:{v}" for k, v in sorted(outcomes.items()))
            kept = f"{boxed[1] / boxed[0]:.1f}" if boxed[0] else "-"
            print(f"{name}  {shown}  " + "  ".join(f"{1000 * v:.1f}" for v in best.values()) + f"  {kept}", flush=True)
    finally:
        selection.SPLIT_MIN = split_min
        for stage, name in STAGES.items():
            setattr(selection, name, originals[stage])


if __name__ == "__main__":
    main()
