"""Benchmark of the lipsel solver, standard library only.

    python3 bench/run.py --workload planted-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in one child process (no extra threads).  The child
writes its instances under bench/runs/, times set-up, then repeats whole
rounds of the workload's operations until --seconds have passed and checks
every answer.  End-to-end times are normalised to the machine's speed while
each call ran (bench/speed.py); the wall times are printed beside them.
With --trace 1 it alternates an untraced round and a traced round instead
and reports per-layer numbers (wall times) plus the tracing overhead.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  Raw
per-run output goes to bench/runs/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = os.path.join(BENCH, "runs")
WORKLOAD_NAMES = ("planted-solve", "lambda-bisect", "polygon-solve", "small-dichotomy")
# set-up is repeated at least 3 times and until it has taken 1 s, at most 50
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 50
CHILD_TIMEOUT_S = 170

# end-to-end metrics, printed by every untraced run (peak_rss_mb is added by
# the parent, which sees the child's resource usage)
E2E_UNITS = {
    "solve_s": "s",
    "item_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "seminorm_over_lambda": "ratio",
}
# quantities only some workloads have, printed but not part of the result
EXTRA_UNITS = {
    "wall_solve_s": "s",
    "wall_item_s": "s",
    "wall_setup_s": "s",
    "loop_ms": "ms",
    "nogo_s": "s",
    "certified_ratio": "ratio",
    "sharp_per_s": "calls/s",
    "estimate_per_s": "calls/s",
}


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program() -> None:
    """Import lipsel from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lipsel", "cli.py")):
        sys.exit(f"bench: no program at {os.path.join(src, 'lipsel')}")
    sys.path.insert(0, src)
    import lipsel

    if not os.path.abspath(lipsel.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported lipsel from {lipsel.__file__}, not from {src}")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _best(rounds, time_of):
    """Each position's best time over the rounds, which repeat the same
    deterministic operations, so their times differ only by noise."""
    return [min(ts) for ts in zip(*([time_of(x) for x in r] for r in rounds))]


def _untraced(w, led, seconds: int):
    """Time set-up, then whole rounds, with the speed sampler running;
    returns (metrics, info)."""
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(t.seconds for t in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        setups.append(w.setup())
    t0 = time.perf_counter()
    rounds = []  # (operations, item spans) of each round
    while not rounds or time.perf_counter() - t0 < seconds:
        ops, items = len(led.ops), len(led.items)
        w.round(led)
        rounds.append((led.ops[ops:], led.items[items:]))

    def normalised(t):
        return t.normalised()

    def wall(t):
        return t.seconds

    def best_ops(of):
        return _best([ops for ops, _ in rounds], lambda op: of(op.timing))

    def best_items(of):
        spans = [items for _, items in rounds]
        return _best(spans, lambda span: sum(of(op.timing) for op in led.ops[span[0]:span[1]]))

    best, best_wall = best_ops(normalised), best_ops(wall)
    first = [(op, t, tw) for op, t, tw in zip(rounds[0][0], best, best_wall) if not op.failed]
    solves = [(t, tw) for op, t, tw in first if op.kind == "solve"]
    ratios = [op.ratio for op in led.ops if op.ratio is not None]
    metrics = {
        "solve_s": _median([t for t, _ in solves]),
        "item_s": _median(best_items(normalised)),
        "setup_s": _median([normalised(t) for t in setups]),
        "seminorm_over_lambda": statistics.mean(ratios) if ratios else 0.0,
    }
    info = {}
    nogo = [t for op, t, _ in first if op.outcome == "no_go"]
    if nogo:
        info["nogo_s"] = _median(nogo)
    if led.certified:
        info["certified_ratio"] = _median(led.certified)
    for kind in ("sharp", "estimate"):
        secs = [t for op, t, _ in first if op.kind == kind]
        if secs:
            info[f"{kind}_per_s"] = len(secs) / sum(secs)
    info["wall_solve_s"] = _median([tw for _, tw in solves])
    info["wall_item_s"] = _median(best_items(wall))
    info["wall_setup_s"] = _median([t.seconds for t in setups])
    info["loop_ms"] = 1e3 * _median(speed.current.loops)
    info["speed_samples"] = len(speed.current.loops)
    info["rounds"], info["setup_repeats"] = len(rounds), len(setups)
    info["solve_slots"] = len(solves)
    info["item_slots"] = len(rounds[0][1])
    return metrics, info


def _traced(w, led, seconds: int):
    """Alternate an untraced and a traced round; returns (metrics, info)."""
    from layers import UNITS, Tracer

    def one_round() -> float:
        start = len(led.ops)
        w.round(led)
        return sum(op.timing.seconds for op in led.ops[start:])

    t0 = time.perf_counter()
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(one_round())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(one_round())
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_values())
    metrics, info = {}, {"absent": tracer.absent, "pairs": len(traced)}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = values[0] if UNITS[name] in ("count", "ratio") else _median(values)
        if UNITS[name] == "count" and len(set(values)) > 1:
            info.setdefault("unsteady_counts", []).append(name)
    base = _median(plain)
    metrics["trace.overhead_pct"] = 100.0 * (_median(traced) - base) / base
    metrics["trace.absent"] = float(len(tracer.absent))
    return metrics, info


def _measure(w, args) -> dict:
    from workloads import Ledger

    led = Ledger()
    t0 = time.perf_counter()
    if args.trace:
        metrics, info = _traced(w, led, args.seconds)
    else:
        speed.current = speed.Sampler()
        speed.current.install()
        try:
            metrics, info = _untraced(w, led, args.seconds)
        finally:
            speed.current.uninstall()
    info["elapsed_s"] = time.perf_counter() - t0
    return {
        "correct": not led.problems,
        "attempted": len(led.ops),
        "failed": sum(1 for op in led.ops if op.failed),
        "metrics": metrics,
        "info": info,
        "problems": led.problems[:50],
        "failures": led.failures[:50],
    }


def child(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        w = WORKLOADS[args.workload](args.seed, workdir)
        gen_s = time.perf_counter() - t0
        res = _measure(w, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["info"]["generate_s"] = gen_s
    raw = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps(res))
    return 0


def run_one(args) -> int:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"bench: {args.workload} child exited with status {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    units = E2E_UNITS
    if args.trace:
        from layers import UNITS as units
    else:
        res["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{tag} attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for name in units:
        print(f"{tag} {name} = {res['metrics'][name]:.6g} {units[name]}")
    for name, value in res["info"].items():
        unit = EXTRA_UNITS.get(name, "")
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{tag} {name} = {shown} {unit}".rstrip())
    for msg in res["problems"]:
        print(f"{tag} PROBLEM {msg}", file=sys.stderr)
    for msg in res["failures"][:5]:
        print(f"{tag} failed: {msg}", file=sys.stderr)
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.child:
        return child(args)
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOAD_NAMES:
        args.workload = name
        sub = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        status = status or sub.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
