"""Rebuild the CLI outcome corpus from fixed seeds and print one line per run.

    PYTHONPATH=src python tests/corpus.py > corpus.txt
    PYTHONPATH=src python tests/corpus.py --fields > fields.txt
    PYTHONPATH=src python tests/corpus.py --against OTHER/src

Each line is one `lipsel` run, made in-process through `lipsel.cli.main`: its
argv (instance and result files by base name), its exit code, and the sha256
of its stdout and of its stderr.  With `--fields` the hashes give way to the
`outcome`, `stage` and `witness` fields of the stdout document, so that runs
whose floats moved by ulps still compare equal.  With `--against OTHER/src`
it builds the corpus here and, at the same time, in a child process that
imports `lipsel` from OTHER/src, prints only the lines that differ (`-` the
other tree's, `+` this one's) and exits 1 if any do, else 0 (2 when the
other tree has no `lipsel` or its run fails).

The corpus: 219 instances, namely 4 planted polygon instances (n = 100,
4 sides), 150 polygon draws (n = 1..8, 1-4 sides, planted and not), 60
half-plane draws (n = 1..8: plain, with infinite-distance blocks, planted),
planted half-plane instances with n = 400, 800 and 150, and two planted
half-plane instances of 6 and 110 points, each with four more points at
infinite distance (`with_gadget`) that stop a solve at --lambda 1 at
stage 3, with witness 6 and 85: past point 3, and in the split solve of
the larger one, in the half of the forked child.  Every instance
is solved at --lambda 1/2, 1, 2, 4 and 1048576 (2^20, where the inflation
l1·ρ·‖h‖₁ of a row dwarfs a point's box) and at --lambda1 1 --lambda2 1/4
(1 and 1 on polygons, which exits 2), with --seed 0 and 977, plain and with
--trace.  Every instance with n <= 100 is validated, and every success of a
plain --seed 0 solve on such an instance is checked with `validate
--result`.  The instances with n <= 4 get `sharp` at λ = 0, 1/2, 1, 2, 4,
and `estimate` with --hi 64 --iters 8, with --hi 64 at the default --iters
20 (the deepest brackets), with --lo 1/3 --hi 5 --iters 6 and with --hi
1/1024 (exit 4 where that --hi is infeasible or that --lo is feasible):
7,399 runs in all, 432 of them `estimate`.
The standard library and the test generators are all it needs; pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from generators import (  # noqa: E402
    instance_doc,
    planted_instance,
    polygon_doc,
    random_instance,
    random_polygon_instance,
)
from lipsel.cli import main  # noqa: E402
from lipsel.geometry import HalfPlane, halfplane  # noqa: E402
from lipsel.metric import PseudometricSpace  # noqa: E402
from lipsel.selection import HalfPlaneInstance  # noqa: E402

INF = float("inf")

LAMBDAS = ("1/2", "1", "2", "4", "1048576")
SEEDS = ("0", "977")
SHARP_LAMBDAS = ("0", "1/2", "1", "2", "4")
ESTIMATES = (
    ["--hi", "64", "--iters", "8"],
    ["--hi", "64"],
    ["--lo", "1/3", "--hi", "5", "--iters", "6"],
    ["--hi", "1/1024"],
)


def instances():
    """(name, kind, instance) for the 219 instances, in a fixed order."""
    rng = random.Random("corpus/bench-polygons")
    for k in range(4):
        yield f"bench-polygon-{k}", "polygons", random_polygon_instance(rng, 100, 4)
    rng = random.Random("corpus/polygons")
    for k in range(150):
        n, sides = 1 + k % 8, 1 + k // 8 % 4
        inst = random_polygon_instance(rng, n, sides, planted=k % 3 != 2)
        yield f"polygon-{k}", "polygons", inst
    rng = random.Random("corpus/halfplanes")
    for k in range(60):
        n, kind = 1 + k % 8, ("plain", "blocks", "planted")[k // 8 % 3]
        if kind == "planted":
            inst = planted_instance(rng, n)
        else:
            inst = random_instance(rng, n, inf_blocks=kind == "blocks")
        yield f"halfplane-{k}", "halfplanes", inst
    for n in (400, 800):
        yield f"planted-{n}", "halfplanes", planted_instance(random.Random(f"corpus/planted/{n}"), n)
    yield "planted-150", "halfplanes", planted_instance(random.Random("corpus/planted/150"), 150)
    for n, at in ((6, (4, 6, 7, 9)), (110, (70, 85, 100, 112))):
        base = planted_instance(random.Random(f"corpus/gadget/{n}"), n)
        yield f"gadget-{n + 4}", "halfplanes", with_gadget(base, at)


# four points whose solve at --lambda 1 stops at stage 3 with witness 1 (a
# `random_instance` draw): their half-planes (h1, h2, alpha) and distances
GADGET_PLANES = [(1.0, 0.0, 7.5), (-1.0, 1.0, 0.375), (2.0, 4.0, 3.875), (-4.0, -3.0, -4.25)]
GADGET_D = [[0.0, 5.5, 3.625, 5.25], [5.5, 0.0, 2.75, 2.125], [3.625, 2.75, 0.0, 1.625], [5.25, 2.125, 1.625, 0.0]]


def with_gadget(inst, at):
    """The half-plane instance `inst` with the four GADGET points put at
    the ascending positions `at`, at infinite distance from inst's points.
    Where inst's own solve passes stage 3, the NoGo comes at at[1]."""
    n = inst.n + len(at)
    rest = [x for x in range(n) if x not in at]
    d = [[INF] * n for _ in range(n)]
    planes = [None] * n
    for part, rows, sides in ((rest, inst.space.d, inst.planes), (at, GADGET_D, GADGET_PLANES)):
        for x, row, side in zip(part, rows, sides):
            planes[x] = side if isinstance(side, HalfPlane) else halfplane(*side)
            for y, v in zip(part, row):
                d[x][y] = v
    return HalfPlaneInstance(PseudometricSpace(n, d), planes)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report(argv, code, out, err, fields, workdir):
    """The corpus line of one run."""
    shown = " ".join(os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in argv)
    if fields:
        try:
            doc = json.loads(out)
        except ValueError:
            doc = {}
        if not isinstance(doc, dict):
            doc = {}
        tail = json.dumps([doc.get("outcome"), doc.get("stage"), doc.get("witness")], sort_keys=True)
    else:
        tail = " ".join(hashlib.sha256(s.encode()).hexdigest()[:16] for s in (out, err))
    return f"{shown} | {code} | {tail}"


def main_corpus(fields: bool, workdir: str):
    """The corpus lines, one per run, in a fixed order."""
    for name, kind, inst in instances():
        path = os.path.join(workdir, f"{name}.json")
        doc = polygon_doc(inst) if kind == "polygons" else instance_doc(inst)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        split = ("1", "1") if kind == "polygons" else ("1", "1/4")
        configs = [["--lambda", lam] for lam in LAMBDAS] + [["--lambda1", split[0], "--lambda2", split[1]]]
        for config in configs:
            for seed in SEEDS:
                for trace in ([], ["--trace"]):
                    argv = ["solve", path, *config, "--seed", seed, *trace]
                    code, out, err = run(argv)
                    yield report(argv, code, out, err, fields, workdir)
                    if code == 0 and seed == "0" and not trace and inst.n <= 100:
                        base = f"{name}-result{''.join(config)}.json".replace("/", "_")
                        result = os.path.join(workdir, base)
                        with open(result, "w", encoding="utf-8") as fh:
                            fh.write(out)
                        argv = ["validate", path, "--result", result]
                        yield report(argv, *run(argv), fields, workdir)
        if inst.n <= 100:
            argv = ["validate", path]
            yield report(argv, *run(argv), fields, workdir)
        if inst.n <= 4:
            for lam in SHARP_LAMBDAS:
                argv = ["sharp", path, "--lambda", lam]
                yield report(argv, *run(argv), fields, workdir)
            for flags in ESTIMATES:
                argv = ["estimate", path, *flags]
                yield report(argv, *run(argv), fields, workdir)


def against(other: str, fields: bool) -> int:
    """Print the lines where the corpus of the `lipsel` under `other`
    differs from this one's; 1 if any do, else 0, and 2 on a failure."""
    if not os.path.isfile(os.path.join(other, "lipsel", "cli.py")):
        print(f"corpus: no lipsel package under {other}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [other, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, os.path.abspath(__file__)] + (["--fields"] if fields else [])
    with tempfile.TemporaryFile("w+", encoding="utf-8") as theirs:
        child = subprocess.Popen(argv, stdout=theirs, env=env)
        try:
            with tempfile.TemporaryDirectory(prefix="lipsel-corpus-") as tmp:
                ours = list(main_corpus(fields, tmp))
        finally:
            code = child.wait()
        if code != 0:
            print(f"corpus: the run on {other} exited {code}", file=sys.stderr)
            return 2
        theirs.seek(0)
        differ = 0
        for old, new in itertools.zip_longest(theirs.read().splitlines(), ours):
            if old != new:
                differ += 1
                print(f"- {old}" if old is not None else "- (no line)")
                print(f"+ {new}" if new is not None else "+ (no line)")
    print(f"corpus: {differ} of {len(ours)} lines differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fields", action="store_true", help="print outcome, stage and witness instead of hashes")
    parser.add_argument("--against", metavar="OTHER/src", help="print only the lines that differ from the corpus of the lipsel under OTHER/src")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against, args.fields))
    with tempfile.TemporaryDirectory(prefix="lipsel-corpus-") as tmp:
        for line in main_corpus(args.fields, tmp):
            print(line, flush=True)
