"""The four workloads: their inputs, one round of operations, and checks.

A workload writes its instance files once, then repeats whole rounds of the
same operations.  Every operation is one `lipsel` command run in-process
through `lipsel.cli.main` with stdout captured; `load_instance` is called
directly only to time set-up.  Each answer is checked with `checks`, which
shares no code with the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from checks import check_nogo, check_selection, check_witness, seminorm
from gen import DRAW_KINDS, Instance, draw, mixed_draw, planted_halfplanes, planted_polygons
import speed

from lipsel.cli import load_instance, main


@dataclass
class Timing:
    start: float
    end: float
    seconds: float  # end - start less the speed sampler's time in between

    @classmethod
    def of(cls, start: float, spent_before: float) -> "Timing":
        end = time.perf_counter()
        return cls(start, end, end - start - (speed.spent() - spent_before))

    def normalised(self) -> float:
        return speed.current.normalise(self.seconds, self.start, self.end)


@dataclass
class Call:
    code: Optional[int]
    doc: Optional[dict]
    timing: Timing
    error: Optional[str]  # an exception that escaped `main`


def run_cli(argv: List[str]) -> Call:
    out = io.StringIO()
    spent, t0 = speed.spent(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as exc:  # a crash of the program is a failed operation
        return Call(None, None, Timing.of(t0, spent), f"{type(exc).__name__}: {exc}")
    timing = Timing.of(t0, spent)
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        doc = None
    return Call(code, doc, timing, None)


@dataclass
class Op:
    kind: str  # "solve" | "sharp" | "estimate"
    timing: Timing
    outcome: str  # "success" | "no_go" | "feasible" | "infeasible" | "bracket" | "hi_infeasible" | "failed"
    failed: bool = False
    ratio: Optional[float] = None  # seminorm / lambda of a checked success


@dataclass
class Ledger:
    """What a run did: every operation and item, every problem the checks
    found, and every failed operation."""

    ops: List[Op] = field(default_factory=list)
    items: List[Tuple[int, int]] = field(default_factory=list)  # each item's ops[a:b]
    problems: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    certified: List[float] = field(default_factory=list)  # lambda-bisect's ratios

    def problem(self, msg: str) -> None:
        self.problems.append(msg)

    def item(self, start: int) -> None:
        """Close an item: the operations recorded since index `start`."""
        self.items.append((start, len(self.ops)))


def _num(v) -> float:
    return float(v) if isinstance(v, str) else v


def _lam_text(lam) -> str:
    return str(lam) if isinstance(lam, Fraction) else repr(lam)


def solve(led: Ledger, inst: Instance, path: str, lam, anchors_sn=None):
    """`lipsel solve --lambda lam`; returns ("success", f, seminorm) or
    ("no_go", None, None) after checking the answer, or None when the
    operation failed: a crash or an undocumented exit."""
    c = run_cli(["solve", path, "--lambda", _lam_text(lam)])
    what = f"solve {os.path.basename(path)} --lambda {_lam_text(lam)}"
    lam_f = float(lam)

    def fail(msg: str):
        led.ops.append(Op("solve", c.timing, "failed", failed=True))
        led.failures.append(f"{what}: {msg}")
        return None

    if c.error is not None:
        return fail(c.error)
    doc = c.doc or {}
    outcome = doc.get("outcome")
    if c.code == 1 and outcome == "no_go":
        msg = check_nogo(anchors_sn, lam_f)
        if msg is not None:
            led.problem(f"{what}: {msg}")
        led.ops.append(Op("solve", c.timing, "no_go"))
        return ("no_go", None, None)
    if c.code != 0 or outcome != "success":
        return fail(f"exit {c.code} with {doc!r:.200}")
    f = [(_num(x), _num(y)) for x, y in doc["f"]]
    msg, sn = check_selection(inst, f, 3.0 * lam_f)
    if msg is None and _num(doc.get("bound")) != 3.0 * lam_f:
        msg = f"reported bound {doc.get('bound')!r} is not 3*lambda"
    if msg is None and abs(_num(doc.get("seminorm")) - sn) > 1e-9 * max(sn, 1e-300):
        msg = f"reported seminorm {doc.get('seminorm')!r}, recomputed {sn!r}"
    if msg is not None:
        led.problem(f"{what}: {msg}")
    led.ops.append(Op("solve", c.timing, "success", ratio=sn / lam_f))
    return ("success", f, sn)


def sharp(led: Ledger, inst: Instance, path: str, lam: Fraction) -> Optional[bool]:
    """`lipsel sharp --lambda lam`; True/False for feasible/infeasible, with
    a feasible witness checked exactly, or None when the call failed."""
    c = run_cli(["sharp", path, "--lambda", str(lam)])
    what = f"sharp {os.path.basename(path)} --lambda {lam}"
    doc = c.doc or {}
    if c.error is None and c.code == 0 and doc.get("verdict") == "feasible":
        msg = check_witness(inst, lam, doc.get("witness"))
        if msg is not None:
            led.problem(f"{what}: {msg}")
        led.ops.append(Op("sharp", c.timing, "feasible"))
        return True
    if c.error is None and c.code == 1 and doc.get("verdict") == "infeasible":
        led.ops.append(Op("sharp", c.timing, "infeasible"))
        return False
    led.ops.append(Op("sharp", c.timing, "failed", failed=True))
    led.failures.append(f"{what}: {c.error or f'exit {c.code} with {doc!r:.200}'}")
    return None


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.loads: List[Tuple[str, bool, bool]] = []  # (path, want_exact, full_triangle)
        self._count = 0

    def add(self, inst: Instance, tag: str, flags: List[Tuple[bool, bool]]) -> str:
        """Write an instance and register its loads (one per flag set the
        workload's commands use)."""
        path = os.path.join(self.workdir, f"{tag}-{self._count}.json")
        self._count += 1
        inst.write(path)
        self.loads.extend((path, exact, full) for exact, full in flags)
        return path

    def setup(self) -> Timing:
        """load_instance on every input with its commands' flags."""
        spent, t0 = speed.spent(), time.perf_counter()
        for path, exact, full in self.loads:
            load_instance(path, want_exact=exact, full_triangle=full)
        return Timing.of(t0, spent)

    def round(self, led: Ledger) -> None:
        raise NotImplementedError


SOLVE_FLAGS = [(False, False)]  # what `solve` passes to load_instance
ORACLE_FLAGS = [(True, True)]  # what `sharp` and `estimate` pass


class PlantedSolve(Workload):
    """`solve --lambda 2` on planted half-plane instances, n = 800."""

    name = "planted-solve"
    N, INSTANCES, LAM = 800, 2, 2.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inputs = []
        for _ in range(self.INSTANCES):
            inst = self.make()
            self.inputs.append((inst, self.add(inst, self.name, SOLVE_FLAGS), seminorm(inst, inst.anchors)))

    def make(self) -> Instance:
        return planted_halfplanes(self.rng, self.N)

    def round(self, led: Ledger) -> None:
        for inst, path, anchors_sn in self.inputs:
            start = len(led.ops)
            solve(led, inst, path, self.LAM, anchors_sn)
            led.item(start)


class PolygonSolve(PlantedSolve):
    """`solve --lambda 1` on planted polygon instances, n = 100, 4 sides."""

    name = "polygon-solve"
    N, INSTANCES, LAM, SIDES = 100, 4, 1.0, 4

    def make(self) -> Instance:
        return planted_polygons(self.rng, self.N, self.SIDES)


class LambdaBisect(Workload):
    """A fixed-length bisection on lambda through `solve` on one planted
    n = 800 instance.  Its optimum lies just below the anchors' seminorm 1,
    so the bracket [1/8, 1] has a NoGo low end and a Success high end, and
    every midpoint ends NoGo."""

    name = "lambda-bisect"
    N, LO, HI, STEPS = 800, 0.125, 1.0, 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.inst = planted_halfplanes(self.rng, self.N)
        self.path = self.add(self.inst, "bisect", SOLVE_FLAGS)
        self.anchors_sn = seminorm(self.inst, self.inst.anchors)

    def round(self, led: Ledger) -> None:
        inst, path, asn = self.inst, self.path, self.anchors_sn
        start = len(led.ops)
        low = solve(led, inst, path, self.LO, asn)
        high = solve(led, inst, path, self.HI, asn)
        if low is None or high is None:
            return
        if low[0] != "no_go" or high[0] != "success":
            led.problem(f"bisection bracket [{self.LO}, {self.HI}] gave {low[0]} and {high[0]}")
            return
        lo, hi, best = self.LO, self.HI, high[2]
        for _ in range(self.STEPS):
            mid = (lo + hi) / 2
            got = solve(led, inst, path, mid, asn)
            if got is None:
                return
            if got[0] == "success":
                hi, best = mid, got[2]
            else:
                lo = mid
        # NoGo at lo certifies that every selection has seminorm > lo
        ratio = best / lo
        if not 1.0 < ratio <= 3.0 * hi / lo * (1.0 + 1e-7):
            led.problem(f"certified ratio {ratio!r} outside (1, 3*{hi}/{lo}]")
        led.certified.append(ratio)
        led.item(start)


class SmallDichotomy(Workload):
    """Draws in the style of acceptance criterion 1 at n = 1..5, each probed
    with `sharp`, `solve` and `estimate`; plus a fixed set of draws solved
    again with every offset and distance scaled by 2**40 and 2**-40."""

    name = "small-dichotomy"
    DRAWS = 100
    PROBES = (Fraction(1, 4), Fraction(1), Fraction(4), Fraction(16))
    EST_HI, EST_ITERS = Fraction(64), 8
    # The scaled draws do not depend on --seed: while solves are not scale
    # covariant, some of theirs fail every time, and the share of failed
    # operations must not vary from seed to seed.  25 draws of this stream
    # hold all three kinds of failure: a RuntimeError at 2**40 (draw 12),
    # NoGo turned Success at 2**-40 (draw 24), and selections at 2**-40
    # that are not exactly 2**-40 times the unscaled one.
    SCALED_SEED, SCALED_DRAWS, SCALES = "small-dichotomy/scaled", 25, (40, -40)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.draws = []
        # Each size gets the kinds in their exact shares, so the mix, which
        # sets much of a draw's cost, does not change from seed to seed.
        for i in range(self.DRAWS):
            inst = draw(self.rng, 1 + i % 5, DRAW_KINDS[i // 5 % len(DRAW_KINDS)])
            anchors_sn = None if inst.anchors is None else seminorm(inst, inst.anchors)
            path = self.add(inst, "draw", SOLVE_FLAGS + ORACLE_FLAGS)
            self.draws.append((inst, path, anchors_sn))
        fixed = random.Random(self.SCALED_SEED)
        self.scaled = []
        for i in range(self.SCALED_DRAWS):
            inst = mixed_draw(fixed, 1 + i % 5)
            anchors_sn = None if inst.anchors is None else seminorm(inst, inst.anchors)
            copies = [(k, inst.scaled(k)) for k in (0,) + self.SCALES]
            self.scaled.append([(k, s, self.add(s, f"scaled{k}", SOLVE_FLAGS)) for k, s in copies] + [anchors_sn])

    def round(self, led: Ledger) -> None:
        for inst, path, anchors_sn in self.draws:
            start = len(led.ops)
            self._probe(led, inst, path, anchors_sn)
            led.item(start)
        for copies in self.scaled:
            self._scaled(led, copies)

    def _probe(self, led: Ledger, inst: Instance, path: str, anchors_sn) -> None:
        name = os.path.basename(path)
        verdicts = {lam: sharp(led, inst, path, lam) for lam in self.PROBES}
        seen_feasible = False
        for lam in self.PROBES:
            if verdicts[lam] is False and seen_feasible:
                led.problem(f"{name}: sharp is not monotone in lambda at {lam}")
            seen_feasible = seen_feasible or verdicts[lam] is True
        for lam in self.PROBES:
            got = solve(led, inst, path, lam, anchors_sn)
            if got is None or verdicts[lam] is None:
                continue
            if got[0] == "no_go" and verdicts[lam]:
                led.problem(f"{name}: no-go at lambda {lam}, but sharp is feasible there")
        self._estimate(led, inst, path, verdicts)

    def _estimate(self, led: Ledger, inst: Instance, path: str, verdicts) -> None:
        name = os.path.basename(path)
        c = run_cli(["estimate", path, "--hi", str(self.EST_HI), "--iters", str(self.EST_ITERS)])
        doc = c.doc or {}
        if c.error is None and c.code == 4:
            led.ops.append(Op("estimate", c.timing, "hi_infeasible"))
            if sharp(led, inst, path, self.EST_HI) is not False or any(verdicts.values()):
                led.problem(f"{name}: estimate calls --hi {self.EST_HI} infeasible, sharp disagrees")
            return
        if c.error is not None or c.code != 0 or "hi" not in doc:
            led.ops.append(Op("estimate", c.timing, "failed", failed=True))
            led.failures.append(f"estimate {name}: {c.error or f'exit {c.code}'}")
            return
        led.ops.append(Op("estimate", c.timing, "bracket"))
        lo, hi, width = (Fraction(doc[k]) for k in ("lo", "hi", "width"))
        if not (width == hi - lo == self.EST_HI / 2**self.EST_ITERS and 0 <= lo):
            led.problem(f"{name}: estimate bracket [{lo}, {hi}] width {width} is not 64/2^8")
        for lam, feasible in verdicts.items():
            # the optimum lies in [lo, hi]: feasible at lam means opt <= lam
            if feasible is True and lo > lam or feasible is False and hi <= lam:
                led.problem(f"{name}: estimate [{lo}, {hi}] contradicts sharp at {lam}")
        if sharp(led, inst, path, hi) is not True:
            led.problem(f"{name}: estimate's upper end {hi} is not feasible")

    def _scaled(self, led: Ledger, copies) -> None:
        """Solve the unscaled draw, then its scaled copies, which must give
        the same outcome and exactly 2**k times the same selection."""
        (_, base_inst, base_path), *scaled, anchors_sn = copies
        for lam in self.PROBES:
            base = solve(led, base_inst, base_path, lam, anchors_sn)
            for k, _, path in scaled:
                c = run_cli(["solve", path, "--lambda", str(lam)])
                doc = c.doc or {}
                kind = doc.get("outcome") if c.error is None and c.code in (0, 1) else None
                if base is None or kind is None:
                    msg = c.error or f"exit {c.code}"
                elif kind != base[0]:
                    msg = f"{kind} at scale 2^{k}, {base[0]} unscaled"
                elif kind == "success" and [
                    (_num(x), _num(y)) for x, y in doc["f"]
                ] != [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in base[1]]:
                    msg = f"f at scale 2^{k} is not exactly 2^{k} times the unscaled f"
                else:
                    led.ops.append(Op("solve", c.timing, kind))
                    continue
                led.ops.append(Op("solve", c.timing, "failed", failed=True))
                led.failures.append(f"solve {os.path.basename(path)} --lambda {lam}: {msg}")


WORKLOADS = {w.name: w for w in (PlantedSolve, LambdaBisect, PolygonSolve, SmallDichotomy)}
