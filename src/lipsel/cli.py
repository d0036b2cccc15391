"""Command-line front end: validate / solve / sharp / estimate.

Instance files are JSON documents:

    {
      "n": 2,
      "metric": {"matrix": [[0, 1], [1, 0]]},          # or "pre_metric"
      "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0.0}, ...]}
                                                        # or "polygons"
    }

Numeric values may be JSON numbers or the strings "inf", "-inf", a decimal
like "0.1", or a ratio like "1/3"; string forms are parsed exactly.  The
exact instance of the `sharp`/`estimate` commands holds each JSON number as
read, since an int or a float is already an exact rational, and each string
as a `Fraction`.  A "pre_metric" is closed to its shortest-path pseudometric
before solving, in `Fraction`s for the exact instance.

Result documents are emitted with 17 significant digits and fixed key order,
and no step draws random numbers, so reruns print byte-identical output;
`solve --seed` is accepted and ignored.  Exit codes: 0 success / feasible /
valid, 1 no-go / infeasible / failed verification, 2 parse or flag errors
(including oracle caps, checked as soon as `n` is read), 3 metric axiom
violations, 4 an infeasible --hi or a feasible --lo in `estimate`, 5
internal error: the traceback goes to stderr and stdout carries
{"outcome": "error", "reason": "<Type>: <message>"}.  A reader that
closes stdout early gets 141 (128 + SIGPIPE) and nothing more.  `main` may be
called repeatedly in one process: it builds its parser on the first call only.

Loading reads each number once: a matrix row's plain JSON numbers and "inf"
tokens, and a side of plain numbers, skip the per-entry parse, and one pass
accepts a clean matrix.  Only other input takes the per-entry parse and the
checks that name its first fault.  Commands, loads and solves pause the
cyclic garbage collector (`metric.gc_paused`), which would walk the matrix
at each collection; loads and solves make no cycles for it to free.

`validate` re-checks the full triangle inequality (O(n^3)), with a slack of
2^-40 times each sum d[i][k] + d[k][j]; `solve` trusts it and checks only
shape, diagonal, and symmetry, keeping the solve path at the solver's own
quadratic growth.  Only when the solver's own verification of a
selection fails does `solve` check the triangle inequality of a "matrix", and
a violation then exits 3 with the document `validate` prints.

Both kinds of "sets" load into one `PolygonInstance`, half-planes as
one-sided polygons, so every command makes the same library call for both.
The kind matters only to the CLI contract: polygon instances take a single
`--lambda`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not
from typing import Any, List, Optional, Tuple

from lipsel.geometry import ExtRect, HalfPlane, Point2, halfplane
from lipsel.metric import (
    MetricViolation,
    PreMetric,
    PseudometricSpace,
    gc_paused,
    intrinsic_metric,
    validate_premetric,
    validate_pseudometric,
)
from lipsel.oracle import FM_VAR_CAP, FmFeasible, FmInfeasible, build_sharp_lp, estimate_min_seminorm, fm_feasible
from lipsel.selection import (
    NoGo,
    PolygonInstance,
    Success,
    run_projection_algorithm,
    verify_selection,
)

# the sharp system has two variables per point
SHARP_POINT_CAP = FM_VAR_CAP // 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# numbers and serialization


def _parse_number(
    tok: Any, what: str, allow_inf: bool, want_exact: bool
) -> Tuple[float, Any]:
    """(float value, exact rational or None).  The rational is only given
    when `want_exact` and the value is finite: a JSON number as read, a
    string as a `Fraction`."""
    if isinstance(tok, bool):
        raise CliError(2, f"{what}: expected a number, got a boolean")
    if isinstance(tok, (int, float)):
        try:
            val = float(tok)
        except OverflowError:
            raise CliError(2, f"{what}: number out of float range")
        if math.isnan(val):
            raise CliError(2, f"{what}: NaN is not allowed")
        if math.isinf(val):
            if not allow_inf:
                raise CliError(2, f"{what}: must be finite")
            return val, None
        return val, (tok if want_exact else None)
    if isinstance(tok, str):
        s = tok.strip()
        if s in ("inf", "+inf"):
            if not allow_inf:
                raise CliError(2, f"{what}: must be finite")
            return math.inf, None
        if s == "-inf":
            if not allow_inf:
                raise CliError(2, f"{what}: must be finite")
            return -math.inf, None
        try:
            fr = Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise CliError(2, f"{what}: cannot parse number {tok!r}")
        try:
            return float(fr), (fr if want_exact else None)
        except OverflowError:
            raise CliError(2, f"{what}: number out of float range")
    raise CliError(2, f"{what}: expected a number, got {type(tok).__name__}")


def _fmt_float(x: float) -> str:
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(x, ".17g")


def emit(obj: Any) -> str:
    """Deterministic JSON text: dict order preserved, floats at 17 significant
    digits, infinities as quoted sentinels, Fractions as 'p/q' strings."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Point2):
        return emit([obj.x1, obj.x2])
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {emit(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _rect_doc(r: ExtRect) -> dict:
    return {"x": [r.ix.lo, r.ix.hi], "y": [r.iy.lo, r.iy.hi]}


# ---------------------------------------------------------------------------
# instance loading


@dataclass
class LoadedInstance:
    n: int
    metric_kind: str  # "matrix" | "pre_metric"
    kind: str  # "halfplanes" | "polygons"
    inst: Optional[PolygonInstance]  # exact numbers when want_exact, else floats; None on violation
    violation: Optional[MetricViolation]


def _expect_dict(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise CliError(2, f"{what} must be an object")
    return obj


def _exactly_one(d: dict, keys: Tuple[str, str], what: str) -> str:
    present = [k for k in keys if k in d]
    if len(present) != 1:
        raise CliError(2, f"{what} must contain exactly one of {keys}")
    return present[0]


# JSON numbers as `json` decodes them; bool is a subclass of int, not listed
_PLAIN_NUMBER_TYPES = {int, float}


def _parse_matrix(
    raw: Any, n: int, what: str, want_exact: bool
) -> Tuple[List[List[float]], List[List[Any]]]:
    """Float rows, and exact ones when `want_exact`.  Plain JSON numbers
    and "inf" skip the per-entry parse, and a row of numbers is its own
    exact row; `_raise_first_nan` names a NaN among them first, as that
    parse would, when a validator or a later entry raises."""
    if not isinstance(raw, list) or len(raw) != n:
        raise CliError(2, f"{what} must be an {n}x{n} array")
    floats: List[List[float]] = []
    exacts: List[List[Any]] = []
    plain = float if float in _PLAIN_NUMBER_TYPES else None  # an empty set turns the skips off
    try:
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise CliError(2, f"{what} row {i} must have {n} entries")
            types = list(map(type, row))
            if types.count(plain) == n:
                floats.append(row)
                exacts.append(row)
                continue
            if set(types) <= _PLAIN_NUMBER_TYPES:
                try:
                    floats.append(list(map(float, row)))
                    exacts.append(row)
                    continue
                except OverflowError:  # reported by _parse_number below
                    pass
            frow, erow = list(row), list(row) if want_exact else []
            for j in compress(range(n), map(is_not, types, repeat(plain))):
                try:  # "inf", as instance files write an infinite distance, needs no parse
                    frow[j], fr = (math.inf, None) if plain and row[j] == "inf" else (
                        _parse_number(row[j], f"{what}[{i}][{j}]", True, want_exact))
                except CliError:
                    floats.append(frow[:j])  # its floats before j come first
                    raise
                if want_exact:
                    erow[j] = frow[j] if fr is None else fr
            floats.append(frow)
            exacts.append(erow)
    except CliError:
        _raise_first_nan(floats, what)
        raise
    return floats, exacts


def _raise_first_nan(rows: List[List[float]], what: str) -> None:
    """The per-entry parse's error for the first NaN, if there is one."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if math.isnan(v):
                raise CliError(2, f"{what}[{i}][{j}]: NaN is not allowed")


def _plain_side(raw: Any, want_exact: bool) -> Optional[HalfPlane]:
    """The side a load keeps of a half-plane document whose h pair and
    alpha are finite plain JSON numbers with a nonzero normal, checked once:
    floats, or the numbers as read when `want_exact` (a float side is its own
    exact side).  None for any other, which `_parse_halfplane` takes."""
    if type(raw) is not dict or raw.keys() != {"h", "alpha"}:
        return None
    h = raw["h"]
    if type(h) is not list or len(h) != 2:
        return None
    h1, h2 = h
    al = raw["alpha"]
    if not (type(h1) in _PLAIN_NUMBER_TYPES and type(h2) in _PLAIN_NUMBER_TYPES and type(al) in _PLAIN_NUMBER_TYPES):
        return None
    try:
        f1, f2, fa = float(h1), float(h2), float(al)
    except OverflowError:  # reported by _parse_number
        return None
    # a finite sum has finite terms; one that overflows sends the side on
    if not (math.isfinite(f1 + f2 + fa) and (f1 or f2)):
        return None
    return HalfPlane(Point2(h1, h2), al) if want_exact else HalfPlane(Point2(f1, f2), fa)


def _parse_halfplane(raw: Any, what: str, want_exact: bool) -> HalfPlane:
    """The side a load keeps, parsed entry by entry: the path of any side
    that `_plain_side` does not take, and the one that names a fault."""
    d = _expect_dict(raw, what)
    if set(d.keys()) != {"h", "alpha"}:
        raise CliError(2, f"{what} must have exactly the keys 'h' and 'alpha'")
    h = d["h"]
    if not isinstance(h, list) or len(h) != 2:
        raise CliError(2, f"{what}.h must be a pair")
    h1, e1 = _parse_number(h[0], f"{what}.h[0]", False, want_exact)
    h2, e2 = _parse_number(h[1], f"{what}.h[1]", False, want_exact)
    al, ea = _parse_number(d["alpha"], f"{what}.alpha", False, want_exact)
    try:
        hp = halfplane(h1, h2, al)
    except ValueError as exc:
        raise CliError(2, f"{what}: {exc}")
    return HalfPlane(Point2(e1, e2), ea) if want_exact else hp


def load_instance(
    path: str, *, want_exact: bool = False, full_triangle: bool = True, point_cap: Optional[int] = None
) -> LoadedInstance:
    """Parse and check an instance file.  An `n` above `point_cap` exits 2
    as soon as it is read, before any entry is parsed or checked."""
    with gc_paused():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise CliError(2, f"cannot read {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(2, f"{path} is not valid JSON: {exc}")
        doc = _expect_dict(raw, "instance document")
        if "n" not in doc or not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
            raise CliError(2, "field 'n' must be an integer")
        n = doc["n"]
        if n < 1:
            raise CliError(2, "'n' must be >= 1")
        if point_cap is not None and n > point_cap:
            raise CliError(2, f"oracle commands are capped at {point_cap} points")

        metric = _expect_dict(doc.get("metric"), "'metric'")
        metric_kind = _exactly_one(metric, ("matrix", "pre_metric"), "'metric'")
        what = f"metric.{metric_kind}"
        floats, exacts = _parse_matrix(metric[metric_kind], n, what, want_exact)

        violation: Optional[MetricViolation] = None
        space: Optional[PseudometricSpace] = None
        try:
            if metric_kind == "matrix":
                got = validate_pseudometric(floats) if full_triangle else validate_premetric(floats)
                if isinstance(got, MetricViolation):
                    violation = got
                else:
                    space = PseudometricSpace(n, exacts if want_exact else floats)
            else:
                pre = validate_premetric(floats)
                if isinstance(pre, MetricViolation):
                    violation = pre
                elif want_exact:  # the closure's sums must stay exact
                    rationals = [[v if v == math.inf else Fraction(v) for v in row] for row in exacts]
                    space = intrinsic_metric(PreMetric(n, rationals))
                else:
                    space = intrinsic_metric(pre)
        except ValueError as exc:  # the validators' NaN / negative guards
            _raise_first_nan(floats, what)
            raise CliError(2, str(exc))

        sets = _expect_dict(doc.get("sets"), "'sets'")
        kind = _exactly_one(sets, ("halfplanes", "polygons"), "'sets'")
        arr = sets[kind]
        if not isinstance(arr, list) or len(arr) != n:
            noun = "half-planes" if kind == "halfplanes" else "polygons"
            raise CliError(2, f"sets.{kind} must list {n} {noun}")
        polys = []
        for i, item in enumerate(arr):
            # a half-plane is read as a one-sided polygon
            if kind == "halfplanes":
                polys.append([_plain_side(item, want_exact) or _parse_halfplane(item, f"halfplanes[{i}]", want_exact)])
            elif not isinstance(item, list) or not item:
                raise CliError(2, f"polygons[{i}] must be a nonempty list")
            else:
                polys.append([
                    _plain_side(side, want_exact) or _parse_halfplane(side, f"polygons[{i}][{j}]", want_exact)
                    for j, side in enumerate(item)
                ])
        inst = None if space is None else PolygonInstance(space, polys)
        return LoadedInstance(n=n, metric_kind=metric_kind, kind=kind, inst=inst, violation=violation)


def _raise_on_violation(inst: LoadedInstance) -> None:
    if inst.violation is not None:
        v = inst.violation
        raise CliError(3, f"metric axiom '{v.axiom}' violated at ({v.i}, {v.j}, {v.k})")


# ---------------------------------------------------------------------------
# commands


def _verify_result(inst: LoadedInstance, result_path: str) -> int:
    """Re-check a solver result document against the instance (round-trip)."""
    try:
        with open(result_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(2, f"cannot read result file: {exc}")
    doc = _expect_dict(doc, "result document")
    if doc.get("outcome") != "success":
        raise CliError(2, "result file does not record a success outcome")
    raw_f = doc.get("f")
    if not isinstance(raw_f, list) or len(raw_f) != inst.n:
        raise CliError(2, f"result field 'f' must list {inst.n} points")
    f: List[Point2] = []
    for i, pair in enumerate(raw_f):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliError(2, f"f[{i}] must be a two-number pair")
        x, _ = _parse_number(pair[0], f"f[{i}][0]", False, False)
        y, _ = _parse_number(pair[1], f"f[{i}][1]", False, False)
        f.append(Point2(x, y))
    bound, _ = _parse_number(doc.get("bound"), "result field 'bound'", False, False)

    assert inst.inst is not None
    report = verify_selection(inst.inst, f, bound)
    if not report.ok:
        doc = {"verified": False, "reason": report.reason, "index": report.index}
        print(emit(doc if report.reason == "membership" else {**doc, "pair": report.pair}))
        return 1
    print(emit({"verified": True, "seminorm": report.seminorm, "bound": bound}))
    return 0


def _print_violation(v: MetricViolation) -> int:
    print(emit({"valid": False, "axiom": v.axiom, "i": v.i, "j": v.j, "k": v.k}))
    return 3


def cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args.file, want_exact=False, full_triangle=True)
    if inst.violation is not None:
        return _print_violation(inst.violation)
    if args.result is not None:
        return _verify_result(inst, args.result)
    print(emit({"valid": True, "n": inst.n, "metric": inst.metric_kind, "sets": inst.kind}))
    return 0


def _parse_cli_number(text: str, what: str) -> float:
    val, _ = _parse_number(text, what, False, False)
    return val


def cmd_solve(args: argparse.Namespace) -> int:
    if args.lam is not None:
        if args.lambda1 is not None or args.lambda2 is not None:
            raise CliError(2, "--lambda excludes --lambda1/--lambda2")
        l1 = l2 = _parse_cli_number(args.lam, "--lambda")
        if l1 <= 0:
            raise CliError(2, "--lambda must be > 0")
    else:
        if args.lambda1 is None or args.lambda2 is None:
            raise CliError(2, "need --lambda, or both --lambda1 and --lambda2")
        l1 = _parse_cli_number(args.lambda1, "--lambda1")
        l2 = _parse_cli_number(args.lambda2, "--lambda2")
        if l1 < 0 or l2 < 0:
            raise CliError(2, "lambda parameters must be >= 0")

    inst = load_instance(args.file, want_exact=False, full_triangle=False)
    _raise_on_violation(inst)

    trace = args.trace

    def note(msg: str) -> None:
        if trace:
            print(msg, file=sys.stderr)

    if inst.kind == "polygons":
        if args.lam is None:
            raise CliError(2, "polygon instances take a single --lambda")
        note(f"solving polygon instance, n={inst.n}, lambda={l1}")
    else:
        note(f"solving half-plane instance, n={inst.n}, lambda=({l1}, {l2})")
    assert inst.inst is not None
    try:
        outcome = run_projection_algorithm(inst.inst, (l1, l2))
    except RuntimeError:
        # a failed verification is an input fault when the triangle
        # inequality does not hold; otherwise it is the program's
        if inst.metric_kind == "matrix":
            got = validate_pseudometric(inst.inst.space.d)
            if isinstance(got, MetricViolation):
                return _print_violation(got)
        raise
    bound = l1 + 2.0 * l2

    if isinstance(outcome, NoGo):
        note(f"stopped at stage {outcome.stage}, witness point {outcome.witness}")
        print(emit({"outcome": "no_go", "stage": outcome.stage, "witness": outcome.witness}))
        return 1

    assert isinstance(outcome, Success)
    note("stages 1-5 complete, selection verified")
    doc: dict = {
        "outcome": "success",
        "f": [[p.x1, p.x2] for p in outcome.f],
        "seminorm": outcome.seminorm,
        "bound": bound,
    }
    if trace:
        doc["diagnostics"] = {
            "g": [[p.x1, p.x2] for p in outcome.g],
            "hulls": [_rect_doc(r) for r in outcome.hulls],
            "refined": [_rect_doc(r) for r in outcome.refined],
        }
    print(emit(doc))
    return 0


def _exact_for_sharp(args: argparse.Namespace) -> PolygonInstance:
    inst = load_instance(args.file, want_exact=True, full_triangle=True, point_cap=SHARP_POINT_CAP)
    _raise_on_violation(inst)
    assert inst.inst is not None
    return inst.inst


def cmd_sharp(args: argparse.Namespace) -> int:
    _, lam = _parse_number(args.lam, "--lambda", False, True)  # a string: a Fraction
    if lam < 0:
        raise CliError(2, "--lambda must be >= 0")
    system = build_sharp_lp(_exact_for_sharp(args), lam)
    got = fm_feasible(system)
    if isinstance(got, FmInfeasible):
        print(emit({"verdict": "infeasible", "lambda": lam}))
        return 1
    assert isinstance(got, FmFeasible)
    witness = {name: got.witness[i] for i, name in enumerate(system.var_names)}
    print(emit({"verdict": "feasible", "lambda": lam, "witness": witness}))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    _, lo = _parse_number(args.lo, "--lo", False, True)  # strings: Fractions
    _, hi = _parse_number(args.hi, "--hi", False, True)
    if lo < 0:
        raise CliError(2, "--lo must be >= 0")
    if not lo < hi:
        raise CliError(2, "need --lo < --hi")
    if args.iters < 0:
        raise CliError(2, "--iters must be >= 0")
    inst = _exact_for_sharp(args)
    try:
        a, b = estimate_min_seminorm(inst, lo, hi, args.iters)
    except ValueError as exc:
        if "hi must be feasible" in str(exc):
            raise CliError(4, "--hi is infeasible; raise it")
        if "lo must be 0 or infeasible" in str(exc):
            raise CliError(4, "--lo is feasible; lower it")
        raise CliError(2, str(exc))
    print(emit({"lo": a, "hi": b, "width": b - a, "lo_float": float(a), "hi_float": float(b)}))
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lipsel",
        description="Lipschitz selections of half-plane and polygon valued maps in the plane",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="parse an instance file and check the metric axioms")
    pv.add_argument("file")
    pv.add_argument("--result", default=None, help="also re-verify a solver result document")
    pv.set_defaults(func=cmd_validate)

    ps = sub.add_parser("solve", help="run the projection algorithm")
    ps.add_argument("file")
    ps.add_argument("--lambda", dest="lam", default=None)
    ps.add_argument("--lambda1", default=None)
    ps.add_argument("--lambda2", default=None)
    ps.add_argument("--seed", type=int, default=0, help="ignored: no step of the solver is random")
    ps.add_argument("--trace", action="store_true")
    ps.set_defaults(func=cmd_solve)

    ph = sub.add_parser("sharp", help="exact feasibility of the seminorm-lambda system")
    ph.add_argument("file")
    ph.add_argument("--lambda", dest="lam", required=True)
    ph.set_defaults(func=cmd_sharp)

    pe = sub.add_parser("estimate", help="bisect the optimal seminorm into a bracket")
    pe.add_argument("file")
    pe.add_argument("--lo", default="0")
    pe.add_argument("--hi", required=True)
    pe.add_argument("--iters", type=int, default=20)
    pe.set_defaults(func=cmd_estimate)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    with gc_paused():
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except BrokenPipeError:  # the reader closed stdout: neither an answer nor a fault
            # the document's unwritten rest would fail again at exit's flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        except Exception as exc:  # a fault of the program must not read as exit 1, "no-go"
            traceback.print_exc(file=sys.stderr)
            print(emit({"outcome": "error", "reason": f"{type(exc).__name__}: {exc}"}))
            return 5


if __name__ == "__main__":
    sys.exit(main())
