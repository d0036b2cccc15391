"""Exact feasibility oracle for the optimal-seminorm question.

A selection with Lipschitz seminorm <= lam exists iff a small linear system
is satisfiable: two coordinates per point, one membership row per side of
each point's polygon (one row per point for a half-plane instance), and four
coupling rows per finite-distance pair bounding the coordinate differences by
lam times the distance.  The system is solved exactly over
rationals by Fourier-Motzkin elimination, so Feasible/Infeasible verdicts are
certificates, not numerics.  Sizes are desk-scale by design (16 variables).

`RationalLinearSystem` stores dense rows, one coefficient per variable.
Every row of a sharp system has at most two nonzero coefficients, and
eliminating a variable shared by two such rows gives another such row
(Aspvall & Shiloach, SIAM J. Comput. 1980), so `fm_feasible` eliminates on
sparse integer copies of the rows: each row is scaled by the lcm of its
denominators, and each combined row is divided by the gcd of its entries,
so no `Fraction` arithmetic runs until back-substitution.  A positive
scaling changes neither which rows are redundant nor the bounds a row puts
on its variable, so verdicts and witnesses are those of elimination over
rationals.  A feasible witness is still checked against the original dense
rows before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from lipsel.selection import PolygonInstance

FM_VAR_CAP = 16

RatRow = Tuple[Tuple[Fraction, ...], Fraction]  # coeffs . vars <= rhs


@dataclass(frozen=True)
class RationalLinearSystem:
    var_names: List[str]
    rows: List[RatRow]

    @property
    def num_vars(self) -> int:
        return len(self.var_names)


@dataclass(frozen=True)
class FmFeasible:
    witness: List[Fraction]


@dataclass(frozen=True)
class FmInfeasible:
    pass


FmOutcome = Union[FmFeasible, FmInfeasible]


def _rat(v, what: str) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite and rational, got {v}")
        return Fraction(v)  # floats are dyadic rationals, conversion is exact
    raise ValueError(f"{what} must be rational, got {type(v).__name__}")


def _coupling_rows(
    nvars: int, distances, npoints: int, lam: Fraction
) -> List[RatRow]:
    rows: List[RatRow] = []
    for i in range(npoints):
        for j in range(i + 1, npoints):
            rho = distances[i][j]
            if rho == math.inf:
                continue
            cap = lam * _rat(rho, f"distance ({i},{j})")
            for axis in (0, 1):  # u then v coordinates
                a, b = 2 * i + axis, 2 * j + axis
                co = [Fraction(0)] * nvars
                co[a], co[b] = Fraction(1), Fraction(-1)
                rows.append((tuple(co), cap))
                co = [Fraction(0)] * nvars
                co[a], co[b] = Fraction(-1), Fraction(1)
                rows.append((tuple(co), cap))
    return rows


def build_sharp_lp(inst: PolygonInstance, lam) -> RationalLinearSystem:
    """Membership plus coupling rows.

    Row order: one membership row per (point, side) on that point's pair of
    coordinates, in point then side order; then 4 coupling rows per finite
    pair (i < j), u-axis before v-axis.  All data is converted to exact
    rationals; non-finite coefficients are rejected.
    """
    n = inst.n
    lam_r = _rat(lam, "lambda")
    if lam_r < 0:
        raise ValueError("lambda must be >= 0")
    nvars = 2 * n
    names = [f"{ax}{i + 1}" for i in range(n) for ax in ("u", "v")]
    rows: List[RatRow] = []
    for i, poly in enumerate(inst.polygons):
        for hp in poly:
            co = [Fraction(0)] * nvars
            co[2 * i] = _rat(hp.h.x1, "normal coordinate")
            co[2 * i + 1] = _rat(hp.h.x2, "normal coordinate")
            rows.append((tuple(co), -_rat(hp.alpha, "offset")))
    rows.extend(_coupling_rows(nvars, inst.space.d, n, lam_r))
    return RationalLinearSystem(names, rows)


# the polygon name of the one builder
build_sharp_lp_polygon = build_sharp_lp


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

Terms = Tuple[Tuple[int, int], ...]  # nonzero (var, coeff), sorted by var
IntRow = Tuple[Terms, int]  # terms . vars <= rhs, all integers
# primitive coefficient vector -> (terms, rhs, gcd of the coefficients)
Tightest = Dict[Terms, Tuple[Terms, int, int]]


def _int_row(coeffs, rhs) -> IntRow:
    """A dense rational row as a sparse integer row: the nonzero terms, all
    multiplied by the lcm of the row's denominators."""
    nonzero = [(m, c) for m, c in enumerate(coeffs) if c]
    scale = math.lcm(rhs.denominator, *(c.denominator for _, c in nonzero))
    terms = tuple((m, c.numerator * (scale // c.denominator)) for m, c in nonzero)
    return terms, rhs.numerator * (scale // rhs.denominator)


def _keep(best: Tightest, terms: Terms, rhs: int) -> bool:
    """Record `terms . x <= rhs` if it is the tightest row so far for its
    primitive coefficient vector (the first row wins ties), divided by the
    gcd of its coefficients and rhs.  False signals an unsatisfiable
    constant row; a satisfied one is dropped."""
    if not terms:
        return rhs >= 0
    if len(terms) == 1:
        (m, c), = terms
        g = abs(c)
        key: Terms = ((m, 1 if c > 0 else -1),)
    else:
        g = math.gcd(*[c for _, c in terms])  # > 0: math.gcd ignores signs
        key = tuple([(m, c // g) for m, c in terms])
    old = best.get(key)
    # rhs / g < old_rhs / old_g, by cross-multiplication: both gcds are > 0
    if old is None or rhs * old[2] < old[1] * g:
        common = math.gcd(g, rhs)
        if common > 1:
            terms = tuple([(m, c // common) for m, c in terms])
            rhs //= common
            g //= common
        best[key] = (terms, rhs, g)
    return True


def _combine(b: int, p: Terms, a: int, n: Terms) -> Terms:
    """The terms of b*p + a*n, sorted by variable, zeros dropped."""
    if len(p) <= 1 and len(n) <= 1:  # rows of at most two variables
        if not p:
            return tuple([(m, a * c) for m, c in n])
        if not n:
            return tuple([(m, b * c) for m, c in p])
        (mp, cp), = p
        (mn, cn), = n
        if mp < mn:
            return ((mp, b * cp), (mn, a * cn))
        if mp > mn:
            return ((mn, a * cn), (mp, b * cp))
        c = b * cp + a * cn
        return ((mp, c),) if c else ()
    acc = {m: b * c for m, c in p}
    for m, c in n:
        acc[m] = acc.get(m, 0) + a * c
    return tuple(sorted((m, c) for m, c in acc.items() if c))


def fm_feasible(system: RationalLinearSystem) -> FmOutcome:
    """Eliminate variables lowest index first; on success, back-substitute an
    exact witness (midpoints of the final bounds, 0 for free variables).

    The input keeps its dense rational rows; elimination runs on sparse
    integer copies of them.  The witness is checked against the original
    dense rows before it is returned."""
    nvars = system.num_vars
    if nvars > FM_VAR_CAP:
        raise ValueError(f"Fourier-Motzkin oracle is capped at {FM_VAR_CAP} variables")
    best: Tightest = {}
    for coeffs, rhs in system.rows:
        if not _keep(best, *_int_row(coeffs, rhs)):
            return FmInfeasible()
    stages: List[Tuple[int, List[IntRow]]] = []
    for k in range(nvars):
        # Every variable below k is gone, so a row mentions x_k iff its first
        # term does.  A positive row (a > 0) and a negative row (-b < 0)
        # cancel x_k as b*p + a*n.
        pos: List[IntRow] = []
        neg: List[IntRow] = []
        nxt: Tightest = {}
        for key, row in best.items():
            var, c = row[0][0]
            if var != k:
                nxt[key] = row
            elif c > 0:
                pos.append(row[:2])
            else:
                neg.append(row[:2])
        stages.append((k, pos + neg))
        for pterms, prhs in pos:
            a, ptail = pterms[0][1], pterms[1:]
            for nterms, nrhs in neg:
                b = -nterms[0][1]
                if not _keep(nxt, _combine(b, ptail, a, nterms[1:]), b * prhs + a * nrhs):
                    return FmInfeasible()
        best = nxt

    witness = [Fraction(0)] * nvars
    for k, krows in reversed(stages):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for terms, rhs in krows:
            # the bound is unchanged by any positive scaling of its row
            a = terms[0][1]
            rest_sum = sum((c * witness[m] for m, c in terms[1:]), Fraction(0))
            bound = (rhs - rest_sum) / a
            if a > 0:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        if lo is not None and hi is not None:
            if lo > hi:
                raise AssertionError("back-substitution hit an empty interval")
            witness[k] = (lo + hi) / 2
        elif lo is not None:
            witness[k] = max(Fraction(0), lo)
        elif hi is not None:
            witness[k] = min(Fraction(0), hi)

    for coeffs, rhs in system.rows:
        total = sum((c * w for c, w in zip(coeffs, witness) if c), Fraction(0))
        if total > rhs:
            raise AssertionError("witness violates an original row")
    return FmFeasible(witness)


def estimate_min_seminorm(
    inst: PolygonInstance, lo, hi, iterations: int
) -> Tuple[Fraction, Fraction]:
    """Bisect the optimal seminorm into an exact bracket.

    `hi` must be feasible; `lo` is a caller-promised lower bound (0 always
    works).  Returns (a, b) with the optimum in [a, b] and
    b - a = (hi - lo) / 2**iterations.
    """
    lo_r, hi_r = _rat(lo, "lo"), _rat(hi, "hi")
    if not lo_r < hi_r:
        raise ValueError("need lo < hi")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if isinstance(fm_feasible(build_sharp_lp(inst, hi_r)), FmInfeasible):
        raise ValueError("hi must be feasible")
    for _ in range(iterations):
        mid = (lo_r + hi_r) / 2
        if isinstance(fm_feasible(build_sharp_lp(inst, mid)), FmFeasible):
            hi_r = mid
        else:
            lo_r = mid
    return (lo_r, hi_r)
