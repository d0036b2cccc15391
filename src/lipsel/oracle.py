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
sparse copies of the rows.  A feasible witness is still checked against the
original dense rows before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

Terms = Tuple[Tuple[int, Fraction], ...]  # nonzero (var, coeff), sorted by var
SparseRow = Tuple[Terms, Fraction]  # terms . vars <= rhs


def _prune(rows: Iterable[SparseRow]) -> Optional[List[SparseRow]]:
    """Drop satisfied constant rows and keep only the tightest row per
    coefficient vector normalized by its first nonzero |coefficient|; None
    signals an unsatisfiable constant."""
    best: Dict[Terms, Fraction] = {}
    for terms, rhs in rows:
        if not terms:
            if rhs < 0:
                return None
            continue
        scale = abs(terms[0][1])
        key = tuple((m, c / scale) for m, c in terms)
        r = rhs / scale
        old = best.get(key)
        if old is None or r < old:
            best[key] = r
    return list(best.items())


def _add_terms(p: Terms, q: Terms) -> Terms:
    acc = dict(p)
    for m, c in q:
        acc[m] = acc[m] + c if m in acc else c
    return tuple(sorted((m, c) for m, c in acc.items() if c != 0))


def fm_feasible(system: RationalLinearSystem) -> FmOutcome:
    """Eliminate variables lowest index first; on success, back-substitute an
    exact witness (midpoints of the final bounds, 0 for free variables).

    The input keeps its dense rows; elimination converts them to sparse rows
    internally.  The witness is checked against the original dense rows
    before it is returned."""
    nvars = system.num_vars
    if nvars > FM_VAR_CAP:
        raise ValueError(f"Fourier-Motzkin oracle is capped at {FM_VAR_CAP} variables")
    rows = _prune(
        (tuple((m, c) for m, c in enumerate(coeffs) if c != 0), rhs)
        for coeffs, rhs in system.rows
    )
    if rows is None:
        return FmInfeasible()
    stages: List[Tuple[int, List[SparseRow]]] = []
    for k in range(nvars):
        # Every variable below k is gone and _prune scaled each row's first
        # coefficient to +-1, so a row mentions x_k iff its first term is
        # (k, +-1), and a positive and a negative row cancel x_k by a plain sum.
        pos: List[SparseRow] = []
        neg: List[SparseRow] = []
        rest: List[SparseRow] = []
        for row in rows:
            var, c = row[0][0]
            if var != k:
                rest.append(row)
            elif c > 0:
                pos.append(row)
            else:
                neg.append(row)
        stages.append((k, pos + neg))
        combined = rest
        for pterms, prhs in pos:
            for nterms, nrhs in neg:
                combined.append((_add_terms(pterms[1:], nterms[1:]), prhs + nrhs))
        rows = _prune(combined)
        if rows is None:
            return FmInfeasible()

    witness = [Fraction(0)] * nvars
    for k, krows in reversed(stages):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for terms, rhs in krows:
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
        total = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
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
