"""Exact feasibility oracle for the optimal-seminorm question.

A selection with Lipschitz seminorm <= lam exists iff a small linear system
is satisfiable: two coordinates per point, one membership row per side of
each point's polygon (one row per point for a half-plane instance), and four
coupling rows per finite-distance pair bounding the coordinate differences by
lam times the distance.  The system is solved exactly over
rationals by Fourier-Motzkin elimination, so Feasible/Infeasible verdicts are
certificates, not numerics.  Sizes are desk-scale by design (16 variables).

`RationalLinearSystem` stores dense rows; `fm_feasible` works on sparse
integer copies, each row scaled by the lcm of its denominators and each
combined row divided by the gcd of its entries.  A sharp row has at most two
variables, and so has every combination of two (Aspvall & Shiloach, SIAM J.
Comput. 1980).  Before x_k is eliminated, each pair (x_k, x_j) of more than
two rows is cut down to its envelope, the rows its other rows do not imply,
by one exact half-plane pass; an empty pair polygon means infeasible.  That
keeps a pair's rows from multiplying from one elimination to the next
(Hochbaum & Naor, SIAM J. Comput. 1994).  Neither step changes any stage's
projected polyhedron, so verdicts and witnesses are those of elimination
over rationals on all rows.  Back-substitution compares integer (numerator,
denominator) bounds, builds one `Fraction` per coordinate, and checks the
witness on the integer copies of the original rows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Tuple, Union

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


class _Empty(Exception):
    """A constant row or three rows of one variable pair are unsatisfiable."""


def _keep(levels: List[Tightest], terms: Terms, rhs: int) -> None:
    """Record `terms . x <= rhs` under its first variable if it is the
    tightest row so far for its primitive coefficient vector (the first row
    wins ties), divided by the gcd of its coefficients and rhs.  A constant
    row raises `_Empty` if it is unsatisfiable and is dropped if not."""
    if not terms:
        if rhs < 0:
            raise _Empty
        return
    if len(terms) == 1:
        (m, c), = terms
        g = abs(c)
        key: Terms = ((m, 1 if c > 0 else -1),)
    else:
        g = math.gcd(*[c for _, c in terms])  # > 0: math.gcd ignores signs
        key = tuple([(m, c // g) for m, c in terms])
    best = levels[key[0][0]]
    old = best.get(key)
    # rhs / g < old_rhs / old_g, by cross-multiplication: both gcds are > 0
    if old is None or rhs * old[2] < old[1] * g:
        common = math.gcd(g, rhs)
        if common > 1:
            terms = tuple([(m, c // common) for m, c in terms])
            rhs //= common
            g //= common
        best[key] = (terms, rhs, g)


def _combine(b: int, p: Terms, a: int, n: Terms) -> Terms:
    """The terms of b*p + a*n, sorted by variable, zeros dropped."""
    acc = {m: b * c for m, c in p}
    for m, c in n:
        acc[m] = acc.get(m, 0) + a * c
    return tuple(sorted((m, c) for m, c in acc.items() if c))


PairRow = Tuple[int, int, int, Terms]  # a*x + b*y <= c of one pair, and its key


def _cross(p: PairRow, q: PairRow) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _excess(p: PairRow, q: PairRow, t: PairRow) -> int:
    """> 0, 0 or < 0 as the vertex of p and q (cross > 0) is outside, on or inside t."""
    (ap, bp, cp, _), (aq, bq, cq, _), (at, bt, ct, _) = p, q, t
    return at * (cp * bq - bp * cq) + bt * (ap * cq - cp * aq) - ct * (ap * bq - bp * aq)


def _implied(first: PairRow, mid: PairRow, last: PairRow) -> bool:
    """Whether `mid`'s normal is a positive combination of the other two and
    the vertex of two of the rows is not strictly inside the third.  Raises
    `_Empty` if it is strictly outside and no cross product is negative: the
    normals positively span the plane, or antiparallel rows bound no strip."""
    c1, c2, c3 = _cross(first, mid), _cross(mid, last), _cross(last, first)
    if min(c1, c2) < 0 or (c3 < 0 and not (c1 and c2)):
        return False
    excess = _excess(first, mid, last) if c1 else _excess(mid, last, first)
    if excess > 0 and c3 >= 0:
        raise _Empty
    return excess >= 0 and c3 < 0


def _envelope(rows: List[PairRow]) -> Deque[PairRow]:
    """The rows of one variable pair that its other rows do not imply: one
    deque pass of half-plane intersection over the normals in exact angular
    order (upper half-plane first, then by -a/b, which grows with the angle
    in each half), from after a gap of at least pi if there is one."""
    rows.sort(key=lambda r: (r[1] < 0, Fraction(-r[0], r[1])))
    start = next((j for j in range(len(rows)) if _cross(rows[j - 1], rows[j]) <= 0), 0)
    kept: Deque[PairRow] = deque()
    for r in rows[start:] + rows[:start]:
        while len(kept) > 1 and _implied(kept[-2], kept[-1], r):
            kept.pop()
        while len(kept) > 1 and _implied(r, kept[0], kept[1]):
            kept.popleft()
        kept.append(r)
    while len(kept) > 2:
        if _implied(kept[-2], kept[-1], kept[0]):
            kept.pop()
        elif _implied(kept[-1], kept[0], kept[1]):
            kept.popleft()
        else:
            break
    return kept


def _prune_pairs(level: Tightest) -> None:
    """Cut each variable pair of more than two rows down to its envelope."""
    pairs: Dict[int, List[PairRow]] = {}
    for key, (terms, rhs, _) in level.items():
        if len(terms) == 2:
            pairs.setdefault(terms[1][0], []).append((terms[0][1], terms[1][1], rhs, key))
    for rows in pairs.values():
        if len(rows) > 2:
            for *_, key in set(rows).difference(_envelope(rows)):
                del level[key]


def _over(rhs: int, terms: Terms, coords) -> Tuple[int, int]:
    """rhs - terms . x as (numerator, denominator > 0); coords[m] = (p, q > 0) is x[m]."""
    num, den = rhs, 1
    for m, c in terms:
        p, q = coords[m]
        num, den = num * q - c * p * den, den * q
    return num, den


def fm_feasible(system: RationalLinearSystem) -> FmOutcome:
    """Eliminate variables lowest index first; on success, back-substitute an
    exact witness (midpoints of the final bounds, 0 for free variables).

    The input keeps its dense rational rows; elimination, back-substitution
    and the check of the witness run on sparse integer copies of them."""
    nvars = system.num_vars
    if nvars > FM_VAR_CAP:
        raise ValueError(f"Fourier-Motzkin oracle is capped at {FM_VAR_CAP} variables")
    rows = [_int_row(coeffs, rhs) for coeffs, rhs in system.rows]
    levels: List[Tightest] = [{} for _ in range(nvars)]  # rows by first variable
    try:
        for terms, rhs in rows:
            _keep(levels, terms, rhs)
        for level in levels:
            # Level k holds every row that mentions x_k, and no smaller one.  A
            # row with a > 0 and one with -b < 0 cancel x_k as b*p + a*n.
            _prune_pairs(level)
            pos: List[IntRow] = []
            neg: List[IntRow] = []
            for terms, rhs, _ in level.values():
                (pos if terms[0][1] > 0 else neg).append((terms, rhs))
            for pterms, prhs in pos:
                a, ptail = pterms[0][1], pterms[1:]
                for nterms, nrhs in neg:
                    b = -nterms[0][1]
                    _keep(levels, _combine(b, ptail, a, nterms[1:]), b * prhs + a * nrhs)
    except _Empty:
        return FmInfeasible()

    coords = [(0, 1)] * nvars  # the witness as (numerator, denominator) pairs
    witness = [Fraction(0)] * nvars
    for k in reversed(range(nvars)):
        # each row's bound (rhs - rest . x) / a: upper bounds have positive
        # denominators, lower ones negative, so cross-multiplying compares two
        lo: Optional[Tuple[int, int]] = None
        hi: Optional[Tuple[int, int]] = None
        for terms, rhs, _ in levels[k].values():
            num, den = _over(rhs, terms[1:], coords)
            den *= terms[0][1]
            if den > 0:
                if hi is None or num * hi[1] < hi[0] * den:
                    hi = (num, den)
            elif lo is None or num * lo[1] > lo[0] * den:
                lo = (num, den)
        if lo is not None and hi is not None:
            if (lo[0] * hi[1] - hi[0] * lo[1]) * lo[1] * hi[1] > 0:
                raise AssertionError("back-substitution hit an empty interval")
            witness[k] = Fraction(lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
        elif lo is not None:
            witness[k] = max(witness[k], Fraction(*lo))
        elif hi is not None:
            witness[k] = min(witness[k], Fraction(*hi))
        coords[k] = (witness[k].numerator, witness[k].denominator)

    # the integer rows are positive multiples of the original rows
    if any(_over(rhs, terms, coords)[0] < 0 for terms, rhs in rows):
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
