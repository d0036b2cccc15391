"""Exact feasibility oracle for the optimal-seminorm question.

A selection with Lipschitz seminorm <= lam exists iff a small linear system
is satisfiable: two coordinates per point, one membership row per side of
each point's polygon (one row per point for a half-plane instance), and four
coupling rows per finite-distance pair bounding the coordinate differences by
lam times the distance.  The system is solved exactly over
rationals by Fourier-Motzkin elimination, so Feasible/Infeasible verdicts are
certificates, not numerics.  Sizes are desk-scale by design (16 variables).

`build_sharp_lp` writes each row as a sparse row of integers: its nonzero
(variable, coefficient) terms and its right-hand side, all multiplied by the
lcm of the row's denominators, with every number read exactly.  A sharp row
has at most two variables, and so has every combination of two (Aspvall &
Shiloach, SIAM J. Comput. 1980).  `fm_feasible` eliminates on these rows and
divides each combined row by the gcd of its entries.  Before x_k is
eliminated, each pair (x_k, x_j) of more than two rows is cut down to its
envelope, the rows its other rows do not imply, by the exact half-plane
pass of `lp2d._envelope`; an empty pair polygon means infeasible.  That
keeps a pair's rows from multiplying from one elimination to the next
(Hochbaum & Naor, SIAM J. Comput. 1994).  Neither step changes any stage's projected polyhedron, so
verdicts and witnesses are those of elimination over rationals on all rows.
Back-substitution compares integer (numerator, denominator) bounds, builds
one `Fraction` per coordinate, and checks the witness on the system's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple, Union

from lipsel.lp2d import PairRow, _Empty, _by_angle, _envelope
from lipsel.selection import PolygonInstance

FM_VAR_CAP = 16

Terms = Tuple[Tuple[int, int], ...]  # nonzero (var, coeff), sorted by var
IntRow = Tuple[Terms, int]  # terms . vars <= rhs, all integers


@dataclass(frozen=True)
class RationalLinearSystem:
    var_names: List[str]
    rows: List[IntRow]

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


def _ratio(v, what: str, *where) -> Tuple[int, int]:
    """v as (numerator, denominator > 0) in lowest terms; `what` is
    formatted with `where` only for the error message."""
    if isinstance(v, (int, Fraction)) or isinstance(v, float) and math.isfinite(v):
        return v.as_integer_ratio()  # floats are dyadic rationals, this is exact
    if isinstance(v, float):
        raise ValueError(f"{what.format(*where)} must be finite and rational, got {v}")
    raise ValueError(f"{what.format(*where)} must be rational, got {type(v).__name__}")


def _finite_pairs(inst: PolygonInstance) -> Iterator[Tuple[int, int, int, int]]:
    """(i, j, p, q) for each pair i < j at a finite distance p / q."""
    for i, d in enumerate(inst.space.d):
        for j in range(i + 1, inst.n):
            rho = d[j]
            if not (isinstance(rho, float) and rho == math.inf):
                yield (i, j, *_ratio(rho, "distance ({},{})", i, j))


def build_sharp_lp(inst: PolygonInstance, lam) -> RationalLinearSystem:
    """Membership plus coupling rows, as sparse integer rows.

    Row order: one membership row per (point, side) on that point's pair of
    coordinates, in point then side order; then 4 coupling rows per finite
    pair (i < j), u-axis before v-axis.  Each row is its rational row times
    the lcm of the row's denominators.  Data must be ints, `Fraction`s or
    finite floats, which are read exactly.
    """
    n = inst.n
    lp, lq = _ratio(lam, "lambda")
    if lp < 0:
        raise ValueError("lambda must be >= 0")
    names = [f"{ax}{i + 1}" for i in range(n) for ax in ("u", "v")]
    rows: List[IntRow] = []
    for i, poly in enumerate(inst.polygons):
        for (h1, h2), alpha in poly:
            p1, q1 = _ratio(h1, "normal coordinate")
            p2, q2 = _ratio(h2, "normal coordinate")
            pa, qa = _ratio(alpha, "offset")
            scale = math.lcm(qa, q1, q2)  # a zero has denominator 1
            terms = tuple([(m, p * (scale // q)) for m, p, q in ((2 * i, p1, q1), (2 * i + 1, p2, q2)) if p])
            rows.append((terms, -pa * (scale // qa)))
    for i, j, rp, rq in _finite_pairs(inst):
        p, q = lp * rp, lq * rq
        g = math.gcd(p, q)
        p, q = p // g, q // g  # cap = lam * rho = p / q in lowest terms
        for a, b in ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1)):  # u then v
            rows.append((((a, q), (b, -q)), p))
            rows.append((((a, -q), (b, q)), p))
    return RationalLinearSystem(names, rows)


# the polygon name of the one builder
build_sharp_lp_polygon = build_sharp_lp


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

# primitive coefficient vector -> (terms, rhs, gcd of the coefficients)
Tightest = Dict[Terms, Tuple[Terms, int, int]]


def _keep(levels: List[Tightest], terms: Terms, rhs: int) -> None:
    """Record `terms . x <= rhs` under its first variable if it is the
    tightest row so far for its primitive coefficient vector (the first row
    wins ties), divided by the gcd of its coefficients and rhs.  A constant
    row raises `_Empty` if it is unsatisfiable and is dropped if not.  Rows
    of one or two terms, the only ones a sharp system makes, get their gcd
    and key directly."""
    if len(terms) == 2:
        (m, c), (m2, c2) = terms
        g = math.gcd(c, c2)  # > 0: math.gcd ignores signs
        key: Terms = ((m, c // g), (m2, c2 // g))
    elif len(terms) == 1:
        (m, c), = terms
        g = abs(c)
        key = ((m, 1 if c > 0 else -1),)
    elif terms:
        g = math.gcd(*[c for _, c in terms])
        key = tuple([(m, c // g) for m, c in terms])
        m = terms[0][0]
    else:
        if rhs < 0:
            raise _Empty
        return
    best = levels[m]
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
    """The terms of b*p + a*n, sorted by variable, zeros dropped.  Tails of
    at most one term, all a sharp system has, merge without a dict."""
    if len(p) > 1 or len(n) > 1:
        acc = {m: b * c for m, c in p}
        for m, c in n:
            acc[m] = acc.get(m, 0) + a * c
        return tuple(sorted((m, c) for m, c in acc.items() if c))
    if not p:
        return ((n[0][0], a * n[0][1]),) if n else ()
    (mp, cp), = p
    if not n:
        return ((mp, b * cp),)
    (mn, cn), = n
    if mp < mn:
        return ((mp, b * cp), (mn, a * cn))
    if mn < mp:
        return ((mn, a * cn), (mp, b * cp))
    c = b * cp + a * cn
    return ((mp, c),) if c else ()


def _prune_pairs(level: Tightest) -> None:
    """Cut each variable pair of more than two rows down to its envelope."""
    pairs: Dict[int, List[PairRow]] = {}
    for key, (terms, rhs, _) in level.items():
        if len(terms) == 2:
            pairs.setdefault(terms[1][0], []).append((terms[0][1], terms[1][1], rhs, key))
    for rows in pairs.values():
        if len(rows) > 2:
            for *_, key in set(rows).difference(_envelope(_by_angle(rows))):
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
    exact witness (midpoints of the final bounds, 0 for free variables) and
    check it against the system's rows.  Rows of one or two terms, all that
    a sharp system and its eliminations hold, are merged and keyed directly;
    wider rows take the general path of `_combine` and `_keep`."""
    nvars = system.num_vars
    if nvars > FM_VAR_CAP:
        raise ValueError(f"Fourier-Motzkin oracle is capped at {FM_VAR_CAP} variables")
    levels: List[Tightest] = [{} for _ in range(nvars)]  # rows by first variable
    try:
        for terms, rhs in system.rows:
            _keep(levels, terms, rhs)
        for level in levels:
            # Level k holds every row that mentions x_k, and no smaller one.  A
            # row with a > 0 and one with -b < 0 cancel x_k as b*p + a*n.
            _prune_pairs(level)
            pos: List[Tuple[int, Terms, int]] = []  # (a, tail, rhs)
            neg: List[Tuple[int, Terms, int]] = []  # (b, tail, rhs)
            for terms, rhs, _ in level.values():
                c = terms[0][1]
                if c > 0:
                    pos.append((c, terms[1:], rhs))
                else:
                    neg.append((-c, terms[1:], rhs))
            for a, ptail, prhs in pos:
                for b, ntail, nrhs in neg:
                    _keep(levels, _combine(b, ptail, a, ntail), b * prhs + a * nrhs)
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

    if any(_over(rhs, terms, coords)[0] < 0 for terms, rhs in system.rows):
        raise AssertionError("witness violates an original row")
    return FmFeasible(witness)


def _seminorm(inst: PolygonInstance, witness: List[Fraction]) -> Fraction:
    """The Lipschitz seminorm of a witness: its largest coordinate gap over
    the distance, over the finite pairs at positive distance (0 if none)."""
    best = Fraction(0)
    for i, j, p, q in _finite_pairs(inst):
        if p:
            gap = max(abs(witness[2 * i] - witness[2 * j]), abs(witness[2 * i + 1] - witness[2 * j + 1]))
            best = max(best, gap * q / p)
    return best


def estimate_min_seminorm(
    inst: PolygonInstance, lo, hi, iterations: int
) -> Tuple[Fraction, Fraction]:
    """Bisect the optimal seminorm into an exact bracket.

    `hi` must be feasible, and `lo` >= 0 must be 0 or infeasible, so that
    the optimum is in [lo, hi].  Returns (a, b) with the optimum in [a, b]
    and b - a = (hi - lo) / 2**iterations.  A witness feasible at some
    lambda is feasible at every lambda at or above its own seminorm, since
    only the coupling caps lambda * rho depend on lambda.  So a point at or
    above the smallest witness seminorm so far is feasible with no
    elimination, and only the others get one; every verdict is exact.
    """
    lo_r, hi_r = Fraction(*_ratio(lo, "lo")), Fraction(*_ratio(hi, "hi"))
    if lo_r < 0:
        raise ValueError("lo must be >= 0")
    if not lo_r < hi_r:
        raise ValueError("need lo < hi")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    settled = math.inf  # the smallest seminorm of a witness so far

    def feasible(lam: Fraction) -> bool:
        nonlocal settled
        if lam >= settled:
            return True
        got = fm_feasible(build_sharp_lp(inst, lam))
        if isinstance(got, FmInfeasible):
            return False
        settled = _seminorm(inst, got.witness)  # <= lam < the old one
        return True

    if not feasible(hi_r):
        raise ValueError("hi must be feasible")
    if feasible(lo_r) and lo_r > 0:
        raise ValueError("lo must be 0 or infeasible")
    for _ in range(iterations):
        mid = (lo_r + hi_r) / 2
        if feasible(mid):
            hi_r = mid
        else:
            lo_r = mid
    return (lo_r, hi_r)
