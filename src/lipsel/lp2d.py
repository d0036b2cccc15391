"""Small linear programs over intersections of closed half-planes.

Solves max/min of a linear objective over {u : <h_i, u> + alpha_i <= 0} by
randomized incremental insertion (expected linear time in the number of
constraints).  Objective boundedness is decided up front from the normals
alone: the objective is bounded above iff it lies in the conic hull of the
outward normals, tested on float cross products, which can take a nearly
antiparallel pair for parallel.  Unbounded outcomes become real +/-inf
interval ends downstream instead of sentinel-large numbers.

An optimal value is the correctly rounded exact optimum of the float rows as
given, so it does not depend on the insertion order, on the seed, or on rows
that cannot cut the feasible set: the float run only finds the rows active at
the optimum, and the value is evaluated exactly on them (adaptive exactness,
Shewchuk, Discrete Comput. Geom. 1997).  The witness point is the float
vertex the run stopped at.

`_pair_bound` is that exact evaluation; stage 2 of `selection` also uses it
on the polygon of one angular sweep, and runs these LPs only on the sets the
sweep leaves to them.

A quadratic brute-force twin (`lp2d_brute_force`) serves as an oracle for
small systems; it shares no solver code with the incremental path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

from lipsel.geometry import DEFAULT_TOL, HalfPlane, Point2, WholePlane

INF = math.inf

# internal row form: (a, b, alpha, original_index) for a*u1 + b*u2 + alpha <= 0
Row = Tuple[float, float, float, int]


@dataclass(frozen=True)
class Optimal:
    value: float
    witness: Point2


@dataclass(frozen=True)
class Unbounded:
    """The objective improves without bound along `direction` (a recession
    direction of the feasible set)."""

    direction: Point2


@dataclass(frozen=True)
class Infeasible:
    """witness: indices (into the input list) of 2 or 3 constraints that are
    already jointly infeasible."""

    witness: Tuple[int, ...]


LpOutcome = Union[Optimal, Unbounded, Infeasible]


def _rows_from(constraints: Sequence[HalfPlane | WholePlane]) -> list[Row]:
    rows: list[Row] = []
    for i, cst in enumerate(constraints):
        if isinstance(cst, WholePlane):
            continue  # vacuous
        if isinstance(cst, HalfPlane):
            rows.append((cst.h.x1, cst.h.x2, cst.alpha, i))
        else:
            raise ValueError(f"constraint {i} is not a HalfPlane or WholePlane")
    return rows


def _lex_less(p: Point2, q: Point2) -> bool:
    return (p.x1, p.x2) < (q.x1, q.x2)


# ---------------------------------------------------------------------------
# conic-hull analysis of the normals
#
# For the objective c (maximization) either
#   * c lies in cone{h_i}: then sup <c,x> is finite whenever the system is
#     feasible, and a "bracketing" pair of normals certifies it, or
#   * some recession direction d has <h_i,d> <= 0 for all i and <c,d> > 0.
# We locate the normals angularly closest to c on either side with sign-exact
# cross/dot comparisons, then either bracket or rotate one of them into an
# improving direction (verified against every constraint before use).


def _closest_normals(rows: list[Row], cx: float, cy: float) -> tuple[int, int]:
    """Positions of the angularly nearest normals on the clockwise (`P`) and
    counterclockwise (`Q`) sides of c; -1 when a side is empty."""
    best_p = -1  # minimizes ccw angle from h to c, among cross(h,c) >= 0
    bp_u = bp_v = 0.0
    best_q = -1  # minimizes ccw angle from c to h, among cross(c,h) >= 0
    bq_u = bq_v = 0.0
    for pos, (a, b, _alpha, _idx) in enumerate(rows):
        u = a * cx + b * cy
        v = a * cy - b * cx  # cross(h, c)
        if v >= 0.0:
            # angle from h to c is atan2(v, u) in [0, pi]; the cross test is
            # blind to the antiparallel tie (angles 0 vs pi), hence the dot
            # tie-break
            cr = u * bp_v - v * bp_u
            if best_p < 0 or cr > 0.0 or (cr == 0.0 and u > 0.0 and bp_u < 0.0):
                best_p, bp_u, bp_v = pos, u, v
        if v <= 0.0:
            # angle from c to h is atan2(-v, u) in [0, pi]
            cr = u * bq_v - (-v) * bq_u
            if best_q < 0 or cr > 0.0 or (cr == 0.0 and u > 0.0 and bq_u < 0.0):
                best_q, bq_u, bq_v = pos, u, -v
    return best_p, best_q


def _in_cone_pair(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> bool:
    """c in cone{a, b} (nonzero vectors) by float cross products: inexact."""
    d = ax * by - ay * bx
    cb = cx * by - cy * bx
    ac = ax * cy - ay * cx
    if d != 0.0:
        return cb * d >= 0.0 and ac * d >= 0.0
    # parallel pair: cone is the ray of a (same direction) or the full line
    if ac != 0.0:
        return False
    same_dir = ax * bx + ay * by > 0.0
    if same_dir:
        return ax * cx + ay * cy > 0.0
    return True  # line through a: any parallel c is inside


def _try_direction(rows: list[Row], cx: float, cy: float, dx: float, dy: float) -> bool:
    if dx == 0.0 and dy == 0.0:
        return False
    if cx * dx + cy * dy <= 0.0:
        return False
    for a, b, _alpha, _idx in rows:
        if a * dx + b * dy > 0.0:
            return False
    return True


def _boundedness(rows: list[Row], cx: float, cy: float):
    """Either ("bracket", pos_a, pos_b) with c in cone{h_a, h_b}, or
    ("direction", d) with d improving and recession-feasible."""
    pa, pb = _closest_normals(rows, cx, cy)
    if pa >= 0 and pb >= 0:
        ha, hb = rows[pa], rows[pb]
        if _in_cone_pair(ha[0], ha[1], hb[0], hb[1], cx, cy):
            return ("bracket", pa, pb)
    candidates: list[tuple[float, float]] = []
    if pa >= 0:
        a, b = rows[pa][0], rows[pa][1]
        candidates.append((-b, a))  # quarter turn ccw
    if pb >= 0:
        a, b = rows[pb][0], rows[pb][1]
        candidates.append((b, -a))  # quarter turn cw
    candidates.append((cx, cy))
    for dx, dy in candidates:
        if _try_direction(rows, cx, cy, dx, dy):
            return ("direction", Point2(dx, dy))
    raise AssertionError("conic-hull analysis failed to classify the objective")


# ---------------------------------------------------------------------------
# infeasibility witnesses


def _pair_infeasible(r1: Row, r2: Row) -> bool:
    """Two half-planes are disjoint iff their normals are antiparallel and the
    strips they bound do not overlap."""
    a1, b1, al1, _ = r1
    a2, b2, al2, _ = r2
    if a1 * b2 - b1 * a2 != 0.0:
        return False
    dot = a1 * a2 + b1 * b2
    if dot >= 0.0:
        return False
    # with h2 = -s*h1 (s>0): empty iff alpha2*|h1|^2 - <h1,h2>*alpha1 > 0.
    # Evaluated in exact rationals: touching strips (width zero) are feasible,
    # and float products must not flip that boundary case.
    A1, B1, AL1 = Fraction(a1), Fraction(b1), Fraction(al1)
    A2, B2, AL2 = Fraction(a2), Fraction(b2), Fraction(al2)
    return AL2 * (A1 * A1 + B1 * B1) - (A1 * A2 + B1 * B2) * AL1 > 0


def _refine_witness(rows_involved: list[Row]) -> Tuple[int, ...]:
    """Prefer a disjoint pair inside a candidate witness triple."""
    n = len(rows_involved)
    for i in range(n):
        for j in range(i + 1, n):
            if _pair_infeasible(rows_involved[i], rows_involved[j]):
                return tuple(sorted((rows_involved[i][3], rows_involved[j][3])))
    return tuple(sorted(r[3] for r in rows_involved))


# ---------------------------------------------------------------------------
# core solver (maximization)


def _solve_on_line_exact(k_row: Row, inserted: list[Row], cx: float, cy: float):
    """Exact-rational twin of _solve_on_line for brackets too close to call.

    Floats convert to Fraction losslessly, so every comparison here is exact;
    in particular three near-concurrent boundary lines are classified
    correctly (a single-point pinch is feasible, not an empty bracket).
    """
    a, b, alpha, _kidx = k_row
    A, B, AL = Fraction(a), Fraction(b), Fraction(alpha)
    nn = A * A + B * B
    p0x, p0y = -AL * A / nn, -AL * B / nn
    ux, uy = -B, A
    t_lo = t_hi = None  # None stands for -inf / +inf respectively
    lo_row = hi_row = None
    for row in inserted:
        aj, bj, alj, _ = row
        AJ, BJ, ALJ = Fraction(aj), Fraction(bj), Fraction(alj)
        coef = AJ * ux + BJ * uy
        rhs = -ALJ - (AJ * p0x + BJ * p0y)
        if coef == 0:
            if rhs < 0:
                if AJ * A + BJ * B < 0:
                    return ("infeasible", _refine_witness([k_row, row]))
                raise AssertionError("parallel same-side constraint cannot cut the line")
            continue
        bound = rhs / coef
        if coef > 0:
            if t_hi is None or bound < t_hi:
                t_hi, hi_row = bound, row
        else:
            if t_lo is None or bound > t_lo:
                t_lo, lo_row = bound, row
    if t_lo is not None and t_hi is not None and t_lo > t_hi:
        return ("infeasible", _refine_witness([k_row, lo_row, hi_row]))
    slope = Fraction(cx) * ux + Fraction(cy) * uy
    if slope == 0:
        zero = Fraction(0)
        lo = zero if t_lo is None else max(zero, t_lo)
        anchor = lo if t_hi is None else min(lo, t_hi)
        cands = [anchor]
        if t_lo is not None:
            cands.append(t_lo)
        if t_hi is not None:
            cands.append(t_hi)
        bx, by = min((p0x + tc * ux, p0y + tc * uy) for tc in cands)
        return ("point", Point2(float(bx), float(by)))
    t = t_hi if slope > 0 else t_lo
    if t is None:
        raise AssertionError("1-d subproblem unbounded despite bracket certificate")
    return ("point", Point2(float(p0x + t * ux), float(p0y + t * uy)))


def _solve_on_line(
    k_row: Row, inserted: list[Row], cx: float, cy: float, tol: float
):
    """Re-optimize along the boundary line of `k_row` subject to `inserted`.

    Returns ("point", Point2) or ("infeasible", witness_tuple).  Bracket
    decisions within a relative `tol` window are handed to the exact-rational
    twin: the foot-of-origin parametrization rounds, and that rounding must
    not turn a pinched-to-a-point bracket into a bogus infeasibility
    certificate (or vice versa).
    """
    a, b, alpha, _kidx = k_row
    nn = a * a + b * b
    p0x, p0y = -alpha * a / nn, -alpha * b / nn  # foot of the origin
    ux, uy = -b, a  # run along the boundary
    t_lo, lo_row = -INF, None
    t_hi, hi_row = INF, None
    for row in inserted:
        aj, bj, alj, _ = row
        coef = aj * ux + bj * uy
        rhs = -alj - (aj * p0x + bj * p0y)
        if coef == 0.0:
            if rhs < 0.0:
                if rhs >= -tol * max(1.0, abs(alj)):
                    return _solve_on_line_exact(k_row, inserted, cx, cy)
                if aj * a + bj * b < 0.0:
                    return ("infeasible", _refine_witness([k_row, row]))
                raise AssertionError("parallel same-side constraint cannot cut the line")
            continue
        bound = rhs / coef
        if coef > 0.0:
            if bound < t_hi:
                t_hi, hi_row = bound, row
        else:
            if bound > t_lo:
                t_lo, lo_row = bound, row
    # a bracket with an infinite end is not pinched, however tol * inf reads
    if -INF < t_lo and t_hi < INF and abs(t_lo - t_hi) <= tol * max(1.0, abs(t_lo), abs(t_hi)):
        return _solve_on_line_exact(k_row, inserted, cx, cy)
    if t_lo > t_hi:
        assert lo_row is not None and hi_row is not None
        return ("infeasible", _refine_witness([k_row, lo_row, hi_row]))
    slope = cx * ux + cy * uy
    if slope > 0.0:
        t = t_hi
    elif slope < 0.0:
        t = t_lo
    else:
        # flat objective along the line: deterministic, prefer the lex-least
        # finite candidate (clamped foot as fallback anchor)
        anchor = min(max(0.0, t_lo), t_hi)
        cands = [anchor]
        if not math.isinf(t_lo):
            cands.append(t_lo)
        if not math.isinf(t_hi):
            cands.append(t_hi)
        best = None
        for tc in cands:
            pt = Point2(p0x + tc * ux, p0y + tc * uy)
            if best is None or _lex_less(pt, best):
                best = pt
        return ("point", best)
    if math.isinf(t):
        return _solve_on_line_exact(k_row, inserted, cx, cy)
    return ("point", Point2(p0x + t * ux, p0y + t * uy))


def _feasible_point_unbounded(rows: list[Row], d: Point2):
    """A feasible point when d is a recession direction, or an infeasible pair.

    Constraints orthogonal to d form a 1-d system across d; the rest recede
    and are switched on by walking far enough along d.
    """
    dx, dy = d.x1, d.x2
    ex, ey = -dy, dx
    s_lo, lo_row = -INF, None
    s_hi, hi_row = INF, None
    cross_rows: list[Row] = []
    for row in rows:
        a, b, alpha, _ = row
        if a * dx + b * dy == 0.0:
            coef = a * ex + b * ey
            bound = -alpha / coef
            if coef > 0.0:
                if bound < s_hi:
                    s_hi, hi_row = bound, row
            else:
                if bound > s_lo:
                    s_lo, lo_row = bound, row
        else:
            cross_rows.append(row)
    if s_lo > s_hi:
        if s_lo - s_hi <= DEFAULT_TOL * max(1.0, abs(s_lo), abs(s_hi)):
            # antiparallel cuts pinched to one line; rounding in the cut
            # coefficients must not report the degenerate strip as empty
            s_lo = s_hi = 0.5 * (s_lo + s_hi)
        else:
            assert lo_row is not None and hi_row is not None
            return ("infeasible", _refine_witness([lo_row, hi_row]))
    s = min(max(0.0, s_lo), s_hi)
    t = 0.0
    for a, b, alpha, _ in cross_rows:
        # need t*(<h,d>) <= -alpha - s*<h,e>, with <h,d> < 0
        bound = (-alpha - s * (a * ex + b * ey)) / (a * dx + b * dy)
        if bound > t:
            t = bound
    return ("point", Point2(s * ex + t * dx, s * ey + t * dy))


@lru_cache(maxsize=128)
def _shuffled(m: int, seed: int) -> tuple[int, ...]:
    """range(m) in a seeded random order; cached, as seeding a generator
    costs more than a small LP."""
    order = list(range(m))
    random.Random(seed).shuffle(order)
    return tuple(order)


def _solve_max(rows: list[Row], cx: float, cy: float, seed: int, tol: float = DEFAULT_TOL):
    """Maximize (cx, cy) over the rows: from the bracketing pair of
    `_boundedness`, insert the other rows in a seeded random order, which
    keeps the expected-time bound of randomized incremental LP (Seidel,
    Discrete Comput. Geom. 1991).

    Returns one of
      ("optimal", value, point) | ("unbounded", direction, point) |
      ("infeasible", witness_tuple)
    where the unbounded outcome still carries a feasible point.
    """
    if not rows:
        if cx == 0.0 and cy == 0.0:
            return ("optimal", 0.0, Point2(0.0, 0.0))
        return ("unbounded", Point2(cx, cy), Point2(0.0, 0.0))
    verdict = _boundedness(rows, cx, cy)
    if verdict[0] == "direction":
        d = verdict[1]
        got = _feasible_point_unbounded(rows, d)
        if got[0] == "infeasible":
            return got
        return ("unbounded", d, got[1])

    _, pa, pb = verdict
    ra, rb = rows[pa], rows[pb]
    a1, b1, al1, _ = ra
    a2, b2, al2, _ = rb
    det = a1 * b2 - b1 * a2
    inserted: list[Row]
    if pa == pb:
        nn = a1 * a1 + b1 * b1
        v = Point2(-al1 * a1 / nn, -al1 * b1 / nn)
        inserted = [ra]
    elif det != 0.0:
        v = Point2((-al1 * b2 + al2 * b1) / det, (-al2 * a1 + al1 * a2) / det)
        inserted = [ra, rb]
    else:
        dot = a1 * a2 + b1 * b2
        nn1 = a1 * a1 + b1 * b1
        if dot > 0.0:
            # nested half-planes: the optimum sits on the tighter boundary
            s = dot / nn1  # rb normal = s * ra normal
            if -al2 / s < -al1:
                nn2 = a2 * a2 + b2 * b2
                v = Point2(-al2 * a2 / nn2, -al2 * b2 / nn2)
            else:
                v = Point2(-al1 * a1 / nn1, -al1 * b1 / nn1)
        else:
            # opposite normals: a strip, possibly empty
            if _pair_infeasible(ra, rb):
                return ("infeasible", _refine_witness([ra, rb]))
            if a1 * cx + b1 * cy > 0.0:
                v = Point2(-al1 * a1 / nn1, -al1 * b1 / nn1)
            else:
                nn2 = a2 * a2 + b2 * b2
                v = Point2(-al2 * a2 / nn2, -al2 * b2 / nn2)
        inserted = [ra, rb]

    for p in _shuffled(len(rows), seed):
        if p == pa or p == pb:
            continue
        row = rows[p]
        a, b, alpha, _ = row
        if a * v.x1 + b * v.x2 + alpha > tol:
            got = _solve_on_line(row, inserted, cx, cy, tol)
            if got[0] == "infeasible":
                return got
            v = got[1]
        inserted.append(row)
    return ("optimal", _exact_value(rows, v, cx, cy, tol), v)


def _ints(*xs: float) -> tuple[list[int], int]:
    """Integers in the ratio of the floats, and the power of two that takes
    the floats to them."""
    ratios = [x.as_integer_ratio() for x in xs]
    q = max(d for _, d in ratios)
    return [p * (q // d) for p, d in ratios], q


def _exact_value(rows: list[Row], v: Point2, cx: float, cy: float, tol: float) -> float:
    """The correctly rounded maximum of (cx, cy) over the rows, given a
    float optimum `v`.

    The optimal basis is among the rows active at `v`, up to a window
    relative to the row and to the size of `v` that holds the rounding of
    `v`, so the least `_pair_bound` of those rows is the exact optimum.
    Should no active row bound c, the float value at `v` stands.
    """
    x1, x2 = v
    size = max(abs(x1), abs(x2))
    active = {
        (a, b, al)
        for a, b, al, _ in rows
        if abs(a * x1 + b * x2 + al) <= tol * ((abs(a) + abs(b)) * size + abs(al))
    }
    (Cx, Cy), q = _ints(cx, cy)
    best = _pair_bound([_ints(*r)[0] for r in active], Cx, Cy, q)
    if best == INF:
        best = cx * x1 + cy * x2
    return best + 0.0  # a zero optimum is +0.0


def _pair_bound(ints: list[list[int]], Cx: int, Cy: int, q: int) -> float:
    """The least bound on the maximum of (Cx, Cy) / q that one of the rows
    (A, B, L) or a pair of them gives, correctly rounded; INF when none
    bounds it.

    When c is in cone{h_i, h_j}, weak duality bounds the maximum by the
    exact value at the vertex of rows i and j (or, for one row whose normal
    is parallel to c, at its boundary), and an optimal basis attains the
    bound.  Evaluated in integers, as `int / int` rounds correctly.
    """
    best = INF
    for i, (A1, B1, L1) in enumerate(ints):
        dot = Cx * A1 + Cy * B1
        if Cx * B1 == Cy * A1 and dot > 0:
            best = min(best, -L1 * dot / (q * (A1 * A1 + B1 * B1)))
        for A2, B2, L2 in ints[i + 1:]:
            det = A1 * B2 - B1 * A2
            mu, nu = Cx * B2 - Cy * A2, A1 * Cy - B1 * Cx  # c = (mu h1 + nu h2) / det
            if det > 0 and mu >= 0 and nu >= 0 or det < 0 and mu <= 0 and nu <= 0:
                best = min(best, (Cx * (B1 * L2 - L1 * B2) + Cy * (L1 * A2 - L2 * A1)) / (q * det))
    return best


# ---------------------------------------------------------------------------
# public API


def _check_sense(sense: str) -> None:
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def lp2d_optimize(
    constraints: Sequence[HalfPlane | WholePlane],
    c: Point2 | tuple[float, float],
    sense: str = "max",
    *,
    seed: int = 0,
) -> LpOutcome:
    """Optimize <c, u> over the intersection of the constraints.

    Unbounded outcomes carry a direction that improves the requested sense
    (<c,d> > 0 for max, < 0 for min) and recedes inside the feasible set.
    A zero objective reports Optimal(0, some feasible point).
    """
    _check_sense(sense)
    cx, cy = float(c[0]), float(c[1])
    rows = _rows_from(constraints)
    if cx == 0.0 and cy == 0.0:
        got = _solve_max(rows, 1.0, 0.0, seed)
        if got[0] == "infeasible":
            return Infeasible(got[1])
        return Optimal(0.0, got[2])
    flip = -1.0 if sense == "min" else 1.0
    got = _solve_max(rows, flip * cx, flip * cy, seed)
    if got[0] == "infeasible":
        return Infeasible(got[1])
    if got[0] == "unbounded":
        return Unbounded(got[1])
    return Optimal(flip * got[1], got[2])


# ---------------------------------------------------------------------------
# brute-force twin (oracle for <= 20 constraints)


def lp2d_brute_force(
    constraints: Sequence[HalfPlane | WholePlane],
    c: Point2 | tuple[float, float],
    sense: str = "max",
    tol: float = DEFAULT_TOL,
) -> LpOutcome:
    """Quadratic-candidate solver with the same contract as lp2d_optimize.

    Candidate points are all pairwise boundary crossings, each boundary's
    nearest point to the origin, and the origin itself; candidate recession
    directions are the quarter-turned and negated normals plus the objective.
    """
    if len(constraints) > 20:
        raise ValueError("brute-force solver is capped at 20 constraints")
    _check_sense(sense)
    cx, cy = float(c[0]), float(c[1])
    flip = -1.0 if sense == "min" else 1.0
    fx, fy = flip * cx, flip * cy
    rows = _rows_from(constraints)

    if not rows:
        if cx == 0.0 and cy == 0.0:
            return Optimal(0.0, Point2(0.0, 0.0))
        return Unbounded(Point2(fx, fy))

    cands: list[Point2] = [Point2(0.0, 0.0)]
    for a, b, alpha, _ in rows:
        nn = a * a + b * b
        cands.append(Point2(-alpha * a / nn, -alpha * b / nn))
    for i in range(len(rows)):
        a1, b1, al1, _ = rows[i]
        for j in range(i + 1, len(rows)):
            a2, b2, al2, _ = rows[j]
            det = a1 * b2 - b1 * a2
            if det != 0.0:
                cands.append(
                    Point2((-al1 * b2 + al2 * b1) / det, (-al2 * a1 + al1 * a2) / det)
                )

    def inside(p: Point2) -> bool:
        return all(a * p.x1 + b * p.x2 + alpha <= tol for a, b, alpha, _ in rows)

    feas = [p for p in cands if inside(p)]
    if not feas:
        # Helly: some pair or triple must already be infeasible
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _pair_infeasible(rows[i], rows[j]):
                    return Infeasible(tuple(sorted((rows[i][3], rows[j][3]))))
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                for k in range(j + 1, len(rows)):
                    sub = [rows[i], rows[j], rows[k]]
                    sub_c = [Point2(0.0, 0.0)]
                    for a, b, alpha, _ in sub:
                        nn = a * a + b * b
                        sub_c.append(Point2(-alpha * a / nn, -alpha * b / nn))
                    for p in range(3):
                        a1, b1, al1, _ = sub[p]
                        for q in range(p + 1, 3):
                            a2, b2, al2, _ = sub[q]
                            det = a1 * b2 - b1 * a2
                            if det != 0.0:
                                sub_c.append(
                                    Point2(
                                        (-al1 * b2 + al2 * b1) / det,
                                        (-al2 * a1 + al1 * a2) / det,
                                    )
                                )
                        if not any(
                            all(
                                a * pt.x1 + b * pt.x2 + alpha <= tol
                                for a, b, alpha, _ in sub
                            )
                            for pt in sub_c
                        ):
                            return Infeasible(
                                tuple(sorted((rows[i][3], rows[j][3], rows[k][3])))
                            )
        raise AssertionError("no candidate feasible yet no small witness found")

    dirs: list[Point2] = [Point2(fx, fy)]
    for a, b, _alpha, _ in rows:
        dirs.extend([Point2(-b, a), Point2(b, -a), Point2(-a, -b)])
    for d in dirs:
        if fx * d.x1 + fy * d.x2 > 0.0 and all(
            a * d.x1 + b * d.x2 <= 0.0 for a, b, _alpha, _ in rows
        ):
            return Unbounded(d)

    best_val = max(fx * p.x1 + fy * p.x2 for p in feas)
    best = None
    for p in feas:
        if fx * p.x1 + fy * p.x2 == best_val:
            if best is None or _lex_less(p, best):
                best = p
    return Optimal(flip * best_val, best)
