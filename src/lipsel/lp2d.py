"""Small linear programs over intersections of closed half-planes, exactly.

One routine, `_envelope`, intersects half-planes a*x + b*y <= c with integer
data: one deque pass over the normals in exact angular order keeps the rows
that the others do not imply, or reports 2 or 3 rows that are already
jointly empty (Helly), a disjoint antiparallel pair where there is one.  It
rounds nothing and draws no random numbers.  A float row converts to
integers exactly (`_exact`), since every float is a dyadic rational.

The envelope takes its rows already in angular order.  One routine,
`_by_angle`, sorts them; callers whose rows arrive in any order call it
first (`lp2d_optimize`, the pair envelopes of `oracle`), and stage 2 of
`selection` emits its rows in an order sorted once per instance.

On an envelope the 1 or 2 kept rows that bracket a linear objective
(`_bracket`: a row parallel to it, or two rows whose normals hold it in
their cone) attain its maximum: weak duality bounds it by their vertex,
and an optimal basis attains the bound.  The envelope serves the pair
envelopes of `oracle`, every hull of `selection`'s stage 2 and the
bracketing rows it shares per set of neighbours, and `lp2d_optimize`.

A quadratic brute-force twin (`lp2d_brute_force`) serves as an oracle for
small systems; it shares no solver code with the exact path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Deque, List, Sequence, Tuple, Union

from lipsel.geometry import DEFAULT_TOL, HalfPlane, Point2

INF = math.inf

# internal row form: (a, b, alpha, original_index) for a*u1 + b*u2 + alpha <= 0
Row = Tuple[float, float, float, int]
# the exact form: (a, b, c, tag) for a*x + b*y <= c, integers and any tag
PairRow = Tuple[int, int, int, Any]


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


def _rows_from(constraints: Sequence[HalfPlane]) -> list[Row]:
    rows: list[Row] = []
    for i, cst in enumerate(constraints):
        if not isinstance(cst, HalfPlane):
            raise ValueError(f"constraint {i} is not a HalfPlane")
        if cst.h.x1 == 0.0 and cst.h.x2 == 0.0:
            raise ValueError(f"constraint {i} has a zero normal")
        rows.append((cst.h.x1, cst.h.x2, cst.alpha, i))
    return rows


# ---------------------------------------------------------------------------
# the exact half-plane envelope


def _exact(a: float, b: float, alpha: float, tag: Any = None) -> PairRow:
    """The row a*x + b*y + alpha <= 0 as integers (A, B, C, tag), meaning
    A*x + B*y <= C."""
    return _offset(_exact_normal(a, b), alpha, tag)


def _exact_normal(a: float, b: float) -> Tuple[int, int, int]:
    """The normal (a, b) as integers (A, B, q) = (q*a, q*b, q), q the least
    power of two that makes both integers."""
    (pa, qa), (pb, qb) = a.as_integer_ratio(), b.as_integer_ratio()
    q = max(qa, qb)  # powers of two, so q is their lcm
    return pa * (q // qa), pb * (q // qb), q


def _offset(normal: Sequence[int], alpha: float, tag: Any = None) -> PairRow:
    """`_exact(a, b, alpha, tag)` from the exact normal (A, B, q, ...) of
    (a, b) (`_exact_normal`): only alpha converts."""
    A, B, q = normal[0], normal[1], normal[2]
    p, r = alpha.as_integer_ratio()
    if r <= q:  # powers of two, so the larger is their lcm
        return A, B, -p * (q // r), tag
    return A * (r // q), B * (r // q), -p, tag


class _Empty(Exception):
    """The rows in `args` (none for a constant row) are jointly empty."""


def _cross(p: PairRow, q: PairRow) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _disjoint(p: PairRow, q: PairRow) -> bool:
    """Whether p and q are antiparallel and bound no strip."""
    return (
        _cross(p, q) == 0
        and p[0] * q[0] + p[1] * q[1] < 0
        and p[2] * (abs(q[0]) + abs(q[1])) + q[2] * (abs(p[0]) + abs(p[1])) < 0
    )


def _implied(first: PairRow, mid: PairRow, last: PairRow) -> bool:
    """Whether `mid`'s normal is a positive combination of the other two and
    the vertex of two of the rows is not strictly inside the third.  Raises
    `_Empty` if it is strictly outside and no cross product is negative: the
    normals positively span the plane (the three rows are empty), or
    antiparallel rows bound no strip (those two are)."""
    (a1, b1, k1, _), (a2, b2, k2, _), (a3, b3, k3, _) = first, mid, last
    c1, c2, c3 = a1 * b2 - b1 * a2, a2 * b3 - b2 * a3, a3 * b1 - b3 * a1
    if c1 < 0 or c2 < 0 or (c3 < 0 and not (c1 and c2)):
        return False
    # > 0, 0 or < 0 as the vertex of two of the rows is outside, on or
    # inside the third: of first and mid when they cross, else of mid and last
    if c1:
        excess = a3 * (k1 * b2 - b1 * k2) + b3 * (a1 * k2 - k1 * a2) - k3 * c1
    else:
        excess = a1 * (k2 * b3 - b2 * k3) + b1 * (a2 * k3 - k2 * a3) - k1 * c2
    if excess > 0 and c3 >= 0:
        pair = (first, last) if not c3 else (first, mid) if not c1 else (mid, last) if not c2 else ()
        raise _Empty(*(pair or (first, mid, last)))
    return excess >= 0 and c3 < 0


def _float_angle(r: PairRow) -> float:
    """The angle of r's normal in [0, 2*pi), rounded."""
    a, b = r[0], r[1]
    m = max(abs(a), abs(b))  # int / int neither overflows nor loses the ratio's sign
    t = math.atan2(b / m, a / m)
    return t if t >= 0.0 else t + 2.0 * math.pi


def _half(r: PairRow) -> bool:
    """Whether the normal's angle is in [pi, 2*pi)."""
    return r[1] < 0 or r[1] == 0 and r[0] < 0


def _by_angle(rows: Sequence[PairRow]) -> List[PairRow]:
    """The rows by the angle of their normals in [0, 2*pi), exactly, rows
    of one direction in input order: sorted by a float angle, which can
    misplace only nearly parallel normals, then put right by insertion with
    exact comparisons (half-planes of angles, then cross products)."""
    out = sorted(rows, key=_float_angle)
    for i in range(1, len(out)):
        r, j, hr = out[i], i, _half(out[i])
        while j and (_half(out[j - 1]), -_cross(out[j - 1], r)) > (hr, 0):
            out[j] = out[j - 1]
            j -= 1
        out[j] = r
    return out


def _envelope(rows: Sequence[PairRow]) -> List[PairRow]:
    """The rows that the other rows do not imply, in angular order from
    after a gap of at least pi between normals if there is one; raises
    `_Empty` with 2 or 3 rows that are jointly empty instead.  The rows
    must come in the angular order of `_by_angle`, and normals must be
    nonzero; of rows with one direction only the tightest (the first on
    ties) takes part.  One deque pass of half-plane intersection."""
    unique: List[PairRow] = []
    for r in rows:
        if unique:
            u = unique[-1]
            if u[0] * r[1] == u[1] * r[0] and u[0] * r[0] + u[1] * r[1] > 0:  # one direction
                if r[2] * (abs(u[0]) + abs(u[1])) < u[2] * (abs(r[0]) + abs(r[1])):
                    unique[-1] = r
                continue
        unique.append(r)
    start = next((j for j in range(len(unique)) if _cross(unique[j - 1], unique[j]) <= 0), 0)
    kept: Deque[PairRow] = deque()
    for r in unique[start:] + unique[:start]:
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
    if len(kept) == 2 and _disjoint(*kept):
        raise _Empty(*kept)
    return list(kept)


def _bracket(kept: List[PairRow], Cx: int, Cy: int) -> Tuple[PairRow, ...]:
    """Kept rows whose normals hold c in their cone: one parallel to c, or
    two consecutive ones less than pi apart with c strictly between them;
    () when there are none, which on an envelope means c is unbounded."""
    for r in kept:
        if r[0] * Cy == r[1] * Cx and r[0] * Cx + r[1] * Cy > 0:
            return (r,)
    for r, s in zip(kept, kept[1:] + kept[:1]):
        if r[0] * s[1] > r[1] * s[0] and r[0] * Cy > r[1] * Cx and Cx * s[1] > Cy * s[0]:
            return r, s
    return ()


def _on_line(r: PairRow, kept: List[PairRow]) -> Tuple[Fraction, Fraction]:
    """The point of the kept rows' polygon on r's boundary line nearest the
    foot of the origin on that line, exactly; r is one of the kept rows."""
    A, B, C, _ = r
    N = A * A + B * B
    lo, hi = -INF, INF  # the foot plus t * (-B, A) is in the polygon for t in [lo, hi]
    for a, b, c, _ in kept:
        coef = A * b - B * a
        if coef:
            t = Fraction(c * N - (a * A + b * B) * C, N * coef)
            if coef > 0:
                hi = min(hi, t)
            else:
                lo = max(lo, t)
    t = min(max(0, lo), hi)
    return Fraction(A * C, N) - t * B, Fraction(B * C, N) + t * A


# ---------------------------------------------------------------------------
# public API


def _check_sense(sense: str) -> None:
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def lp2d_optimize(
    constraints: Sequence[HalfPlane],
    c: Point2 | tuple[float, float],
    sense: str = "max",
    *,
    seed: int = 0,
) -> LpOutcome:
    """Optimize <c, u> over the intersection of the constraints, exactly.

    Infeasible carries 2 or 3 input indices whose constraints are jointly
    empty, a disjoint pair where the envelope finds one.  Unbounded carries
    a direction that improves the requested sense (<c,d> > 0 for max, < 0
    for min) and recedes inside the feasible set: a normal turned a quarter
    into the gap of at least pi between the normals, or c itself.  Optimal
    carries the float rounding of an exact optimal point, and the correctly
    rounded optimum, its exact value: the point is the vertex of the two
    kept rows around c, or, when a kept row's normal is parallel to c, the
    point of its optimal edge nearest the foot of the origin on its line.
    A zero objective reports Optimal(0, such a point of the first kept
    row's edge).  `seed` is ignored: nothing here draws random numbers.
    """
    _check_sense(sense)
    cx, cy = float(c[0]), float(c[1])
    flip = -1.0 if sense == "min" else 1.0
    try:
        kept = _envelope(_by_angle([_exact(*row) for row in _rows_from(constraints)]))
    except _Empty as empty:
        return Infeasible(tuple(sorted(r[3] for r in empty.args)))
    C = _exact(flip * cx, flip * cy, 0.0)  # the maximised objective, in integers
    if not (C[0] or C[1]):
        if not kept:
            return Optimal(0.0, Point2(0.0, 0.0))
        C = kept[0]
    bracket = _bracket(kept, C[0], C[1])
    if not bracket:
        for r, s in zip(kept, kept[1:] + kept[:1]):
            if _cross(r, s) <= 0:  # the gap runs counterclockwise from r to s
                if _cross(r, C) > 0:
                    a, b = constraints[r[3]].h
                    return Unbounded(Point2(-b, a))
                if _cross(C, s) > 0:
                    a, b = constraints[s[3]].h
                    return Unbounded(Point2(b, -a))
        return Unbounded(Point2(flip * cx, flip * cy))
    if len(bracket) == 2:
        (A1, B1, C1, _), (A2, B2, C2, _) = bracket
        det = A1 * B2 - B1 * A2
        x, y = Fraction(C1 * B2 - B1 * C2, det), Fraction(A1 * C2 - C1 * A2, det)
    else:
        x, y = _on_line(bracket[0], kept)
    return Optimal(float(Fraction(cx) * x + Fraction(cy) * y), Point2(float(x), float(y)))


# ---------------------------------------------------------------------------
# brute-force twin (oracle for <= 20 constraints)


def _lex_less(p: Point2, q: Point2) -> bool:
    return (p.x1, p.x2) < (q.x1, q.x2)


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


def lp2d_brute_force(
    constraints: Sequence[HalfPlane],
    c: Point2 | tuple[float, float],
    sense: str = "max",
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
        return all(a * p.x1 + b * p.x2 + alpha <= DEFAULT_TOL for a, b, alpha, _ in rows)

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
                                a * pt.x1 + b * pt.x2 + alpha <= DEFAULT_TOL
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
