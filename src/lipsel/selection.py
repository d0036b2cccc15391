"""The two-parameter projection algorithm for polygon valued maps.

Given an instance (a finite pseudometric space whose points carry convex
polygons, each an intersection of closed half-planes; a half-plane instance is
the one-sided case) and a parameter pair (l1, l2), the algorithm either
returns a selection — one point inside each polygon — whose Lipschitz
seminorm is at most l1 + 2*l2, or stops with NoGo, which certifies that no
selection has seminorm <= min(l1, l2).  The pipeline:

  1. intersect each point's sides with every neighbour's sides inflated by
     l1 times the distance; empty => NoGo at stage 1;
  2. take the rectangular (axis-parallel bounding) hull of each intersection;
  3. shrink each hull against the neighbours' hulls inflated by l2 times the
     distance; an empty shrink => NoGo at stage 3;
  4. take the center of the origin-nearest face of each shrunk rectangle;
  5. push that center back into the stage-1 intersection by one half-plane
     projection.

Stages 1 and 3 test emptiness with a small bias toward success (strict
comparison against +tol), so boundary parameter values succeed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from lipsel.geometry import (
    DEFAULT_TOL,
    EMPTY,
    EmptySet,
    ExtInterval,
    ExtRect,
    HalfPlane,
    MaybeRect,
    Point2,
    ext_div,
    ext_sub,
    inflate_halfplane,
    inflation_radius,
    project_to_halfplane,
    rect_project_origin_center,
    uniform_norm,
)
from lipsel.lp2d import Row, _plan, _solve_max
from lipsel.metric import PseudometricSpace

INF = math.inf

# slack used by the final membership/seminorm verification
VERIFY_TOL = 1e-7


class LambdaPair(NamedTuple):
    l1: float
    l2: float


@dataclass(frozen=True)
class PolygonInstance:
    """Points of a pseudometric space, each carrying a polygon: a nonempty
    list of half-planes (its sides) whose intersection is the point's set."""

    space: PseudometricSpace
    polygons: List[List[HalfPlane]]

    def __post_init__(self) -> None:
        if len(self.polygons) != self.space.n:
            raise ValueError("one polygon per point is required")
        for i, poly in enumerate(self.polygons):
            if not poly:
                raise ValueError(f"polygon {i} has no half-planes")

    @property
    def n(self) -> int:
        return self.space.n

    @cached_property
    def sides(self) -> List[Tuple[int, float, float, float, float]]:
        """(point, h1, h2, alpha, |h1| + |h2|) for every side, in (point,
        side) order: the flat form the stages iterate over."""
        return [
            (y, hp.h.x1, hp.h.x2, hp.alpha, abs(hp.h.x1) + abs(hp.h.x2))
            for y, poly in enumerate(self.polygons)
            for hp in poly
        ]

    @property
    def planes(self) -> List[HalfPlane]:
        """The half-plane of each point of a one-sided instance."""
        if any(len(poly) != 1 for poly in self.polygons):
            raise ValueError("planes is defined for one-sided instances only")
        return [poly[0] for poly in self.polygons]


def HalfPlaneInstance(space: PseudometricSpace, planes: Sequence[HalfPlane]) -> PolygonInstance:
    """The one-sided instance with one half-plane per point."""
    return PolygonInstance(space, [[hp] for hp in planes])


@dataclass(frozen=True)
class NoGo:
    """stage 1: some stage-1 intersection is empty; stage 3: some shrunk
    rectangle is empty.  Certifies there is no selection with seminorm
    <= min(l1, l2).  witness: smallest point index involved."""

    stage: int
    witness: int


@dataclass(frozen=True)
class Success:
    f: List[Point2]  # the selection
    g: List[Point2]  # stage-4 centers
    hulls: List[ExtRect]  # stage-2 rectangles
    refined: List[ExtRect]  # stage-3 rectangles
    seminorm: float  # Lipschitz seminorm of f, as verified


Outcome = Union[NoGo, Success]


@dataclass(frozen=True)
class SelectionReport:
    ok: bool
    seminorm: float
    bound: float
    reason: Optional[str] = None  # "membership" | "seminorm"
    index: Optional[int] = None
    pair: Optional[Tuple[int, int]] = None


# ---------------------------------------------------------------------------
# stage 1: inflated intersections


def _point_rows(inst: PolygonInstance, l1: float, x: int) -> List[Row]:
    """The rows whose intersection is the stage-1 set at x: every side of
    every point y at finite distance, inflated by l1 times the distance (x's
    own sides with radius 0), in (y, side) order.  The row index is y."""
    drow = inst.space.d[x]
    return [
        (h1, h2, alpha - l1 * rho * norm1, y)
        for y, h1, h2, alpha, norm1 in inst.sides
        if (rho := drow[y]) != INF
    ]


# ---------------------------------------------------------------------------
# stage 2: rectangular hulls


def _snap_ends(lo: float, hi: float, tol: float) -> Tuple[float, float]:
    """Collapse a float-inverted pair of ends; inversion beyond tol is a bug."""
    if lo <= hi:
        return lo, hi
    if lo - hi <= tol:
        mid = (lo + hi) / 2.0
        return mid, mid
    raise AssertionError(f"interval ends inverted beyond tolerance: [{lo}, {hi}]")


def _hull_from_rows(rows: List[Row], seed: int, plans: Optional[list] = None) -> MaybeRect:
    """`plans` holds one `_plan` per direction for rows with these normals;
    a slot is filled on first use, so an early EMPTY plans nothing more."""
    if plans is None:
        plans = [None] * 4
    ends = []
    for k, (cx, cy) in enumerate(((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))):
        if plans[k] is None:
            plans[k] = _plan(rows, cx, cy, seed)
        got = _solve_max(rows, cx, cy, seed, plan=plans[k])
        if got[0] == "infeasible":
            return EMPTY
        if got[0] == "unbounded":
            ends.append(INF)
        else:
            ends.append(got[1])
    lo1, hi1 = _snap_ends(-ends[0], ends[1], DEFAULT_TOL)
    lo2, hi2 = _snap_ends(-ends[2], ends[3], DEFAULT_TOL)
    return ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2))


# ---------------------------------------------------------------------------
# stage 3: shrink hulls against neighbours


def step3_refine_rects(
    hulls: Sequence[ExtRect], l2: float, space: PseudometricSpace
) -> Union[List[ExtRect], NoGo]:
    """Shrink every hull so that neighbouring rectangles stay within l2 times
    the distance of each other, or NoGo when some pair is too far apart.

    The pairwise criterion (largest end gap <= l2 * distance) is checked
    first; when it holds, per-axis max/min folds give the shrunk ends, which
    are then guaranteed nonempty up to float noise.
    """
    n = space.n
    if len(hulls) != n:
        raise ValueError("one hull per point is required")
    for x in range(n):
        tx = hulls[x]
        drow = space.d[x]
        for y in range(x + 1, n):
            r = inflation_radius(l2, drow[y])
            if r == INF:
                continue
            ty = hulls[y]
            gap = max(
                ext_sub(tx.ix.lo, ty.ix.hi),
                ext_sub(ty.ix.lo, tx.ix.hi),
                ext_sub(tx.iy.lo, ty.iy.hi),
                ext_sub(ty.iy.lo, tx.iy.hi),
            )
            if gap > r + DEFAULT_TOL:
                return NoGo(3, x)
    refined: List[ExtRect] = []
    for x in range(n):
        drow = space.d[x]
        lo1 = lo2 = -INF
        hi1 = hi2 = INF
        for y in range(n):
            r = inflation_radius(l2, drow[y])
            ty = hulls[y]
            v = ext_sub(ty.ix.lo, r)
            if v > lo1:
                lo1 = v
            v = ext_sub(ty.iy.lo, r)
            if v > lo2:
                lo2 = v
            # upper ends move up by r; +inf stays +inf
            v = ty.ix.hi + r if ty.ix.hi != INF else INF
            if v < hi1:
                hi1 = v
            v = ty.iy.hi + r if ty.iy.hi != INF else INF
            if v < hi2:
                hi2 = v
        lo1, hi1 = _snap_ends(lo1, hi1, DEFAULT_TOL)
        lo2, hi2 = _snap_ends(lo2, hi2, DEFAULT_TOL)
        refined.append(ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)))
    return refined


# ---------------------------------------------------------------------------
# stage 4: centers


def step4_centers(refined: Sequence[ExtRect]) -> List[Point2]:
    """The center of the origin-nearest face of each rectangle."""
    return [rect_project_origin_center(t) for t in refined]


# ---------------------------------------------------------------------------
# stage 5: push centers into the stage-1 sets


def step5_project(
    inst: PolygonInstance, l1: float, x: int, g: Point2, tol: float = DEFAULT_TOL
) -> Point2:
    """Nearest point of the stage-1 set at x from g.

    Because g lies in the rectangular hull of that set, its distance to the
    set is the largest of the distances to the individual inflated
    half-planes, and the projection onto the farthest one (first in
    (point, side) order on ties) already lands inside the set.
    """
    drow = inst.space.d[x]
    gx, gy = g
    best_d = 0.0
    best = -1
    for k, (y, h1, h2, alpha, norm1) in enumerate(inst.sides):
        rho = drow[y]
        if rho == INF:
            continue
        resid = h1 * gx + h2 * gy + alpha - l1 * rho * norm1
        if resid > 0.0:
            d = resid / norm1
            if d > best_d:
                best_d, best = d, k
    if best_d <= tol or best < 0:
        return g
    y, h1, h2, alpha, _ = inst.sides[best]
    inflated = inflate_halfplane(HalfPlane(Point2(h1, h2), alpha), l1 * drow[y])
    assert isinstance(inflated, HalfPlane)
    return project_to_halfplane(g, inflated, tol)


# ---------------------------------------------------------------------------
# the full pipeline


def _check_lambdas(lambdas: Tuple[float, float]) -> LambdaPair:
    l1, l2 = float(lambdas[0]), float(lambdas[1])
    for v in (l1, l2):
        if math.isnan(v) or math.isinf(v) or v < 0.0:
            raise ValueError("lambda parameters must be finite and >= 0")
    return LambdaPair(l1, l2)


def run_projection_algorithm(
    inst: PolygonInstance,
    lambdas: Tuple[float, float],
    *,
    seed: int = 0,
) -> Outcome:
    """Run stages 1-5; Success carries the selection plus stage diagnostics.

    The returned selection is re-verified internally (membership and the
    l1 + 2*l2 seminorm bound); a verification failure raises instead of
    returning a bad Success.
    """
    l1, l2 = _check_lambdas(lambdas)
    n = inst.n
    d = inst.space.d
    # A point's stage-1 rows, so all its results, depend only on its distance
    # row: a point with an earlier `twin` reuses the twin's results.  The
    # rows' normals depend only on which points are at finite distance, so
    # plans are shared per such set, keyed by the infinitely distant points
    # (not per component: `solve` does not check the triangle inequality).
    twin: List[int] = []
    plans: Dict[Tuple[int, ...], list] = {}
    hulls: List[ExtRect] = []
    for x in range(n):
        twin.append(_earlier_twin(d, x))
        if twin[x] >= 0:
            hulls.append(hulls[twin[x]])
            continue
        rows = _point_rows(inst, l1, x)
        drow = d[x]
        key = () if INF not in drow else tuple(y for y in range(n) if drow[y] == INF)
        hull = _hull_from_rows(rows, seed, plans.setdefault(key, [None] * 4))
        if isinstance(hull, EmptySet):
            return NoGo(1, x)
        hulls.append(hull)
    refined = step3_refine_rects(hulls, l2, inst.space)
    if isinstance(refined, NoGo):
        return refined
    g = step4_centers(refined)
    f: List[Point2] = []
    for x in range(n):
        f.append(f[twin[x]] if twin[x] >= 0 else step5_project(inst, l1, x, g[x]))
    report = verify_selection(inst, f, l1 + 2.0 * l2)
    if not report.ok:
        raise RuntimeError(f"internal verification failed: {report}")
    return Success(f, g, hulls, refined, report.seminorm)


def _earlier_twin(d: Sequence[Sequence[float]], x: int) -> int:
    """The first y < x at distance 0 from x when its distance row equals
    x's, else -1.  Under the triangle inequality every y at distance 0 has
    x's row, so the first one is the only candidate worth checking."""
    try:
        y = d[x].index(0.0, 0, x)
    except ValueError:
        return -1
    return y if d[y] == d[x] else -1


# ---------------------------------------------------------------------------
# seminorm and verification


def lipschitz_seminorm(f: Sequence[Point2], space: PseudometricSpace) -> float:
    """Largest displacement-to-distance ratio over pairs (0/0 counts as 0,
    positive/0 as +inf)."""
    n = space.n
    if len(f) != n:
        raise ValueError("one value per point is required")
    out = 0.0
    for i in range(n):
        fi = f[i]
        drow = space.d[i]
        for j in range(i + 1, n):
            fj = f[j]
            ratio = ext_div(
                max(abs(fi.x1 - fj.x1), abs(fi.x2 - fj.x2)), drow[j]
            )
            if ratio > out:
                out = ratio
    return out


def verify_selection(
    inst: PolygonInstance,
    f: Sequence[Point2],
    bound: float,
    tol: float = VERIFY_TOL,
) -> SelectionReport:
    """Check membership of every value and the seminorm bound.

    The first failure (membership in point order, then the lexicographically
    first bad pair) is reported; the seminorm field is always filled in.
    """
    n = inst.n
    if len(f) != n:
        raise ValueError("one value per point is required")
    seminorm = lipschitz_seminorm(f, inst.space)
    for i, h1, h2, alpha, _ in inst.sides:
        if h1 * f[i].x1 + h2 * f[i].x2 + alpha > tol:
            return SelectionReport(
                False, seminorm, bound, reason="membership", index=i
            )
    if seminorm > bound + tol:
        cap = (bound + tol)
        for i in range(n):
            for j in range(i + 1, n):
                gap = uniform_norm(f[i] - f[j])
                if gap > cap * inst.space.d[i][j]:
                    return SelectionReport(
                        False, seminorm, bound, reason="seminorm", pair=(i, j)
                    )
        return SelectionReport(False, seminorm, bound, reason="seminorm")
    return SelectionReport(True, seminorm, bound)


# ---------------------------------------------------------------------------
# the companion nonemptiness condition on triples


def wf_rect(
    inst: PolygonInstance,
    ltilde: float,
    x: int,
    xp: int,
    xpp: int,
    *,
    seed: int = 0,
) -> MaybeRect:
    """Rectangular hull of the intersection at x built from the sides of xp
    and xpp inflated by ltilde times their distances to x.  May be EMPTY;
    both distances infinite gives the whole plane."""
    rows: List[Row] = []
    for y in (xp, xpp):
        rho = inst.space.d[y][x]
        if rho == INF:
            continue
        for hp in inst.polygons[y]:
            h1, h2 = hp.h.x1, hp.h.x2
            rows.append((h1, h2, hp.alpha - ltilde * rho * (abs(h1) + abs(h2)), y))
    return _hull_from_rows(rows, seed)


def check_wnew(
    inst: PolygonInstance, ltilde: float, lam: float, *, seed: int = 0
) -> Tuple[bool, Optional[Tuple[int, int, int, int, int, int]]]:
    """Whether every pair of triple-hulls meets within lam times the distance.

    When this holds, the (ltilde, lam) run of the algorithm succeeds and its
    selection has seminorm at most 2*lam + ltilde.  Returns (True, None) or
    (False, first violating (x, xp, xpp, y, yp, ypp)) in lexicographic order.
    Capped at 8 points (the check enumerates all sextuples).
    """
    n = inst.n
    if n > 8:
        raise ValueError("check_wnew is capped at 8 points")
    rects: List[List[List[MaybeRect]]] = [
        [[wf_rect(inst, ltilde, x, xp, xpp, seed=seed) for xpp in range(n)] for xp in range(n)]
        for x in range(n)
    ]
    for x in range(n):
        for xp in range(n):
            for xpp in range(n):
                w1 = rects[x][xp][xpp]
                for y in range(n):
                    r = inflation_radius(lam, inst.space.d[x][y])
                    for yp in range(n):
                        for ypp in range(n):
                            w2 = rects[y][yp][ypp]
                            if isinstance(w1, EmptySet) or isinstance(w2, EmptySet):
                                return (False, (x, xp, xpp, y, yp, ypp))
                            gap = max(
                                ext_sub(w1.ix.lo, w2.ix.hi),
                                ext_sub(w2.ix.lo, w1.ix.hi),
                                ext_sub(w1.iy.lo, w2.iy.hi),
                                ext_sub(w2.iy.lo, w1.iy.hi),
                            )
                            if gap > r:
                                return (False, (x, xp, xpp, y, yp, ypp))
    return (True, None)
