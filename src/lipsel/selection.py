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

Stage 2 reads each hull off the polygon of one float angular sweep
(`_sweep_ends`); the sets it leaves aside go to the exact half-plane
envelope of `lp2d`, in integers.  A hull end is the correctly rounded exact
optimum either way, so it is the same on any subset of the rows that has
the same intersection.  Past a few points, stage 2 therefore first takes B,
the hull of a few of x's rows: its own sides and the sides of its nearest
points, plus, for a direction those leave unbounded, the rows that bound it
for every point with the same finite neighbours.  B contains the stage-1
set, and a row whose half-plane holds B strictly cannot cut that set, so
the hull is taken only on the rows that cut B, and stage 5 scans only the
sides of the points that own those rows.

Stage 3 folds each hull against its neighbours first and runs the pairwise
test for NoGo only when some fold comes out empty or pinched: every pair the
test flags leaves the fold of its smaller point so (`step3_refine_rects`).

A point's stage-1 set and stage-2 hull, its stage-3 fold once every hull
exists, its stage-5 projection, and a row of the seminorm's pairs depend on
no other point's result in the same phase.  So a solve of at least
SPLIT_MIN points runs each of these phases in two processes (`_split`): the
lower points in this one, the upper points in a child made by `os.fork`.
The pairwise NoGo test, `_snap_ends` and every error stay in this process
in point order, and the results, NoGos and errors equal those of the
serial run.  It forks only when `os.fork` and `os.sched_getaffinity`
exist, the process has one thread, and its CPU affinity holds at least two
CPUs; a child never outlives the phase that made it.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import nsmallest
from itertools import accumulate, compress, repeat
from math import atan2
from operator import add, gt, itemgetter, le, mul, sub, truediv
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
from lipsel.lp2d import Row, _Empty, _bracket, _envelope, _exact, _excess, _pair_bound
from lipsel.metric import PseudometricSpace

INF = math.inf

# slack used by the final membership/seminorm verification
VERIFY_TOL = 1e-7

# stage 2 builds x's outer box from the sides of x and its NEAREST nearest
# points, and skips the box when those hold at least 1/BOX_SHARE of x's rows:
# on fewer rows the box does not pay (on planted half-planes it breaks even
# near 100 rows; polygons with 4 sides at n = 100 gain from it)
NEAREST, BOX_SHARE = 8, 6

# a solve of at least SPLIT_MIN points runs its per-point phases in two
# processes (`_split`): one fork and pipe round trip costs about 4 ms in a
# 50 MB process and 7 ms in a 100 MB one, and the split breaks even near
# n = 150 on planted half-planes (2-vCPU x86 machine)
SPLIT_MIN = 200

# the objectives of the four hull ends: -lo1, hi1, -lo2, hi2
HULL_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


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
            for k, hp in enumerate(poly):
                if hp.h.x1 == 0 and hp.h.x2 == 0:
                    raise ValueError(f"point {i}, side {k}: half-plane normal must be nonzero")

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

    @cached_property
    def offsets(self) -> List[int]:
        """Point y's sides are `sides[offsets[y]:offsets[y + 1]]`."""
        return list(accumulate(map(len, self.polygons), initial=0))

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


def _point_rows(inst: PolygonInstance, l1: float, x: int, box: Optional[ExtRect] = None) -> List[Row]:
    """The rows whose intersection is the stage-1 set at x: every side of
    every point y at finite distance, inflated by l1 times the distance (x's
    own sides with radius 0), in (y, side) order.  The row index is y.

    Given a bounded `box` that contains the set, only the rows that can cut
    it are kept: a row goes when its half-plane holds the square around the
    box's center that holds the box, with a margin relative to the box's
    coordinates that covers the rounding of the test and of the box's ends.
    The test reads the row's own offset, so a side at infinite distance
    (offset -inf, or nan when l1 = 0) fails it."""
    drow = inst.space.d[x]
    if box is None:
        return [
            (h1, h2, alpha - l1 * rho * norm1, y)
            for y, h1, h2, alpha, norm1 in inst.sides
            if (rho := drow[y]) != INF
        ]
    (lo1, hi1), (lo2, hi2) = (box.ix.lo, box.ix.hi), (box.iy.lo, box.iy.hi)
    c1, c2 = (lo1 + hi1) / 2.0, (lo2 + hi2) / 2.0
    r = max(hi1 - lo1, hi2 - lo2) / 2.0 + DEFAULT_TOL * max(map(abs, (lo1, hi1, lo2, hi2)))
    return [
        (h1, h2, a, y)
        for y, h1, h2, alpha, norm1 in inst.sides
        if (a := alpha - l1 * drow[y] * norm1) + h1 * c1 + h2 * c2 >= -r * norm1
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


def _hull_from_rows(rows: List[Row]) -> MaybeRect:
    """The rectangular hull of the rows' intersection, or EMPTY: from one
    angular sweep (`_sweep_ends`) where it decides, else from the rows'
    exact envelope (`lp2d._envelope`)."""
    ends = _sweep_ends(rows)
    if ends is None:
        try:
            kept = _envelope([_exact(*row) for row in rows])
        except _Empty:
            return EMPTY
        ends = [_pair_bound(kept, cx, cy, 1) + 0.0 for cx, cy in HULL_DIRECTIONS]
    lo1, hi1 = _snap_ends(-ends[0], ends[1], DEFAULT_TOL)
    lo2, hi2 = _snap_ends(-ends[2], ends[3], DEFAULT_TOL)
    return ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2))


def _sweep_ends(rows: List[Row]) -> Optional[List[float]]:
    """The hull's values (-lo1, hi1, -lo2, hi2), or None where the exact
    envelope must decide.  One float sweep over the rows in the angular
    order of their normals builds the polygon (half-plane intersection with
    a deque), and each end is `_pair_bound` of the rows active at the
    polygon's extreme vertex: the exact optimum, since the optimal basis is
    among them.  A row cuts a vertex off when it is outside by more than
    both tol and the row's activity window, and any vertex within that band
    of a row not through it exactly is a close call.  Without close calls
    the polygon is exact up to rounding, so the set is not empty and its
    exact ends are these.  The envelope decides the rest: close calls,
    empty sets, consecutive normals not clearly less than pi apart (so every
    open direction), and sets no wider than tol * max(1, largest
    coordinate) in x or y (so pinched sets, and sets at scales where tol is
    not small)."""
    tol = DEFAULT_TOL
    A, B = list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))
    if len(rows) < 3 or not (min(A) < 0.0 < max(A) and min(B) < 0.0 < max(B)):
        return None  # too few rows, or an axis direction no normal bounds
    lines = sorted(
        (atan2(b, a), -al / n1, (a, b, al, n1, abs(al))) for a, b, al, _ in rows if (n1 := abs(a) + abs(b))
    )
    if len(lines) < len(rows):  # a zero normal
        return None
    qa: deque = deque()  # the polygon's rows (a, b, al, n1, |al|) so far
    qv: deque = deque()  # qv[k]: the `_vertex` of qa[k] and qa[k + 1]
    t0 = math.nan
    for t, _, row in lines:
        if t == t0:  # a parallel row no tighter than the one kept
            continue
        t0 = t
        if not (_drop_cut(qa, qv, row, 1, tol, False) and _drop_cut(qa, qv, row, 1, tol, True)):
            return None
        if qa:
            if (v := _vertex(qa[-1], row, tol)) is None:
                return None
            qv.append(v)
        qa.append(row)
    if not (_drop_cut(qa, qv, qa[0], 2, tol, False) and _drop_cut(qa, qv, qa[-1], 2, tol, True)):
        return None
    if len(qa) < 3 or (v := _vertex(qa[-1], qa[0], tol)) is None:
        return None
    verts = [*qv, v]
    x_lo, x_hi = min(verts), max(verts)
    y_lo, y_hi = min(verts, key=itemgetter(1)), max(verts, key=itemgetter(1))
    w = tol * max(1.0, -x_lo[0], x_hi[0], -y_lo[1], y_hi[1])
    if x_hi[0] - x_lo[0] <= w or y_hi[1] - y_lo[1] <= w:
        return None
    ends = []
    ints: Dict[tuple, tuple] = {}
    for (x, y, size, _, _), (cx, cy) in zip((x_lo, x_hi, y_lo, y_hi), HULL_DIRECTIONS):
        active = [
            ints[r] if r in ints else ints.setdefault(r, _exact(*r[:3]))
            for _, _, r in lines
            if abs(r[0] * x + r[1] * y + r[2]) <= tol * (r[3] * size + r[4])
        ]
        ends.append(_pair_bound(active, cx, cy, 1) + 0.0)
    return None if INF in ends else ends


def _drop_cut(qa: deque, qv: deque, row: tuple, keep: int, tol: float, front: bool) -> bool:
    """Drop rows from one end of the polygon while `row` cuts off the vertex
    there, down to `keep` rows; False on a close call."""
    a, b, al, n1, abs_al = row
    while len(qa) > keep:
        x, y, size, p, q = qv[0] if front else qv[-1]
        res = a * x + b * y + al
        w = tol * (n1 * size + abs_al)
        if res < -w:
            return True
        if res <= w or res <= tol:  # no close call if the row meets the exact vertex
            return _excess(*(_exact(*r[:3]) for r in (p, q, row))) == 0
        if front:
            qa.popleft()
            qv.popleft()
        else:
            qa.pop()
            qv.pop()
    return True


def _vertex(p: tuple, q: tuple, tol: float) -> Optional[tuple]:
    """(x, y, max(|x|, |y|), p, q) at rows p and q, or None unless q's normal
    clearly follows p's counterclockwise by less than pi."""
    a1, b1, al1, _, _ = p
    a, b, al, _, _ = q
    det = a1 * b - b1 * a
    if not det > tol * (abs(a1 * b) + abs(b1 * a)):
        return None
    x, y = (b1 * al - b * al1) / det, (a * al1 - a1 * al) / det
    return x, y, max(abs(x), abs(y)), p, q


class _Neighbours:
    """What the points with one set of finite neighbours share: the normals
    of their rows (offsets 0, row index the side's position in
    `inst.sides`), and their exact envelope, made on first use."""

    def __init__(self, inst: PolygonInstance, drow: Sequence[float]):
        self.normals: List[Row] = [
            (h1, h2, 0.0, k) for k, (y, h1, h2, _, _) in enumerate(inst.sides) if drow[y] != INF
        ]
        self.kept: Optional[list] = None

    def bracket_rows(self, inst: PolygonInstance, l1: float, x: int, directions: List[int]) -> Optional[List[Row]]:
        """x's rows whose normals bracket the given hull directions
        (`lp2d._bracket`), or None when one of them is unbounded."""
        if self.kept is None:
            self.kept = _envelope([_exact(*row) for row in self.normals])
        drow = inst.space.d[x]
        out = []
        for k in directions:
            bracket = _bracket(self.kept, *HULL_DIRECTIONS[k])
            if not bracket:
                return None
            for *_, pos in bracket:
                y, h1, h2, alpha, norm1 = inst.sides[pos]
                out.append((h1, h2, alpha - l1 * drow[y] * norm1, y))
        return out


def _stage12_hull(
    inst: PolygonInstance, l1: float, x: int, group: _Neighbours
) -> Tuple[MaybeRect, Optional[List[int]]]:
    """The rectangular hull of the stage-1 set at x, or EMPTY, from the
    rows that cut x's outer box B (module docstring), with the points that
    own those rows; or from all of x's rows, and None, when there are at
    most NEAREST + 1 points, when B's rows would be 1/BOX_SHARE of x's rows,
    or when B is unbounded.  B's rows are the sides of the points within
    x's NEAREST-th smallest distance, picked through the side index."""
    drow = inst.space.d[x]
    if inst.n > NEAREST + 1:
        near = nsmallest(NEAREST + 1, drow)[-1]
        at, sides = inst.offsets, inst.sides
        box_rows = [
            (h1, h2, alpha - l1 * rho * norm1, y)
            for y in compress(range(inst.n), map(le, drow, repeat(near)))
            if (rho := drow[y]) != INF
            for _, h1, h2, alpha, norm1 in sides[at[y]:at[y + 1]]
        ]
        if BOX_SHARE * len(box_rows) < len(group.normals):
            box: Optional[MaybeRect] = _hull_from_rows(box_rows)
            if isinstance(box, ExtRect):
                ends = (-box.ix.lo, box.ix.hi, -box.iy.lo, box.iy.hi)
                open_ends = [k for k in range(4) if ends[k] == INF]
                if open_ends:
                    extra = group.bracket_rows(inst, l1, x, open_ends)
                    box = None if extra is None else _hull_from_rows(box_rows + extra)
            if isinstance(box, EmptySet):
                return EMPTY, None
            if box is not None:
                rows = _point_rows(inst, l1, x, box)
                return _hull_from_rows(rows), list(dict.fromkeys(row[3] for row in rows))
    return _hull_from_rows(_point_rows(inst, l1, x)), None


# ---------------------------------------------------------------------------
# stage 3: shrink hulls against neighbours


def _radii(l2: float, drow: Sequence[float]) -> List[float]:
    """`inflation_radius(l2, rho)` for every rho in the row."""
    if l2 == 0.0:
        return [INF if rho == INF else 0.0 * rho for rho in drow]
    return list(map(mul, repeat(l2), drow))


def step3_refine_rects(
    hulls: Sequence[ExtRect], l2: float, space: PseudometricSpace
) -> Union[List[ExtRect], NoGo]:
    """Shrink every hull so that neighbouring rectangles stay within l2 times
    the distance of each other, or NoGo when some pair is too far apart.

    Per-axis max/min folds over x's distance row give x's shrunk ends.  The
    pairwise test (`_first_far_pair`) runs once, only when some fold trips:
    lo >= hi on an axis.  Lower ends are finite or -inf and upper ends
    finite or +inf, so plain float subtraction is `ext_sub` on them.

    No flagged pair escapes, at any scale: say the test flags (x, y) on
    axis 1 through a - b > r + tol, with a = LO1[x], b = HI1[y] and r the
    radius.  Rounding is monotone, so the exact inequality holds too, with
    a, b, r finite.  x's fold holds its own term, of radius l2 * 0 = 0, so
    lo >= a, and fl(b + r) <= a, so hi <= a: x's fold trips.  With
    a = LO1[y] and b = HI1[x], fl(a - r) >= b trips it the same way.
    """
    n = space.n
    if len(hulls) != n:
        raise ValueError("one hull per point is required")
    ends = _hull_ends(hulls)
    scanned = False
    refined: List[ExtRect] = []
    for x in range(n):
        lo1, hi1, lo2, hi2 = _fold(ends, l2, space.d[x])
        if not scanned and (lo1 >= hi1 or lo2 >= hi2):
            nogo = _first_far_pair(*ends, l2, space)
            if nogo is not None:
                return nogo
            scanned = True
        lo1, hi1 = _snap_ends(lo1, hi1, DEFAULT_TOL)
        lo2, hi2 = _snap_ends(lo2, hi2, DEFAULT_TOL)
        refined.append(ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)))
    return refined


def _hull_ends(hulls: Sequence[ExtRect]) -> Tuple[List[float], List[float], List[float], List[float]]:
    """The hulls' ends as the lists LO1, HI1, LO2, HI2."""
    return (
        [t.ix.lo for t in hulls],
        [t.ix.hi for t in hulls],
        [t.iy.lo for t in hulls],
        [t.iy.hi for t in hulls],
    )


def _fold(ends: tuple, l2: float, drow: Sequence[float]) -> Tuple[float, float, float, float]:
    """The shrunk ends (lo1, hi1, lo2, hi2) of the point with distance row
    `drow`: per-axis max/min folds over the neighbours' inflated ends."""
    LO1, HI1, LO2, HI2 = ends
    R = _radii(l2, drow)
    return max(map(sub, LO1, R)), min(map(add, HI1, R)), max(map(sub, LO2, R)), min(map(add, HI2, R))


def _first_far_pair(LO1, HI1, LO2, HI2, l2: float, space: PseudometricSpace) -> Optional[NoGo]:
    """NoGo(3, x) for the first x with a y > x more than l2 * rho + tol away."""
    for x in range(space.n):
        R = _radii(l2, space.d[x][x + 1:])
        gaps = map(
            max,
            map(sub, repeat(LO1[x]), HI1[x + 1:]),
            map(sub, LO1[x + 1:], repeat(HI1[x])),
            map(sub, repeat(LO2[x]), HI2[x + 1:]),
            map(sub, LO2[x + 1:], repeat(HI2[x])),
        )
        if any(map(gt, gaps, map(add, R, repeat(DEFAULT_TOL)))):
            return NoGo(3, x)
    return None


# ---------------------------------------------------------------------------
# stage 4: centers


def step4_centers(refined: Sequence[ExtRect]) -> List[Point2]:
    """The center of the origin-nearest face of each rectangle."""
    return [rect_project_origin_center(t) for t in refined]


# ---------------------------------------------------------------------------
# stage 5: push centers into the stage-1 sets


def step5_project(
    inst: PolygonInstance, l1: float, x: int, g: Point2, tol: float = DEFAULT_TOL,
    points: Optional[Sequence[int]] = None,
) -> Point2:
    """Nearest point of the stage-1 set at x from g.

    Because g lies in the rectangular hull of that set, its distance to the
    set is the largest of the distances to the individual inflated
    half-planes, and the projection onto the farthest one (first in
    (point, side) order on ties) already lands inside the set.

    `points`, ascending, restricts the scan to their sides: stage 2 passes
    the points whose rows cut x's box B.  Any other row holds the square
    around B's center with a margin that covers the rounding of its
    residual, taken on the row stage 2 saw, and g is in B up to
    `_snap_ends`' tol/2, so the row is within tol of g and cannot change
    the result.
    """
    drow = inst.space.d[x]
    gx, gy = g
    sides = inst.sides
    if points is not None:
        at = inst.offsets
        sides = [side for y in points for side in sides[at[y]:at[y + 1]]]
    best_d = 0.0
    best = None
    for y, h1, h2, alpha, norm1 in sides:
        rho = drow[y]
        if rho == INF:
            continue
        resid = h1 * gx + h2 * gy + (alpha - l1 * rho * norm1)
        if resid > 0.0:
            d = resid / norm1
            if d > best_d:
                best_d, best = d, (y, h1, h2, alpha)
    if best_d <= tol or best is None:
        return g
    y, h1, h2, alpha = best
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
) -> Outcome:
    """Run stages 1-5; Success carries the selection plus stage diagnostics.

    The returned selection is re-verified internally (membership and the
    l1 + 2*l2 seminorm bound); a verification failure raises instead of
    returning a bad Success.  Stages 1-2, stages 3-5 and the seminorm may
    each run in two processes (`_split`), with the same results.
    """
    l1, l2 = _check_lambdas(lambdas)
    n = inst.n
    space = inst.space
    inst.sides, inst.offsets  # made once, before any fork
    twin: List[int] = []
    hulls: List[ExtRect] = []
    kept: List[Optional[List[int]]] = []
    for part in _split(partial(_stage12, inst, l1), n, n // 2):
        if isinstance(part, NoGo):
            return part
        for t, hull, points in part:
            twin.append(t)
            hulls.append(hull if t < 0 else hulls[t])
            kept.append(points)
    try:
        parts = _split(partial(_stage345, inst, l1, l2, _hull_ends(hulls), twin, kept), n, n // 2)
    except Exception:  # the serial stages below raise it again, or stop at a NoGo first
        parts = [None]
    if any(part is None for part in parts):
        refined = step3_refine_rects(hulls, l2, space)
        if isinstance(refined, NoGo):
            return refined
        g = step4_centers(refined)
        f = [None if twin[x] >= 0 else step5_project(inst, l1, x, g[x], points=kept[x]) for x in range(n)]
    else:
        refined, g, f = ([v for part in parts for v in part[k]] for k in range(3))
    for x in range(n):
        if twin[x] >= 0:
            f[x] = f[twin[x]]
    report = verify_selection(inst, f, l1 + 2.0 * l2)
    if not report.ok:
        raise RuntimeError(f"internal verification failed: {report}")
    return Success(f, g, hulls, refined, report.seminorm)


def _stage12(inst: PolygonInstance, l1: float, lo: int, hi: int) -> Union[NoGo, list]:
    """Stages 1-2 at the points lo..hi-1, as (twin, hull, points) per point,
    or NoGo(1, x) at the first x whose stage-1 set is empty.  A point's
    stage-1 rows, so all its results, depend only on its distance row: a
    point with an earlier `twin` reuses the twin's results, and gets
    (twin, None, None).  Any other point gets (-1, its hull, the points
    whose rows cut its box) from `_stage12_hull`.  The rows' normals depend
    only on which points are at finite distance, so their envelope is shared
    per such set, keyed by the infinitely distant points (not per component:
    `solve` does not check the triangle inequality)."""
    n, d = inst.n, inst.space.d
    groups: Dict[Tuple[int, ...], _Neighbours] = {}
    out: list = []
    for x in range(lo, hi):
        twin = _earlier_twin(d, x)
        if twin >= 0:
            out.append((twin, None, None))
            continue
        drow = d[x]
        key = () if INF not in drow else tuple(y for y in range(n) if drow[y] == INF)
        if key not in groups:
            groups[key] = _Neighbours(inst, drow)
        hull, points = _stage12_hull(inst, l1, x, groups[key])
        if isinstance(hull, EmptySet):
            return NoGo(1, x)
        out.append((-1, hull, points))
    return out


def _stage345(
    inst: PolygonInstance, l1: float, l2: float, ends: tuple, twin: List[int],
    kept: List[Optional[List[int]]], lo: int, hi: int,
) -> Optional[Tuple[List[ExtRect], List[Point2], List[Optional[Point2]]]]:
    """Stages 3-5 at the points lo..hi-1: (refined, g, f), with f None at a
    twin; None when some fold trips, which leaves the NoGo test and the
    pinched ends to `step3_refine_rects`.  A fold that does not trip needs
    no `_snap_ends`."""
    folds = []
    for x in range(lo, hi):
        lo1, hi1, lo2, hi2 = fold = _fold(ends, l2, inst.space.d[x])
        if lo1 >= hi1 or lo2 >= hi2:
            return None
        folds.append(fold)
    refined = [ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)) for lo1, hi1, lo2, hi2 in folds]
    g = step4_centers(refined)
    f = [
        None if twin[x] >= 0 else step5_project(inst, l1, x, gx, points=kept[x])
        for x, gx in zip(range(lo, hi), g)
    ]
    return refined, g, f


def _split(phase: Callable[[int, int], Any], n: int, cut: int) -> list:
    """The parts of a per-point phase: [phase(0, n)], or [phase(0, cut),
    phase(cut, n)], the upper part computed by a forked child while this
    process computes the lower one.  It splits when n is at least SPLIT_MIN
    and this process can fork (it has one thread) onto at least two CPUs.
    A lower part that is None or a NoGo settles the phase: the child is
    killed, and [lower] is returned.  The child sends its part back pickled
    over a pipe and leaves through `os._exit`, writing nothing to stdout or
    stderr.  When the child fails, this process computes the upper part
    itself, and when the fork fails, the whole phase; so the parts, and any
    exception, are those of the serial run.  No child outlives the call."""
    if not (
        n >= SPLIT_MIN
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    ):
        return [phase(0, n)]
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return [phase(0, n)]
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = pickle.dumps(phase(cut, n), pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as out:
                out.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with open(r, "rb") as src:
        data = None
        try:
            low = phase(0, cut)
            if not (low is None or isinstance(low, NoGo)):
                data = src.read()
        finally:
            if data is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    if data is None:
        return [low]
    return [low, pickle.loads(data) if status == 0 else phase(cut, n)]


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
    X = [p.x1 for p in f]
    Y = [p.x2 for p in f]
    # row i holds n - 1 - i pairs, so the rows from n - n/sqrt(2) on hold half
    return max(_split(partial(_row_ratios, X, Y, space), n, n - int(n / math.sqrt(2))))


def _row_ratios(X: List[float], Y: List[float], space: PseudometricSpace, lo: int, hi: int) -> float:
    """The largest ratio over the pairs (i, j > i) with lo <= i < hi, or 0."""
    out = 0.0
    for i in range(lo, min(hi, space.n - 1)):
        # max(|dx|, |dy|) / rho is max(|dx| / rho, |dy| / rho): both
        # divisions are correctly rounded, so monotone
        rest = space.d[i][i + 1:]
        div = ext_div if 0.0 in rest else truediv
        ratio = max(
            max(map(div, map(abs, map(sub, repeat(X[i]), X[i + 1:])), rest)),
            max(map(div, map(abs, map(sub, repeat(Y[i]), Y[i + 1:])), rest)),
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
) -> MaybeRect:
    """Rectangular hull of the intersection at x built from the sides of xp
    and xpp inflated by ltilde times their distances to x.  May be EMPTY;
    both distances infinite gives the whole plane."""
    at = inst.offsets
    rows = [
        (h1, h2, alpha - ltilde * rho * norm1, y)
        for y in (xp, xpp)
        if (rho := inst.space.d[y][x]) != INF
        for _, h1, h2, alpha, norm1 in inst.sides[at[y]:at[y + 1]]
    ]
    return _hull_from_rows(rows)


def check_wnew(
    inst: PolygonInstance, ltilde: float, lam: float
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
        [[wf_rect(inst, ltilde, x, xp, xpp) for xpp in range(n)] for xp in range(n)]
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
