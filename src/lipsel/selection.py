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

Stage 2 takes every hull from the exact half-plane envelope of `lp2d`, in
integers.  Each instance sorts its sides by the angle of their normals
once (`PolygonInstance.rank`), and stage 2 emits every row set in that
order, so no hull sorts.  A hull end is the correctly rounded exact
optimum, so it is the same on any subset of the rows that has the same
intersection.  Past a few points, stage 2 therefore first takes B, the
hull of a few of x's rows: its own sides and the sides of its nearest
points, plus, for a direction those leave unbounded, the rows that bound
it for every point with the same finite neighbours.  B contains the
stage-1 set, and a row whose half-plane holds B strictly cannot cut that
set, so the hull is taken only on the rows that cut B, and stage 5 scans
only the sides of the points that own those rows.

Stage 3 folds each hull against its neighbours first and runs the pairwise
test for NoGo only when some fold comes out empty or pinched: every pair the
test flags leaves the fold of its smaller point so (`step3_refine_rects`).

A point's stage-1 set and stage-2 hull, its stage-3 fold once every hull
exists, its stage-5 projection, and a row of the seminorm's pairs depend on
no other point's result in the same phase.  So once point 0's stage-1 set
is known not to be empty, a solve of at least SPLIT_MIN points runs in two
processes (`_in_two`): this one and one child made by `os.fork`, each
running the one solve body (`_solve`) on its half of the points and
exchanging only flat lists of numbers with the other after each phase.
In stages 1-2 this process takes the points upward and the child downward
until they meet; stage 3's folds split the points at the middle, stages
4-5 follow stage 2's split, and the seminorm's rows split by their count
of pairs, as in `lipschitz_seminorm`.
When a fold trips, the pairwise NoGo test and `_snap_ends` run in both
processes; each error is raised in point order, and the results, NoGos and
errors equal those of the serial run.  A fork that fails, or a child that
fails or dies, ends the split, and the solve runs again, serially, in this
process.  It forks only when `os.fork` and `os.sched_getaffinity` exist,
the process has one thread, and its CPU affinity holds at least two CPUs;
the child never outlives the call.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from heapq import nsmallest
from itertools import accumulate, chain, compress, repeat
from operator import add, gt, le, mul, sub, truediv
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
from lipsel.lp2d import Row, _Empty, _bracket, _by_angle, _envelope, _exact, _pair_bound
from lipsel.metric import PseudometricSpace

INF = math.inf

# slack used by the final membership/seminorm verification
VERIFY_TOL = 1e-7

# stage 2 builds x's outer box from the sides of x and its NEAREST nearest
# points, and skips the box when those hold at least 1/BOX_SHARE of x's rows:
# on fewer rows the box does not pay (on planted half-planes it breaks even
# near 100 rows; polygons with 4 sides at n = 100 gain from it)
NEAREST, BOX_SHARE = 8, 6

# a solve of at least SPLIT_MIN points runs in two processes (`_in_two`):
# its one fork, exit and wait cost about 6 ms in a 70 MB process, and a
# split that forked once per phase broke even near n = 150 on planted
# half-planes in `python -m lipsel solve` (2-vCPU x86 machine)
SPLIT_MIN = 200

# the objectives of the four hull ends: -lo1, hi1, -lo2, hi2
HULL_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


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

    @cached_property
    def rank(self) -> List[int]:
        """The position of each side of `sides` in the exact angular order
        of the normals in [0, 2*pi) (`lp2d._by_angle`), sides of one
        direction in (point, side) order: the order of stage 2's rows."""
        normals = [_exact(h1, h2, 0.0, k) for k, (_, h1, h2, _, _) in enumerate(self.sides)]
        rank = [0] * len(normals)
        for j, (*_, k) in enumerate(_by_angle(normals)):
            rank[k] = j
        return rank

    @cached_property
    def by_angle(self) -> List[Tuple[int, float, float, float, float]]:
        """`sides` in that order: side k of `sides` is `by_angle[rank[k]]`."""
        out = self.sides[:]
        for side, j in zip(self.sides, self.rank):
            out[j] = side
        return out

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
    own sides with radius 0), in the instance's angular order
    (`PolygonInstance.by_angle`).  The row index is y.

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
            for y, h1, h2, alpha, norm1 in inst.by_angle
            if (rho := drow[y]) != INF
        ]
    (lo1, hi1), (lo2, hi2) = (box.ix.lo, box.ix.hi), (box.iy.lo, box.iy.hi)
    c1, c2 = (lo1 + hi1) / 2.0, (lo2 + hi2) / 2.0
    r = max(hi1 - lo1, hi2 - lo2) / 2.0 + DEFAULT_TOL * max(map(abs, (lo1, hi1, lo2, hi2)))
    return [
        (h1, h2, a, y)
        for y, h1, h2, alpha, norm1 in inst.by_angle
        if (a := alpha - l1 * drow[y] * norm1) + h1 * c1 + h2 * c2 >= -r * norm1
    ]


# ---------------------------------------------------------------------------
# stage 2: rectangular hulls


def _hull_from_rows(rows: List[Row]) -> MaybeRect:
    """The rectangular hull of the rows' intersection, or EMPTY, from the
    rows' exact envelope (`lp2d._envelope`); the rows must come in the
    angular order of their normals, as stage 2 emits them.  Each end is
    `_pair_bound` of the 1 or 2 kept rows that bracket its direction, which
    attain the optimum, so it is correctly rounded and the ends cannot
    invert; an open direction has none, and its end is infinite."""
    try:
        kept = _envelope([_exact(*row) for row in rows])
    except _Empty:
        return EMPTY
    ends = [_pair_bound(_bracket(kept, cx, cy), cx, cy, 1) + 0.0 for cx, cy in HULL_DIRECTIONS]
    return ExtRect(ExtInterval(-ends[0], ends[1]), ExtInterval(-ends[2], ends[3]))


def _side_rows(
    inst: PolygonInstance, l1: float, drow: Union[Sequence[float], Dict[int, float]], positions: Iterable[int]
) -> List[Row]:
    """The rows of the sides at the given positions of `inst.by_angle`,
    inflated by l1 times drow[y] for their point y, in that order."""
    return [
        (h1, h2, alpha - l1 * drow[y] * norm1, y)
        for y, h1, h2, alpha, norm1 in map(inst.by_angle.__getitem__, positions)
    ]


class _Neighbours:
    """What the points with one set of finite neighbours share: the normals
    of their rows (offsets 0, row index the side's position in
    `inst.by_angle`), and their exact envelope, made on first use."""

    def __init__(self, inst: PolygonInstance, drow: Sequence[float]):
        self.normals: List[Row] = [
            (h1, h2, 0.0, j) for j, (y, h1, h2, _, _) in enumerate(inst.by_angle) if drow[y] != INF
        ]
        self.kept: Optional[list] = None

    def bracket(self, directions: List[int]) -> Optional[List[int]]:
        """The positions in `inst.by_angle` of the sides whose normals
        bracket the given hull directions (`lp2d._bracket`), or None when
        one of them is unbounded."""
        if self.kept is None:
            self.kept = _envelope([_exact(*row) for row in self.normals])
        out = []
        for k in directions:
            bracket = _bracket(self.kept, *HULL_DIRECTIONS[k])
            if not bracket:
                return None
            out += [pos for *_, pos in bracket]
        return out


def _stage12_hull(
    inst: PolygonInstance, l1: float, x: int, group: _Neighbours
) -> Tuple[MaybeRect, Optional[List[int]]]:
    """The rectangular hull of the stage-1 set at x, or EMPTY, from the
    rows that cut x's outer box B (module docstring), with the points that
    own those rows; or from all of x's rows, and None, when there are at
    most NEAREST + 1 points, when B's rows would be 1/BOX_SHARE of x's rows,
    or when B is unbounded.  B's rows are the sides of the points within
    x's NEAREST-th smallest distance, picked through the side index and put
    in angular order by their ranks."""
    drow = inst.space.d[x]
    if inst.n > NEAREST + 1:
        near = nsmallest(NEAREST + 1, drow)[-1]
        at, rank = inst.offsets, inst.rank
        positions = sorted(chain.from_iterable(
            rank[at[y]:at[y + 1]]
            for y in compress(range(inst.n), map(le, drow, repeat(near)))
            if drow[y] != INF
        ))
        if BOX_SHARE * len(positions) < len(group.normals):
            box: Optional[MaybeRect] = _hull_from_rows(_side_rows(inst, l1, drow, positions))
            if isinstance(box, ExtRect):
                ends = (-box.ix.lo, box.ix.hi, -box.iy.lo, box.iy.hi)
                open_ends = [k for k in range(4) if ends[k] == INF]
                if open_ends:
                    extra = group.bracket(open_ends)
                    box = None if extra is None else _hull_from_rows(
                        _side_rows(inst, l1, drow, sorted(positions + extra))
                    )
            if isinstance(box, EmptySet):
                return EMPTY, None
            if box is not None:
                rows = _point_rows(inst, l1, x, box)
                return _hull_from_rows(rows), sorted({row[3] for row in rows})
    return _hull_from_rows(_point_rows(inst, l1, x)), None


# ---------------------------------------------------------------------------
# stage 3: shrink hulls against neighbours


def _radii(l2: float, drow: Sequence[float]) -> List[float]:
    """`inflation_radius(l2, rho)` for every rho in the row."""
    if l2 == 0.0:
        return [INF if rho == INF else 0.0 * rho for rho in drow]
    return list(map(mul, repeat(l2), drow))


def _snap_ends(lo: float, hi: float, tol: float) -> Tuple[float, float]:
    """Collapse a float-inverted pair of ends; inversion beyond tol is a bug."""
    if lo <= hi:
        return lo, hi
    if lo - hi <= tol:
        mid = (lo + hi) / 2.0
        return mid, mid
    raise AssertionError(f"interval ends inverted beyond tolerance: [{lo}, {hi}]")


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
    ends = ([t.ix.lo for t in hulls], [t.ix.hi for t in hulls], [t.iy.lo for t in hulls], [t.iy.hi for t in hulls])
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
    inst: PolygonInstance, l1: float, x: int, g: Point2, points: Optional[Sequence[int]] = None
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
    stage 3's `_snap_ends` DEFAULT_TOL/2, so the row is within DEFAULT_TOL
    of g and cannot change the result.
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
    if best_d <= DEFAULT_TOL or best is None:
        return g
    y, h1, h2, alpha = best
    inflated = inflate_halfplane(HalfPlane(Point2(h1, h2), alpha), l1 * drow[y])
    assert isinstance(inflated, HalfPlane)
    return project_to_halfplane(g, inflated)


# ---------------------------------------------------------------------------
# the full pipeline


def _check_lambdas(lambdas: Tuple[float, float]) -> Tuple[float, float]:
    l1, l2 = float(lambdas[0]), float(lambdas[1])
    for v in (l1, l2):
        if math.isnan(v) or math.isinf(v) or v < 0.0:
            raise ValueError("lambda parameters must be finite and >= 0")
    return l1, l2


def run_projection_algorithm(
    inst: PolygonInstance,
    lambdas: Tuple[float, float],
) -> Outcome:
    """Run stages 1-5; Success carries the selection plus stage diagnostics.

    The returned selection is re-verified internally (membership and the
    l1 + 2*l2 seminorm bound); a verification failure raises instead of
    returning a bad Success.  Point 0's stages 1-2 run first, so a NoGo
    there returns at once; the rest (`_solve`) may run in two processes
    (`_in_two`), with the same results.
    """
    l1, l2 = _check_lambdas(lambdas)
    inst.sides, inst.offsets, inst.rank, inst.by_angle  # made once, before any fork
    groups: Dict[Tuple[int, ...], _Neighbours] = {}
    head = _stage12(inst, l1, groups, 0) if inst.n else None
    if isinstance(head, NoGo):
        return head
    # the lower half's next point and the upper half's last one (`_solve`)
    meet = memoryview(mmap.mmap(-1, 16)).cast("q") if inst.n >= SPLIT_MIN else [0, 0]
    meet[0], meet[1] = min(1, inst.n), inst.n
    got = _in_two(partial(_solve, inst, l1, l2, groups, head, meet), inst.n)
    if isinstance(got, NoGo):
        return got
    f, g, hulls, refined, seminorm = got
    report = _report(inst, f, l1 + 2.0 * l2, seminorm)
    if not report.ok:
        raise RuntimeError(f"internal verification failed: {report}")
    return Success(f, g, hulls, refined, report.seminorm)


def _stage12(
    inst: PolygonInstance, l1: float, groups: Dict[Tuple[int, ...], _Neighbours], x: int
) -> Union[NoGo, Tuple[tuple, Optional[List[int]]]]:
    """Stages 1-2 at x: (twin, lo1, hi1, lo2, hi2) and the points whose
    rows cut x's box, or NoGo(1, x) when x's stage-1 set is empty.  x's
    stage-1 rows, so all its results, depend only on its distance row: with
    an earlier `twin`, x reuses the twin's results and gets (twin, 0.0,
    0.0, 0.0, 0.0) and None; else -1 and its hull's ends, and its points
    from `_stage12_hull`.  The rows' normals depend only on which points are
    at finite distance, so their envelope is shared per such set in
    `groups`, keyed by the infinitely distant points (not per component:
    `solve` does not check the triangle inequality)."""
    d = inst.space.d
    twin = _earlier_twin(d, x)
    if twin >= 0:
        return (twin, 0.0, 0.0, 0.0, 0.0), None
    drow = d[x]
    key = () if INF not in drow else tuple(y for y in range(inst.n) if drow[y] == INF)
    if key not in groups:
        groups[key] = _Neighbours(inst, drow)
    hull, points = _stage12_hull(inst, l1, x, groups[key])
    if isinstance(hull, EmptySet):
        return NoGo(1, x)
    return (-1, hull.ix.lo, hull.ix.hi, hull.iy.lo, hull.iy.hi), points


def _solve(
    inst: PolygonInstance, l1: float, l2: float, groups: Dict[Tuple[int, ...], _Neighbours],
    head: Optional[tuple], meet: Any, lo: int, hi: int, exchange: Callable[[Any], Sequence[Any]],
) -> Union[NoGo, tuple]:
    """The solve as the body of an `_in_two` call: a NoGo, or the
    selection, the centers, the hulls, the refined rectangles and the
    seminorm.  Each phase hands the half's part, a flat list, to `exchange`
    and merges the parts of all halves in point order; a twin takes its
    source's ends and values at the merges.  Each half so ends with every
    column whole, and builds the results from the columns.  The phases:

      1. stages 1-2.  The half that starts at 0 takes the points upward
         from 1 (point 0's results are `head`) and the other half takes
         them downward from n - 1, until they meet: `meet` holds the lower
         half's next point and the upper half's last one, where both
         processes see it, so neither waits long for the other.  A point
         that both take gets equal results in both.  The lower half returns
         its first NoGo at once, as no other can come first; the upper half
         goes on down past a NoGo and hands on the lowest it meets.  An
         error ends the upper half at its point, so the lower half goes on
         up to that point and meets any NoGo or error below it first.  Each
         half owns the points on its side of the lower half's last point,
         and keeps their kept points;
      2. the folds of the points lo..hi-1, or None when one trips.  If one
         trips anywhere, every half runs `step3_refine_rects`, so its NoGo
         and errors come in point order, and before any stage-5 error;
      3. stages 4-5 at the points the half owns: the centers and values;
      4. the largest ratio over the half's rows of the seminorm."""
    n, space, d = inst.n, inst.space, inst.space.d
    if hi - lo == n:  # alone: a lost split may have moved `meet`
        meet[0], meet[1] = min(1, n), n
    if lo == 0:
        flat, kept = ([*head[0]], [head[1]]) if head else ([], [])
        while meet[0] < meet[1]:
            x = meet[0]
            part = _stage12(inst, l1, groups, x)
            if isinstance(part, NoGo):
                return part
            flat += part[0]
            kept.append(part[1])
            meet[0] = x + 1
        parts = exchange(flat)
    else:
        done: list = []
        nogo = None
        x = n
        while x - 1 >= meet[0]:
            x -= 1
            meet[1] = x
            part = _stage12(inst, l1, groups, x)
            if isinstance(part, NoGo):
                nogo = part
            else:
                done.append(part)
        if nogo is not None:
            parts = exchange(nogo)
        else:
            done.reverse()
            kept = [points for _, points in done]
            parts = exchange((x, [v for ends, _ in done for v in ends]))
    if isinstance(parts[-1], NoGo):  # the lower half returns its NoGo instead
        return parts[-1]
    cut = len(parts[0]) // 5
    if len(parts) > 1:
        start, upper = parts[1]
        parts = (parts[0], upper[(cut - start) * 5:])
        if lo:
            kept = kept[cut - start:]
    own = range(0, cut) if lo == 0 else range(cut, n)
    twin, *ends = _columns(parts, 5)
    _fill_twins(twin, ends)
    hulls = _rects(zip(*ends))

    folds: Optional[list] = []
    for x in range(lo, hi):
        fold = _fold(ends, l2, d[x])
        if fold[0] >= fold[1] or fold[2] >= fold[3]:
            folds = None
            break
        folds += fold
    parts = exchange(folds)
    refined = step3_refine_rects(hulls, l2, space) if None in parts else _rects(zip(*_columns(parts, 4)))
    if isinstance(refined, NoGo):
        return refined

    flat = []
    for x, gx in zip(own, step4_centers(refined[own.start:own.stop])):
        p = gx if twin[x] >= 0 else step5_project(inst, l1, x, gx, points=kept[x - own.start])
        flat += (*gx, *p)
    GX, GY, X, Y = _columns(exchange(flat), 4)
    _fill_twins(twin, (X, Y))
    seminorm = _seminorm(X, Y, space, lo, hi, exchange)
    return list(map(Point2, X, Y)), list(map(Point2, GX, GY)), hulls, refined, seminorm


def _columns(parts: Sequence[list], k: int) -> List[list]:
    """The k columns of the halves' flat parts, in point order."""
    flat = list(chain.from_iterable(parts))
    return [flat[i::k] for i in range(k)]


def _fill_twins(twin: List[int], columns: Sequence[list]) -> None:
    """Give each point with a twin the twin's entries in the columns."""
    for x, t in enumerate(twin):
        if t >= 0:
            for column in columns:
                column[x] = column[t]


def _rects(ends: Iterable[Tuple[float, float, float, float]]) -> List[ExtRect]:
    """The rectangles with the ends (lo1, hi1, lo2, hi2)."""
    return [ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)) for lo1, hi1, lo2, hi2 in ends]


class _Lost(Exception):
    """The child of an `_in_two` split failed, died or closed its pipe."""


def _alone(part: Any) -> Tuple[Any]:
    """The `exchange` of a body that runs alone: its part is all parts."""
    return (part,)


def _in_two(body: Callable[[int, int, Callable[[Any], Sequence[Any]]], Any], n: int) -> Any:
    """body(0, n, _alone), computed as body(0, n // 2, exchange) here and
    body(n // 2, n, exchange) in one forked child when n is at least
    SPLIT_MIN (and 2) and this process can fork (it has one thread) onto at
    least two CPUs.

    exchange(part) hands the half's part of a phase to the other half,
    pickled over a pipe, and returns the parts of both halves in point
    order.  The bodies are written so that both halves end a phase in the
    state of the one body 0..n-1, so the lower half's return value, or its
    exception, is the call's; it may return before the child's part
    arrives.  The child writes nothing to stdout or stderr and leaves
    through `os._exit`.  A fork that fails, or a child that fails, dies or
    closes its pipe (`_Lost`), ends the split, and body(0, n, _alone) runs
    here once.  The child is killed and reaped before that, and before this
    returns or raises."""
    if not (
        n >= max(SPLIT_MIN, 2)
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    ):
        return body(0, n, _alone)
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        return body(0, n, _alone)
    if pid == 0:
        try:
            os.close(up_r)
            os.close(down_w)
            up, down = open(up_w, "wb"), open(down_r, "rb")

            def upper(part: Any) -> Tuple[Any, Any]:
                pickle.dump(part, up, pickle.HIGHEST_PROTOCOL)
                up.flush()
                return pickle.load(down), part

            body(n // 2, n, upper)
        finally:  # an error, the end of the pipe, or the last part
            os._exit(1)
    os.close(up_w)
    os.close(down_r)
    up, down = open(up_r, "rb"), open(down_w, "wb")

    def lower(part: Any) -> Tuple[Any, Any]:
        try:
            got = pickle.load(up)
            pickle.dump(part, down, pickle.HIGHEST_PROTOCOL)
            down.flush()
        except (EOFError, OSError, pickle.UnpicklingError):
            raise _Lost from None
        return part, got

    try:
        return body(0, n // 2, lower)
    except _Lost:
        pass
    finally:
        up.close()
        try:
            down.close()
        except OSError:  # what was left to write, to a child that is gone
            pass
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return body(0, n, _alone)


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
    return _in_two(partial(_seminorm, X, Y, space), n)


def _seminorm(
    X: List[float], Y: List[float], space: PseudometricSpace, lo: int, hi: int,
    exchange: Callable[[Any], Sequence[Any]],
) -> float:
    """The seminorm as the body of an `_in_two` call: the largest ratio
    over the rows `_row_cut(lo)` to `_row_cut(hi)`, then over all halves."""
    n = space.n
    return max(exchange(_row_ratios(X, Y, space, _row_cut(lo, n), _row_cut(hi, n))))


def _row_cut(k: int, n: int) -> int:
    """The seminorm row where the half that starts at point k starts: row i
    holds n - 1 - i pairs, so the rows before it hold about k / n of them."""
    return n - int(n * math.sqrt(1.0 - k / n)) if n else 0


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


def verify_selection(inst: PolygonInstance, f: Sequence[Point2], bound: float) -> SelectionReport:
    """Check membership of every value and the seminorm bound, each up to
    VERIFY_TOL.

    The first failure (membership in point order, then the lexicographically
    first bad pair) is reported; the seminorm field is always filled in.
    """
    if len(f) != inst.n:
        raise ValueError("one value per point is required")
    return _report(inst, f, bound, lipschitz_seminorm(f, inst.space))


def _report(inst: PolygonInstance, f: Sequence[Point2], bound: float, seminorm: float) -> SelectionReport:
    """`verify_selection` with f's seminorm given."""
    n = inst.n
    for i, h1, h2, alpha, _ in inst.sides:
        if h1 * f[i].x1 + h2 * f[i].x2 + alpha > VERIFY_TOL:
            return SelectionReport(
                False, seminorm, bound, reason="membership", index=i
            )
    if seminorm > bound + VERIFY_TOL:
        cap = (bound + VERIFY_TOL)
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
    at, rank = inst.offsets, inst.rank
    rho = {y: inst.space.d[y][x] for y in (xp, xpp)}
    positions = sorted(chain.from_iterable(rank[at[y]:at[y + 1]] for y in rho if rho[y] != INF))
    return _hull_from_rows(_side_rows(inst, ltilde, rho, positions))


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
