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

No test compares a length with a fixed one, so scaling every offset and
distance by 2^k scales a solve by exactly 2^k: stage 1 decides emptiness
exactly (`lp2d`), stages 3 and 5 decide in floats with no slack, and every
other slack (`_point_rows`' box margin, `_snap_ends`, membership in
`_report`) is relative to the numbers compared (REL_TOL; 2^-48 of l1*rho).

Stage 2 takes every hull from the exact half-plane envelope of `lp2d`, in
integers.  Each instance converts its sides' normals to integers and sorts
them by angle once (`PolygonInstance.normals`), and stage 2 emits every row
set in that order, so no hull sorts and a row converts only its offset; one
pass over the envelope finds all four ends.  A hull end is the correctly
rounded exact optimum, so it is the same on any subset of the rows that has
the same intersection.  Past a few points, stage 2 therefore first takes
B, the hull of a few of x's rows: its own sides and the sides of its
nearest points, plus, for a direction those leave unbounded, the rows that
bound it for every point with the same finite neighbours.  B contains the
stage-1 set, and a row whose half-plane holds B strictly cannot cut that
set, so the hull is taken only on the rows that cut B, and stage 5 scans
only the sides of the points that own those rows.  The row pass tests the
sides scaled to |h1| + |h2| = 1 against the square around B (`_point_rows`).

Stage 3 folds each hull against its neighbours first and runs the pairwise
test for NoGo only when some fold comes out empty or pinched: every pair the
test flags leaves the fold of its smaller point so (`_refine`).

A point's stage-1 set and stage-2 hull depend on no other point, its
stage-3 fold on the hulls alone, its stage-4 center on its fold alone, its
stage-5 projection on its center and its own stage-1 rows, and a row of the
seminorm's pairs on the values alone.  So once point 0's stage-1 set is
known not to be empty, a solve whose stage 1 scans at least SPLIT_MIN rows
(n times the number of sides) runs in two processes (`_in_two`): this one
and one child made by `os.fork`, each running the one solve body (`_solve`)
on its half of the points in three phases, and exchanging only flat lists
of numbers with the other after each.  In stages 1-2 this process takes the
points upward and the child downward until they meet; stages 3-5 split the
points at the middle, and the seminorm's rows split by their count of
pairs.  A seminorm row skips the pairs that cannot raise its maximum
(`_row_ratios`).  A fork that fails, or any error in either process, ends
the split, and the solve runs again, serially, in this process, so the
serial run settles every failure; a NoGo the split finds is the serial
run's.  It forks only when `os.fork` and `os.sched_getaffinity` exist, the
process has one thread, and its CPU affinity holds at least two CPUs; the
child never outlives the call.
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
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from lipsel.geometry import (
    EMPTY,
    EmptySet,
    ExtInterval,
    ExtRect,
    HalfPlane,
    MaybeRect,
    Point2,
    ext_sub,
    inflation_radius,
    rect_project_origin_center,
    uniform_norm,
)
from lipsel.lp2d import PairRow, Row, _Empty, _bracket, _by_angle, _envelope, _exact_normal, _offset
from lipsel.metric import REL_TOL, PseudometricSpace, gc_paused

INF = math.inf

# REL_TOL is the one slack on a length; the seminorm test's VERIFY_TOL is on
# a ratio, which does not scale
VERIFY_TOL = 1e-7

# stage 2 builds x's outer box from the sides of x and its NEAREST nearest
# points, and skips the box when those hold at least 1/BOX_SHARE of x's rows:
# on fewer rows the box does not pay (on planted half-planes it breaks even
# near 100 rows; polygons with 4 sides at n = 100 gain from it)
NEAREST, BOX_SHARE = 8, 6

# a solve whose stage 1 scans at least SPLIT_MIN rows (n times the number
# of sides) runs in two processes (`_in_two`): split solves broke even near
# 5,000 rows, and from 10,000 on they were faster on half-planes and on 3-
# and 4-sided polygons (`tests/split_times.py`, 2-vCPU x86 machine)
SPLIT_MIN = 10_000

# the objectives of the four hull ends: -lo1, hi1, -lo2, hi2
HULL_DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))

# a rectangle's ends (lo1, hi1, lo2, hi2)
Ends = Tuple[float, float, float, float]


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
    def normals(self) -> List[Tuple[int, int, int, int]]:
        """The exact normal (A, B, q, k) = (q*h1, q*h2, q, k) of each side k
        of `sides` (`lp2d._exact_normal`), in the exact angular order of the
        normals in [0, 2*pi) (`lp2d._by_angle`), sides of one direction in
        (point, side) order: stage 2's row order."""
        return _by_angle([(*_exact_normal(h1, h2), k) for k, (_, h1, h2, _, _) in enumerate(self.sides)])

    @cached_property
    def rank(self) -> List[int]:
        """The position of each side of `sides` in that order."""
        rank = [0] * len(self.normals)
        for j, (*_, k) in enumerate(self.normals):
            rank[k] = j
        return rank

    @cached_property
    def by_angle(self) -> List[Tuple[int, float, float, float, float]]:
        """`sides` in that order: side k of `sides` is `by_angle[rank[k]]`."""
        return [self.sides[k] for *_, k in self.normals]

    @cached_property
    def unit_sides(self) -> List[Tuple[int, float, float, float, int]]:
        """(point, h1, h2, alpha) over |h1| + |h2|, and position, of each side of `by_angle`."""
        return [(y, h1 / n1, h2 / n1, alpha / n1, j) for j, (y, h1, h2, alpha, n1) in enumerate(self.by_angle)]

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


def _point_rows(inst: PolygonInstance, l1: float, x: int, box: Optional[Ends] = None) -> List[Row]:
    """The rows whose intersection is the stage-1 set at x: every side of
    every point y at finite distance, inflated by l1 times the distance (x's
    own sides with radius 0), in the instance's angular order
    (`PolygonInstance.by_angle`).  A row's tag is its side's position there.

    Given the ends of a bounded `box` that contains the set, only the rows
    that can cut it are kept.  With c its center, K the largest of its ends
    and center in magnitude and w its half-width plus REL_TOL*K, a row
    stays when fl(alpha/N + (h/N)·c + w) >= fl(l1*(1 - 2^-48)*rho) on its
    side's ℓ1-unit form (`unit_sides`, N = |h1| + |h2|).  So does every row
    that does not hold strictly the square Q around c that holds the exact
    box, whose ends the given ones round: its exact left side v is at least
    l1*rho plus nearly REL_TOL*K, the rounding at most 6*2^-53*(v + 2*(K +
    w)), and the right side at most l1*rho*(1 - 29*2^-53).  A row that goes
    holds Q grown by nearly REL_TOL*K, with its offset as `_side_rows` and
    stage 5 compute it.  A side at infinite distance fails (inf, or nan when
    l1 = 0, on the right).  Scaling by 2^k scales both sides exactly."""
    drow = inst.space.d[x]
    if box is None:
        return [
            (h1, h2, alpha - l1 * rho * norm1, j)
            for j, (y, h1, h2, alpha, norm1) in enumerate(inst.by_angle)
            if (rho := drow[y]) != INF
        ]
    lo1, hi1, lo2, hi2 = box
    c1, c2, low = (lo1 + hi1) / 2.0, (lo2 + hi2) / 2.0, l1 * (1.0 - 2.0**-48)
    r = max(hi1 - lo1, hi2 - lo2) / 2.0 + REL_TOL * max(map(abs, (lo1, hi1, lo2, hi2, c1, c2)))
    keep = [j for y, u1, u2, ah, j in inst.unit_sides if ah + u1 * c1 + u2 * c2 + r >= low * drow[y]]
    return _side_rows(inst, l1, drow, keep)


# ---------------------------------------------------------------------------
# stage 2: rectangular hulls


def _hull_from_rows(rows: List[Row], normals: List[PairRow]) -> Optional[Ends]:
    """The ends (lo1, hi1, lo2, hi2) of the rectangular hull of the rows'
    intersection, or None when it is empty, from their exact envelope
    (`lp2d._envelope`): the rows come in stage 2's angular order, each
    tagged with the index of its exact normal in `normals` (`_exact_rows`).
    Each end is correctly rounded (`_ends`), so the ends cannot invert; an
    open direction's end is infinite."""
    try:
        kept = _envelope(_exact_rows(rows, normals))
    except _Empty:
        return None
    return _ends(kept)


def _exact_rows(rows: List[Row], normals: List[PairRow]) -> List[PairRow]:
    """`lp2d._exact(*row)` of each row, from the exact normal at its tag in
    `normals`: only the offset converts (`lp2d._offset`)."""
    return [_offset(normals[j], alpha, j) for _, _, alpha, j in rows]


def _ends(kept: List[PairRow]) -> Ends:
    """The ends (lo1, hi1, lo2, hi2) of the hull of an envelope's kept rows,
    in one pass of sign tests: on an envelope an axis direction c has at
    most one bracket (`lp2d._bracket`), a row parallel to c or two
    consecutive rows less than pi apart around c, which attains the optimum.
    The end is its exact bound, rounded once by `int / int`, or INF."""
    ends = [INF] * 4  # the maxima of -x, x, -y, y
    for (a, b, c, _), (e, f, g, _) in zip(kept, kept[1:] + kept[:1]):
        if not b:
            ends[a > 0] = c / abs(a)
        elif not a:
            ends[2 + (b > 0)] = c / abs(b)
        det = a * f - b * e
        if det > 0:
            if b < 0 < f:
                ends[1] = (c * f - b * g) / det
            elif b > 0 > f:
                ends[0] = (b * g - c * f) / det
            if a < 0 < e:
                ends[2] = (c * e - a * g) / det
            elif a > 0 > e:
                ends[3] = (a * g - c * e) / det
    return -ends[0], ends[1], -ends[2], ends[3]


def _side_rows(
    inst: PolygonInstance, l1: float, drow: Union[Sequence[float], Dict[int, float]], positions: Sequence[int]
) -> List[Row]:
    """The rows of the sides at the given positions of `inst.by_angle`, in
    that order, tagged with them and inflated by l1 times drow[y] for y."""
    return [
        (h1, h2, alpha - l1 * drow[y] * norm1, j)
        for j, (y, h1, h2, alpha, norm1) in zip(positions, map(inst.by_angle.__getitem__, positions))
    ]


class _Neighbours:
    """What the points with one set of finite neighbours share: the normals
    of their rows (offsets 0, row index the side's position in
    `inst.by_angle`), and their exact envelope, made on first use."""

    def __init__(self, inst: PolygonInstance, drow: Sequence[float]):
        self.normals: List[PairRow] = [
            (A, B, 0, j) for j, (A, B, _, k) in enumerate(inst.normals) if drow[inst.sides[k][0]] != INF
        ]
        self.kept: Optional[list] = None

    def bracket(self, directions: List[int]) -> Optional[List[int]]:
        """The positions in `inst.by_angle` of the sides whose normals
        bracket the given hull directions (`lp2d._bracket`), or None when
        one of them is unbounded."""
        if self.kept is None:
            self.kept = _envelope(self.normals)
        out = []
        for k in directions:
            bracket = _bracket(self.kept, *HULL_DIRECTIONS[k])
            if not bracket:
                return None
            out += [pos for *_, pos in bracket]
        return out


def _stage12_hull(
    inst: PolygonInstance, l1: float, x: int, group: _Neighbours
) -> Tuple[Optional[Ends], Optional[List[int]]]:
    """The ends of the rectangular hull of the stage-1 set at x, or None
    when the set is empty, from the rows that cut x's outer box B (module
    docstring), with the points that own those rows; or from all of x's
    rows, and None, when there are at most NEAREST + 1 points, when B's rows
    would be 1/BOX_SHARE of x's rows, or when B is unbounded.  B's rows are
    the sides of the points within x's NEAREST-th smallest distance, picked
    through the side index and put in angular order by their ranks."""
    drow = inst.space.d[x]
    if inst.n > NEAREST + 1:
        near = nsmallest(NEAREST + 1, drow)[-1]
        at, rank = inst.offsets, inst.rank
        close = [y for y, rho in enumerate(drow) if rho <= near]
        positions = sorted(chain.from_iterable(rank[at[y]:at[y + 1]] for y in close if drow[y] != INF))
        if BOX_SHARE * len(positions) < len(group.normals):
            box = _hull_from_rows(_side_rows(inst, l1, drow, positions), inst.normals)
            open_ends = [k for k in range(4) if box and math.isinf(box[k])]
            extra = group.bracket(open_ends) if open_ends else []
            if extra is not None:  # else B stays unbounded
                if extra:
                    box = _hull_from_rows(_side_rows(inst, l1, drow, sorted(positions + extra)), inst.normals)
                if box is None:
                    return None, None
                rows = _point_rows(inst, l1, x, box)
                return _hull_from_rows(rows, inst.normals), sorted({inst.by_angle[j][0] for *_, j in rows})
    return _hull_from_rows(_point_rows(inst, l1, x), inst.normals), None


# ---------------------------------------------------------------------------
# stage 3: shrink hulls against neighbours


def _radii(l2: float, drow: Sequence[float]) -> List[float]:
    """`inflation_radius(l2, rho)` for every rho in the row."""
    if l2 == 0.0:
        return [INF if rho == INF else 0.0 * rho for rho in drow]
    return list(map(mul, repeat(l2), drow))


def _snap_ends(lo: float, hi: float, r: float) -> Tuple[float, float]:
    """Collapse ends inverted by at most REL_TOL * max(|lo|, |hi|, r), r the
    fold's largest finite radius, which bounds its rounding; more is a bug."""
    if lo <= hi:
        return lo, hi
    if lo - hi <= REL_TOL * max(abs(lo), abs(hi), r):
        mid = (lo + hi) / 2.0
        return mid, mid
    raise AssertionError(f"interval ends inverted beyond tolerance: [{lo}, {hi}]")


def step3_refine_rects(
    hulls: Sequence[ExtRect], l2: float, space: PseudometricSpace
) -> Union[List[ExtRect], NoGo]:
    """Shrink every hull so that neighbouring rectangles stay within l2 times
    the distance of each other, or NoGo when some pair is too far apart
    (`_refine` over every point)."""
    if len(hulls) != space.n:
        raise ValueError("one hull per point is required")
    ends = ([t.ix.lo for t in hulls], [t.ix.hi for t in hulls], [t.iy.lo for t in hulls], [t.iy.hi for t in hulls])
    folds = _refine(ends, l2, space, range(space.n))
    return folds if isinstance(folds, NoGo) else _rects(folds)


def _refine(ends: tuple, l2: float, space: PseudometricSpace, points: Iterable[int]) -> Union[List[Ends], NoGo]:
    """The shrunk ends of the given points, in order, or NoGo.

    Per-axis max/min folds over x's distance row give x's shrunk ends
    (`_fold`).  The pairwise test (`_first_far_pair`), over all points, runs
    once, only when some fold trips: lo >= hi on an axis; once it has
    cleared a trip, inverted ends collapse (`_snap_ends`).  Lower ends are
    finite or -inf and upper ends finite or +inf, so plain float
    subtraction is `ext_sub` on them.

    No flagged pair escapes, at any scale: say the test flags (x, y) on
    axis 1 through fl(a - b) > r, with a = LO1[x], b = HI1[y] and r the
    radius.  Rounding is monotone and r is a float, so a - b > r holds
    exactly too, with a, b, r finite.  x's fold holds its own term, of
    radius l2 * 0 = 0, so lo >= a, and fl(b + r) <= a, so hi <= a: x's fold
    trips.  With a = LO1[y] and b = HI1[x], fl(a - r) >= b trips it the
    same way.  The test scans all pairs, so its answer does not depend on
    which points are folded or which of them trips first.
    """
    scanned = False
    folds: List[Ends] = []
    for x in points:
        lo1, hi1, lo2, hi2 = _fold(ends, l2, space.d[x])
        if not scanned and (lo1 >= hi1 or lo2 >= hi2):
            nogo = _first_far_pair(*ends, l2, space)
            if nogo is not None:
                return nogo
            scanned = True
        if lo1 > hi1 or lo2 > hi2:
            r = max(filter(math.isfinite, _radii(l2, space.d[x])))
            lo1, hi1 = _snap_ends(lo1, hi1, r)
            lo2, hi2 = _snap_ends(lo2, hi2, r)
        folds.append((lo1, hi1, lo2, hi2))
    return folds


def _fold(ends: tuple, l2: float, drow: Sequence[float]) -> Tuple[float, float, float, float]:
    """The shrunk ends (lo1, hi1, lo2, hi2) of the point with distance row
    `drow`: per-axis max/min folds over the neighbours' inflated ends, in one
    pass from point 0's terms that takes a term only when strictly larger
    (smaller), so it keeps the first extreme, as `max` and `min` do."""
    LO1, HI1, LO2, HI2 = ends
    if l2 == 0.0:  # `_radii`'s rule; 1.0 * r is r
        l2, drow = 1.0, _radii(0.0, drow)
    terms = zip(LO1, HI1, LO2, HI2, drow)
    a, b, c, e, rho = next(terms)
    lo1, hi1, lo2, hi2 = a - l2 * rho, b + l2 * rho, c - l2 * rho, e + l2 * rho
    for a, b, c, e, rho in terms:
        r = l2 * rho
        if a - r > lo1:
            lo1 = a - r
        if b + r < hi1:
            hi1 = b + r
        if c - r > lo2:
            lo2 = c - r
        if e + r < hi2:
            hi2 = e + r
    return lo1, hi1, lo2, hi2


def _first_far_pair(LO1, HI1, LO2, HI2, l2: float, space: PseudometricSpace) -> Optional[NoGo]:
    """NoGo(3, x) for the first x with a y > x whose hull is over l2 * rho
    away, in one pass over x's later points that stops there.  A pair's gap
    is the first largest of its four per-axis gaps, as `max` keeps it."""
    for x in range(space.n):
        lo1, hi1, lo2, hi2, R = LO1[x], HI1[x], LO2[x], HI2[x], _radii(l2, space.d[x][x + 1:])
        for a, b, c, e, r in zip(LO1[x + 1:], HI1[x + 1:], LO2[x + 1:], HI2[x + 1:], R):
            gap = lo1 - b
            if a - hi1 > gap:
                gap = a - hi1
            if lo2 - e > gap:
                gap = lo2 - e
            if c - hi2 > gap:
                gap = c - hi2
            if gap > r:
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

    It moves g by that distance along -sign(h) of the farthest row, on any
    positive residual (an axis-parallel row moves g along one axis).

    `points`, ascending, restricts the scan to their sides: stage 2 passes
    the points whose rows cut x's box B, of largest end M in magnitude.
    Any other row holds, with this scan's offsets, the square around B's
    center grown by nearly REL_TOL * M (`_point_rows`).  g is in B up to half an inversion
    that `_snap_ends` collapsed, a few ulps of the fold's terms, so its
    residual on that row is not positive unless a radius that attains x's
    fold exceeds M some 2^10 times and cancels a neighbour's end.
    """
    drow = inst.space.d[x]
    gx, gy = g
    sides = inst.sides
    if points is not None:
        at = inst.offsets
        sides = [side for y in points for side in sides[at[y]:at[y + 1]]]
    best_d, best = 0.0, None
    for y, h1, h2, alpha, norm1 in sides:
        rho = drow[y]
        if rho == INF:
            continue
        offset = alpha - l1 * rho * norm1
        resid = h1 * gx + h2 * gy + offset
        if resid > 0.0:
            d = resid / norm1
            if d > best_d:
                best_d, best = d, (h1, h2)
    if best is None:
        return g
    h1, h2 = best
    return Point2(gx - best_d * ((h1 > 0.0) - (h1 < 0.0)), gy - best_d * ((h2 > 0.0) - (h2 < 0.0)))


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
    with gc_paused():
        l1, l2 = _check_lambdas(lambdas)
        inst.sides, inst.offsets, inst.normals, inst.rank, inst.by_angle  # made once, before any fork
        if inst.n > NEAREST + 1:  # where `_stage12_hull` may take a box
            inst.unit_sides
        groups: Dict[Tuple[int, ...], _Neighbours] = {}
        head = _stage12(inst, l1, groups, 0) if inst.n else None
        if isinstance(head, NoGo):
            return head
        # the lower half's next point and the upper half's last one (`_solve`)
        work = inst.n * len(inst.sides)
        meet = memoryview(mmap.mmap(-1, 16)).cast("q") if work >= SPLIT_MIN else [0, 0]
        meet[0], meet[1] = min(1, inst.n), inst.n
        got = _in_two(partial(_solve, inst, l1, l2, groups, head, meet), inst.n, work)
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
    if hull is None:
        return NoGo(1, x)
    return (-1, *hull), points


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
         goes on down past a NoGo and hands on the lowest it meets.  A half
         hands on its first point, its ends and its kept points;
      2. stages 3-5 at the points lo..hi-1: their folds (`_refine`), or the
         NoGo at the half's first trip, which the lower half returns at
         once, then their centers and values;
      3. the largest ratio over the half's rows of the seminorm, which
         split by their count of pairs (`_row_cut`)."""
    n, space = inst.n, inst.space
    if hi - lo == n:  # alone: a split that failed may have moved `meet`
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
        parts = exchange((0, flat, kept))
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
        done.reverse()
        parts = exchange(nogo or (x, [v for ends, _ in done for v in ends], [points for _, points in done]))
    if isinstance(parts[-1], NoGo):  # the lower half returns its NoGo instead
        return parts[-1]
    flat, kept = [], []
    for start, values, points in parts:  # from the first point not yet merged
        flat += values[(len(kept) - start) * 5:]
        kept += points[len(kept) - start:]
    twin, *ends = _columns([flat], 5)
    _fill_twins(twin, ends)

    refined = _refine(ends, l2, space, range(lo, hi))
    if isinstance(refined, NoGo):
        if lo == 0:  # its points come first, so its first trip is the serial run's
            return refined
        part = refined
    else:
        part = []
        for x, fold, gx in zip(range(lo, hi), refined, step4_centers(_rects(refined))):
            p = gx if twin[x] >= 0 else step5_project(inst, l1, x, gx, points=kept[x])
            part += (*fold, *gx, *p)
    parts = exchange(part)
    if isinstance(parts[-1], NoGo):
        return parts[-1]
    *folds, GX, GY, X, Y = _columns(parts, 8)
    _fill_twins(twin, (X, Y))
    seminorm = max(exchange(_row_ratios(X, Y, space, _row_cut(lo, n), _row_cut(hi, n))))
    return list(map(Point2, X, Y)), list(map(Point2, GX, GY)), _rects(zip(*ends)), _rects(zip(*folds)), seminorm


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


def _rects(ends: Iterable[Ends]) -> List[ExtRect]:
    """The rectangles with the ends (lo1, hi1, lo2, hi2)."""
    return [ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)) for lo1, hi1, lo2, hi2 in ends]


def _alone(part: Any) -> Tuple[Any]:
    """The `exchange` of a body that runs alone: its part is all parts."""
    return (part,)


def _in_two(body: Callable[[int, int, Callable[[Any], Sequence[Any]]], Any], n: int, work: int) -> Any:
    """body(0, n, _alone), computed as body(0, n // 2, exchange) here and
    body(n // 2, n, exchange) in one forked child when n is at least 2, its
    `work`, in stage-1 rows, at least SPLIT_MIN, and this process can fork
    (it has one thread) onto at least two CPUs.

    exchange(part) hands the half's part of a phase to the other half,
    pickled over a pipe, and returns the parts of both halves in point
    order.  The bodies are written so that both halves end a phase in the
    state of the one body 0..n-1, so a value the lower half returns is the
    call's; it may return before the child's part arrives.  The child
    writes nothing to stdout or stderr and leaves through `os._exit`.  A
    fork that fails, or any exception in this half, ends the split, and
    body(0, n, _alone) runs here once: the serial run settles every
    failure, and which of a NoGo and an error comes first.  A child that
    fails, dies or closes its pipe raises here at the next exchange.  The
    child is killed and reaped before that, and before this returns or
    raises."""
    if not (
        n >= 2
        and work >= SPLIT_MIN
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
        got = pickle.load(up)
        pickle.dump(part, down, pickle.HIGHEST_PROTOCOL)
        down.flush()
        return part, got

    try:
        return body(0, n // 2, lower)
    except Exception:
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
    if len(f) != space.n:
        raise ValueError("one value per point is required")
    return _row_ratios([p.x1 for p in f], [p.x2 for p in f], space, 0, space.n)


def _row_cut(k: int, n: int) -> int:
    """The seminorm row where the half that starts at point k starts: row i
    holds n - 1 - i pairs, so the rows before it hold about k / n of them."""
    return n - int(n * math.sqrt(1.0 - k / n)) if n else 0


def _row_ratios(X: List[float], Y: List[float], space: PseudometricSpace, lo: int, hi: int) -> float:
    """The largest ratio over the pairs (i, j > i) with lo <= i < hi, or 0,
    in one pass per row: max(|dx|, |dy|) / rho, which is max(|dx| / rho,
    |dy| / rho) as rounded division is monotone, with 0/0 = 0 and x/0 = inf
    for x > 0; only a strictly larger one replaces it, as in `max`.  Once
    out > 0 it skips a pair of row i at rho > fl(s / out), s the
    largest coordinate gap from f(i) to the values' bounding box: rho then
    exceeds s / out, which is rounded to nearest, so fl(max(|dx|, |dy|) /
    rho) <= fl(s / rho) <= out as rounding is monotone, and out stays."""
    out, d = 0.0, space.d
    bounded = X and math.isfinite(sum(X) + sum(Y))  # a NaN can hide from `min` and `max`
    x0, x1, y0, y1 = (min(X), max(X), min(Y), max(Y)) if bounded else (-INF, INF, -INF, INF)
    for i in range(lo, min(hi, space.n - 1)):
        xi, yi = X[i], Y[i]
        s = max(xi - x0, x1 - xi, yi - y0, y1 - yi)
        t = s / out if out else INF
        for xj, yj, rho in zip(X[i + 1:], Y[i + 1:], d[i][i + 1:]):
            if rho > t:
                continue
            dx, dy = abs(xi - xj), abs(yi - yj)
            if dy > dx:
                dx = dy
            if not rho:
                dx, rho = (INF if dx else 0.0), 1.0
            if dx / rho > out:
                out = dx / rho
                t = s / out
    return out


def verify_selection(inst: PolygonInstance, f: Sequence[Point2], bound: float) -> SelectionReport:
    """Check membership of every value, up to REL_TOL relative to the
    terms of each side's residual, and the seminorm bound up to VERIFY_TOL.

    The first failure (membership in point order, then the lexicographically
    first bad pair) is reported; the seminorm field is always filled in.
    """
    if len(f) != inst.n:
        raise ValueError("one value per point is required")
    return _report(inst, f, bound, lipschitz_seminorm(f, inst.space))


def _report(inst: PolygonInstance, f: Sequence[Point2], bound: float, seminorm: float) -> SelectionReport:
    """`verify_selection` with f's seminorm given."""
    for i, h1, h2, alpha, _ in inst.sides:
        t1, t2 = h1 * f[i].x1, h2 * f[i].x2
        if t1 + t2 + alpha > REL_TOL * (abs(t1) + abs(t2) + abs(alpha)):
            return SelectionReport(False, seminorm, bound, reason="membership", index=i)
    if seminorm > bound + VERIFY_TOL:
        cap, d, n = bound + VERIFY_TOL, inst.space.d, inst.n
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n) if uniform_norm(f[i] - f[j]) > cap * d[i][j])
        return SelectionReport(False, seminorm, bound, reason="seminorm", pair=next(pairs, None))
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
    hull = _hull_from_rows(_side_rows(inst, ltilde, rho, positions), inst.normals)
    return EMPTY if hull is None else _rects([hull])[0]


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
