"""Planar primitives for the selection algorithm.

Everything here works over the extended real line: interval and rectangle ends
may be ``-inf``/``+inf``, and a handful of arithmetic conventions make those
ends behave (equal infinities subtract to zero, a positive number divided by
zero is ``+inf``, and so on).  The distance used everywhere is the uniform
(max-coordinate) norm, whose unit ball is the square [-1,1]^2; that is what
makes rectangles and half-planes close under the operations below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

INF = math.inf

# Absolute slack used by membership predicates on constraint residuals.
DEFAULT_TOL = 1e-9


class Point2(NamedTuple):
    x1: float
    x2: float

    def __sub__(self, other: "Point2") -> "Point2":  # type: ignore[override]
        return Point2(self.x1 - other.x1, self.x2 - other.x2)

    def __add__(self, other: "Point2") -> "Point2":  # type: ignore[override]
        return Point2(self.x1 + other.x1, self.x2 + other.x2)


def uniform_norm(p: Point2) -> float:
    """Max-coordinate norm of a point."""
    return max(abs(p.x1), abs(p.x2))


def one_norm(p: Point2) -> float:
    return abs(p.x1) + abs(p.x2)


# ---------------------------------------------------------------------------
# extended-real helpers


def plus_part(a: float) -> float:
    """max(a, 0); the plus part of -inf is 0, of +inf is +inf."""
    return a if a > 0.0 else 0.0


def ext_sub(a: float, b: float) -> float:
    """a - b on the extended line.

    Equal infinities give 0; opposite infinities give the sign of ``a``.  The
    finite/semi-infinite cases coincide with IEEE float subtraction.
    """
    if math.isinf(a) and math.isinf(b):
        return 0.0 if a == b else a
    return a - b


def inflation_radius(lam: float, rho: float) -> float:
    """Radius of the square blown around a constraint at distance ``rho``.

    An infinitely far point contributes a vacuous constraint no matter how
    small ``lam`` is, so lam * inf is +inf even for lam == 0.
    """
    if rho == INF:
        return INF
    return lam * rho


# ---------------------------------------------------------------------------
# sets: empty marker, intervals, rectangles, half-planes


class EmptySet:
    """Singleton marker for the empty intersection (never inverted bounds)."""

    _instance: "EmptySet | None" = None

    def __new__(cls) -> "EmptySet":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EmptySet"


EMPTY = EmptySet()


@dataclass(frozen=True)
class ExtInterval:
    """Closed interval with extended-real ends, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval end is NaN")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")


MaybeInterval = Union[ExtInterval, EmptySet]


def interval(lo: float, hi: float) -> MaybeInterval:
    """Interval factory that returns EMPTY instead of raising on lo > hi."""
    if lo > hi:
        return EMPTY
    return ExtInterval(lo, hi)


@dataclass(frozen=True)
class ExtRect:
    """Axis-parallel rectangle: the product ix × iy of two nonempty intervals."""

    ix: ExtInterval
    iy: ExtInterval


MaybeRect = Union[ExtRect, EmptySet]


def rect(ix: MaybeInterval, iy: MaybeInterval) -> MaybeRect:
    if isinstance(ix, EmptySet) or isinstance(iy, EmptySet):
        return EMPTY
    return ExtRect(ix, iy)


class HalfPlane(NamedTuple):
    """Closed half-plane {u : <h, u> + alpha <= 0} with outward normal h."""

    h: Point2
    alpha: float


def halfplane(h1: float, h2: float, alpha: float) -> HalfPlane:
    """Validated constructor; the normal must be nonzero and finite."""
    if h1 == 0.0 and h2 == 0.0:
        raise ValueError("half-plane normal must be nonzero")
    for v in (h1, h2, alpha):
        if math.isnan(v) or math.isinf(v):
            raise ValueError("half-plane coefficients must be finite")
    return HalfPlane(Point2(h1, h2), alpha)


# ---------------------------------------------------------------------------
# half-plane operations


def sign_vector(h: Point2) -> Point2:
    """Coordinatewise sign of a nonzero vector."""
    if h.x1 == 0.0 and h.x2 == 0.0:
        raise ValueError("sign vector of the zero vector is undefined")

    def s(v: float) -> float:
        if v > 0.0:
            return 1.0
        if v < 0.0:
            return -1.0
        return 0.0

    return Point2(s(h.x1), s(h.x2))


def dist_to_halfplane(g: Point2, hp: HalfPlane) -> float:
    """Uniform-norm distance from g to the half-plane (0 exactly when g is
    inside)."""
    residual = hp.h.x1 * g.x1 + hp.h.x2 * g.x2 + hp.alpha
    if residual > 0.0:  # a quotient that underflows to 0 is the least float
        return residual / one_norm(hp.h) or math.ulp(0.0)
    return 0.0


def project_to_halfplane(g: Point2, hp: HalfPlane) -> Point2:
    """Nearest point of the half-plane in the uniform norm.

    Inside points (up to DEFAULT_TOL) map to themselves.  For an outside
    point the nearest point is unique exactly when neither normal coordinate
    vanishes; an axis-parallel boundary has a whole segment of nearest
    points, which we refuse to pick from.
    """
    residual = hp.h.x1 * g.x1 + hp.h.x2 * g.x2 + hp.alpha
    if residual <= DEFAULT_TOL:
        return g
    if hp.h.x1 == 0.0 or hp.h.x2 == 0.0:
        raise ValueError(
            "projection onto an axis-parallel half-plane from outside is not unique"
        )
    d = residual / one_norm(hp.h)
    sgn = sign_vector(hp.h)
    return Point2(g.x1 - d * sgn.x1, g.x2 - d * sgn.x2)


# ---------------------------------------------------------------------------
# rectangle operations


def rect_dist_origin(t: MaybeRect) -> float:
    """Uniform-norm distance from the origin to a nonempty rectangle."""
    if isinstance(t, EmptySet):
        raise ValueError("distance to the empty rectangle is undefined")
    return max(
        plus_part(t.ix.lo),
        plus_part(-t.ix.hi),
        plus_part(t.iy.lo),
        plus_part(-t.iy.hi),
    )


def rect_project_origin_center(t: MaybeRect) -> Point2:
    """Center of the (always bounded) set of origin-nearest points of t.

    The nearest-point set is itself a rectangle: per axis it is the clamp of
    [-d, d] to the rectangle's interval, where d is the distance from the
    origin.  Its center is finite even when t is unbounded.
    """
    if isinstance(t, EmptySet):
        raise ValueError("projection of the empty rectangle is undefined")
    d = rect_dist_origin(t)

    def axis_center(iv: ExtInterval) -> float:
        lo = max(-d, iv.lo)
        hi = min(d, iv.hi)
        return (lo + hi) / 2.0

    return Point2(axis_center(t.ix), axis_center(t.iy))


def interval_hausdorff(a: MaybeInterval, b: MaybeInterval) -> float:
    """Hausdorff distance between nonempty closed intervals.

    Equals the larger of the end deviations, with equal infinite ends
    contributing zero.
    """
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        raise ValueError("Hausdorff distance needs nonempty intervals")
    return max(abs(ext_sub(a.lo, b.lo)), abs(ext_sub(a.hi, b.hi)))

