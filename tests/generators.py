"""Seeded random builders shared across the test files.

All numeric data is dyadic (small numerators over powers of two) so float
arithmetic on it is exact: metric sums, LP pivots on axis-aligned data, and
the rational oracle all see literally the same numbers.
"""

import math
import random
from fractions import Fraction

from lipsel.geometry import HalfPlane, Point2, halfplane
from lipsel.metric import PreMetric, PseudometricSpace, intrinsic_metric
from lipsel.selection import HalfPlaneInstance, PolygonInstance

INF = math.inf


def dyadic(rng: random.Random, span: int = 8, denom_pow: int = 3) -> float:
    """Uniform dyadic rational in [-span, span] with denominator 2**denom_pow."""
    q = 2**denom_pow
    return rng.randint(-span * q, span * q) / q


def dyadic_pos(rng: random.Random, span: int = 8, denom_pow: int = 3) -> float:
    q = 2**denom_pow
    return rng.randint(1, span * q) / q


def linf_space(rng: random.Random, n: int, *, dup_chance=0.25, inf_blocks=False) -> PseudometricSpace:
    """Pseudometric from sup-norm distances of dyadic plane points.

    Duplicated points give genuine zero distances between distinct indices;
    optionally the points split into two groups at mutual distance +inf
    (still a pseudometric: every triangle through the gap has two infinite
    sides).
    """
    pts = []
    for _ in range(n):
        if pts and rng.random() < dup_chance:
            pts.append(rng.choice(pts))
        else:
            pts.append((dyadic(rng), dyadic(rng)))
    group = [0] * n
    if inf_blocks and n >= 2:
        cut = rng.randrange(1, n)
        for i in range(cut, n):
            group[i] = 1
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if group[i] != group[j]:
                v = INF
            else:
                v = max(abs(pts[i][0] - pts[j][0]), abs(pts[i][1] - pts[j][1]))
            d[i][j] = v
            d[j][i] = v
    return PseudometricSpace(n, d)


def random_halfplane(rng: random.Random, span: int = 4) -> HalfPlane:
    while True:
        a = rng.randint(-span, span)
        b = rng.randint(-span, span)
        if a or b:
            return halfplane(float(a), float(b), dyadic(rng))


def random_instance(rng: random.Random, n: int, **space_kw) -> PolygonInstance:
    space = linf_space(rng, n, **space_kw)
    return HalfPlaneInstance(space, [random_halfplane(rng) for _ in range(n)])


def planted_instance(rng: random.Random, n: int, span: int = 8) -> PolygonInstance:
    """Instance guaranteed to admit a selection with seminorm <= 1.

    The metric is the sup-norm distance of dyadic anchor points and each
    half-plane is chosen to contain its anchor, so the anchors themselves
    are a Lipschitz selection with constant exactly <= 1.
    """
    anchors = [Point2(dyadic(rng, span), dyadic(rng, span)) for _ in range(n)]
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = max(abs(anchors[i].x1 - anchors[j].x1), abs(anchors[i].x2 - anchors[j].x2))
            d[i][j] = v
            d[j][i] = v
    space = PseudometricSpace(n, d)
    planes = []
    for i in range(n):
        while True:
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            if a or b:
                break
        slack = dyadic_pos(rng, 2)  # anchor strictly inside
        alpha = -(a * anchors[i].x1 + b * anchors[i].x2) - slack
        planes.append(halfplane(float(a), float(b), alpha))
    return HalfPlaneInstance(space, planes)


def mixed_instance(rng: random.Random, n: int) -> PolygonInstance:
    """A draw in the mix of acceptance criterion 1: 45% random half-planes,
    20% the same with infinite-distance blocks, 35% planted."""
    roll = rng.random()
    if roll < 0.45:
        return random_instance(rng, n)
    if roll < 0.65:
        return random_instance(rng, n, inf_blocks=True)
    return planted_instance(rng, n)


def random_polygon_instance(
    rng: random.Random, n: int, nsides: int = 3, *, planted: bool = True
) -> PolygonInstance:
    """Polygon-valued instance; every polygon is nonempty by construction.

    With planted=True (default) the metric is the sup-norm distance of the
    polygons' seed centers, making the centers a selection with seminorm
    <= 1; with planted=False the metric is drawn independently and no
    particular lambda needs to work.
    """
    centers = []
    for _ in range(n):
        if centers and rng.random() < 0.15:
            centers.append(rng.choice(centers))
        else:
            centers.append((dyadic(rng), dyadic(rng)))
    if planted:
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = max(
                    abs(centers[i][0] - centers[j][0]),
                    abs(centers[i][1] - centers[j][1]),
                )
                d[i][j] = v
                d[j][i] = v
        space = PseudometricSpace(n, d)
    else:
        space = linf_space(rng, n, dup_chance=0.15)
    polygons = []
    for cx, cy in centers:
        sides = []
        for _ in range(nsides):
            while True:
                a = rng.randint(-3, 3)
                b = rng.randint(-3, 3)
                if a or b:
                    break
            alpha = -(a * cx + b * cy) - dyadic_pos(rng, 3)
            sides.append(halfplane(float(a), float(b), alpha))
        polygons.append(sides)
    return PolygonInstance(space, polygons)


def random_premetric(rng: random.Random, n: int, inf_chance: float = 0.2) -> PreMetric:
    w = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = INF if rng.random() < inf_chance else dyadic_pos(rng, 6)
            w[i][j] = v
            w[j][i] = v
    return PreMetric(n, w)


# ---------------------------------------------------------------------------
# instance files for the CLI


def number_doc(v):
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return v


def instance_doc(inst) -> dict:
    """JSON-ready document for a one-sided (half-plane) instance."""
    sets = {
        "halfplanes": [
            {"h": [hp.h.x1, hp.h.x2], "alpha": hp.alpha} for hp in inst.planes
        ]
    }
    matrix = [[number_doc(v) for v in row] for row in inst.space.d]
    return {"n": inst.space.n, "metric": {"matrix": matrix}, "sets": sets}


def polygon_doc(inst) -> dict:
    """JSON-ready document for a polygon instance."""
    polygons = [[{"h": [hp.h.x1, hp.h.x2], "alpha": hp.alpha} for hp in poly] for poly in inst.polygons]
    matrix = [[number_doc(v) for v in row] for row in inst.space.d]
    return {"n": inst.n, "metric": {"matrix": matrix}, "sets": {"polygons": polygons}}


def premetric_doc(inst_sets: dict, pre: PreMetric) -> dict:
    matrix = [[number_doc(v) for v in row] for row in pre.w]
    return {"n": pre.n, "metric": {"pre_metric": matrix}, "sets": inst_sets}


def closed_space(pre: PreMetric) -> PseudometricSpace:
    return intrinsic_metric(pre)
