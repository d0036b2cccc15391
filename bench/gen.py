"""Seeded instances for the benchmark.

Every number is a dyadic rational (a small integer over a power of two), so
the floats, the JSON text handed to the program and the exact rationals the
checkers build all hold the same values, and scaling offsets and distances by
2**k is exact in floats.  The generators follow the shapes the acceptance
tests draw (planted anchors, random half-planes, infinite-distance blocks,
duplicated points), written out again here so the benchmark depends on the
program only through its command line.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

INF = math.inf

Side = Tuple[float, float, float]  # (h1, h2, alpha): h1*x + h2*y + alpha <= 0
Pt = Tuple[float, float]


@dataclass
class Instance:
    d: List[List[float]]
    sets: List[List[Side]]  # one side per point for half-plane instances
    polygons: bool
    anchors: Optional[List[Pt]]  # a planted selection, when there is one

    @property
    def n(self) -> int:
        return len(self.d)

    def doc(self) -> dict:
        def num(v: float):
            return "inf" if v == INF else v

        sides = [[{"h": [a, b], "alpha": al} for a, b, al in s] for s in self.sets]
        sets = {"polygons": sides} if self.polygons else {"halfplanes": [s[0] for s in sides]}
        return {
            "n": self.n,
            "metric": {"matrix": [[num(v) for v in row] for row in self.d]},
            "sets": sets,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.doc(), fh)

    def scaled(self, k: int) -> "Instance":
        """Offsets, distances and anchors times 2**k; normals unchanged."""
        s = math.ldexp(1.0, k)
        return Instance(
            [[v * s for v in row] for row in self.d],
            [[(a, b, al * s) for a, b, al in sides] for sides in self.sets],
            self.polygons,
            None if self.anchors is None else [(x * s, y * s) for x, y in self.anchors],
        )


def dyadic(rng: random.Random, span: int = 8, denom_pow: int = 3) -> float:
    q = 2**denom_pow
    return rng.randint(-span * q, span * q) / q


def dyadic_pos(rng: random.Random, span: int, denom_pow: int = 3) -> float:
    q = 2**denom_pow
    return rng.randint(1, span * q) / q


def _normal(rng: random.Random, span: int) -> Tuple[float, float]:
    while True:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if a or b:
            return float(a), float(b)


def _sup_metric(pts: List[Pt], group: Optional[List[int]] = None) -> List[List[float]]:
    n = len(pts)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            if group is not None and group[i] != group[j]:
                v = INF
            else:
                v = max(abs(xi - pts[j][0]), abs(yi - pts[j][1]))
            d[i][j] = d[j][i] = v
    return d


def _points(rng: random.Random, n: int, dup_chance: float) -> List[Pt]:
    pts: List[Pt] = []
    for _ in range(n):
        if pts and rng.random() < dup_chance:
            pts.append(rng.choice(pts))
        else:
            pts.append((dyadic(rng), dyadic(rng)))
    return pts


def planted_halfplanes(rng: random.Random, n: int) -> Instance:
    """The metric is the sup-norm distance of dyadic anchors and each
    half-plane holds its anchor strictly inside, so the anchors are a
    selection with seminorm at most 1."""
    anchors = [(dyadic(rng), dyadic(rng)) for _ in range(n)]
    sets = []
    for x, y in anchors:
        a, b = _normal(rng, 4)
        sets.append([(a, b, -(a * x + b * y) - dyadic_pos(rng, 2))])
    return Instance(_sup_metric(anchors), sets, False, anchors)


def planted_polygons(rng: random.Random, n: int, nsides: int) -> Instance:
    """Every polygon holds its center strictly inside and the metric is the
    sup-norm distance of the centers (15% of them repeated)."""
    centers = _points(rng, n, 0.15)
    sets = []
    for x, y in centers:
        sides = []
        for _ in range(nsides):
            a, b = _normal(rng, 3)
            sides.append((a, b, -(a * x + b * y) - dyadic_pos(rng, 3)))
        sets.append(sides)
    return Instance(_sup_metric(centers), sets, True, centers)


def random_halfplanes(rng: random.Random, n: int, inf_blocks: bool) -> Instance:
    """Sup-norm metric of dyadic points (a quarter repeated), optionally split
    into two blocks at infinite distance, with unrelated half-planes."""
    pts = _points(rng, n, 0.25)
    group = None
    if inf_blocks and n >= 2:
        cut = rng.randrange(1, n)
        group = [0 if i < cut else 1 for i in range(n)]
    sets = []
    for _ in range(n):
        a, b = _normal(rng, 4)
        sets.append([(a, b, dyadic(rng))])
    return Instance(_sup_metric(pts, group), sets, False, None)


# the kinds of draw in the shares of acceptance criterion 1, for every 20 draws
DRAW_KINDS = ("random",) * 9 + ("blocks",) * 4 + ("planted",) * 7


def draw(rng: random.Random, n: int, kind: str) -> Instance:
    """Unrelated half-planes ("random"), the same with infinite-distance
    blocks ("blocks"), or a planted instance ("planted")."""
    if kind == "planted":
        return planted_halfplanes(rng, n)
    return random_halfplanes(rng, n, kind == "blocks")


def mixed_draw(rng: random.Random, n: int) -> Instance:
    """45% random, 20% random with infinite-distance blocks, 35% planted."""
    roll = rng.random()
    return draw(rng, n, "random" if roll < 0.45 else "blocks" if roll < 0.65 else "planted")
