"""Convex-polygon valued instances.

A polygon is a finite list of half-planes (its sides) whose intersection is
the set at a point.  The projection algorithm of `lipsel.selection` runs on
polygon instances directly: a side inflated by a distance is one more
half-plane of a stage-1 intersection, so a half-plane instance is the
one-sided case and no reduction is needed.

`reduce_to_halfplanes` gives the classical reduction, which splits each point
into one copy per side (copies sit at distance zero from each other, and
distances between copies of different points equal the original distances).
The solver does not use it; it is the reference the native runs are checked
against.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from lipsel.geometry import HalfPlane
from lipsel.metric import PseudometricSpace
from lipsel.selection import (
    HalfPlaneInstance,
    Outcome,
    PolygonInstance,
    run_projection_algorithm,
)


def reduce_to_halfplanes(
    p: PolygonInstance,
) -> Tuple[PolygonInstance, List[List[int]]]:
    """Expanded one-sided instance plus, per original point, the indices of
    its copies in the expanded instance."""
    owners: List[List[int]] = []
    planes: List[HalfPlane] = []
    base_of: List[int] = []
    for i, poly in enumerate(p.polygons):
        owners.append(list(range(len(planes), len(planes) + len(poly))))
        for hp in poly:
            planes.append(hp)
            base_of.append(i)
    m = len(planes)
    d = [[p.space.d[base_of[a]][base_of[b]] for b in range(m)] for a in range(m)]
    return HalfPlaneInstance(PseudometricSpace(m, d), planes), owners


def solve_polygon(p: PolygonInstance, lam: float) -> Outcome:
    """Run the projection algorithm with parameters (lam, lam).

    Success means a selection with seminorm at most 3*lam; NoGo certifies
    that no selection of the polygon map has seminorm <= lam.
    """
    if math.isnan(lam) or math.isinf(lam) or lam <= 0.0:
        raise ValueError("lambda must be finite and > 0")
    return run_projection_algorithm(p, (lam, lam))
