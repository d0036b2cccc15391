"""Convex-polygon valued instances, reduced to the half-plane algorithm.

A polygon is a finite list of half-planes whose intersection is the set at a
point.  Splitting each point into one copy per half-plane — copies sit at
distance zero from each other, and distances between copies of different
points equal the original distances — turns a polygon instance into a
half-plane instance on sum(len(polygon)) points.  Copies of one point have
identical constraint systems, so a deterministic solver gives them identical
values, and the selection pulls back to the original points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

from lipsel.geometry import HalfPlane, Point2, uniform_norm
from lipsel.metric import PseudometricSpace
from lipsel.selection import (
    HalfPlaneInstance,
    NoGo,
    Outcome,
    Success,
    run_projection_algorithm,
)

# copies of one point must agree to this slack; they are computed by
# identical arithmetic, so any disagreement signals a solver bug
COINCIDENCE_TOL = 1e-7


@dataclass(frozen=True)
class PolygonInstance:
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


def reduce_to_halfplanes(
    p: PolygonInstance,
) -> Tuple[HalfPlaneInstance, List[List[int]]]:
    """Expanded half-plane instance plus, per original point, the indices of
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


def solve_polygon(p: PolygonInstance, lam: float, *, seed: int = 0) -> Outcome:
    """Run the projection algorithm with parameters (lam, lam) on the
    expanded instance and pull the result back to the original points.

    Success means a selection with seminorm at most 3*lam; NoGo certifies
    that no selection of the polygon map has seminorm <= lam.
    """
    if math.isnan(lam) or math.isinf(lam) or lam <= 0.0:
        raise ValueError("lambda must be finite and > 0")
    expanded, owners = reduce_to_halfplanes(p)
    outcome = run_projection_algorithm(expanded, (lam, lam), seed=seed)
    if isinstance(outcome, NoGo):
        base = _owner_of(owners, outcome.witness)
        return NoGo(outcome.stage, base)
    assert isinstance(outcome, Success)
    for idxs in owners:
        first = outcome.f[idxs[0]]
        for a in idxs[1:]:
            if uniform_norm(outcome.f[a] - first) > COINCIDENCE_TOL:
                raise RuntimeError(
                    "copies of one point received different values; "
                    "the expanded run lost determinism"
                )
    take = [idxs[0] for idxs in owners]
    return Success(
        f=[outcome.f[a] for a in take],
        g=[outcome.g[a] for a in take],
        hulls=[outcome.hulls[a] for a in take],
        refined=[outcome.refined[a] for a in take],
        # copies share one value, so the expanded seminorm is the original's
        seminorm=outcome.seminorm,
    )


def _owner_of(owners: List[List[int]], expanded_index: int) -> int:
    for base, idxs in enumerate(owners):
        if expanded_index in idxs:
            return base
    raise IndexError(f"expanded index {expanded_index} out of range")
