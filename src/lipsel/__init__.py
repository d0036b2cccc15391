"""lipsel: near-optimal Lipschitz selections of half-plane valued maps in the plane.

The package solves the following problem: given finitely many points carrying
closed half-planes (or convex polygons) and a pseudometric between the points,
produce a map picking one point inside each set whose Lipschitz seminorm is
within a small factor of the best possible, or certify that no selection with
the probed seminorm exists.  An exact rational feasibility oracle is included
for cross-checking at small sizes.
"""

from lipsel.geometry import (
    EMPTY,
    EmptySet,
    ExtInterval,
    ExtRect,
    HalfPlane,
    Point2,
    halfplane,
)
from lipsel.lp2d import Infeasible, Optimal, Unbounded, lp2d_brute_force, lp2d_optimize
from lipsel.metric import PreMetric, PseudometricSpace, intrinsic_metric, validate_pseudometric
from lipsel.selection import (
    HalfPlaneInstance,
    NoGo,
    PolygonInstance,
    Success,
    lipschitz_seminorm,
    run_projection_algorithm,
    verify_selection,
)
from lipsel.polygon import reduce_to_halfplanes, solve_polygon
from lipsel.oracle import build_sharp_lp, estimate_min_seminorm, fm_feasible

__all__ = [
    "EMPTY",
    "EmptySet",
    "ExtInterval",
    "ExtRect",
    "HalfPlane",
    "Point2",
    "halfplane",
    "Infeasible",
    "Optimal",
    "Unbounded",
    "lp2d_brute_force",
    "lp2d_optimize",
    "PreMetric",
    "PseudometricSpace",
    "intrinsic_metric",
    "validate_pseudometric",
    "HalfPlaneInstance",
    "NoGo",
    "Success",
    "lipschitz_seminorm",
    "run_projection_algorithm",
    "verify_selection",
    "PolygonInstance",
    "reduce_to_halfplanes",
    "solve_polygon",
    "build_sharp_lp",
    "estimate_min_seminorm",
    "fm_feasible",
]

__version__ = "0.1.0"
