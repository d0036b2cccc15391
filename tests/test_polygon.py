"""Polygon-valued instances, solved natively and checked against the
reduction to half-planes."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_polygon_instance
from lipsel.geometry import HalfPlane, Point2, halfplane, uniform_norm
from lipsel.metric import validate_pseudometric
from lipsel.polygon import PolygonInstance, reduce_to_halfplanes, solve_polygon
from lipsel.selection import (
    HalfPlaneInstance,
    NoGo,
    Success,
    lipschitz_seminorm,
    run_projection_algorithm,
)


def _square(cx, cy, r):
    """The axis-parallel square of radius r around (cx, cy) as four cuts."""
    return [
        halfplane(1.0, 0.0, -(cx + r)),
        halfplane(-1.0, 0.0, cx - r),
        halfplane(0.0, 1.0, -(cy + r)),
        halfplane(0.0, -1.0, cy - r),
    ]


def _two_squares(gap):
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    return PolygonInstance(sp, [_square(0.0, 0.0, 1.0), _square(gap, 0.0, 1.0)])


def test_reduction_metric_and_owners():
    p = _two_squares(6.0)
    expanded, owners = reduce_to_halfplanes(p)
    assert owners == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert expanded.n == 8
    d = expanded.space.d
    want = [[0.0 if (a < 4) == (b < 4) else 1.0 for b in range(8)] for a in range(8)]
    assert d == want
    assert expanded.planes[0] == p.polygons[0][0]
    assert expanded.planes[4] == p.polygons[1][0]


def test_expanded_size_is_total_side_count():
    sp = validate_pseudometric([[0.0, 2.0], [2.0, 0.0]])
    p = PolygonInstance(sp, [_square(0.0, 0.0, 1.0), [halfplane(1.0, 1.0, 0.0)]])
    expanded, owners = reduce_to_halfplanes(p)
    assert expanded.n == 5
    assert sum(len(o) for o in owners) == 5


def test_small_lambda_no_go():
    # centers 6 apart, squares of radius 1: the best selection moves by 4
    got = solve_polygon(_two_squares(6.0), 1.0)
    assert got == NoGo(1, 0)


def test_large_lambda_success():
    got = solve_polygon(_two_squares(6.0), 4.0)
    assert isinstance(got, Success)
    assert len(got.f) == 2
    assert got.f[0] == Point2(1.0, 0.0)
    assert got.f[1] == Point2(5.0, 0.0)


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_a_zero_normal_is_rejected_when_the_instance_is_built(alpha):
    # 0*x + 0*y + alpha <= 0 used to reach stage 2 and divide by zero there
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    zero = HalfPlane(Point2(0.0, 0.0), alpha)
    with pytest.raises(ValueError, match="point 0, side 0: half-plane normal must be nonzero"):
        PolygonInstance(sp, [[zero], [halfplane(1.0, 0.0, 0.0)]])
    with pytest.raises(ValueError, match="point 1, side 1: half-plane normal must be nonzero"):
        PolygonInstance(sp, [[halfplane(1.0, 0.0, 0.0)], [halfplane(1.0, 0.0, 0.0), zero]])
    with pytest.raises(ValueError, match="point 0, side 0"):
        HalfPlaneInstance(sp, [zero, halfplane(1.0, 0.0, 0.0)])


def test_lambda_validation():
    p = _two_squares(6.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_polygon(p, bad)


def test_polygon_shape_validation():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        PolygonInstance(sp, [_square(0.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        PolygonInstance(sp, [_square(0.0, 0.0, 1.0), []])


def test_single_sided_polygons_match_halfplane_solver():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    planes = [halfplane(1.0, 0.0, 0.0), halfplane(-1.0, 0.0, 4.0)]
    p = PolygonInstance(sp, [[planes[0]], [planes[1]]])
    inst = HalfPlaneInstance(sp, planes)
    for lam in (1.0, 4.0, 6.0):
        a = solve_polygon(p, lam)
        b = run_projection_algorithm(inst, (lam, lam))
        assert type(a) is type(b)
        if isinstance(a, Success):
            assert a.f == b.f
        else:
            assert a == b


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_planted_polygons_succeed_and_values_land_inside(seed):
    rng = random.Random(seed)
    p = random_polygon_instance(rng, rng.randint(1, 4))
    got = solve_polygon(p, 1.0)
    assert isinstance(got, Success)
    assert len(got.f) == p.n
    for i, poly in enumerate(p.polygons):
        for hp in poly:
            resid = hp.h.x1 * got.f[i].x1 + hp.h.x2 * got.f[i].x2 + hp.alpha
            assert resid <= 1e-7
    assert lipschitz_seminorm(got.f, p.space) <= 3.0 + 1e-7
    # the verified seminorm is the selection's seminorm exactly
    assert got.seminorm == lipschitz_seminorm(got.f, p.space)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_copies_of_a_point_agree_exactly(seed):
    """The expanded run gives all copies of a point one value, and the native
    run on the polygons gives exactly the expanded run's first copies."""
    rng = random.Random(seed)
    planted = rng.random() < 0.5
    p = random_polygon_instance(rng, rng.randint(1, 3), planted=planted)
    expanded, owners = reduce_to_halfplanes(p)
    first = [idxs[0] for idxs in owners]
    for lams in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.25)):
        want = run_projection_algorithm(expanded, lams)
        got = run_projection_algorithm(p, lams)
        if isinstance(want, NoGo):
            assert not (planted and lams == (1.0, 1.0))
            owner = next(i for i, idxs in enumerate(owners) if want.witness in idxs)
            assert got == NoGo(want.stage, owner)
            continue
        for idxs in owners:
            for a in idxs[1:]:
                assert uniform_norm(want.f[a] - want.f[idxs[0]]) == 0.0
        assert isinstance(got, Success)
        assert got.f == [want.f[a] for a in first]
        assert got.g == [want.g[a] for a in first]
        assert got.hulls == [want.hulls[a] for a in first]
        assert got.refined == [want.refined[a] for a in first]
        assert got.seminorm == want.seminorm
