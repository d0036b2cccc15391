"""Unit tests for the planar primitives: pinned values plus properties."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipsel.geometry import (
    EMPTY,
    EmptySet,
    ExtInterval,
    Point2,
    dist_to_halfplane,
    ext_div,
    ext_sub,
    halfplane,
    inflation_radius,
    interval,
    interval_hausdorff,
    plus_part,
    project_to_halfplane,
    rect,
    rect_dist_origin,
    rect_project_origin_center,
    sign_vector,
    uniform_norm,
)

from oracles import (
    grid_halfplane_dist,
    grid_halfplane_project,
    grid_interval_hausdorff,
    grid_rect_center,
    grid_rect_dist,
)

INF = math.inf


# ---------------------------------------------------------------------------
# extended-real arithmetic


def test_ext_sub_finite():
    assert ext_sub(3.0, 1.0) == 2.0


def test_ext_sub_equal_infinities():
    assert ext_sub(INF, INF) == 0.0
    assert ext_sub(-INF, -INF) == 0.0


def test_ext_sub_opposite_infinities_take_left_sign():
    assert ext_sub(INF, -INF) == INF
    assert ext_sub(-INF, INF) == -INF


def test_ext_sub_semi_infinite():
    assert ext_sub(INF, 5.0) == INF
    assert ext_sub(5.0, INF) == -INF


def test_ext_div_conventions():
    assert ext_div(0.0, 0.0) == 0.0
    assert ext_div(2.0, 0.0) == INF
    assert ext_div(-2.0, 0.0) == -INF
    assert ext_div(1.0, 4.0) == 0.25


def test_plus_part():
    assert plus_part(-3.0) == 0.0
    assert plus_part(2.5) == 2.5
    assert plus_part(-INF) == 0.0
    assert plus_part(INF) == INF


def test_inflation_radius_zero_lambda_far_point():
    # a pair at infinite distance contributes nothing even at lambda = 0
    assert inflation_radius(0.0, INF) == INF
    assert inflation_radius(2.0, 3.0) == 6.0
    assert inflation_radius(0.0, 7.0) == 0.0


# ---------------------------------------------------------------------------
# intervals and rectangles


def test_interval_factory_empty_on_inversion():
    assert interval(2.0, 1.0) is EMPTY
    assert interval(1.0, 1.0) == ExtInterval(1.0, 1.0)


def test_interval_rejects_nan():
    with pytest.raises(ValueError):
        ExtInterval(float("nan"), 1.0)


def test_interval_constructor_rejects_inversion():
    with pytest.raises(ValueError):
        ExtInterval(2.0, 1.0)


def test_rect_propagates_empty():
    assert rect(EMPTY, ExtInterval(-INF, INF)) is EMPTY
    assert rect(ExtInterval(0.0, 1.0), EMPTY) is EMPTY


def test_rect_dist_pinned():
    t = rect(ExtInterval(1.0, 2.0), ExtInterval(-3.0, -1.0))
    assert rect_dist_origin(t) == 1.0
    assert rect_project_origin_center(t) == Point2(1.0, -1.0)


def test_rect_dist_unbounded_side():
    t = rect(ExtInterval(-INF, -4.0), ExtInterval(-INF, INF))
    assert rect_dist_origin(t) == 4.0


def test_rect_center_strip():
    t = rect(ExtInterval(-INF, INF), ExtInterval(2.0, 5.0))
    assert rect_project_origin_center(t) == Point2(0.0, 2.0)


def test_rect_dist_of_empty_raises():
    with pytest.raises(ValueError):
        rect_dist_origin(EMPTY)


def test_rect_containing_origin_has_distance_zero():
    t = rect(ExtInterval(-1.0, 1.0), ExtInterval(-0.5, 2.0))
    assert rect_dist_origin(t) == 0.0
    assert rect_project_origin_center(t) == Point2(0.0, 0.0)


def test_hausdorff_pinned():
    assert interval_hausdorff(ExtInterval(0.0, 1.0), ExtInterval(2.0, 5.0)) == 4.0
    assert interval_hausdorff(ExtInterval(-INF, 0.0), ExtInterval(-INF, 3.0)) == 3.0


def test_hausdorff_mixed_boundedness_is_infinite():
    assert interval_hausdorff(ExtInterval(-INF, 0.0), ExtInterval(0.0, 1.0)) == INF


# ---------------------------------------------------------------------------
# half-planes


def test_sign_vector_pinned():
    assert sign_vector(Point2(3.0, -2.0)) == Point2(1.0, -1.0)
    assert sign_vector(Point2(0.0, 5.0)) == Point2(0.0, 1.0)


def test_sign_vector_zero_raises():
    with pytest.raises(ValueError):
        sign_vector(Point2(0.0, 0.0))


def test_halfplane_factory_rejects_zero_normal():
    with pytest.raises(ValueError):
        halfplane(0.0, 0.0, 1.0)


def test_halfplane_factory_rejects_nonfinite():
    with pytest.raises(ValueError):
        halfplane(INF, 0.0, 0.0)
    with pytest.raises(ValueError):
        halfplane(1.0, 0.0, INF)


def test_dist_axis_aligned():
    hp = halfplane(1.0, 0.0, 0.0)  # u1 <= 0
    assert dist_to_halfplane(Point2(2.0, 3.0), hp) == 2.0


def test_dist_diagonal():
    hp = halfplane(1.0, 1.0, 0.0)  # u1 + u2 <= 0
    assert dist_to_halfplane(Point2(1.0, 1.0), hp) == 1.0


def test_project_diagonal():
    hp = halfplane(1.0, 1.0, 0.0)
    assert project_to_halfplane(Point2(1.0, 1.0), hp) == Point2(0.0, 0.0)


def test_dist_and_project_slanted():
    hp = halfplane(1.0, -1.0, 2.0)
    g = Point2(1.0, 0.0)
    assert dist_to_halfplane(g, hp) == 1.5
    assert project_to_halfplane(g, hp) == Point2(-0.5, 1.5)


def test_project_inside_is_identity():
    hp = halfplane(1.0, 1.0, 0.0)
    g = Point2(-1.0, -2.0)
    assert project_to_halfplane(g, hp) is g


def test_project_axis_aligned_outside_raises():
    hp = halfplane(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        project_to_halfplane(Point2(1.0, 0.0), hp)


# ---------------------------------------------------------------------------
# properties


coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
small_int = st.integers(min_value=-6, max_value=6)


@given(coord, coord, coord, coord)
def test_hausdorff_symmetry(alo, ahi, blo, bhi):
    a = interval(min(alo, ahi), max(alo, ahi))
    b = interval(min(blo, bhi), max(blo, bhi))
    assert interval_hausdorff(a, b) == interval_hausdorff(b, a)


@given(coord, coord, coord, coord, coord, coord)
def test_hausdorff_triangle(u1, u2, v1, v2, w1, w2):
    a = interval(min(u1, u2), max(u1, u2))
    b = interval(min(v1, v2), max(v1, v2))
    c = interval(min(w1, w2), max(w1, w2))
    lhs = interval_hausdorff(a, c)
    rhs = interval_hausdorff(a, b) + interval_hausdorff(b, c)
    assert lhs <= rhs + 1e-9


@given(small_int, small_int, coord, coord, coord)
@example(a=0, b=-2, alpha=-5e-324, gx=0.0, gy=-5e-324)  # residual / 2 underflows to 0
def test_dist_zero_iff_member(a, b, alpha, gx, gy):
    if a == 0 and b == 0:
        return
    hp = halfplane(float(a), float(b), alpha)
    g = Point2(gx, gy)
    d = dist_to_halfplane(g, hp)
    if hp.h.x1 * g.x1 + hp.h.x2 * g.x2 + hp.alpha <= 0.0:
        assert d == 0.0
    else:
        assert d > 0.0


@given(small_int, small_int, coord, coord, coord)
def test_projection_lands_on_boundary_at_distance(a, b, alpha, gx, gy):
    """For an oblique normal the projection is a member attaining the distance."""
    if a == 0 or b == 0:
        return
    hp = halfplane(float(a), float(b), alpha)
    g = Point2(gx, gy)
    d = dist_to_halfplane(g, hp)
    f = project_to_halfplane(g, hp)
    assert hp.h.x1 * f.x1 + hp.h.x2 * f.x2 + hp.alpha <= 1e-7 * max(1.0, abs(alpha))
    assert uniform_norm(f - g) <= d + 1e-7 * max(1.0, d)


@given(coord, coord, coord, coord)
def test_rect_projection_point_is_inside_and_attains_distance(x1, x2, y1, y2):
    t = rect(
        ExtInterval(min(x1, x2), max(x1, x2)), ExtInterval(min(y1, y2), max(y1, y2))
    )
    d = rect_dist_origin(t)
    c = rect_project_origin_center(t)
    assert t.ix.lo - 1e-9 <= c.x1 <= t.ix.hi + 1e-9
    assert t.iy.lo - 1e-9 <= c.x2 <= t.iy.hi + 1e-9
    assert abs(uniform_norm(c) - d) <= 1e-9 * max(1.0, d)


# ---------------------------------------------------------------------------
# spot checks against the grid oracles (the bulk run lives in acceptance)


def test_grid_oracle_agrees_on_slanted_halfplane():
    hp = halfplane(2.0, -3.0, 1.0)
    g = Point2(4.0, 2.5)
    want, pitch = grid_halfplane_dist((g.x1, g.x2), 2.0, -3.0, 1.0)
    got = dist_to_halfplane(g, hp)
    assert abs(got - want) <= 2.0 * pitch
    (px, py), pitch2 = grid_halfplane_project((g.x1, g.x2), 2.0, -3.0, 1.0)
    f = project_to_halfplane(g, hp)
    assert uniform_norm(f - Point2(px, py)) <= 2.0 * pitch2


def test_grid_oracle_agrees_on_rect():
    t = rect(ExtInterval(2.0, 5.0), ExtInterval(-8.0, -3.0))
    want, pitch = grid_rect_dist(2.0, 5.0, -8.0, -3.0)
    assert abs(rect_dist_origin(t) - want) <= 2.0 * pitch
    (cx, cy), pitch2 = grid_rect_center(2.0, 5.0, -8.0, -3.0)
    c = rect_project_origin_center(t)
    assert max(abs(c.x1 - cx), abs(c.x2 - cy)) <= 2.0 * pitch2


def test_grid_oracle_agrees_on_hausdorff():
    a = ExtInterval(-1.0, 2.0)
    b = ExtInterval(0.5, 7.0)
    want, pitch = grid_interval_hausdorff(-1.0, 2.0, 0.5, 7.0, window=100.0)
    assert abs(interval_hausdorff(a, b) - want) <= 2.0 * pitch


def test_singletons_are_singletons():
    assert EmptySet() is EMPTY


def test_point_algebra():
    p = Point2(1.0, 2.0)
    q = Point2(0.5, -1.0)
    assert p - q == Point2(0.5, 3.0)
    assert p + q == Point2(1.5, 1.0)
    assert Point2(2.0 * p.x1, 2.0 * p.x2) == Point2(2.0, 4.0)
    assert uniform_norm(Point2(-3.0, 2.0)) == 3.0
