"""Tests for the five-stage selection pipeline and the triple-hull condition."""

import functools
import itertools
import json
import math
import os
import random
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import (
    linf_space,
    mixed_instance,
    number_doc,
    planted_instance,
    random_halfplane,
    random_instance,
    random_polygon_instance,
)
from oracles import (
    _integer_row,
    first_far_pair_reference,
    fold_reference,
    hull_reference,
    pair_bound_reference,
    refinement_constraints,
    row_ratios_reference,
    step3_refine_rects_reference,
)
from lipsel.geometry import (
    EmptySet,
    ExtInterval,
    ExtRect,
    HalfPlane,
    Point2,
    halfplane,
    interval,
    interval_hausdorff,
    rect,
    uniform_norm,
)
from lipsel.lp2d import (
    Infeasible,
    Unbounded,
    _bracket,
    _by_angle,
    _cross,
    _Empty,
    _envelope,
    _exact,
    _exact_normal,
    lp2d_optimize,
)
from lipsel.metric import PreMetric, PseudometricSpace, validate_premetric, validate_pseudometric
import lipsel.selection
from lipsel.cli import main
from lipsel.selection import (
    HULL_DIRECTIONS,
    HalfPlaneInstance,
    NoGo,
    PolygonInstance,
    Success,
    _ends,
    _exact_rows,
    _first_far_pair,
    _fold,
    _hull_from_rows,
    _point_rows,
    _radii,
    _row_ratios,
    check_wnew,
    lipschitz_seminorm,
    run_projection_algorithm,
    step3_refine_rects,
    step4_centers,
    step5_project,
    verify_selection,
    wf_rect,
)

INF = math.inf


def _sep(gap):
    """Two points at distance 1 whose half-planes are `gap` apart."""
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    return HalfPlaneInstance(
        sp, [halfplane(1.0, 0.0, 0.0), halfplane(-1.0, 0.0, float(gap))]
    )


# ---------------------------------------------------------------------------
# frozen end-to-end cases


def test_separation_small_lambda_stops_at_stage_one():
    assert run_projection_algorithm(_sep(3), (1.0, 1.0)) == NoGo(1, 0)


def test_separation_exact_lambda_succeeds():
    got = run_projection_algorithm(_sep(3), (3.0, 3.0))
    assert isinstance(got, Success)
    assert got.f == [Point2(0.0, 0.0), Point2(3.0, 0.0)]
    assert got.g == got.f
    assert got.hulls[0] == ExtRect(ExtInterval(0.0, 0.0), ExtInterval(-INF, INF))
    assert got.hulls[1] == ExtRect(ExtInterval(3.0, 3.0), ExtInterval(-INF, INF))
    assert got.refined == got.hulls


def test_separation_zero_second_lambda_stops_at_stage_three():
    assert run_projection_algorithm(_sep(4), (4.0, 0.0)) == NoGo(3, 0)


def test_separation_zero_first_lambda_stops_at_stage_one():
    assert run_projection_algorithm(_sep(4), (0.0, 4.0)) == NoGo(1, 0)


def test_separation_mixed_lambdas():
    got = run_projection_algorithm(_sep(4), (4.0, 4.0))
    assert isinstance(got, Success)
    assert got.f == [Point2(0.0, 0.0), Point2(4.0, 0.0)]


def test_single_point_instance():
    sp = validate_pseudometric([[0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 1.0, 2.0)])
    got = run_projection_algorithm(inst, (1.0, 1.0))
    assert isinstance(got, Success)
    assert got.f == [Point2(-1.0, -1.0)]
    assert got.hulls[0] == ExtRect(ExtInterval(-INF, INF), ExtInterval(-INF, INF))


def test_lambda_validation():
    inst = _sep(1)
    for bad in ((-1.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (INF, 1.0)):
        with pytest.raises(ValueError):
            run_projection_algorithm(inst, bad)


def test_instance_needs_one_plane_per_point():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0)])


# ---------------------------------------------------------------------------
# per-stage frozen cases


def test_stage1_feasibility_matches_pipeline():
    # the stage-1 verdict depends on l1 alone
    assert run_projection_algorithm(_sep(3), (1.0, 4.0)) == NoGo(1, 0)
    assert run_projection_algorithm(_sep(3), (3.0, 0.0)) == NoGo(3, 0)


def test_stage1_constraint_list_drops_infinite_neighbours():
    sp = validate_pseudometric([[0.0, INF], [INF, 0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0), halfplane(0.0, 1.0, 0.0)])
    assert refinement_constraints(inst, 1.0, 0) == [halfplane(1.0, 0.0, 0.0)]
    got = run_projection_algorithm(inst, (1.0, 1.0))
    assert got.hulls == [
        ExtRect(ExtInterval(-INF, 0.0), ExtInterval(-INF, INF)),
        ExtRect(ExtInterval(-INF, INF), ExtInterval(-INF, 0.0)),
    ]


def test_stage2_hull_of_pinched_set():
    hull = run_projection_algorithm(_sep(3), (3.0, 3.0)).hulls[0]
    assert hull == ExtRect(ExtInterval(0.0, 0.0), ExtInterval(-INF, INF))


def test_stage3_gap_too_wide():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    hulls = [
        rect(interval(0.0, 1.0), interval(0.0, 1.0)),
        rect(interval(3.0, 4.0), interval(0.0, 1.0)),
    ]
    assert step3_refine_rects(hulls, 1.0, sp) == NoGo(3, 0)


def test_stage3_shrinks_toward_neighbours():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    hulls = [
        rect(interval(0.0, 1.0), interval(0.0, 1.0)),
        rect(interval(3.0, 4.0), interval(0.0, 1.0)),
    ]
    got = step3_refine_rects(hulls, 2.0, sp)
    assert got == [
        rect(interval(1.0, 1.0), interval(0.0, 1.0)),
        rect(interval(3.0, 3.0), interval(0.0, 1.0)),
    ]


def test_stage3_hull_count_mismatch():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        step3_refine_rects([rect(interval(0.0, 1.0), interval(0.0, 1.0))], 1.0, sp)


def test_stage4_center_rules():
    t = rect(interval(2.0, 4.0), interval(-3.0, -1.0))
    # nearest face to the origin is {2} x [-2,-1]; its center is (2, -1.5)
    assert step4_centers([t]) == [Point2(2.0, -1.5)]


def test_stage5_projects_onto_farthest_constraint():
    sp = validate_pseudometric([[0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 1.0, 2.0)])
    assert step5_project(inst, 1.0, 0, Point2(0.0, 0.0)) == Point2(-1.0, -1.0)


def test_stage5_keeps_interior_points():
    sp = validate_pseudometric([[0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 1.0, 2.0)])
    g = Point2(-5.0, -5.0)
    assert step5_project(inst, 1.0, 0, g) == g


# ---------------------------------------------------------------------------
# triple-hull rectangles and the sextuple condition


def _triangle_space():
    return validate_pseudometric(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )


def test_wf_rect_quadrant():
    inst = HalfPlaneInstance(
        _triangle_space(),
        [halfplane(1.0, 0.0, 0.0), halfplane(0.0, 1.0, 0.0), halfplane(1.0, 1.0, 0.0)],
    )
    got = wf_rect(inst, 0.0, 2, 0, 1)
    assert got == ExtRect(ExtInterval(-INF, 0.0), ExtInterval(-INF, 0.0))


def test_wf_rect_cone():
    inst = HalfPlaneInstance(
        _triangle_space(),
        [halfplane(1.0, 1.0, 0.0), halfplane(1.0, -1.0, 0.0), halfplane(1.0, 0.0, 0.0)],
    )
    got = wf_rect(inst, 0.0, 2, 0, 1)
    assert got == ExtRect(ExtInterval(-INF, 0.0), ExtInterval(-INF, INF))


def test_wf_rect_empty():
    inst = HalfPlaneInstance(
        _triangle_space(),
        [halfplane(1.0, 0.0, 0.0), halfplane(-1.0, 0.0, 1.0), halfplane(1.0, 0.0, 0.0)],
    )
    assert isinstance(wf_rect(inst, 0.0, 2, 0, 1), EmptySet)


def test_wf_rect_infinite_distances_give_whole_plane():
    sp = validate_pseudometric([[0.0, INF], [INF, 0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0), halfplane(0.0, 1.0, 0.0)])
    got = wf_rect(inst, 1.0, 0, 1, 1)
    assert got == ExtRect(ExtInterval(-INF, INF), ExtInterval(-INF, INF))


def test_check_wnew_separation():
    inst = _sep(4)
    ok, witness = check_wnew(inst, 1.0, 1.0)
    assert not ok and witness == (0, 0, 0, 0, 0, 1)
    # an empty triple hull alone refutes the condition, whatever the second
    # parameter allows
    ok, witness = check_wnew(inst, 0.0, 4.0)
    assert not ok and witness == (0, 0, 0, 0, 0, 1)
    ok, witness = check_wnew(inst, 4.0, 4.0)
    assert ok and witness is None


def test_check_wnew_point_cap():
    sp = validate_pseudometric([[0.0] * 9 for _ in range(9)])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0)] * 9)
    with pytest.raises(ValueError):
        check_wnew(inst, 1.0, 1.0)


def test_check_wnew_true_implies_success_on_frozen_case():
    inst = _sep(4)
    got = run_projection_algorithm(inst, (4.0, 4.0))
    assert isinstance(got, Success)
    assert lipschitz_seminorm(got.f, inst.space) <= 2 * 4.0 + 4.0 + 1e-7


# ---------------------------------------------------------------------------
# verification helpers


def test_seminorm_frozen():
    sp = validate_pseudometric([[0.0, 2.0], [2.0, 0.0]])
    f = [Point2(0.0, 0.0), Point2(3.0, 1.0)]
    assert lipschitz_seminorm(f, sp) == 1.5


def test_seminorm_zero_distance_rules():
    sp = validate_pseudometric([[0.0, 0.0], [0.0, 0.0]])
    assert lipschitz_seminorm([Point2(0.0, 0.0), Point2(0.0, 0.0)], sp) == 0.0
    assert lipschitz_seminorm([Point2(0.0, 0.0), Point2(1.0, 0.0)], sp) == INF


def test_seminorm_infinite_distance_is_free():
    sp = validate_pseudometric([[0.0, INF], [INF, 0.0]])
    assert lipschitz_seminorm([Point2(0.0, 0.0), Point2(9.0, 9.0)], sp) == 0.0


def test_seminorm_length_mismatch():
    sp = validate_pseudometric([[0.0]])
    with pytest.raises(ValueError):
        lipschitz_seminorm([], sp)


def test_verify_selection_accepts_good_selection():
    inst = _sep(3)
    rep = verify_selection(inst, [Point2(0.0, 0.0), Point2(3.0, 0.0)], 3.0)
    assert rep.ok and rep.seminorm == 3.0 and rep.bound == 3.0


def test_verify_selection_flags_membership():
    inst = _sep(3)
    rep = verify_selection(inst, [Point2(1.0, 0.0), Point2(3.0, 0.0)], 3.0)
    assert not rep.ok and rep.reason == "membership" and rep.index == 0


def test_verify_selection_flags_seminorm_pair():
    inst = _sep(3)
    rep = verify_selection(inst, [Point2(-2.0, 0.0), Point2(3.0, 0.0)], 3.0)
    assert not rep.ok and rep.reason == "seminorm" and rep.pair == (0, 1)
    assert rep.seminorm == 5.0


# ---------------------------------------------------------------------------
# randomized properties


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=6))
@settings(max_examples=120, deadline=None)
def test_planted_instances_succeed_at_one_one(seed, n):
    rng = random.Random(seed)
    inst = planted_instance(rng, n)
    got = run_projection_algorithm(inst, (1.0, 1.0))
    assert isinstance(got, Success)
    rep = verify_selection(inst, got.f, 3.0)
    assert rep.ok


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_success_is_monotone_in_lambda(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5))
    l1 = rng.randint(0, 6) / 2.0
    l2 = rng.randint(0, 6) / 2.0
    got = run_projection_algorithm(inst, (l1, l2))
    bigger = run_projection_algorithm(inst, (l1 + rng.randint(0, 4) / 2.0,
                                             l2 + rng.randint(0, 4) / 2.0))
    if isinstance(got, Success):
        assert isinstance(bigger, Success)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_zero_distance_points_share_values(seed):
    rng = random.Random(seed)
    inst = planted_instance(rng, rng.randint(2, 6))
    got = run_projection_algorithm(inst, (1.0, 1.0))
    assert isinstance(got, Success)
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            if inst.space.d[i][j] == 0.0:
                assert got.f[i] == got.f[j]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_stage3_rects_stay_close_and_centers_are_lipschitz(seed):
    rng = random.Random(seed)
    inst = planted_instance(rng, rng.randint(2, 6))
    l1, l2 = 1.0, 1.0
    got = run_projection_algorithm(inst, (l1, l2))
    assert isinstance(got, Success)
    n = inst.n
    for x in range(n):
        for y in range(x + 1, n):
            rho = inst.space.d[x][y]
            if rho == INF:
                continue
            hx = interval_hausdorff(got.refined[x].ix, got.refined[y].ix)
            hy = interval_hausdorff(got.refined[x].iy, got.refined[y].iy)
            assert max(hx, hy) <= l2 * rho + 1e-7
            assert uniform_norm(got.g[x] - got.g[y]) <= l2 * rho + 1e-7


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_stage2_hull_equals_pairwise_hull_intersection(seed):
    """Each hull end is decided by at most two constraints, so the hull is
    exactly the rectangle intersection of all two-constraint hulls."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    inst = random_instance(rng, n)
    l1 = rng.randint(0, 4) / 2.0
    # an l2 this large lets every pair of hulls pass stage 3
    outcome = run_projection_algorithm(inst, (l1, 2.0**40))
    if isinstance(outcome, NoGo):
        assert outcome.stage == 1
        return
    for x in range(n):
        hull = outcome.hulls[x]
        lo1, hi1, lo2, hi2 = -INF, INF, -INF, INF
        empty = False
        for y in range(n):
            for yp in range(y, n):
                w = wf_rect(inst, l1, x, y, yp)
                if isinstance(w, EmptySet):
                    empty = True
                    break
                lo1, hi1 = max(lo1, w.ix.lo), min(hi1, w.ix.hi)
                lo2, hi2 = max(lo2, w.iy.lo), min(hi2, w.iy.hi)
            if empty:
                break
        assert not empty
        for got, want in ((hull.ix.lo, lo1), (hull.ix.hi, hi1),
                          (hull.iy.lo, lo2), (hull.iy.hi, hi2)):
            if math.isinf(want) or math.isinf(got):
                assert got == want
            else:
                assert abs(got - want) <= 1e-7


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_check_wnew_true_implies_success_with_tighter_bound(seed):
    rng = random.Random(seed)
    inst = planted_instance(rng, rng.randint(1, 4))
    ltilde, lam = 1.0, 1.0
    ok, _ = check_wnew(inst, ltilde, lam)
    if not ok:
        return
    got = run_projection_algorithm(inst, (ltilde, lam))
    assert isinstance(got, Success)
    assert lipschitz_seminorm(got.f, inst.space) <= 2 * lam + ltilde + 1e-7


# ---------------------------------------------------------------------------
# shared verdicts and reused hulls against the public LP


def _nontransitive_space(rng, n, dup_chance=0.4):
    """Sup-norm distances with random pairs cut to +inf: symmetric with a zero
    diagonal, so `validate_premetric` accepts it, but "at finite distance" is
    not transitive and points at distance 0 can have different rows."""
    d = [row[:] for row in linf_space(rng, n, dup_chance=dup_chance).d]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                d[i][j] = d[j][i] = INF
    assert isinstance(validate_premetric(d), PreMetric)
    return PseudometricSpace(n, d)


def _public_ends(inst, l1, x):
    """Hull ends at x from `lp2d_optimize`, or None when the set is empty."""
    cons = refinement_constraints(inst, l1, x)
    ends = []
    for c in ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)):
        got = lp2d_optimize(cons, c, "max")
        if isinstance(got, Infeasible):
            return None
        ends.append(INF if isinstance(got, Unbounded) else got.value)
    return (-ends[0], ends[1], -ends[2], ends[3])


@pytest.mark.parametrize("kind", ["repeated", "blocks", "nontransitive"])
def test_shared_plans_and_reused_hulls_match_public_lp(kind):
    """The normals' envelope shared per set of finite neighbours and hulls
    reused between equal distance rows give exactly the hulls of
    independent public LPs."""
    rng = random.Random(f"plans/{kind}")
    seen = {"success": 0, "stage1": 0, "equal_rows": 0, "zero_unequal_rows": 0}
    for draw in range(60):
        n = 2 + draw % 7
        if kind == "repeated":
            inst = random_instance(rng, n, dup_chance=0.5)
        elif kind == "blocks":
            inst = random_instance(rng, n, dup_chance=0.5, inf_blocks=True)
        else:
            inst = HalfPlaneInstance(
                _nontransitive_space(rng, n), [random_halfplane(rng) for _ in range(n)]
            )
        d = inst.space.d
        zero_pairs = [(x, y) for x in range(n) for y in range(x) if d[x][y] == 0.0]
        for lam in (0.25, 1.0, 4.0):
            empty = [
                x for x in range(n)
                if isinstance(
                    lp2d_optimize(refinement_constraints(inst, lam, x), (0.0, 0.0)),
                    Infeasible,
                )
            ]
            try:
                got = run_projection_algorithm(inst, (lam, lam))
            except RuntimeError as exc:
                # without the triangle inequality the l1 + 2*l2 bound can
                # fail; stages 1-3 passed, so no stage-1 set is empty
                assert kind == "nontransitive" and "verification failed" in str(exc)
                assert empty == []
                continue
            if isinstance(got, NoGo) and got.stage == 1:
                assert got.witness == empty[0]
                seen["stage1"] += 1
                continue
            assert empty == []
            if isinstance(got, NoGo):
                continue
            for x in range(n):
                hull = got.hulls[x]
                assert (hull.ix.lo, hull.ix.hi, hull.iy.lo, hull.iy.hi) == _public_ends(inst, lam, x)
            assert got.seminorm == lipschitz_seminorm(got.f, inst.space)
            seen["success"] += 1
            seen["equal_rows"] += sum(d[x] == d[y] for x, y in zero_pairs)
            seen["zero_unequal_rows"] += sum(d[x] != d[y] for x, y in zero_pairs)
    if kind != "nontransitive":
        del seen["zero_unequal_rows"]  # a pseudometric has none
    assert min(seen.values()) > 0, seen


def _scaled(inst, k):
    """inst with every offset and distance times 2^k, which is exact."""
    s = math.ldexp(1.0, k)
    space = PseudometricSpace(inst.n, [[s * v for v in row] for row in inst.space.d])
    return PolygonInstance(space, [[HalfPlane(hp.h, s * hp.alpha) for hp in poly] for poly in inst.polygons])


@pytest.mark.parametrize("case", ["repeated", "blocks", "nontransitive", "planted", "polygon", "scaled"])
def test_hulls_from_the_rows_that_cut_the_box_equal_public_lp(case, monkeypatch):
    """With enough rows a hull comes from the rows that cut an outer box;
    its ends equal those of independent public LPs on all of the point's
    rows exactly, as the ends are correctly rounded optima.  Stage 5 then
    scans only the sides of the points whose rows cut the box, and its
    result equals that of the scan over all sides."""
    boxed = []
    point_rows = lipsel.selection._point_rows
    project = lipsel.selection.step5_project

    def spy(inst, l1, x, box=None):
        boxed.append(box is not None)
        return point_rows(inst, l1, x, box)

    restricted = []

    def spy5(inst, l1, x, g, points=None):
        got = project(inst, l1, x, g, points)
        assert got == project(inst, l1, x, g), (x, g, points)
        restricted.append(points is not None)
        return got

    monkeypatch.setattr(lipsel.selection, "_point_rows", spy)
    monkeypatch.setattr(lipsel.selection, "step5_project", spy5)
    # the spies count calls in this process, so no solve splits
    monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", INF)
    rng = random.Random(f"boxed/{case}")
    if case == "planted":
        runs = [(planted_instance(rng, 200), lam) for lam in (1.0, 2.0)]
    elif case == "polygon":
        runs = [(random_polygon_instance(rng, 100, 4), 1.0)]
    elif case == "scaled":
        runs = [(_scaled(planted_instance(rng, 100), 40), lam) for lam in (1.0, 2.0)]
        runs.append((_scaled(random_polygon_instance(rng, 30, 4), 40), 1.0))
    else:
        runs = []
        for draw in range(4):
            n = 80 + 10 * draw
            if case == "nontransitive":
                inst = HalfPlaneInstance(
                    _nontransitive_space(rng, n, 0.05), [random_halfplane(rng) for _ in range(n)]
                )
            else:
                inst = random_instance(rng, n, dup_chance=0.05, inf_blocks=case == "blocks")
            runs += [(inst, lam) for lam in (4.0, 16.0)]
    successes = 0
    for inst, lam in runs:
        ends = [_public_ends(inst, lam, x) for x in range(inst.n)]
        # with l2 this large stage 3 cannot stop the run
        got = run_projection_algorithm(inst, (lam, 2.0**40))
        if isinstance(got, NoGo):
            assert got == NoGo(1, ends.index(None))
            continue
        assert None not in ends
        assert [(h.ix.lo, h.ix.hi, h.iy.lo, h.iy.hi) for h in got.hulls] == ends
        successes += 1
    assert successes >= len(runs) // 2, successes
    assert sum(boxed) >= len(boxed) // 2, (sum(boxed), len(boxed))
    assert sum(restricted) >= len(restricted) // 2, (sum(restricted), len(restricted))


# ---------------------------------------------------------------------------
# scale


def _validate_result(tmp_path, capsys, inst, f, bound):
    """The exit code and document of `lipsel validate --result` on inst
    and the selection f, written as a polygon instance and a result."""
    path, result = tmp_path / "inst.json", tmp_path / "result.json"
    polygons = [[{"h": [hp.h.x1, hp.h.x2], "alpha": hp.alpha} for hp in poly] for poly in inst.polygons]
    matrix = [[number_doc(v) for v in row] for row in inst.space.d]
    path.write_text(json.dumps({"n": inst.n, "metric": {"matrix": matrix}, "sets": {"polygons": polygons}}))
    result.write_text(json.dumps({"outcome": "success", "f": [list(p) for p in f], "bound": bound}))
    capsys.readouterr()
    code = main(["validate", str(path), "--result", str(result)])
    return code, json.loads(capsys.readouterr().out)


def test_scaling_by_a_power_of_two_scales_the_solve_exactly(tmp_path, capsys):
    """Scaling every offset and distance by 2^k is exact in floats, and so
    is the solve: for k in [-40, 40], the same outcome, stage and witness,
    f exactly 2^k times the unscaled f, and an equal seminorm.  On draws in
    the mix of acceptance criterion 1 at n = 1..8, with NoGos at stages 1
    and 3 among them, on planted n = 100 and on 4-sided polygons at
    n = 30.  Every scaled Success verifies at l1 + 2*l2, and some of them
    pass `validate --result`."""
    rng = random.Random("scale")
    runs = []
    for _ in range(600):
        l1 = rng.randint(1, 32) / 8
        runs.append((mixed_instance(rng, rng.randint(1, 8)), (l1, rng.choice([0.0, 1 / 16, l1 / 4, l1]))))
    runs += [(planted_instance(rng, 100), (lam, lam)) for lam in (1.0, 2.0) for _ in range(3)]
    runs += [(random_polygon_instance(rng, 30, 4), (1.0, 1.0)) for _ in range(6)]
    seen = {"stage1": 0, "stage3": 0, "success": 0, "validated": 0}
    for draw, (inst, lambdas) in enumerate(runs):
        k = rng.randint(-40, 40)
        want = run_projection_algorithm(inst, lambdas)
        scaled = _scaled(inst, k)
        got = run_projection_algorithm(scaled, lambdas)
        if isinstance(want, NoGo):
            assert got == want, (draw, k)
            seen[f"stage{want.stage}"] += 1
            continue
        assert isinstance(got, Success), (draw, k, got)
        assert got.f == [Point2(math.ldexp(p.x1, k), math.ldexp(p.x2, k)) for p in want.f], (draw, k)
        assert got.seminorm == want.seminorm, (draw, k)
        bound = lambdas[0] + 2.0 * lambdas[1]
        assert verify_selection(scaled, got.f, bound).ok, (draw, k)
        seen["success"] += 1
        if draw % 40 == 0 or inst.n >= 30:
            code, doc = _validate_result(tmp_path, capsys, scaled, got.f, bound)
            assert code == 0 and doc["verified"] is True, (draw, k, doc)
            seen["validated"] += 1
    assert seen["stage1"] >= 20 and seen["stage3"] >= 10 and seen["success"] >= 300, seen
    assert seen["validated"] >= 15, seen


# ---------------------------------------------------------------------------
# stage 3: folds first, against the pairwise scan first


def _stage3_draw(rng, k):
    """Hulls, l2 and a space at scale 2^k: ends on a coarse grid, pinched
    and infinite ends, spaces with zero and infinite distances, some not
    transitive, and a few pairs whose gap is moved to exactly the radius,
    or one float step either side of it."""
    n = rng.randint(2, 8)
    kind = rng.choice(["metric", "blocks", "nontransitive"])
    if kind == "nontransitive":
        space = _nontransitive_space(rng, n, 0.3)
    else:
        space = linf_space(rng, n, dup_chance=0.3, inf_blocks=kind == "blocks")
    s = math.ldexp(1.0, k)
    d = [[s * v for v in row] for row in space.d]
    l2 = rng.choice([0.0, 0.3, 0.5, 1.3, 2.0, 4.0, 8.0])
    ends = []
    for _ in range(n):
        box = []
        for _axis in range(2):
            c, w = rng.randint(-8, 8) / 4, rng.choice([0.0, 0.25, 1.0, 3.0, 6.0])
            lo = -INF if rng.random() < 0.1 else s * (c - w)
            hi = INF if rng.random() < 0.1 else s * (c + w)
            box += [lo, hi]
        ends.append(box)
    for _ in range(rng.randint(0, 3)):
        x, y = rng.sample(range(n), 2)
        axis = rng.choice([0, 2])
        r = INF if d[x][y] == INF else l2 * d[x][y]
        if math.isinf(r) or math.isinf(ends[x][axis + 1]):
            continue
        lo = ends[x][axis + 1] + r
        lo = rng.choice([lo, lo, math.nextafter(lo, INF), math.nextafter(lo, -INF)])
        ends[y][axis] = lo
        ends[y][axis + 1] = max(ends[y][axis + 1], lo)
    hulls = [ExtRect(ExtInterval(a, b), ExtInterval(c, e)) for a, b, c, e in ends]
    return hulls, l2, PseudometricSpace(n, d)


def _stage3_outcome(fn, hulls, l2, space):
    try:
        got = fn(hulls, l2, space)
    except AssertionError:
        return "inverted"
    if isinstance(got, NoGo):
        return got
    return repr([(t.ix.lo, t.ix.hi, t.iy.lo, t.iy.hi) for t in got])


def test_stage3_folds_first_equal_the_pairwise_scan_first(monkeypatch):
    """Stage 3 runs the pairwise scan only when a fold trips; its NoGo, its
    rectangles (bit for bit) or its inverted-ends error equal those of the
    scan-first reference, at scales 1 and 2^±40."""
    scan = lipsel.selection._first_far_pair
    calls = []

    def spy(*args):
        calls.append(scan(*args))
        return calls[-1]

    monkeypatch.setattr(lipsel.selection, "_first_far_pair", spy)
    rng = random.Random("stage3-folds")
    seen = {"nogo": 0, "refined": 0, "inverted": 0}
    for k in (0, 40, -40):
        for _ in range(1500):
            hulls, l2, space = _stage3_draw(rng, k)
            want = _stage3_outcome(step3_refine_rects_reference, hulls, l2, space)
            assert _stage3_outcome(step3_refine_rects, hulls, l2, space) == want, (hulls, l2, space.d)
            seen["nogo" if isinstance(want, NoGo) else "inverted" if want == "inverted" else "refined"] += 1
    assert min(seen.values()) >= 20, seen
    # trips that the scan cleared, and runs that never tripped
    assert calls.count(None) >= 100, calls.count(None)
    assert seen["refined"] - calls.count(None) >= 100, seen


@pytest.mark.parametrize("k", [0, 40, -40])
def test_stage3_collapses_an_inversion_where_the_ends_cancel(k):
    """Points 1 and 2 hold x >= c and x <= -c, with 2c their radius at
    l2 = 2.2, and point 0 lies between them; its fold's ends, about
    1.17 - 1.17, come out inverted by one rounding of the radii (2.2e-16).
    That is more than 2^-40 of the ends (1.7e-4), but not of the radii, so
    the fold collapses, and the solve succeeds at every scale with f scaled
    exactly."""
    a, b, l2 = 0.5330073590904556, 0.5331620807131727, 2.2
    c = l2 * (a + b) / 2
    space = validate_pseudometric([[0.0, a, b], [a, 0.0, a + b], [b, a + b, 0.0]])
    inst = HalfPlaneInstance(space, [halfplane(0.0, 1.0, -1000.0), halfplane(-1.0, 0.0, c), halfplane(1.0, 0.0, c)])
    want = run_projection_algorithm(inst, (4 * l2, l2))
    R = _radii(l2, space.d[0])
    lo = max(h.ix.lo - r for h, r in zip(want.hulls, R))
    hi = min(h.ix.hi + r for h, r in zip(want.hulls, R))
    assert lo - hi > math.ldexp(max(abs(lo), abs(hi)), -40) > 0, (lo, hi)
    got = run_projection_algorithm(_scaled(inst, k), (4 * l2, l2))
    assert got.f == [Point2(math.ldexp(p.x1, k), math.ldexp(p.x2, k)) for p in want.f]
    assert got.refined[0].ix.lo == got.refined[0].ix.hi == math.ldexp((lo + hi) / 2, k)


def _fused_draw(rng, k):
    """Hull ends, l2, a space and values at scale 2^k for the one-pass
    loops: ends on a coarse grid with -0.0 and 0.0, and infinities of either
    sign at either end, so that some fold terms are inf - inf = NaN;
    distances 0.0, -0.0, inf and grid values, not always transitive; values
    on a grid, so that pairs at distance zero give 0/0 and x/0."""
    n = rng.randint(1, 9)
    s = math.ldexp(1.0, k)

    def end():
        if rng.random() < 0.12:
            return rng.choice([INF, -INF])
        return s * rng.choice([-0.0, 0.0, 0.5, -1.0, 1.5, -3.0])

    ends = tuple([end() for _ in range(n)] for _ in range(4))
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = rng.choice([0.0, 0.0, -0.0])
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice([0.0, -0.0, INF, s * 0.25, s * 1.0, s * 1.5, s * 3.0])
    values = [[s * rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0]) for _ in range(n)] for _ in range(2)]
    return ends, rng.choice([0.0, 0.5, 1.0, 1.3, 2.0]), PseudometricSpace(n, d), values


def test_one_pass_stage3_and_seminorm_equal_the_map_passes():
    """`_fold`, `_first_far_pair` and `_row_ratios` equal their `max`/`min`
    over `map` references bit for bit (repr, so -0.0 against 0.0 and NaN
    count) at scales 1 and 2^±40: a fold whose first term is NaN keeps it,
    a tie of -0.0 and 0.0 keeps the first, l2 = 0 keeps inf radii, and a
    pair at distance zero gives 0/0 = 0 and x/0 = inf."""
    rng = random.Random("one-pass")
    seen = {"nan_first": 0, "zero_tie": 0, "l2_zero_inf": 0, "nogo": 0, "zero_over_zero": 0, "over_zero": 0}
    for k in (0, 40, -40):
        for _ in range(1500):
            ends, l2, space, (X, Y) = _fused_draw(rng, k)
            n = space.n
            for x in range(n):
                want = fold_reference(ends, l2, space.d[x])
                assert repr(_fold(ends, l2, space.d[x])) == repr(want), (ends, l2, space.d[x])
                R = _radii(l2, space.d[x])
                lows, highs = [a - r for a, r in zip(ends[0], R)], [b + r for b, r in zip(ends[1], R)]
                seen["nan_first"] += math.isnan(lows[0]) or math.isnan(highs[0])
                signs = {math.copysign(1.0, t) for t in lows if t == 0.0}
                seen["zero_tie"] += max(lows) == 0.0 and signs == {1.0, -1.0}
                seen["l2_zero_inf"] += l2 == 0.0 and INF in space.d[x]
            want = first_far_pair_reference(*ends, l2, space)
            assert _first_far_pair(*ends, l2, space) == want, (ends, l2, space.d)
            seen["nogo"] += want is not None
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n)
            want = row_ratios_reference(X, Y, space, lo, hi)
            assert repr(_row_ratios(X, Y, space, lo, hi)) == repr(want), (X, Y, space.d, lo, hi)
            for i in range(lo, min(hi, n - 1)):
                for j in range(i + 1, n):
                    if space.d[i][j] == 0.0:
                        key = "over_zero" if (X[i], Y[i]) != (X[j], Y[j]) else "zero_over_zero"
                        seen[key] += 1
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# stage-2 hulls against the exact Fraction reference


def _sweep_rows(rng, kind, k):
    """Rows (a, b, alpha, index) of one random set, offsets at scale 2^k.

    Rows hold a point p with some slack: positive (p strictly inside), zero
    (the row passes through p) or, in "mixed" sets, negative.  "open" sets
    have normals in a half-plane; "strip" sets add antiparallel pairs of
    width 0, one float step, small or negative; "parallel" sets repeat a
    normal at other lengths; "concurrent" and "pinched" sets have three or
    more rows through p, "pinched" sets only those.  Offsets and slacks are
    dyadic or not (thirds, tenths, uniform draws); normals are small
    integers or, in a quarter of the sets, uniform floats."""
    def number():
        return rng.choice([rng.randint(-64, 64) / 8, rng.randint(-30, 30) / 3, rng.randint(-80, 80) / 10,
                           rng.uniform(-8, 8)])

    floats = rng.random() < 0.25

    def normal():
        while True:
            a, b = (rng.uniform(-4, 4), rng.uniform(-4, 4)) if floats else (rng.randint(-4, 4), rng.randint(-4, 4))
            if kind == "open" and b <= 0:
                continue
            if a or b:
                return float(a), float(b)

    px, py = number(), number()
    rows = []

    def add(a, b, slack):
        rows.append((a, b, -(a * px + b * py) - slack, len(rows)))

    through = rng.randint(3, 5) if kind in ("concurrent", "pinched") else 0
    for _ in range(through):
        add(*normal(), 0.0)
    if kind != "pinched":
        for _ in range(rng.randint(3 - through if through < 3 else 0, 16)):
            slack = abs(number()) if rng.random() < 0.8 else 0.0
            if kind == "mixed" and rng.random() < 0.3:
                slack = -slack
            add(*normal(), slack)
    if kind == "strip":
        for _ in range(rng.randint(1, 2)):
            a, b = normal()
            width = rng.choice([0.0, 1e-300, abs(number()), -abs(number()) / 64])
            t = rng.choice([0.0, abs(number())])
            add(a, b, t)
            add(-a, -b, width - t)
    if kind == "parallel":
        for row in list(rows[: rng.randint(1, 3)]):
            f = rng.choice([2.0, 3.0, 0.5, 0.1])
            add(f * row[0], f * row[1], rng.choice([0.0, abs(number())]))
    rng.shuffle(rows)
    s = math.ldexp(1.0, k)
    return [(a, b, s * al, i) for i, (a, b, al, _) in enumerate(rows)]


def _hull(rows):
    """`_hull_from_rows` as stage 2 calls it, on rows that `hull_reference`
    takes: in angular order (`lp2d._by_angle`), each tagged with its index
    in `rows`, and the exact normal of each row (`lp2d._exact_normal`) at
    that index."""
    normals = [(*_exact_normal(a, b), i) for i, (a, b, *_) in enumerate(rows)]
    return _hull_from_rows([(*rows[i][:3], i) for *_, i in _by_angle(normals)], normals)


def _stream_draw(name, index):
    """The rows of draw `index` of the `_sweep_rows` stream on
    `random.Random(name)`, in the kind and scale the test gives it."""
    kinds = ("around", "mixed", "open", "strip", "parallel", "concurrent", "pinched")
    rng = random.Random(name)
    for draw in range(index + 1):
        rows = _sweep_rows(rng, kinds[draw % len(kinds)], (0, 40, -40)[draw // len(kinds) % 3])
    return rows


def test_hulls_from_rows_equal_the_fraction_reference():
    """`_hull_from_rows` equals `hull_reference`, bit for bit (signed zeros
    too): both None (empty), or the same infinite and correctly rounded finite
    ends, on random row sets with empty and open sets, parallel rows, strips
    of zero width, concurrent rows and pinched sets, at scales 1 and 2^±40.
    Three draws of other streams, where the randomized LPs that stage 2
    once used went wrong, are pinned."""
    rng = random.Random("sweep-hulls")
    kinds = ("around", "mixed", "open", "strip", "parallel", "concurrent", "pinched")
    seen = {(kind, k): [0, 0, 0] for kind in kinds for k in (0, 40, -40)}  # empty, open, bounded
    for draw in range(4200):
        kind, k = kinds[draw % len(kinds)], (0, 40, -40)[draw // len(kinds) % 3]
        rows = _sweep_rows(rng, kind, k)
        want = hull_reference(rows)
        assert repr(_hull(rows)) == repr(want), (draw, kind, k, rows)
        if want is None:
            seen[kind, k][0] += 1
        elif INF in map(abs, want):
            seen[kind, k][1] += 1
        else:
            seen[kind, k][2] += 1
        if draw == 553:  # the LPs called it empty for two of three seeds
            assert want is not None and kind == "around" and k == 40
    assert seen["mixed", 0][0] >= 20 and seen["strip", 0][0] >= 20, seen
    assert all(seen[kind, k][1] >= 50 for kind in ("open", "pinched") for k in (0, 40, -40)), seen
    assert all(seen[kind, k][2] >= 30 for kind in kinds if kind != "open" for k in (0, 40, -40)), seen
    # the LPs raised on "d" 2300 (2^40), and gave two infinite ends on "b"
    # 3406 (scale 1), where float cross products took nearly antiparallel
    # normals for parallel
    rows = _stream_draw("d", 2300)
    assert repr(_hull(rows)) == repr(hull_reference(rows))
    rows = _stream_draw("b", 3406)
    want = hull_reference(rows)
    assert repr(_hull(rows)) == repr(want) and want[1] == 7205759403792781.0 and INF not in map(abs, want)


def _envelopes(rng, kind, k):
    """The exact envelopes of a `_sweep_rows` set and of 1 to 3 of its
    rows, in angular order, leaving out the empty ones."""
    rows = _by_angle([_exact(*row) for row in _sweep_rows(rng, kind, k)])
    some = sorted(rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 3))))
    out = []
    for part in (rows, [rows[i] for i in some]):
        try:
            out.append(_envelope(part))
        except _Empty:
            pass
    return out


def _zero_width(p, q):
    """Whether the exact rows p and q bound a strip of width 0."""
    return (
        _cross(p, q) == 0
        and p[0] * q[0] + p[1] * q[1] < 0
        and p[2] * (abs(q[0]) + abs(q[1])) + q[2] * (abs(p[0]) + abs(p[1])) == 0
    )


def test_one_scan_ends_equal_the_bracketed_bounds():
    """`_ends` finds the rows that bracket each axis direction in one pass,
    and each end equals the weak-duality bound on `lp2d._bracket`'s rows
    (`pair_bound_reference`) bit for bit, on the envelopes of random row
    sets and of 1 to 3 of their rows: rows parallel to an axis, open
    directions, one or two kept rows and strips of zero width, at scales 1
    and 2^±40."""
    rng = random.Random("one-scan-ends")
    kinds = ("around", "mixed", "open", "strip", "parallel", "concurrent", "pinched")
    keys = ("one row", "two rows", "open", "axis row", "zero width")
    seen = {(key, k): 0 for key in keys for k in (0, 40, -40)}
    for draw in range(2100):
        kind, k = kinds[draw % len(kinds)], (0, 40, -40)[draw // len(kinds) % 3]
        for kept in _envelopes(rng, kind, k):
            want = [pair_bound_reference(_bracket(kept, cx, cy), cx, cy) + 0.0 for cx, cy in HULL_DIRECTIONS]
            got = _ends(kept)
            assert repr(got) == repr((-want[0], want[1], -want[2], want[3])), (draw, kept)
            seen["one row", k] += len(kept) == 1
            seen["two rows", k] += len(kept) == 2
            seen["open", k] += INF in map(abs, got)
            seen["axis row", k] += any(not (a and b) for a, b, *_ in kept)
            seen["zero width", k] += any(_zero_width(p, q) for p, q in itertools.combinations(kept, 2))
    assert min(seen.values()) >= 20, seen


def _side_normal(rng):
    """A nonzero normal: small integers, dyadic, uniform floats, or tiny or
    huge ones."""
    while True:
        a, b = rng.choice([
            lambda: (float(rng.randint(-4, 4)), float(rng.randint(-4, 4))),
            lambda: (rng.randint(-64, 64) / 2.0 ** rng.randint(0, 12), rng.randint(-64, 64) / 8.0),
            lambda: (rng.uniform(-4, 4), rng.uniform(-4, 4)),
            lambda: (math.ldexp(rng.uniform(-1, 1), rng.choice([-60, 60])), float(rng.randint(-2, 2))),
        ])()
        if a or b:
            return a, b


def test_rows_from_the_side_normals_equal_exact():
    """Stage 2 converts only a row's offset, from the exact normal its
    instance computed once per side (`PolygonInstance.normals`), and the
    rows equal `lp2d._exact` and an lcm reference bit for bit: on integer,
    dyadic, uniform, tiny and huge normals, on the rows of every point at
    several l1, with infinite distances, at scales 1 and 2^±40, and on
    offsets from the subnormals to 2^1000, zeros of both signs."""
    rng = random.Random("side-normals")
    offsets = [0.0, -0.0, 5e-324, -3 * 5e-324, 1e-300, -(2.0**1000), 1.5, 0.1, 1 / 3]
    for draw in range(60):
        n = rng.randint(1, 10)
        polygons = [
            [HalfPlane(Point2(*_side_normal(rng)), rng.uniform(-8, 8)) for _ in range(rng.randint(1, 4))]
            for _ in range(n)
        ]
        space = linf_space(rng, n, inf_blocks=draw % 2 == 1)
        inst = _scaled(PolygonInstance(space, polygons), (0, 40, -40)[draw % 3])
        assert [(A, B, q) for A, B, q, _ in inst.normals] == [
            (*_integer_row(h1, h2, 0.0)[:2], math.lcm(F(h1).denominator, F(h2).denominator))
            for _, h1, h2, *_ in inst.by_angle
        ]
        rows = [row for x in range(n) for l1 in (0.0, 0.5, 3.0) for row in _point_rows(inst, l1, x)]
        rows += [
            (h1, h2, rng.choice(offsets + [rng.uniform(-1e6, 1e6)]), j)
            for j, (_, h1, h2, *_) in enumerate(inst.by_angle)
        ]
        got = _exact_rows(rows, inst.normals)
        want = [(A, B, -L, row[3]) for row in rows for A, B, L in [_integer_row(*row[:3])]]
        assert got == want == [_exact(*row) for row in rows]
        assert all(type(v) is int for row in got for v in row[:3])


# the normals of `_tie_instance`: one direction at two lengths, antiparallel
# pairs, and normals one float step apart in angle, which a float atan2
# puts in a tie ((-1, 0) and (-1, 2^-52)) or not ((1, 0) and (1, 2^-52))
TIE_NORMALS = [(1.0, 1.0), (2.0, 2.0), (-1.0, -1.0), (1.0, 0.0), (1.0, 2.0**-52), (-1.0, 0.0),
               (-1.0, 2.0**-52), (0.0, 1.0), (0.0, -3.0), (1.0, -2.0**-52), (-3.0, 1.0)]


def _tie_instance(rng, n):
    """A planted polygon instance whose sides take their normals from
    TIE_NORMALS, in random order: each polygon holds its center, the
    metric is the sup-norm distance of the centers, and a quarter of the
    sides pass through the center, so antiparallel pairs of them bound
    strips of zero width."""
    centers = [(rng.randint(-32, 32) / 8, rng.randint(-32, 32) / 8) for _ in range(n)]
    polygons = []
    for cx, cy in centers:
        poly = []
        for a, b in rng.sample(TIE_NORMALS, rng.randint(3, 6)):
            slack = 0.0 if rng.random() < 0.25 else rng.randint(1, 16) / 8
            poly.append(HalfPlane(Point2(a, b), -(a * cx + b * cy) - slack))
        polygons.append(poly)
    d = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in centers] for p in centers]
    return PolygonInstance(PseudometricSpace(n, d), polygons)


def _exact_angle_order(sides):
    """The sides sorted by the angle of their normals in [0, 2*pi), sides
    of one direction in input order: by half-plane, then by the sign of
    the cross product, in `Fraction`s."""
    def cmp(p, q):
        (a1, b1), (a2, b2) = (F(p[1]), F(p[2])), (F(q[1]), F(q[2]))
        half1, half2 = b1 < 0 or b1 == 0 and a1 < 0, b2 < 0 or b2 == 0 and a2 < 0
        if half1 != half2:
            return 1 if half1 else -1
        cross = a1 * b2 - b1 * a2
        return -1 if cross > 0 else 1 if cross < 0 else 0

    return sorted(sides, key=functools.cmp_to_key(cmp))


@pytest.mark.parametrize("k", [0, 40, -40])
def test_instance_angular_order_breaks_ties_exactly(k, monkeypatch):
    """Each instance sorts its sides by the exact angle of their normals
    once, and stage 2 emits rows in that order.  On sides with one
    direction at two lengths, antiparallel pairs (strips of zero width
    too) and normals one float step apart, at scales 1 and 2^±40, the
    order equals `lp2d._by_angle` on the sides' exact normals and an
    order in `Fraction`s, and every hull equals `hull_reference` on all of
    the point's rows; a NoGo at stage 1 comes at the first point whose
    rows are empty.  A small NEAREST and BOX_SHARE send most hulls through
    x's outer box and its bracketing rows."""
    monkeypatch.setattr(lipsel.selection, "NEAREST", 2)
    monkeypatch.setattr(lipsel.selection, "BOX_SHARE", 1)
    point_rows = lipsel.selection._point_rows
    boxed = []

    def spy(inst, l1, x, box=None):
        boxed.append(box is not None)
        return point_rows(inst, l1, x, box)

    monkeypatch.setattr(lipsel.selection, "_point_rows", spy)
    rng = random.Random(f"angular-ties/{k}")
    seen = {"success": 0, "nogo": 0}
    for draw in range(12):
        inst = _scaled(_tie_instance(rng, rng.randint(10, 14)), k)
        normals = [_exact(h1, h2, 0.0, j) for j, (_, h1, h2, _, _) in enumerate(inst.sides)]
        assert inst.by_angle == [inst.sides[j] for *_, j in _by_angle(normals)]
        assert inst.by_angle == _exact_angle_order(inst.sides)
        assert [inst.by_angle[r] for r in inst.rank] == inst.sides
        lam = rng.choice([1.0, 2.0])
        got = run_projection_algorithm(inst, (lam, 2.0**40))
        want = [hull_reference(point_rows(inst, lam, x)) for x in range(inst.n)]
        if isinstance(got, NoGo):
            assert got.stage == 1 and got.witness == want.index(None), (got, want)
            seen["nogo"] += 1
            continue
        assert [(h.ix.lo, h.ix.hi, h.iy.lo, h.iy.hi) for h in got.hulls] == want
        seen["success"] += 1
    assert seen["success"] >= 6, seen
    assert sum(boxed) >= len(boxed) // 2, (sum(boxed), len(boxed))


# ---------------------------------------------------------------------------
# solves in two processes


def _outcome(inst, lambdas):
    """The solve's outcome, or the type and text of what it raised."""
    try:
        return run_projection_algorithm(inst, lambdas)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def forks(monkeypatch):
    """One entry per `os.fork` call made from now on."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _open_fds():
    """The number of this process's open file descriptors, where
    /proc/self/fd lists them, else None."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _serial_and_split(monkeypatch, forks, inst, lambdas):
    """The outcome of the serial run, which does not fork, and that of the
    split run, which forks once, or not at all when point 0 settles the
    solve, and leaves no child and no pipe behind."""
    monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", INF)
    before = len(forks)
    serial = _outcome(inst, lambdas)
    assert len(forks) == before
    monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", 1)
    fds = _open_fds()
    split = _outcome(inst, lambdas)
    assert len(forks) - before == (split != NoGo(1, 0)), (split, len(forks) - before)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    return serial, split


def _touching_instance(rng, n):
    """Points whose sets are x <= 0 or x >= c, with both kinds present and
    c the smallest distance rho between points of the two kinds, all
    dyadic.  At l1 = l2 = 1 the hull of a point x <= 0 at distance rho from
    one with x >= c is pinched at x = 0, so its fold trips, and the two
    hulls are exactly l2 * rho apart, so the pairwise scan clears it."""
    space = linf_space(rng, n)
    right = set(rng.sample(range(n), rng.randint(1, n - 1)))
    c = min(space.d[x][y] for x in range(n) if x not in right for y in right)
    return HalfPlaneInstance(
        space, [halfplane(-1.0, 0.0, c) if x in right else halfplane(1.0, 0.0, 0.0) for x in range(n)]
    )


def _split_draw(rng, kind, n):
    if kind in ("planted", "raise"):
        return planted_instance(rng, n)
    if kind == "touch":
        return _touching_instance(rng, n)
    if kind == "polygon":
        return random_polygon_instance(rng, n, 4, planted=rng.random() < 0.5)
    if kind == "blocks":
        return random_instance(rng, n, inf_blocks=True)
    if kind == "twins":
        return random_instance(rng, n, dup_chance=0.6)
    return _scaled(planted_instance(rng, n), int(kind))


def test_split_solves_equal_serial_solves(monkeypatch, forks):
    """Stages 1-2, stages 3-5 and the seminorm computed in two processes
    give the serial outcome, or raise the serial error: NoGos at stage 1 in
    either half, at stage 3, Successes through a trip the pairwise scan
    clears (hulls exactly l2 * rho apart), Successes at 2^±40, and the
    error of a stage 5 that raises at one chosen point."""
    step3 = lipsel.selection.step3_refine_rects
    step5 = lipsel.selection.step5_project
    scans = []
    bad = set()

    def spy(*args):
        scans.append(1)
        return step3(*args)

    def failing(inst, l1, x, *args, **kwargs):
        if x in bad:
            raise ValueError(f"point {x}")
        return step5(inst, l1, x, *args, **kwargs)

    monkeypatch.setattr(lipsel.selection, "step3_refine_rects", spy)
    monkeypatch.setattr(lipsel.selection, "step5_project", failing)
    rng = random.Random("split-solves")
    seen = dict.fromkeys(["stage1-lower", "stage1-upper", "stage3", "cleared", "success", "error"], 0)
    for kind in ("planted", "polygon", "blocks", "twins", "touch", "raise", "40", "-40"):
        for draw in range(16):
            n = 2 + draw % 9 if kind.isalpha() else 10 + draw
            inst = _split_draw(rng, kind, n)
            lam = rng.choice([0.125, 0.5, 1.0, 2.0] if kind.isalpha() else [1.0, 2.0])
            lambdas = (1.0, 1.0) if kind == "touch" else (lam, rng.choice([0.0, lam / 4, lam]))
            bad = {rng.randrange(n)} if kind == "raise" else set()
            del scans[:]
            serial, split = _serial_and_split(monkeypatch, forks, inst, lambdas)
            assert split == serial, (kind, draw, lambdas)
            if isinstance(split, NoGo) and split.stage == 1:
                seen["stage1-upper" if split.witness >= inst.n // 2 else "stage1-lower"] += 1
            elif isinstance(split, NoGo):
                seen["stage3"] += 1
            elif isinstance(split, Success):
                seen["cleared" if len(scans) == 2 else "success"] += 1
            else:
                seen["error"] += 1
    assert min(seen.values()) >= 2, seen


@pytest.mark.parametrize("where", ["_stage12_hull", "step5_project"])
def test_split_solves_raise_the_serial_error(monkeypatch, forks, capfd, where):
    """A phase that raises at some points, and stage 2 when it also finds
    empty sets at others, gives the serial outcome: the first error or NoGo
    in point order, whichever process meets it, in whatever order.  A child
    that raises writes nothing and leaves, and the parent raises the same
    error computing that half itself."""
    phase = getattr(lipsel.selection, where)
    inst = planted_instance(random.Random("split-raise"), 200)
    cases = [({199}, set()), ({150, 3}, set()), ({120, 180}, set())]
    if where == "_stage12_hull":
        cases += [({110}, {170}), ({170}, {110}), ({130, 190}, {160}), ({140}, {2}), ({5}, {140})]
    for bad, empty in cases:
        def failing(inst, l1, x, *args, **kwargs):
            if x in bad:
                raise ValueError(f"point {x}")
            if x in empty:
                return None, None
            return phase(inst, l1, x, *args, **kwargs)

        monkeypatch.setattr(lipsel.selection, where, failing)
        serial, split = _serial_and_split(monkeypatch, forks, inst, (1.0, 1.0))
        want = NoGo(1, min(empty)) if min(empty, default=INF) < min(bad) else (ValueError, f"point {min(bad)}")
        assert split == serial == want, (bad, empty)
        assert capfd.readouterr() == ("", "")


def test_split_stage3_nogo_wins_over_a_stage5_error(monkeypatch, forks):
    """Serially, stage 5 never runs after a stage-3 NoGo.  Split, the lower
    half's folds hold here while the upper half trips; no half starts stage
    5 before it knows of every trip, so both run the pairwise test, which
    finds the NoGo, and the failing stage 5 never runs."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise ValueError("stage 5")

    # two blocks at infinite distance: points 2 and 3 are 10 apart in x at
    # distance 1, which l1 = 20 lets through stage 1 and l2 = 1/4 does not
    space = validate_pseudometric([[0, 1, INF, INF], [1, 0, INF, INF], [INF, INF, 0, 1], [INF, INF, 1, 0]])
    inst = HalfPlaneInstance(space, [halfplane(1.0, 0.0, 0.0)] * 3 + [halfplane(-1.0, 0.0, 10.0)])
    monkeypatch.setattr(lipsel.selection, "step5_project", failing)
    serial, split = _serial_and_split(monkeypatch, forks, inst, (20.0, 0.25))
    assert split == serial == NoGo(3, 2) and not calls


def test_split_solve_decides_point_0_before_forking(monkeypatch, forks):
    """A stage-1 NoGo at point 0 returns the serial NoGo without a fork."""
    inst = planted_instance(random.Random("t8"), 40)
    for lam in (0.125, 0.5):
        serial, split = _serial_and_split(monkeypatch, forks, inst, (lam, lam))
        assert split == serial == NoGo(1, 0)
    assert not forks


def test_split_stages_1_2_share_the_point_where_they_meet(monkeypatch, forks, tmp_path):
    """This process stalls at point 20, so the child, taking points
    downward, takes it too: both compute it, and the solve equals the
    serial one."""
    inst = planted_instance(random.Random("split-meet"), 200)
    hull = lipsel.selection._stage12_hull
    parent = os.getpid()
    log = tmp_path / "took"

    def stalling(inst, l1, x, group):
        if x == 20:
            if os.getpid() == parent and lipsel.selection.SPLIT_MIN == 1:
                time.sleep(1.0)
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, b"parent\n" if os.getpid() == parent else b"child\n")
            os.close(fd)
        return hull(inst, l1, x, group)

    monkeypatch.setattr(lipsel.selection, "_stage12_hull", stalling)
    serial, split = _serial_and_split(monkeypatch, forks, inst, (2.0, 2.0))
    assert isinstance(split, Success) and split == serial
    assert sorted(log.read_text().split()) == ["child", "parent", "parent"]  # serially, then both


FAULTS = {
    "worker dies in stages 1-2": "_stage12_hull",
    "worker dies after stages 1-2": "_fold",
    "worker dies in the seminorm": "_row_ratios",
    "parent raises": "_fold",
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_split_solve_survives_a_fault(monkeypatch, forks, capfd, fault):
    """The worker dies at its first stage-2 hull, or after stages 1-2 at
    its first fold, or in the seminorm at its rows (it exits at once, as a
    killed child would), or this process's own half raises at point 3's
    fold.  The outcome is the serial one: after a dead worker the solve is
    solved again in this process, and an error in this process's half is
    raised after the worker is reaped.  Neither process writes to stdout or
    stderr."""
    inst = planted_instance(random.Random("split-fault"), 200)
    where = FAULTS[fault]
    phase = getattr(lipsel.selection, where)
    parent = os.getpid()
    here = []

    def faulty(*args):
        if os.getpid() != parent:
            os._exit(1)
        if where == "_stage12_hull":
            x = args[2]
        elif where == "_fold":
            x = next(x for x in range(inst.n) if inst.space.d[x] is args[2])
        else:  # the seminorm's rows lo..hi-1 stand as the last point they reach
            x = args[4] - 1
        if fault == "parent raises" and x == 3:
            raise ValueError("point 3")
        here.append(x)
        return phase(*args)

    monkeypatch.setattr(lipsel.selection, where, faulty)
    for lam in (1.0, 2.0):
        del here[:]
        serial, split = _serial_and_split(monkeypatch, forks, inst, (lam, lam))
        if fault == "parent raises":
            assert split == serial == (ValueError, "point 3")
        else:
            assert isinstance(split, Success) and split == serial
            assert here.count(inst.n - 1) == 2  # serially, then solved again in this process
        assert capfd.readouterr() == ("", "")


def test_split_seminorm_equals_the_serial_one(monkeypatch, forks, capfd):
    """`lipschitz_seminorm` on 200 points with zero-distance twins and
    blocks at infinite distance gives the serial value split, with one
    fork, and also when the child dies in its rows: then it is computed
    again in this process, nothing is written and no child is left."""
    rng = random.Random("split-seminorm")
    row_ratios = lipsel.selection._row_ratios
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return row_ratios(*args)

    upper = 0
    for _ in range(4):
        space = linf_space(rng, 200, dup_chance=0.3, inf_blocks=True)
        f = [Point2(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)) for _ in range(space.n)]
        for x in range(space.n):  # twins take equal values, so 0/0 pairs count 0
            if 0.0 in space.d[x][:x]:
                f[x] = f[space.d[x].index(0.0)]
        monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", INF)
        want = lipschitz_seminorm(f, space)
        assert 0.0 < want < INF and not forks
        X, Y, cut = [p.x1 for p in f], [p.x2 for p in f], lipsel.selection._row_cut(space.n // 2, space.n)
        upper += row_ratios(X, Y, space, cut, space.n) == want
        monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", 1)
        fds = _open_fds()
        assert lipschitz_seminorm(f, space) == want and len(forks) == 1
        del forks[:]
        with monkeypatch.context() as m:
            m.setattr(lipsel.selection, "_row_ratios", dying)
            assert lipschitz_seminorm(f, space) == want and len(forks) == 1
        del forks[:]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _open_fds() == fds
        assert capfd.readouterr() == ("", "")
    assert upper >= 1  # some largest ratio comes from the child's rows


def test_no_split_without_a_fork_two_cpus_or_a_single_thread(monkeypatch, forks):
    """A fork that raises, an affinity of one CPU or a second thread gives
    the serial run, in this process."""
    inst = planted_instance(random.Random("split-off"), 40)
    want = run_projection_algorithm(inst, (1.0, 1.0))
    monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", 1)
    assert run_projection_algorithm(inst, (1.0, 1.0)) == want and forks

    def no_fork():
        forks.append(1)
        raise OSError("fork refused")

    with monkeypatch.context() as m:
        m.setattr(os, "fork", no_fork)
        assert run_projection_algorithm(inst, (1.0, 1.0)) == want
    del forks[:]
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run_projection_algorithm(inst, (1.0, 1.0)) == want
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert run_projection_algorithm(inst, (1.0, 1.0)) == want
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive() and not forks


def test_split_threshold_counts_stage1_rows(forks):
    """A solve splits when its stage-1 work, n times its instance's number
    of sides, reaches SPLIT_MIN, and `lipschitz_seminorm` when its pairs,
    at 2/11 of a row each, do: an instance just above each threshold forks
    once, and one just below it does not, for half-planes and 4-sided
    polygons."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        pytest.skip("this process cannot fork onto two CPUs")
    split_min = lipsel.selection.SPLIT_MIN
    rng = random.Random("split-threshold")
    for sides in (1, 4):
        above = next(n for n in itertools.count(2) if n * n * sides >= split_min)
        for n in (above, above - 1):
            inst = planted_instance(rng, n) if sides == 1 else random_polygon_instance(rng, n, sides)
            del forks[:]
            assert isinstance(run_projection_algorithm(inst, (2.0, 2.0)), Success)
            assert len(forks) == (n * len(inst.sides) >= split_min) == (n == above), (sides, n)
    above = next(n for n in itertools.count(2) if n * (n - 1) // 11 >= split_min)
    for n in (above, above - 1):
        space = linf_space(rng, n)
        f = [Point2(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)) for _ in range(n)]
        del forks[:]
        lipschitz_seminorm(f, space)
        assert len(forks) == (n == above), n
