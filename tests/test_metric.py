"""Distance-matrix validation and shortest-path closure tests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_premetric
from lipsel.metric import (
    TILE,
    MetricViolation,
    PreMetric,
    PseudometricSpace,
    intrinsic_metric,
    validate_premetric,
    validate_pseudometric,
)
from oracles import enumerate_shortest_paths

INF = math.inf


def test_valid_matrix_round_trips():
    d = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]
    sp = validate_pseudometric(d)
    assert isinstance(sp, PseudometricSpace)
    assert sp.n == 3
    assert sp.d[0][2] == 2.0
    # the space keeps its own copy
    d[0][2] = 99.0
    assert sp.d[0][2] == 2.0


def test_triangle_violation_reported():
    got = validate_pseudometric([[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert got == MetricViolation("triangle", 0, 1, 2)


def _first_triangle_violation(d, rel=2.0**-40):
    """The scan `validate_pseudometric` makes, written as the plain triple
    loop over (i, j, k): d[i][j] may exceed the sum s = d[i][k] + d[k][j]
    by rel * s."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = d[i][k] + d[k][j]
                if d[i][j] > s + rel * s:
                    return MetricViolation("triangle", i, j, k)
    return None


def test_triangle_scan_reports_the_first_violation_of_the_triple_loop():
    """Random symmetric matrices with ties, infinities and sums that miss by
    about the slack, at unit scale and scaled by 2^40 and 2^-40: the
    reported violation, or its absence, is the one the triple loop finds
    first, and it does not depend on the scale."""
    rng = random.Random("triangle-scan")
    values = [0.0, 0.5, 1.0, 1.0 + 2.0**-40, 1.0 + 3 * 2.0**-40, 1.5, 2.0, 3.0, INF]
    seen = {"violation": 0, "none": 0}
    for _ in range(400):
        n = rng.randint(2, 7)
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.choice(values)
        want = _first_triangle_violation(d)
        for scale in (1.0, 2.0**40, 2.0**-40):
            scaled = [[v * scale for v in row] for row in d]
            got = validate_pseudometric(scaled)
            assert got == want if want is not None else isinstance(got, PseudometricSpace), (d, scale)
        seen["violation" if want is not None else "none"] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_triangle_verdict_does_not_depend_on_the_unit(k):
    """An excess of half the sum is a violation at any scale; an absolute
    slack let it pass once the matrix was small enough."""
    s = 2.0**k
    got = validate_pseudometric([[0.0, s, 3 * s], [s, 0.0, s], [3 * s, s, 0.0]])
    assert got == MetricViolation("triangle", 0, 2, 1)


def test_diagonal_violation_reported():
    got = validate_pseudometric([[0.0, 1.0], [1.0, 0.5]])
    assert isinstance(got, MetricViolation)
    assert got.axiom == "diagonal" and got.i == 1


def test_symmetry_violation_reported():
    got = validate_pseudometric([[0.0, 1.0], [2.0, 0.0]])
    assert got == MetricViolation("symmetry", 0, 1, 1)


def test_triangle_tolerance_absorbs_ulp_noise():
    """An excess of 2^-44 of the sum (256 ulps) passes at any scale; 2^-39
    does not."""
    for k in (-40, 0, 40):
        s = 2.0**k
        for eps, ok in ((2.0**-44, True), (2.0**-39, False)):
            far = (1.0 + eps) * s
            d = [[0.0, far, 0.5 * s], [far, 0.0, 0.5 * s], [0.5 * s, 0.5 * s, 0.0]]
            assert isinstance(validate_pseudometric(d), PseudometricSpace) is ok, (k, eps)


def test_inf_distances_are_legal():
    d = [[0.0, INF], [INF, 0.0]]
    sp = validate_pseudometric(d)
    assert isinstance(sp, PseudometricSpace)
    assert sp.d[0][1] == INF


def test_zero_distance_between_distinct_points_is_legal():
    assert isinstance(validate_pseudometric([[0.0, 0.0], [0.0, 0.0]]), PseudometricSpace)


@pytest.mark.parametrize(
    "bad",
    [
        [[0.0, 1.0]],  # not square
        [[0.0, -1.0], [-1.0, 0.0]],  # negative entry
        [[0.0, float("nan")], [float("nan"), 0.0]],  # NaN entry
    ],
)
def test_malformed_matrices_raise(bad):
    with pytest.raises(ValueError):
        validate_pseudometric(bad)
    with pytest.raises(ValueError):
        validate_premetric(bad)


def _axioms_by_loops(d):
    """The shape, diagonal and symmetry checks of both validators, written
    as plain loops: the ValueError message, the first violation, or None."""
    n = len(d)
    for row in d:
        if len(row) != n:
            return "distance matrix must be square"
    for row in d:
        for v in row:
            if isinstance(v, float) and math.isnan(v):
                return "distance matrix entry is NaN"
            if v < 0:
                return "distance matrix entry is negative"
    for i in range(n):
        if d[i][i] != 0:
            return MetricViolation("diagonal", i, i, i)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return MetricViolation("symmetry", i, j, j)
    return None


def test_shape_diagonal_and_symmetry_checks_equal_the_plain_loops():
    """Random matrices with asymmetries, NaN, negatives, infinities, ints
    and signed zeros: both validators raise the error, or report the
    violation, that the plain loops find first.  The last 400 draws have
    20 to 40 points, no fault but one in their last three rows, and half of
    those faults are put at (i, j) and (j, i) as one object, where the
    upper triangle equals the lower and only `min` or `sum` sees it.  Then
    at n = 1, 63, 64, 65, 129 and 200, around one and two blocks of the
    block-wise symmetry check, one fault at a time at each corner of each
    block, the partial last block's included: an asymmetry, and a random
    fault on one side or on both, such as one NaN object at (i, j) and
    (j, i)."""
    rng = random.Random("axiom-loops")
    values = [0.0, -0.0, 0, 1, 3, 0.5, 2.0, INF, -INF, -1.0, -2, math.nan]
    weights = [20, 2, 6, 6, 4, 8, 8, 4, 1, 1, 1, 1]
    clean = values[:8]
    seen, late = {}, {}
    for draw in range(3400):
        big = draw >= 3000
        n = rng.randint(20, 40) if big else rng.randint(1, 6)
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                d[i][j] = d[j][i] = 0.0 if i == j else rng.choice(clean) if big else rng.choices(values, weights)[0]
        if big:
            i, j = rng.randrange(n - 3, n), rng.randrange(n)
            d[i][j] = rng.choice(values[8:] + [1, 2.0, 7.5])
            if rng.random() < 0.5:
                d[j][i] = d[i][j]
        else:
            for _ in range(rng.choice([0, 0, 1, 2])):
                d[rng.randrange(n)][rng.randrange(n)] = rng.choices(values, weights)[0]
        if rng.random() < 0.02:
            d[rng.randrange(n - 3 if big else 0, n)].append(1.0)
        want = _axioms_by_loops(d)
        for validate in (validate_premetric, validate_pseudometric):
            try:
                got = validate(d)
            except ValueError as exc:
                got = str(exc)
            if want is None:
                assert isinstance(got, (PreMetric, PseudometricSpace, MetricViolation)), (d, got)
                assert not isinstance(got, MetricViolation) or got.axiom == "triangle", (d, got)
            else:
                assert got == want, (d, got, want)
        key = want if isinstance(want, (str, type(None))) else want.axiom
        seen[key] = seen.get(key, 0) + 1
        if big:
            late[key] = late.get(key, 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 50, seen
    assert len(late) == 6 and min(late.values()) >= 5, late
    tiled = {}
    for n in (1, 63, 64, 65, 129, 200):
        base = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                base[i][j] = base[j][i] = rng.choice([1, 3, 0.5, 2.0, INF])
        edges = sorted({k for b in (*range(0, n, TILE), n) for k in (b - 1, b) if 0 <= k < n})
        for i, j, fault in [(0, 0, None)] + [(i, j, f) for i in edges for j in edges for f in (7.5, "any")]:
            d = [row[:] for row in base]
            if fault == 7.5:
                d[i][j] = fault
            elif fault:
                d[i][j] = rng.choice([-INF, -1.0, -2, math.nan, 1, 2.0, 7.5])
                if rng.random() < 0.5:
                    d[j][i] = d[i][j]
            want = _axioms_by_loops(d)
            for validate in (validate_premetric, validate_pseudometric):
                try:
                    got = validate(d)
                except ValueError as exc:
                    got = str(exc)
                if want is None:
                    assert isinstance(got, (PreMetric, PseudometricSpace, MetricViolation)), (n, i, j, got)
                    assert not isinstance(got, MetricViolation) or got.axiom == "triangle", (n, i, j, got)
                else:
                    assert got == want, (n, i, j, got, want)
            key = want if isinstance(want, (str, type(None))) else want.axiom
            tiled[n, key] = tiled.get((n, key), 0) + 1
    assert all(tiled.get((n, "symmetry"), 0) >= 2 for n in (63, 64, 65, 129, 200)), tiled
    kinds = {k for _, k in tiled}
    assert len(kinds) == 5 and all(sum(v for (_, k), v in tiled.items() if k == key) >= 10 for key in kinds), tiled


def test_premetric_skips_triangle():
    w = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
    assert isinstance(validate_premetric(w), PreMetric)


def test_closure_shortcuts_through_middle_point():
    w = PreMetric(3, [[0.0, 5.0, 2.0], [5.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    sp = intrinsic_metric(w)
    assert sp.d[0][1] == 3.0  # 0 -> 2 -> 1
    assert sp.d[0][2] == 2.0
    assert sp.d[1][2] == 1.0


def test_closure_keeps_unreachable_pairs_infinite():
    w = PreMetric(4, [
        [0.0, 1.0, INF, INF],
        [1.0, 0.0, INF, INF],
        [INF, INF, 0.0, 6.0],
        [INF, INF, 6.0, 0.0],
    ])
    sp = intrinsic_metric(w)
    assert sp.d[0][2] == INF
    assert sp.d[2][3] == 6.0


def test_closure_of_chain():
    w = [[0.0, 1.0, INF], [1.0, 0.0, 1.0], [INF, 1.0, 0.0]]
    sp = intrinsic_metric(PreMetric(3, w))
    assert sp.d[0][2] == 2.0


def test_closure_preserves_exact_fractions():
    f = Fraction
    w = PreMetric(3, [
        [f(0), f(7, 3), f(1, 3)],
        [f(7, 3), f(0), f(1, 2)],
        [f(1, 3), f(0, 1) + f(1, 2), f(0)],
    ])
    sp = intrinsic_metric(w)
    assert sp.d[0][1] == f(5, 6)
    assert isinstance(sp.d[0][1], Fraction)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=7))
@settings(max_examples=150, deadline=None)
def test_closure_matches_path_enumeration(seed, n):
    rng = random.Random(seed)
    pre = random_premetric(rng, n)
    sp = intrinsic_metric(PreMetric(pre.n, [row[:] for row in pre.w]))
    want = enumerate_shortest_paths(pre.w)
    assert sp.d == want


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=7))
@settings(max_examples=100, deadline=None)
def test_closure_is_idempotent_and_valid(seed, n):
    rng = random.Random(seed)
    pre = random_premetric(rng, n)
    sp = intrinsic_metric(pre)
    again = intrinsic_metric(PreMetric(sp.n, [row[:] for row in sp.d]))
    assert again.d == sp.d  # dyadic weights: exact arithmetic, exact fixpoint
    assert isinstance(validate_pseudometric(sp.d), PseudometricSpace)
    assert _first_triangle_violation(sp.d, 0.0) is None  # no slack needed
