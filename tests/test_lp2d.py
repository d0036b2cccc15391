"""Tests for the incremental 2-d LP solver and its brute-force twin."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lp_exact_optimum
from lipsel.geometry import Point2, halfplane
from lipsel.lp2d import (
    Infeasible,
    Optimal,
    Unbounded,
    lp2d_brute_force,
    lp2d_optimize,
)

INF = math.inf


def hp(a, b, alpha):
    return halfplane(float(a), float(b), float(alpha))


def test_simplex_corner():
    """max u1 over the standard triangle: the corner (1, 0) wins."""
    cons = [hp(1, 1, -1), hp(-1, 0, 0), hp(0, -1, 0)]
    got = lp2d_optimize(cons, Point2(1.0, 0.0))
    assert got == Optimal(1.0, Point2(1.0, 0.0))


def test_min_is_negated_max():
    cons = [hp(1, 1, -1), hp(-1, 0, 0), hp(0, -1, 0)]
    got = lp2d_optimize(cons, Point2(1.0, 0.0), sense="min")
    assert isinstance(got, Optimal)
    assert got.value == 0.0


def test_unbounded_direction_improves_and_recedes():
    cons = [hp(-1, 0, 0)]  # u1 >= 0
    got = lp2d_optimize(cons, Point2(1.0, 0.0))
    assert isinstance(got, Unbounded)
    d = got.direction
    assert d.x1 > 0.0  # improves the objective
    assert -1.0 * d.x1 + 0.0 * d.x2 <= 0.0  # recession direction


def test_infeasible_pair_witness():
    cons = [hp(1, 0, 0), hp(-1, 0, 4)]  # u1 <= 0 and u1 >= 4
    got = lp2d_optimize(cons, Point2(0.0, 1.0))
    assert got == Infeasible((0, 1))


def test_infeasible_triple_witness():
    # u1 <= 0, u2 <= 0, u1 + u2 >= 1: pairwise feasible, jointly empty
    cons = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -1, 1)]
    got = lp2d_optimize(cons, Point2(0.0, 1.0))
    assert isinstance(got, Infeasible)
    assert got.witness == (0, 1, 2)
    # cross-check: every pair alone is feasible
    for drop in range(3):
        sub = [c for k, c in enumerate(cons) if k != drop]
        assert not isinstance(lp2d_optimize(sub, Point2(0.0, 0.0)), Infeasible)


def test_infeasible_witness_indices_refer_to_input_positions():
    cons = [hp(0, 1, 0), hp(1, 0, 0), hp(-1, 0, 4)]
    got = lp2d_optimize(cons, Point2(1.0, 1.0))
    assert got == Infeasible((1, 2))


@pytest.mark.parametrize("solve", [lp2d_optimize, lp2d_brute_force])
@pytest.mark.parametrize("bad", [None, (1.0, 0.0, -1.0), ((1.0, 0.0), -1.0)])
def test_a_constraint_that_is_not_a_half_plane_raises(solve, bad):
    with pytest.raises(ValueError, match="constraint 1 is not a HalfPlane"):
        solve([hp(0, 1, 0), bad], Point2(1.0, 0.0))


def test_no_constraints_zero_objective():
    assert lp2d_optimize([], Point2(0.0, 0.0)) == Optimal(0.0, Point2(0.0, 0.0))


def test_no_constraints_nonzero_objective_unbounded():
    got = lp2d_optimize([], Point2(0.0, -2.0))
    assert isinstance(got, Unbounded)


def test_zero_objective_reports_feasible_point():
    cons = [hp(1, 0, -3), hp(-1, 0, 2), hp(0, 1, -3), hp(0, -1, 2)]
    got = lp2d_optimize(cons, Point2(0.0, 0.0))
    assert isinstance(got, Optimal)
    assert got.value == 0.0
    p = got.witness
    assert 2.0 <= p.x1 <= 3.0 and 2.0 <= p.x2 <= 3.0


def test_feasible_point_on_unbounded_set():
    got = lp2d_optimize([hp(-1, 0, 5)], Point2(0.0, 0.0))  # u1 >= 5
    assert isinstance(got, Optimal)
    assert got.witness.x1 >= 5.0


def test_antiparallel_strip():
    cons = [hp(1, 1, -4), hp(-1, -1, 2)]  # 2 <= u1+u2 <= 4
    got = lp2d_optimize(cons, Point2(1.0, 1.0))
    assert isinstance(got, Optimal)
    assert got.value == 4.0


def test_seed_determinism():
    rng = random.Random(7)
    cons = [
        hp(rng.randint(-5, 5) or 1, rng.randint(-5, 5), rng.randint(-5, 5))
        for _ in range(9)
    ]
    a = lp2d_optimize(cons, Point2(1.0, 2.0), seed=123)
    b = lp2d_optimize(cons, Point2(1.0, 2.0), seed=123)
    assert a == b


def test_brute_force_cap():
    cons = [hp(1, 0, -k) for k in range(25)]
    with pytest.raises(ValueError):
        lp2d_brute_force(cons, Point2(1.0, 0.0))


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        lp2d_optimize([hp(1, 0, 0)], Point2(1.0, 0.0), sense="sideways")


# ---------------------------------------------------------------------------
# randomized agreement with the brute-force twin


def _random_system(rng, m):
    cons = []
    for _ in range(m):
        while True:
            a = rng.randint(-9, 9)
            b = rng.randint(-9, 9)
            if a or b:
                break
        cons.append(hp(a, b, rng.randint(-9, 9)))
    while True:
        cx = rng.randint(-9, 9)
        cy = rng.randint(-9, 9)
        if cx or cy:
            return cons, Point2(float(cx), float(cy))


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=12))
@settings(max_examples=300, deadline=None)
def test_agrees_with_brute_force(seed, m):
    rng = random.Random(seed)
    cons, c = _random_system(rng, m)
    fast = lp2d_optimize(cons, c, seed=seed % 1000)
    slow = lp2d_brute_force(cons, c)
    assert type(fast) is type(slow), (cons, c, fast, slow)
    if isinstance(fast, Optimal):
        assert abs(fast.value - slow.value) <= 1e-9 * max(1.0, abs(slow.value))
        # the witness must actually be feasible and attain the value
        for cst in cons:
            r = cst.h.x1 * fast.witness.x1 + cst.h.x2 * fast.witness.x2 + cst.alpha
            assert r <= 1e-7
    elif isinstance(fast, Unbounded):
        d = fast.direction
        assert c.x1 * d.x1 + c.x2 * d.x2 > 0.0
        for cst in cons:
            assert cst.h.x1 * d.x1 + cst.h.x2 * d.x2 <= 0.0
    else:
        # witness indices really index an infeasible subsystem
        sub = [cons[i] for i in fast.witness]
        assert isinstance(lp2d_brute_force(sub, Point2(1.0, 0.0)), Infeasible)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_value_invariant_under_permutation(seed):
    rng = random.Random(seed)
    cons, c = _random_system(rng, rng.randint(2, 10))
    base = lp2d_optimize(cons, c, seed=0)
    order = list(range(len(cons)))
    rng.shuffle(order)
    permuted = [cons[i] for i in order]
    other = lp2d_optimize(permuted, c, seed=0)
    assert type(base) is type(other)
    if isinstance(base, Optimal):
        assert abs(base.value - other.value) <= 1e-9 * max(1.0, abs(base.value))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_value_invariant_under_constraint_scaling(seed):
    """Scaling a constraint row by a positive factor keeps the feasible set."""
    rng = random.Random(seed)
    cons, c = _random_system(rng, rng.randint(1, 8))
    scaled = [
        halfplane(2.0 * cst.h.x1, 2.0 * cst.h.x2, 2.0 * cst.alpha) for cst in cons
    ]
    a = lp2d_optimize(cons, c, seed=1)
    b = lp2d_optimize(scaled, c, seed=1)
    assert type(a) is type(b)
    if isinstance(a, Optimal):
        assert abs(a.value - b.value) <= 1e-9 * max(1.0, abs(a.value))


# ---------------------------------------------------------------------------
# optimal values are the correctly rounded exact optima

# numbers of three kinds: integers, dyadic rationals, and floats that are
# not dyadic (1/3, 0.1, ... rounded), whose vertices round
_NUMBERS = {
    "integer": lambda rng: float(rng.randint(-9, 9)),
    "dyadic": lambda rng: rng.randint(-72, 72) / 8,
    "non-dyadic": lambda rng: rng.randint(-9, 9) * rng.choice((1 / 3, 0.1, 0.7, 2 / 7, 1e-3, 5.0)),
}


def _planted_system(rng, m, number):
    """m half-planes that all hold one point, with objective c: feasible,
    and bounded whenever the normals surround c."""
    p = (number(rng), number(rng))
    cons = []
    while len(cons) < m:
        a, b = number(rng), number(rng)
        if a or b:
            cons.append(halfplane(a, b, -(a * p[0] + b * p[1]) - abs(number(rng))))
    c = rng.choice([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (number(rng) or 1.0, number(rng))])
    return cons, Point2(*c)


def _degenerate_systems():
    """Hand-built systems: concurrent boundaries, strips, normals parallel
    to c."""
    third, tenth = 1 / 3, 0.1
    return [
        # three boundaries through (1, 1), c along the middle one's normal
        ([hp(1, 0, -1), hp(0, 1, -1), hp(1, 1, -2)], Point2(1.0, 1.0)),
        ([hp(1, 0, -1), hp(0, 1, -1), hp(1, 1, -2)], Point2(1.0, 0.0)),
        # the same through (1/3, 0.1), which rounds
        ([halfplane(1.0, 0.0, -third), halfplane(0.0, 1.0, -tenth),
          halfplane(1.0, 1.0, -(third + tenth))], Point2(1.0, 1.0)),
        ([halfplane(3.0, 0.0, -1.0), halfplane(0.0, 10.0, -1.0),
          halfplane(tenth, third, -(tenth * third + third * tenth))], Point2(0.0, 1.0)),
        # antiparallel strips, one of width zero, c along and across them
        ([hp(1, 1, -4), hp(-1, -1, 2)], Point2(1.0, 1.0)),
        ([hp(1, 1, -4), hp(-1, -1, 2), hp(-1, 0, -3), hp(1, 0, -7)], Point2(0.0, 1.0)),
        ([halfplane(tenth, third, -tenth), halfplane(-tenth, -third, tenth)], Point2(tenth, third)),
        ([halfplane(1.0, 3.0, -tenth), halfplane(-1.0, -3.0, tenth), hp(0, 1, 0), hp(0, -1, -1)],
         Point2(-1.0, 0.0)),
        # a normal parallel to c, alone and with a vertex tying it
        ([halfplane(3.0, 0.0, -1.0), hp(1, 1, -5), hp(1, -1, -5)], Point2(1.0, 0.0)),
        ([halfplane(3.0, 0.0, -1.0), halfplane(1.0, 1.0, -(1 / 3 + 1)), hp(1, -1, -5)],
         Point2(2.0, 0.0)),
        ([halfplane(tenth, 0.0, -third)], Point2(1.0, 0.0)),
    ]


def test_value_is_the_correctly_rounded_exact_optimum():
    rng = random.Random("exact-optimum")
    systems = _degenerate_systems()
    for kind in _NUMBERS:
        systems += [_planted_system(rng, rng.randint(1, 12), _NUMBERS[kind]) for _ in range(100)]
    optimal = 0
    for k, (cons, c) in enumerate(systems):
        for sense, sign in (("max", 1), ("min", -1)):
            got = lp2d_optimize(cons, c, sense, seed=k)
            if isinstance(got, Optimal):
                optimal += 1
                exact = sign * lp_exact_optimum(cons, (sign * c.x1, sign * c.x2))
                assert got.value == float(exact), (cons, c, sense, got, exact)
    assert optimal >= 300, optimal


def test_value_exactly_invariant_under_permutation_scaling_and_seed():
    rng = random.Random("exact-invariance")
    checked = 0
    for k in range(300):
        cons, c = _planted_system(rng, rng.randint(2, 12), _NUMBERS[("dyadic", "non-dyadic")[k % 2]])
        base = lp2d_optimize(cons, c, seed=0)
        if not isinstance(base, Optimal):
            continue
        checked += 1
        permuted = rng.sample(cons, len(cons))
        doubled = [halfplane(2.0 * h.h.x1, 2.0 * h.h.x2, 2.0 * h.alpha) for h in permuted]
        for other in (permuted, doubled):
            got = lp2d_optimize(other, c, seed=k + 1)
            assert isinstance(got, Optimal) and got.value == base.value, (cons, c, base, got)
    assert checked >= 150, checked
