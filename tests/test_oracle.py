"""Exact rational feasibility oracle tests."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import mixed_instance, planted_instance, random_instance, random_polygon_instance
from lipsel.geometry import HalfPlane, Point2, halfplane
from lipsel.lp2d import _Empty, _by_angle, _envelope
from lipsel import oracle
from lipsel.metric import PseudometricSpace, validate_pseudometric
from lipsel.oracle import (
    FM_VAR_CAP,
    FmFeasible,
    FmInfeasible,
    RationalLinearSystem,
    build_sharp_lp,
    build_sharp_lp_polygon,
    estimate_min_seminorm,
    fm_feasible,
)
from lipsel.polygon import PolygonInstance
from lipsel.selection import HalfPlaneInstance
from oracles import (
    DenseSystem,
    build_sharp_lp_reference,
    estimate_reference,
    fm_feasible_reference,
    int_row,
    int_system,
    linprog_feasible,
)

INF = math.inf
F = Fraction


def _sep(gap):
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    return HalfPlaneInstance(
        sp, [halfplane(1.0, 0.0, 0.0), halfplane(-1.0, 0.0, float(gap))]
    )


# ---------------------------------------------------------------------------
# system construction


def test_single_point_system():
    sp = validate_pseudometric([[0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(2.0, -1.0, 3.0)])
    sys = build_sharp_lp(inst, 5)
    assert sys.var_names == ["u1", "v1"]
    assert sys.rows == [(((0, 2), (1, -1)), -3)]


def test_pair_system_rows():
    sys = build_sharp_lp(_sep(4), F(2))
    assert sys.var_names == ["u1", "v1", "u2", "v2"]
    assert len(sys.rows) == 2 + 4
    # membership rows first
    assert sys.rows[0] == (((0, 1),), 0)
    assert sys.rows[1] == (((2, -1),), -4)
    # then |u1-u2| <= lam*rho and |v1-v2| <= lam*rho
    assert sys.rows[2] == (((0, 1), (2, -1)), 2)
    assert sys.rows[3] == (((0, -1), (2, 1)), 2)
    assert sys.rows[4] == (((1, 1), (3, -1)), 2)
    assert sys.rows[5] == (((1, -1), (3, 1)), 2)


def test_infinite_distance_pairs_are_uncoupled():
    sp = validate_pseudometric([[0.0, INF], [INF, 0.0]])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0), halfplane(0.0, 1.0, 0.0)])
    sys = build_sharp_lp(inst, 1)
    assert len(sys.rows) == 2  # memberships only


def test_polygon_system_rows():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    p = PolygonInstance(sp, [
        [halfplane(1.0, 0.0, -1.0), halfplane(-1.0, 0.0, 0.0), halfplane(0.0, 1.0, -1.0)],
        [halfplane(0.0, -1.0, 0.0)],
    ])
    sys = build_sharp_lp_polygon(p, F(1, 2))
    assert sys.var_names == ["u1", "v1", "u2", "v2"]
    assert len(sys.rows) == 4 + 4
    assert sys.rows[3] == (((3, -1),), 0)
    # u1 - u2 <= 1/2, times 2
    assert sys.rows[4] == (((0, 2), (2, -2)), 1)


LAMBDA_FORMS = [
    form
    for lam in (F(0), F(1, 3), F(1, 4), F(1), F(4), F(2**20))
    for form in (lam, float(lam)) + ((int(lam),) if lam.denominator == 1 else ())
]


def _renumbered(inst, k, form):
    """`inst` with every offset and finite distance times 2^k, which is
    exact, and its numbers as floats, `Fraction`s, or ints where integral
    and `Fraction`s elsewhere."""
    def num(v, scale=True):
        v = math.ldexp(v, k) if scale else v
        if form == "float" or v == INF:
            return v
        return int(v) if form == "int" and v == int(v) else F(v)

    space = PseudometricSpace(inst.n, [[num(v) for v in row] for row in inst.space.d])
    polygons = [[HalfPlane(Point2(num(hp.h.x1, False), num(hp.h.x2, False)), num(hp.alpha)) for hp in poly]
                for poly in inst.polygons]
    return PolygonInstance(space, polygons)


def test_builder_writes_the_integer_rows_of_the_dense_reference():
    rng = random.Random("sharp-rows")
    kinds = (
        mixed_instance,
        lambda r, n: random_instance(r, n, inf_blocks=True),
        lambda r, n: random_polygon_instance(r, n, r.randint(1, 4), planted=r.random() < 0.5),
    )
    zero = infinite = 0
    for n in range(1, 9):
        for kind in kinds:
            for k in (0, 40, -40):
                for form in ("float", "fraction", "int"):
                    inst = _renumbered(kind(rng, n), k, form)
                    pairs = [row[j] for i, row in enumerate(inst.space.d) for j in range(i + 1, n)]
                    zero += 0 in pairs
                    infinite += INF in pairs
                    for lam in LAMBDA_FORMS:
                        system = build_sharp_lp(inst, lam)
                        dense = build_sharp_lp_reference(inst, lam)
                        assert system.var_names == dense.var_names
                        assert system.rows == [int_row(co, rhs) for co, rhs in dense.rows], (n, k, form, lam)
                        for terms, rhs in system.rows:
                            assert type(rhs) is int and all(type(m) is type(c) is int for m, c in terms)
    assert zero > 50 and infinite > 50, (zero, infinite)


def test_lambda_must_be_nonnegative_and_finite():
    inst = _sep(1)
    with pytest.raises(ValueError):
        build_sharp_lp(inst, -1)
    with pytest.raises(ValueError):
        build_sharp_lp(inst, INF)


# ---------------------------------------------------------------------------
# elimination


def test_separation_threshold_is_exact():
    inst = _sep(4)
    assert isinstance(fm_feasible(build_sharp_lp(inst, 4)), FmFeasible)
    assert isinstance(fm_feasible(build_sharp_lp(inst, F(399, 100))), FmInfeasible)
    # feasibility is monotone in lambda
    assert isinstance(fm_feasible(build_sharp_lp(inst, 100)), FmFeasible)
    assert isinstance(fm_feasible(build_sharp_lp(inst, 0)), FmInfeasible)


def test_witness_satisfies_every_row():
    inst = _sep(4)
    sys = build_sharp_lp(inst, F(9, 2))
    got = fm_feasible(sys)
    assert isinstance(got, FmFeasible)
    assert len(got.witness) == 4
    for terms, rhs in sys.rows:
        assert sum(c * got.witness[m] for m, c in terms) <= rhs
    assert all(isinstance(w, Fraction) for w in got.witness)


def test_zero_lambda_forces_common_point():
    sp = validate_pseudometric([[0.0, 1.0], [1.0, 0.0]])
    inst = HalfPlaneInstance(
        sp, [halfplane(1.0, 0.0, 0.0), halfplane(-1.0, 0.0, 0.0)]
    )  # u1 <= 0 and u1 >= 0 share the line u1 = 0
    got = fm_feasible(build_sharp_lp(inst, 0))
    assert isinstance(got, FmFeasible)
    assert got.witness[0] == 0 and got.witness[2] == 0


def test_empty_system_is_feasible():
    got = fm_feasible(RationalLinearSystem(["u1", "v1"], []))
    assert isinstance(got, FmFeasible)
    assert got.witness == [0, 0]


def test_constant_row_contradiction():
    sys = int_system(DenseSystem(["u1"], [((F(0),), F(-1))]))
    assert isinstance(fm_feasible(sys), FmInfeasible)
    rows = [((F(1), F(0)), F(2)), ((F(0), F(0)), F(-1, 3)), ((F(0), F(-1)), F(0))]
    dense = DenseSystem(["u1", "v1"], rows)
    assert isinstance(fm_feasible(int_system(dense)), FmInfeasible)
    assert isinstance(fm_feasible_reference(dense), FmInfeasible)


def test_variable_cap():
    n = FM_VAR_CAP // 2 + 1
    sp = validate_pseudometric([[0.0] * n for _ in range(n)])
    inst = HalfPlaneInstance(sp, [halfplane(1.0, 0.0, 0.0)] * n)
    with pytest.raises(ValueError):
        fm_feasible(build_sharp_lp(inst, 1))


# ---------------------------------------------------------------------------
# integer elimination against the Fraction reference

REFERENCE_LAMBDAS = (F(0), F(1, 4), F(1, 3), F(1), F(5, 2), F(16))


def _assert_same_as_reference(dense, system=None):
    """`fm_feasible` on `system`, by default the integer rows of `dense`,
    gives the verdict and witness of the reference on `dense`."""
    got = fm_feasible(int_system(dense) if system is None else system)
    want = fm_feasible_reference(dense)
    assert type(got) is type(want)
    if isinstance(got, FmFeasible):
        assert got.witness == want.witness
        assert all(isinstance(w, Fraction) for w in got.witness)


def _rational_instance(rng, n, q):
    """Triangles around centers with coordinates over the denominator q, at
    the sup-norm distances of their centers, so lambda = 1 is feasible."""
    def num(lo, hi):
        return F(rng.randint(lo * q, hi * q), q)

    centers = [(num(-4, 4), num(-4, 4)) for _ in range(n)]
    d = [[max(abs(x1 - x2), abs(y1 - y2)) for x2, y2 in centers] for x1, y1 in centers]
    polygons = []
    for x, y in centers:
        sides = []
        for _ in range(3):
            a, b = num(-2, 2), num(-2, 2)
            if not (a or b):
                a = F(1)
            sides.append(HalfPlane(Point2(a, b), -(a * x + b * y) - num(0, 1)))
        polygons.append(sides)
    return PolygonInstance(PseudometricSpace(n, d), polygons)


def test_integer_elimination_matches_fraction_reference():
    rng = random.Random(5150)
    kinds = (random_instance, lambda r, n: random_instance(r, n, inf_blocks=True), planted_instance)
    insts = [kind(rng, n) for n in range(1, 6) for kind in kinds for _ in range(2)]
    insts += [random_polygon_instance(rng, n, 3, planted=rng.random() < 0.5) for n in range(1, 5) for _ in range(3)]
    insts += [_rational_instance(rng, n, q) for q in (3, 7, 10) for n in range(1, 4) for _ in range(3)]
    for inst in insts:
        for lam in REFERENCE_LAMBDAS:
            _assert_same_as_reference(build_sharp_lp_reference(inst, lam), build_sharp_lp(inst, lam))


def test_integer_elimination_matches_reference_on_wide_rows():
    # x0 + x1 + x2 <= 3 keeps three variables, so elimination merges rows
    # of more than two variables
    names = ["x0", "x1", "x2"]
    rows = [
        ((F(1), F(1), F(1)), F(3)),
        ((F(-1), F(0), F(0)), F(0)),
        ((F(-2), F(1, 3), F(0)), F(1, 2)),
        ((F(0), F(-1), F(2)), F(1, 7)),
        ((F(0), F(0), F(-3, 10)), F(1)),
        ((F(0), F(2), F(-1)), F(5)),
    ]
    system = DenseSystem(names, rows)
    assert isinstance(fm_feasible(int_system(system)), FmFeasible)
    _assert_same_as_reference(system)
    # the same rows with a cap that contradicts x0 + x1 + x2 <= 3 from below
    tight = DenseSystem(names, rows + [((F(-1), F(-1), F(-1)), F(-4))])
    assert isinstance(fm_feasible(int_system(tight)), FmInfeasible)
    _assert_same_as_reference(tight)


def test_pair_envelopes_match_fraction_reference_on_a_new_stream():
    # The sizes stop where the reference, which keeps every row, runs for
    # seconds per system: polygons of up to 4 sides at n = 4 and rational
    # triangles at n = 4 already take it over 20 s.
    rng = random.Random(6061)
    kinds = (
        (6, mixed_instance),
        (6, lambda r, n: random_instance(r, n, inf_blocks=True)),
        (6, planted_instance),
        (4, lambda r, n: random_polygon_instance(r, n, r.randint(1, 4), planted=r.random() < 0.5)),
        (3, lambda r, n: _rational_instance(r, n, r.choice((3, 7, 10)))),
    )
    for n in range(1, 7):
        for top, kind in kinds:
            for _ in range(2 if n <= top else 0):
                inst = kind(rng, n)
                for lam in REFERENCE_LAMBDAS:
                    _assert_same_as_reference(build_sharp_lp_reference(inst, lam), build_sharp_lp(inst, lam))


def _system(nvars, rows):
    """A dense system from sparse rows ({var: coeff}, rhs) with integer data."""
    dense = [(tuple(F(co.get(m, 0)) for m in range(nvars)), F(rhs)) for co, rhs in rows]
    return DenseSystem([f"x{m}" for m in range(nvars)], dense)


def test_pair_envelopes_on_hand_built_systems():
    # y + z <= -1 appears only once x0 is eliminated, and closes an empty
    # triangle with two rows that were there from the start
    empty_after = [({0: 1, 1: 1}, 0), ({0: -1, 2: 1}, -1), ({1: -2, 2: 1}, -1), ({1: 1, 2: -2}, -1)]
    # the same with y + z <= 5: a triangle that needs all three rows
    feasible_after = empty_after[:1] + [({0: -1, 2: 1}, 5)] + empty_after[2:]
    # an open pair: y >= k*x - k*k for k = -3..3, tangents of y = x*x/4 whose
    # normals lie in one half-plane; two of them repeated less tightly, one
    # row through the vertex (3, 2) of two of them and one below them all
    open_pair = [({0: k, 1: -1}, k * k) for k in range(-3, 4)]
    open_pair += [({0: 2 * k, 1: -2}, 2 * k * k + 1) for k in (-1, 2)]
    open_pair += [({0: 3, 1: -2}, 5), ({0: 3, 1: -4}, 5)]
    # x + y = 1 as a strip of width 0, cut by rows through one point of it
    strip = [({0: 1, 1: 1}, 1), ({0: -1, 1: -1}, -1)]
    strip += [({0: 1, 1: -1}, 1), ({0: 2, 1: -1}, 2), ({0: 3, 1: -2}, 3)]
    # three rows through (1, 1) on a triangle, the middle one implied
    concurrent = [({0: 1, 1: 1}, 2), ({0: 2, 1: 1}, 3), ({0: 1, 1: 2}, 3), ({0: -1, 1: -1}, 0)]
    # wide rows next to a pair of more than two rows
    wide = [({0: 1, 1: 1, 2: 1}, 3), ({0: -1, 1: 2, 3: -1}, 2), ({1: 1, 2: -1}, 1),
            ({1: -1, 2: 2}, 2), ({1: 2, 2: 1}, 6), ({1: -3, 2: -1}, 4), ({3: 1}, 1), ({0: -1}, 0)]
    systems = [
        _system(3, empty_after),
        _system(3, feasible_after),
        _system(2, open_pair),
        _system(2, open_pair + [({1: 1}, -1)]),
        # the tangents on (x1, x2), and x1 + x2 <= 0 once x0 is eliminated
        _system(3, [({0: 1, 1: 1}, 0), ({0: -1, 2: 1}, 0)]
                + [({1: k, 2: -1}, k * k) for k in range(-3, 4)]),
        _system(2, strip),
        _system(2, strip + [({0: -1, 1: 2}, -1)]),  # only (1, 0) is left
        _system(2, strip + [({0: -1, 1: 2}, -2)]),
        # x1 - x2 <= 1 appears once x0 is eliminated and closes a strip of
        # width 0, cut to a segment by the pair's two other rows
        _system(3, [({0: 1, 1: 1}, 1), ({0: -1, 2: -1}, 0), ({1: -1, 2: 1}, -1),
                    ({1: 2, 2: -1}, 2), ({1: -2, 2: 1}, 0)]),
        _system(2, concurrent),
        _system(2, concurrent + [({0: 1, 1: 3}, 3)]),
        _system(4, wide),
        _system(4, wide + [({1: -1, 2: -1}, -5)]),
    ]
    verdicts = [type(fm_feasible(int_system(system))) for system in systems]
    assert verdicts == [FmInfeasible, FmFeasible, FmFeasible, FmInfeasible, FmFeasible,
                        FmFeasible, FmFeasible, FmInfeasible, FmFeasible, FmFeasible,
                        FmFeasible, FmFeasible, FmInfeasible]
    for system in systems:
        _assert_same_as_reference(system)


def _implied_by(row, rows):
    """Whether a*x + b*y <= c holds on the nonempty polygon of `rows`: by
    Farkas' lemma, with a basic solution (one row, or two with independent
    normals), iff (a, b) = l1*n1 with l1 >= 0 and l1*c1 <= c for one of
    the rows, or (a, b) = l1*n1 + l2*n2 with l1, l2 >= 0 and
    l1*c1 + l2*c2 <= c for two of them."""
    a, b, c, _ = row
    for i, (a1, b1, c1, _) in enumerate(rows):
        if a * b1 == b * a1 and a * a1 + b * b1 > 0 and F(a * a1 + b * b1, a1 * a1 + b1 * b1) * c1 <= c:
            return True
        for a2, b2, c2, _ in rows[i + 1:]:
            det = a1 * b2 - b1 * a2
            if det:
                l1, l2 = F(a * b2 - b * a2, det), F(a1 * b - b1 * a, det)
                if l1 >= 0 and l2 >= 0 and l1 * c1 + l2 * c2 <= c:
                    return True
    return False


def _pair_rows(rng, kind):
    """Rows a*x + b*y <= c with a, b nonzero and pairwise different
    directions: small integers, which make strips of width 0 and concurrent
    rows common; normals only in one half-plane; or normals of about 2**55
    around one direction, whose angles a float cannot tell apart.  Besides
    the pair rows of the oracle: "axis" sets, where half of the normals
    have a = 0 or b = 0; "repeated" sets, whose directions repeat at other
    lengths and offsets; and sets of "one" row or of "two", mostly
    antiparallel."""
    rows, seen = [], set()
    px, py = rng.randint(-3, 3), rng.randint(-3, 3)
    base = [rng.choice((-1, 1)) * rng.randint(2**54, 2**55) for _ in range(2)]
    m = rng.randint(3, 10)
    m = {"one": 1, "two": 2}.get(kind, m)
    while len(rows) < m:
        if kind == "near" and rng.random() < 0.7:
            a, b = base[0] + rng.randint(-2, 2), base[1] + rng.randint(-2, 2)
        elif kind in ("repeated", "two") and rows and rng.random() < 0.8:
            f = rng.randint(1, 3) * (-1 if kind == "two" else 1)
            a, b = f * rows[-1][0], f * rows[-1][1]
            rows.append((a, b, a * px + b * py + rng.randint(-2, 3), len(rows)))
            continue
        else:
            a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
            if kind == "open":
                b = abs(b)
            if kind == "axis" and rng.random() < 0.5:
                a, b = (0, b) if rng.random() < 0.5 else (a, 0)
        g = math.gcd(a, b)
        if kind in ("repeated", "one", "two") or (a // g, b // g) not in seen:
            seen.add((a // g, b // g))
            rows.append((a, b, a * px + b * py + rng.randint(-2, 3), len(rows)))
    return rows


def _pair_system(rows):
    return DenseSystem(["x", "y"], [((F(a), F(b)), F(c)) for a, b, c, _ in rows])


def test_pair_envelope_keeps_exactly_the_rows_not_implied():
    """`lp2d._envelope`, on the rows in the order of `lp2d._by_angle`,
    keeps exactly the rows that the kept rows do not imply, or reports 2 or 3 rows that are infeasible by themselves, a
    disjoint pair where it names two."""
    rng = random.Random("envelopes")
    empty = {}
    for kind in ("small", "open", "near") * 200 + ("axis", "repeated", "one", "two") * 150:
        rows = _pair_rows(rng, kind)
        feasible = isinstance(fm_feasible_reference(_pair_system(rows)), FmFeasible)
        try:
            kept = list(_envelope(_by_angle(rows)))
        except _Empty as exc:
            assert not feasible, rows
            assert len(exc.args) in (2, 3) and all(r in rows for r in exc.args), (rows, exc.args)
            assert isinstance(fm_feasible_reference(_pair_system(exc.args)), FmInfeasible), (rows, exc.args)
            empty[kind] = empty.get(kind, 0) + 1
            continue
        assert feasible, rows
        for row in rows:
            others = [k for k in kept if k is not row]
            assert (row in kept) != _implied_by(row, others), (rows, kept, row)
    assert 100 < sum(empty.get(kind, 0) for kind in ("small", "open", "near")) < 500, empty
    assert all(10 <= empty.get(kind, 0) < 130 for kind in ("axis", "repeated", "two")), empty
    assert "one" not in empty, empty


def test_tail_systems_at_seven_and_eight_points_finish_and_agree_with_simplex():
    # Without pair envelopes four of these systems ran for over 30 s each.
    t0 = time.monotonic()
    verdicts = []
    for n in (7, 8):
        rng = random.Random(100 + n)
        for _ in range(12):
            inst = mixed_instance(rng, n)
            verdicts.append((inst, isinstance(fm_feasible(build_sharp_lp(inst, 1)), FmFeasible)))
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, elapsed
    for inst, feasible in verdicts:
        system = build_sharp_lp_reference(inst, 1)
        rows = [([float(c) for c in co], float(rhs)) for co, rhs in system.rows]
        other = linprog_feasible(rows, system.num_vars, margin=1e-7)
        assert other is None or other == feasible


def _witness_digest():
    """The sha256 of `fm_feasible`'s verdict and witness on each system of a
    fixed stream past the reference's reach: at n = 5..8, four draws in the
    mix of criterion 1 and one polygon draw of each of 1 to 4 sides, each at
    lambda = 1/4, 1 and 3.  Also the number of feasible and of infeasible
    systems."""
    rng = random.Random("witness-digest")
    digest, counts = hashlib.sha256(), {FmFeasible: 0, FmInfeasible: 0}
    for n in range(5, 9):
        insts = [mixed_instance(rng, n) for _ in range(4)]
        insts += [random_polygon_instance(rng, n, sides, planted=rng.random() < 0.5) for sides in range(1, 5)]
        for inst in insts:
            for lam in (F(1, 4), F(1), F(3)):
                got = fm_feasible(build_sharp_lp(inst, lam))
                counts[type(got)] += 1
                line = " ".join(map(str, got.witness)) if isinstance(got, FmFeasible) else "infeasible"
                digest.update(line.encode() + b"\n")
    return digest.hexdigest(), counts


def test_verdicts_and_witnesses_past_the_reference_are_unchanged():
    # The digest was taken with the general elimination path for every row,
    # before rows of at most two terms had a path of their own.
    digest, counts = _witness_digest()
    assert min(counts.values()) >= 20, counts
    assert digest == WITNESS_DIGEST


WITNESS_DIGEST = "f07f09dca59188329687022a49f0ebfdc6bfcc48eb67fc86015813b7f08af2f7"


# ---------------------------------------------------------------------------
# bisection

def test_estimate_brackets_the_separation_optimum():
    inst = _sep(4)
    lo, hi = estimate_min_seminorm(inst, 0, 8, 20)
    assert lo <= F(4) <= hi
    assert hi - lo == F(8, 2**20)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


def test_estimate_rejects_a_negative_lo_before_any_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "fm_feasible", lambda system: calls.append(system))
    one = HalfPlaneInstance(validate_pseudometric([[0.0]]), [halfplane(1.0, 0.0, 0.0)])
    for inst in (one, _sep(1)):
        with pytest.raises(ValueError, match="lo must be >= 0"):
            estimate_min_seminorm(inst, -1, 64, 8)
    assert calls == []


def test_estimate_rejects_a_feasible_lo():
    # x <= 0 alone has optimum 0: a positive lo is feasible and no bracket
    # from it holds the optimum; on _sep(4), lo = 3 is infeasible and kept
    one = HalfPlaneInstance(validate_pseudometric([[0.0]]), [halfplane(1.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="lo must be 0 or infeasible"):
        estimate_min_seminorm(one, F(1, 3), 5, 6)
    assert estimate_min_seminorm(one, 0, 5, 6) == (0, F(5, 64))
    lo, hi = estimate_min_seminorm(_sep(4), 3, 8, 6)
    assert lo <= 4 <= hi and hi - lo == F(5, 64)


def test_estimate_validates_inputs():
    inst = _sep(4)
    with pytest.raises(ValueError):
        estimate_min_seminorm(inst, 3, 3, 4)
    with pytest.raises(ValueError):
        estimate_min_seminorm(inst, 0, 8, -1)
    with pytest.raises(ValueError):
        estimate_min_seminorm(inst, 0, 2, 4)  # hi below the optimum


def _estimate_outcome(estimate, inst, lo, hi, iters):
    try:
        return estimate(inst, lo, hi, iters)
    except ValueError as exc:
        return str(exc)


def test_estimate_matches_plain_bisection():
    # brackets and errors equal those of one elimination per point, on the
    # mix of criterion 1 and on polygons of 1 to 3 sides, with data as
    # floats, Fractions and ints
    rng = random.Random("estimate/reference")
    his = [F(1, 1024), F(1, 8), F(1), F(3), F(8), F(64)]
    los = [F(1, 1024), F(1, 64), F(1, 8), F(1, 3), F(1, 2), F(3, 2)]
    seen = dict.fromkeys(["hi must be feasible", "lo must be 0 or infeasible", "lo = 0", "lo > 0",
                          "blocks", "zero distance", "polygon"], 0)
    for k in range(240):
        n = rng.randint(1, 6)
        if k % 3 == 2:
            inst = random_polygon_instance(rng, n, rng.randint(1, 3), planted=rng.random() < 0.5)
            seen["polygon"] += 1
        else:
            inst = mixed_instance(rng, n)
        d = [inst.space.d[i][j] for i in range(n) for j in range(i + 1, n)]
        seen["blocks"] += INF in d
        seen["zero distance"] += 0 in d
        form = ("float", "fraction", "int")[k // 3 % 3]
        inst = _renumbered(inst, 0, form)
        hi = rng.choice(his)
        lo = rng.choice([F(0), *(v for v in los if v < hi)])
        if form == "float":
            lo, hi = float(lo), float(hi)
        iters = rng.choice([0, 1, 4, 8, 20])
        want = _estimate_outcome(estimate_reference, inst, lo, hi, iters)
        assert _estimate_outcome(estimate_min_seminorm, inst, lo, hi, iters) == want, (k, lo, hi, iters)
        seen[want if isinstance(want, str) else "lo = 0" if lo == 0 else "lo > 0"] += 1
    assert all(count >= 15 for count in seen.values()), seen


def _counting(monkeypatch):
    calls = []

    def spy(system):
        calls.append(system)
        return fm_feasible(system)

    monkeypatch.setattr(oracle, "fm_feasible", spy)
    return calls


@pytest.mark.parametrize("iters", [0, 1, 4, 8, 20])
def test_estimate_eliminates_at_most_twice_where_the_optimum_is_zero(monkeypatch, iters):
    # every set holds the origin, at positive distances: a constant selection
    rng = random.Random("estimate/zero")
    for _ in range(20):
        n = rng.randint(2, 6)
        sp = PseudometricSpace(n, [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)])
        inst = HalfPlaneInstance(sp, [halfplane(float(rng.choice([-1, 1])), float(rng.randint(-3, 3)),
                                                -rng.randint(0, 8) / 4) for _ in range(n)])
        want = estimate_reference(inst, 0, 64, iters)
        calls = _counting(monkeypatch)
        assert estimate_min_seminorm(inst, 0, 64, iters) == want == (0, F(64, 2**iters))
        assert len(calls) <= 2
        monkeypatch.undo()


def test_estimate_on_one_point_eliminates_once(monkeypatch):
    calls = _counting(monkeypatch)
    one = HalfPlaneInstance(validate_pseudometric([[0.0]]), [halfplane(1.0, -2.0, 3.0)])
    assert estimate_min_seminorm(one, 0, 64, 20) == (0, F(64, 2**20))
    assert len(calls) == 1


def test_estimate_refuses_a_lo_settled_by_the_hi_witness_after_one_elimination(monkeypatch):
    inst = _sep(4)
    s = oracle._seminorm(inst, fm_feasible(build_sharp_lp(inst, 8)).witness)
    assert 4 <= s < 8
    calls = _counting(monkeypatch)
    for lo in (s, (s + 8) / 2):
        with pytest.raises(ValueError, match="lo must be 0 or infeasible"):
            estimate_min_seminorm(inst, lo, 8, 6)
    assert len(calls) == 2  # one per call, at hi


# ---------------------------------------------------------------------------
# cross-checks against an independent LP solver


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_elimination_agrees_with_simplex(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5))
    lam = rng.randint(0, 12) / 2.0
    sys = build_sharp_lp(inst, lam)
    mine = fm_feasible(sys)
    rows = [([float(c) for c in co], float(rhs)) for co, rhs in build_sharp_lp_reference(inst, lam).rows]
    other = linprog_feasible(rows, sys.num_vars, margin=1e-7)
    if other is None:
        return  # numerically ambiguous for the float solver; exactness is ours
    assert isinstance(mine, FmFeasible) == other


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_polygon_elimination_agrees_with_simplex(seed):
    rng = random.Random(seed)
    p = random_polygon_instance(rng, rng.randint(1, 4), planted=rng.random() < 0.5)
    lam = rng.randint(0, 8) / 2.0
    sys = build_sharp_lp_polygon(p, lam)
    assert len(sys.rows) >= sum(len(poly) for poly in p.polygons)
    mine = fm_feasible(sys)
    rows = [([float(c) for c in co], float(rhs)) for co, rhs in build_sharp_lp_reference(p, lam).rows]
    other = linprog_feasible(rows, sys.num_vars, margin=1e-7)
    if other is None:
        return
    assert isinstance(mine, FmFeasible) == other
