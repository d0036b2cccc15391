"""Independent reference oracles for the test suite.

Everything here is deliberately brute force and shares no code with the
solver: distances and projections by grid search, shortest paths by
exhaustive simple-path enumeration, feasibility by an off-the-shelf LP.
Grid answers come with their pitch so callers can set tolerances as a
multiple of it; `lp_exact_optimum` is the exact optimum of a two-variable LP
by enumeration in `Fraction`s, and `hull_reference` the exact rectangular
hull of a set of rows the same way.  Exceptions: `refinement_constraints`
lists stage-1 constraints with the public geometry primitives, which the
grid searches check, so that the public LP can be run on them;
`build_sharp_lp_reference` is the sharp system as the dense `Fraction` rows
that `lipsel.oracle` built before it wrote sparse integer rows directly,
and `int_row` is the conversion it then ran on every row, kept so that the
integer rows can be checked against the dense ones and hand-built dense
systems can be handed to the oracle; `fm_feasible_reference` is the
`Fraction` Fourier-Motzkin elimination that `lipsel.oracle` ran before it
moved to integer rows, kept as the reference its verdicts and witnesses
must equal exactly; `step3_refine_rects_reference` is stage 3 as it
was before it ran its folds first, with the pairwise scan
(`first_far_pair_reference`) always first, kept as the reference its NoGos
and rectangles must equal exactly; `fold_reference`, that scan and
`row_ratios_reference` are stage 3's fold of one point, its pairwise scan
and the seminorm's rows as chained `map` passes under `max` and `min`, as
`lipsel.selection` ran them before it ran one loop per point, kept as the
references their results must equal bit for bit;
`estimate_reference` is the plain bisection that
`lipsel.oracle.estimate_min_seminorm` ran before it settled points from
witness seminorms, one elimination per point, kept as the reference its
brackets and errors must equal exactly; and `pair_bound_reference` is the
bound `lipsel.lp2d` took a hull end from, on the rows that bracket its
direction, before stage 2 found all four ends in one pass, kept as the
reference those ends must equal exactly.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, gt, sub, truediv

import numpy as np

from lipsel.geometry import ExtInterval, ExtRect, HalfPlane, ext_div, inflation_radius
from lipsel.oracle import (
    FM_VAR_CAP,
    FmFeasible,
    FmInfeasible,
    RationalLinearSystem,
    _ratio,
    build_sharp_lp,
    fm_feasible,
)
from lipsel.selection import NoGo, _radii

INF = math.inf


# ---------------------------------------------------------------------------
# half-plane geometry by sampling


def grid_halfplane_dist(g, a, b, alpha, half_width=50.0, steps=200001):
    """min-over-samples uniform distance from g to {a*x + b*y + alpha <= 0}.

    Samples the boundary line around the Euclidean foot of g (the nearest
    point always sits on the boundary when g is outside).  Returns
    (value, pitch) where pitch is the sup-norm sample spacing.
    """
    gx, gy = g
    if a * gx + b * gy + alpha <= 0.0:
        return 0.0, 0.0
    nn = a * a + b * b
    t0 = (a * gx + b * gy + alpha) / nn
    fx, fy = gx - t0 * a, gy - t0 * b  # Euclidean foot on the boundary
    ts = np.linspace(-half_width, half_width, steps)
    px = fx - ts * b
    py = fy + ts * a
    d = np.maximum(np.abs(px - gx), np.abs(py - gy))
    k = int(np.argmin(d))
    step_inf = (2.0 * half_width / (steps - 1)) * max(abs(a), abs(b))
    return float(d[k]), step_inf


def grid_halfplane_project(g, a, b, alpha, half_width=50.0, steps=200001):
    """Best boundary sample point (argmin of the uniform distance)."""
    gx, gy = g
    if a * gx + b * gy + alpha <= 0.0:
        return (gx, gy), 0.0
    nn = a * a + b * b
    t0 = (a * gx + b * gy + alpha) / nn
    fx, fy = gx - t0 * a, gy - t0 * b
    ts = np.linspace(-half_width, half_width, steps)
    px = fx - ts * b
    py = fy + ts * a
    d = np.maximum(np.abs(px - gx), np.abs(py - gy))
    k = int(np.argmin(d))
    step_inf = (2.0 * half_width / (steps - 1)) * max(abs(a), abs(b))
    return (float(px[k]), float(py[k])), step_inf


# ---------------------------------------------------------------------------
# rectangles by sampling


def _clip(v, w):
    return max(-w, min(w, v))


def grid_rect_dist(lo1, hi1, lo2, hi2, window=64.0, steps=1025):
    """Uniform distance from the origin to [lo1,hi1] x [lo2,hi2] by 2-d grid."""
    xs = np.linspace(_clip(lo1, window), _clip(hi1, window), steps)
    ys = np.linspace(_clip(lo2, window), _clip(hi2, window), steps)
    dx = np.abs(xs)
    dy = np.abs(ys)
    val = np.min(np.maximum(dx[:, None], dy[None, :]))
    pitch = max(
        (xs[-1] - xs[0]) / (steps - 1) if steps > 1 else 0.0,
        (ys[-1] - ys[0]) / (steps - 1) if steps > 1 else 0.0,
    )
    return float(val), pitch


def grid_rect_center(lo1, hi1, lo2, hi2, window=64.0, steps=1025):
    """Approximate center of the origin's metric-projection set.

    Collects grid points whose norm is within one pitch of the minimum and
    takes the center of their bounding box.
    """
    xs = np.linspace(_clip(lo1, window), _clip(hi1, window), steps)
    ys = np.linspace(_clip(lo2, window), _clip(hi2, window), steps)
    norm = np.maximum(np.abs(xs)[:, None], np.abs(ys)[None, :])
    dmin = norm.min()
    pitch = max(
        (xs[-1] - xs[0]) / (steps - 1) if steps > 1 else 0.0,
        (ys[-1] - ys[0]) / (steps - 1) if steps > 1 else 0.0,
    )
    mask = norm <= dmin + pitch + 1e-12
    ii, jj = np.nonzero(mask)
    cx = (xs[ii.min()] + xs[ii.max()]) / 2.0
    cy = (ys[jj.min()] + ys[jj.max()]) / 2.0
    return (float(cx), float(cy)), pitch


def grid_interval_hausdorff(a_lo, a_hi, b_lo, b_hi, window=1.0e6, steps=100001):
    """Hausdorff distance of two nonempty closed intervals by sampling.

    Ends are clipped at +-window; a result >= window/2 means the true value
    is infinite (one side runs away unboundedly).
    """
    az = np.linspace(_clip(a_lo, window), _clip(a_hi, window), steps)
    bz = np.linspace(_clip(b_lo, window), _clip(b_hi, window), steps)
    # sup_a inf_b |a-b| for intervals is attained at the ends of a
    d_ab = max(_interval_dist_point(az[0], bz), _interval_dist_point(az[-1], bz))
    d_ba = max(_interval_dist_point(bz[0], az), _interval_dist_point(bz[-1], az))
    pitch = max(
        (az[-1] - az[0]) / (steps - 1) if steps > 1 else 0.0,
        (bz[-1] - bz[0]) / (steps - 1) if steps > 1 else 0.0,
    )
    return float(max(d_ab, d_ba)), pitch


def _interval_dist_point(p, zs):
    return float(np.min(np.abs(zs - p)))


def grid_rects_gap(rx, ry, window=256.0, steps=257):
    """min over sample pairs of the uniform distance between two rectangles.

    rx, ry: (lo1, hi1, lo2, hi2) tuples.  Independent per-axis structure is
    *not* exploited; this really is the 4-d product search collapsed to two
    2-d grids.
    """
    ax = np.linspace(_clip(rx[0], window), _clip(rx[1], window), steps)
    ay = np.linspace(_clip(rx[2], window), _clip(rx[3], window), steps)
    bx = np.linspace(_clip(ry[0], window), _clip(ry[1], window), steps)
    by = np.linspace(_clip(ry[2], window), _clip(ry[3], window), steps)
    d1 = np.min(np.abs(ax[:, None] - bx[None, :]))
    d2 = np.min(np.abs(ay[:, None] - by[None, :]))
    # sup-norm distance between product sets = max of per-axis 1-d gaps;
    # computed here from raw samples, not from interval-end formulas
    pitch = max(
        (z[-1] - z[0]) / (steps - 1) if steps > 1 else 0.0 for z in (ax, ay, bx, by)
    )
    return float(max(d1, d2)), pitch


# ---------------------------------------------------------------------------
# two-variable LP optima in exact rationals


def lp_exact_optimum(constraints, c):
    """max <c, u> over the half-planes {<h, u> + alpha <= 0}, exactly, for a
    feasible system on which it is bounded: the best feasible point among
    all pairwise boundary crossings and every boundary's point nearest the
    origin.  A system with a vertex attains the maximum at one; one without
    (all boundaries parallel) attains it on a whole boundary line."""
    rows = [(Fraction(h.h.x1), Fraction(h.h.x2), Fraction(h.alpha)) for h in constraints]
    cands = [(-al * a / (a * a + b * b), -al * b / (a * a + b * b)) for a, b, al in rows]
    for (a1, b1, l1), (a2, b2, l2) in itertools.combinations(rows, 2):
        det = a1 * b2 - b1 * a2
        if det:
            cands.append(((-l1 * b2 + l2 * b1) / det, (-l2 * a1 + l1 * a2) / det))
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return max(
        cx * u1 + cy * u2
        for u1, u2 in cands
        if all(a * u1 + b * u2 + al <= 0 for a, b, al in rows)
    )


def _integer_row(a, b, alpha):
    """(A, B, L) in the ratio of the floats a, b, alpha, exactly."""
    ratios = [x.as_integer_ratio() for x in (a, b, alpha)]
    q = math.lcm(*(d for _, d in ratios))
    return tuple(p * (q // d) for p, d in ratios)


def hull_reference(rows):
    """The rectangular hull of the rows (a, b, alpha, _), meaning
    a*x + b*y + alpha <= 0, exactly: None when their intersection is empty,
    else (lo1, hi1, lo2, hi2) as stage 2 writes it.  Each end is the
    correctly rounded maximum of an axis objective, a lower end negated (so
    a zero lower end is -0.0), and infinite when the objective improves
    along a recession direction: the objective itself, a normal turned a
    quarter either way, or a normal reversed, which covers every extreme
    ray of the recession cone.  Emptiness and maxima come from the feasible
    points among every pairwise boundary crossing and every boundary's point
    nearest the origin, as in `lp_exact_optimum`, here as integer triples
    (X, Y, D) for the point (X / D, Y / D) with D > 0."""
    exact = [_integer_row(a, b, al) for a, b, al, _ in rows]
    cands = [(-l * a, -l * b, a * a + b * b) for a, b, l in exact]
    for (a1, b1, l1), (a2, b2, l2) in itertools.combinations(exact, 2):
        det = a1 * b2 - b1 * a2
        if det:
            s = 1 if det > 0 else -1
            cands.append((s * (l2 * b1 - l1 * b2), s * (l1 * a2 - l2 * a1), s * det))
    feasible = [(X, Y, D) for X, Y, D in cands if all(a * X + b * Y + l * D <= 0 for a, b, l in exact)]
    if exact and not feasible:
        return None
    dirs = [d for a, b, _ in exact for d in ((-b, a), (b, -a), (-a, -b))]
    ends = []
    for cx, cy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        if any(
            cx * dx + cy * dy > 0 and all(a * dx + b * dy <= 0 for a, b, _ in exact)
            for dx, dy in [(cx, cy)] + dirs
        ):
            ends.append(INF)
        else:
            ends.append(float(max(Fraction(cx * X + cy * Y, D) for X, Y, D in feasible)))
    return -ends[0], ends[1], -ends[2], ends[3]


def pair_bound_reference(rows, Cx, Cy):
    """The least bound on the maximum of (Cx, Cy) over the integer rows
    (A, B, C, _), meaning A*x + B*y <= C, that one of them or a pair of
    them gives, correctly rounded; INF when none bounds it.  When c is in
    cone{h_i, h_j}, weak duality bounds the maximum by the exact value at
    the vertex of rows i and j (or, for one row whose normal is parallel
    to c, at its boundary).  Evaluated in integers, as `int / int` rounds
    correctly."""
    best = math.inf
    for i, (A1, B1, C1, _) in enumerate(rows):
        dot = Cx * A1 + Cy * B1
        if Cx * B1 == Cy * A1 and dot > 0:
            best = min(best, C1 * dot / (A1 * A1 + B1 * B1))
        for A2, B2, C2, _ in rows[i + 1:]:
            det = A1 * B2 - B1 * A2
            mu, nu = Cx * B2 - Cy * A2, A1 * Cy - B1 * Cx  # c = (mu h1 + nu h2) / det
            if det > 0 and mu >= 0 and nu >= 0 or det < 0 and mu <= 0 and nu <= 0:
                best = min(best, (Cx * (C1 * B2 - B1 * C2) + Cy * (A1 * C2 - C1 * A2)) / det)
    return best


# ---------------------------------------------------------------------------
# stage-1 constraints


def refinement_constraints(inst, l1, x):
    """Constraints whose intersection is the stage-1 set at point x: every
    side of every point inflated by l1 times its distance to x, the sides of
    x itself with radius 0: the same normal, the offset relaxed by the
    radius times the normal's 1-norm.  Infinitely distant points contribute
    nothing and are omitted."""
    out = []
    for y in range(inst.n):
        r = inflation_radius(l1, inst.space.d[x][y])
        if r != INF:
            out += [HalfPlane(hp.h, hp.alpha - r * (abs(hp.h.x1) + abs(hp.h.x2))) for hp in inst.polygons[y]]
    return out


# ---------------------------------------------------------------------------
# stage 3 with the pairwise scan first


def _collapse(lo, hi, radii):
    """lo and hi, or their midpoint twice when rounding inverted them by at
    most 2^-40 of the largest of |lo|, |hi| and the finite radii; a larger
    inversion raises."""
    if lo <= hi:
        return lo, hi
    if lo - hi > math.ldexp(max(abs(lo), abs(hi), *(r for r in radii if r != INF)), -40):
        raise AssertionError(f"ends inverted: [{lo}, {hi}]")
    return (lo + hi) / 2.0, (lo + hi) / 2.0


def step3_refine_rects_reference(hulls, l2, space):
    n = space.n
    if len(hulls) != n:
        raise ValueError("one hull per point is required")
    LO1 = [t.ix.lo for t in hulls]
    HI1 = [t.ix.hi for t in hulls]
    LO2 = [t.iy.lo for t in hulls]
    HI2 = [t.iy.hi for t in hulls]
    nogo = first_far_pair_reference(LO1, HI1, LO2, HI2, l2, space)
    if nogo is not None:
        return nogo
    refined = []
    for x in range(n):
        R = _radii(l2, space.d[x])
        lo1, hi1, lo2, hi2 = fold_reference((LO1, HI1, LO2, HI2), l2, space.d[x])
        lo1, hi1 = _collapse(lo1, hi1, R)
        lo2, hi2 = _collapse(lo2, hi2, R)
        refined.append(ExtRect(ExtInterval(lo1, hi1), ExtInterval(lo2, hi2)))
    return refined


def first_far_pair_reference(LO1, HI1, LO2, HI2, l2, space):
    """NoGo(3, x) for the first x with a y > x whose hull is over l2 * rho
    away, a pair's gap the `max` of its four per-axis gaps, or None."""
    for x in range(space.n):
        R = _radii(l2, space.d[x][x + 1:])
        gaps = map(
            max,
            map(sub, repeat(LO1[x]), HI1[x + 1:]),
            map(sub, LO1[x + 1:], repeat(HI1[x])),
            map(sub, repeat(LO2[x]), HI2[x + 1:]),
            map(sub, LO2[x + 1:], repeat(HI2[x])),
        )
        if any(map(gt, gaps, R)):
            return NoGo(3, x)
    return None


def fold_reference(ends, l2, drow):
    """The ends (lo1, hi1, lo2, hi2) of one point's stage-3 fold: `max` and
    `min` over each axis's ends moved out by the radii of its row."""
    LO1, HI1, LO2, HI2 = ends
    R = _radii(l2, drow)
    return max(map(sub, LO1, R)), min(map(add, HI1, R)), max(map(sub, LO2, R)), min(map(add, HI2, R))


def row_ratios_reference(X, Y, space, lo, hi):
    """The largest ratio |f(i) - f(j)| / d(i, j) over the pairs (i, j > i)
    with lo <= i < hi, or 0: per row, the `max` of the per-axis ratios,
    with 0/0 = 0 and x/0 = inf (`ext_div`) in a row that holds a zero."""
    out = 0.0
    for i in range(lo, min(hi, space.n - 1)):
        rest = space.d[i][i + 1:]
        div = ext_div if 0.0 in rest else truediv
        ratio = max(
            max(map(div, map(abs, map(sub, repeat(X[i]), X[i + 1:])), rest)),
            max(map(div, map(abs, map(sub, repeat(Y[i]), Y[i + 1:])), rest)),
        )
        if ratio > out:
            out = ratio
    return out


# ---------------------------------------------------------------------------
# shortest paths by enumeration


def enumerate_shortest_paths(w):
    """All-pairs shortest simple-path distances for a symmetric weight matrix.

    Exhaustive over every simple path (fine up to n ~ 7).  Exact when the
    weights are exactly representable (integers, dyadics, Fractions).
    """
    n = len(w)
    best = [[INF] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [k for k in range(n) if k != i and k != j]
            for r in range(len(others) + 1):
                for mid in itertools.permutations(others, r):
                    path = (i,) + mid + (j,)
                    total = 0
                    ok = True
                    for a, b in zip(path, path[1:]):
                        if w[a][b] == INF:
                            ok = False
                            break
                        total += w[a][b]
                    if ok and total < best[i][j]:
                        best[i][j] = total
    for i in range(n):
        for j in range(n):
            if best[i][j] > w[i][j]:
                best[i][j] = w[i][j]
    return best


# ---------------------------------------------------------------------------
# rational linear feasibility via scipy (float cross-check)


def linprog_feasible(rows, nvars, margin=0.0):
    """Feasibility verdict for rows of (coeffs, rhs) via scipy's HiGGS LP.

    Returns True / False / None, with None meaning "too close to call" given
    the requested margin (callers skip those cases).  Purely a float-level
    cross-check; exactness claims are tested elsewhere via witnesses.
    """
    from scipy.optimize import linprog

    a_ub = [[float(c) for c in coeffs] for coeffs, _rhs in rows]
    b_ub = [float(rhs) for _coeffs, rhs in rows]
    res = linprog(
        c=[0.0] * nvars,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * nvars,
        method="highs",
    )
    if res.status == 0:
        if margin > 0.0:
            slack = min(
                b - sum(c * x for c, x in zip(coeffs, res.x))
                for (coeffs, b) in zip(a_ub, b_ub)
            )
            if slack < -margin:
                return None
        return True
    if res.status == 2:
        return False
    return None


# ---------------------------------------------------------------------------
# the sharp system as dense Fraction rows


@dataclass(frozen=True)
class DenseSystem:
    """Rows (coeffs, rhs) meaning coeffs . vars <= rhs, with one `Fraction`
    coefficient per variable."""

    var_names: list
    rows: list

    @property
    def num_vars(self):
        return len(self.var_names)


def build_sharp_lp_reference(inst, lam):
    """The rows of `lipsel.oracle.build_sharp_lp` in the same order, dense:
    one membership row per (point, side), then 4 coupling rows per finite
    pair i < j, u before v."""
    n, lam = inst.n, Fraction(lam)
    names = [f"{ax}{i + 1}" for i in range(n) for ax in ("u", "v")]
    rows = []
    for i, poly in enumerate(inst.polygons):
        for hp in poly:
            co = [Fraction(0)] * (2 * n)
            co[2 * i], co[2 * i + 1] = Fraction(hp.h.x1), Fraction(hp.h.x2)
            rows.append((tuple(co), -Fraction(hp.alpha)))
    for i in range(n):
        for j in range(i + 1, n):
            rho = inst.space.d[i][j]
            if rho == INF:
                continue
            for axis in (0, 1):
                for sign in (1, -1):
                    co = [Fraction(0)] * (2 * n)
                    co[2 * i + axis], co[2 * j + axis] = Fraction(sign), Fraction(-sign)
                    rows.append((tuple(co), lam * Fraction(rho)))
    return DenseSystem(names, rows)


def int_row(coeffs, rhs):
    """A dense rational row as a sparse integer row: the nonzero terms
    (var, coeff), all multiplied by the lcm of the row's denominators."""
    nonzero = [(m, c) for m, c in enumerate(coeffs) if c]
    scale = math.lcm(rhs.denominator, *(c.denominator for _, c in nonzero))
    terms = tuple((m, c.numerator * (scale // c.denominator)) for m, c in nonzero)
    return terms, rhs.numerator * (scale // rhs.denominator)


def int_system(dense):
    """A `DenseSystem` as the `lipsel.oracle.RationalLinearSystem` that
    `fm_feasible` takes."""
    return RationalLinearSystem(dense.var_names, [int_row(co, rhs) for co, rhs in dense.rows])


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination in Fraction arithmetic


def _prune_reference(rows):
    """Drop satisfied constant rows and keep only the tightest row per
    coefficient vector normalized by its first nonzero |coefficient|; None
    signals an unsatisfiable constant."""
    best = {}
    for terms, rhs in rows:
        if not terms:
            if rhs < 0:
                return None
            continue
        scale = abs(terms[0][1])
        key = tuple((m, c / scale) for m, c in terms)
        r = rhs / scale
        old = best.get(key)
        if old is None or r < old:
            best[key] = r
    return list(best.items())


def _add_terms_reference(p, q):
    acc = dict(p)
    for m, c in q:
        acc[m] = acc[m] + c if m in acc else c
    return tuple(sorted((m, c) for m, c in acc.items() if c != 0))


def fm_feasible_reference(system):
    """`lipsel.oracle.fm_feasible` on sparse `Fraction` rows: eliminate
    variables lowest index first; on success, back-substitute an exact
    witness (midpoints of the final bounds, 0 for free variables) and check
    it against the original dense rows."""
    nvars = system.num_vars
    if nvars > FM_VAR_CAP:
        raise ValueError(f"Fourier-Motzkin oracle is capped at {FM_VAR_CAP} variables")
    rows = _prune_reference(
        (tuple((m, c) for m, c in enumerate(coeffs) if c != 0), rhs)
        for coeffs, rhs in system.rows
    )
    if rows is None:
        return FmInfeasible()
    stages = []
    for k in range(nvars):
        # _prune_reference scaled each row's first coefficient to +-1, so a
        # positive and a negative row cancel x_k by a plain sum.
        pos, neg, rest = [], [], []
        for row in rows:
            var, c = row[0][0]
            if var != k:
                rest.append(row)
            elif c > 0:
                pos.append(row)
            else:
                neg.append(row)
        stages.append((k, pos + neg))
        combined = rest
        for pterms, prhs in pos:
            for nterms, nrhs in neg:
                combined.append((_add_terms_reference(pterms[1:], nterms[1:]), prhs + nrhs))
        rows = _prune_reference(combined)
        if rows is None:
            return FmInfeasible()

    witness = [Fraction(0)] * nvars
    for k, krows in reversed(stages):
        lo = hi = None
        for terms, rhs in krows:
            a = terms[0][1]
            rest_sum = sum((c * witness[m] for m, c in terms[1:]), Fraction(0))
            bound = (rhs - rest_sum) / a
            if a > 0:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        if lo is not None and hi is not None:
            if lo > hi:
                raise AssertionError("back-substitution hit an empty interval")
            witness[k] = (lo + hi) / 2
        elif lo is not None:
            witness[k] = max(Fraction(0), lo)
        elif hi is not None:
            witness[k] = min(Fraction(0), hi)

    for coeffs, rhs in system.rows:
        total = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
        if total > rhs:
            raise AssertionError("witness violates an original row")
    return FmFeasible(witness)


# ---------------------------------------------------------------------------
# bisection with one elimination per point


def estimate_reference(inst, lo, hi, iterations):
    """`lipsel.oracle.estimate_min_seminorm` by plain bisection: one
    elimination at `hi`, one at a positive `lo`, and one per midpoint."""
    lo_r, hi_r = Fraction(*_ratio(lo, "lo")), Fraction(*_ratio(hi, "hi"))
    if lo_r < 0:
        raise ValueError("lo must be >= 0")
    if not lo_r < hi_r:
        raise ValueError("need lo < hi")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if isinstance(fm_feasible(build_sharp_lp(inst, hi_r)), FmInfeasible):
        raise ValueError("hi must be feasible")
    if lo_r > 0 and isinstance(fm_feasible(build_sharp_lp(inst, lo_r)), FmFeasible):
        raise ValueError("lo must be 0 or infeasible")
    for _ in range(iterations):
        mid = (lo_r + hi_r) / 2
        if isinstance(fm_feasible(build_sharp_lp(inst, mid)), FmFeasible):
            hi_r = mid
        else:
            lo_r = mid
    return (lo_r, hi_r)
