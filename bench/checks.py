"""Checks of the program's answers, computed apart from the program.

Nothing here imports `lipsel`: membership, the seminorm, the planted bound
and the exact rows of the sharp system are all recomputed from the
benchmark's own instance data.  Each check returns None when the answer
holds, else a one-line description of the problem.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from gen import Instance, Pt

INF = math.inf

# Slack for membership and for "equal values at distance zero", relative to
# the instance's own length scale, so it scales with the data by 2**k.
REL_TOL = 1e-9
# Slack on the seminorm bound l1 + 2*l2, relative to the bound.
BOUND_REL_TOL = 1e-7


def length_scale(inst: Instance, f: Sequence[Pt] = ()) -> float:
    """Largest finite distance, offset over its normal's 1-norm, or
    coordinate of f."""
    s = max((v for row in inst.d for v in row if v != INF), default=0.0)
    for sides in inst.sets:
        for a, b, al in sides:
            s = max(s, abs(al) / (abs(a) + abs(b)))
    for x, y in f:
        s = max(s, abs(x), abs(y))
    return s


def seminorm(inst: Instance, f: Sequence[Pt], zero_slack: float = 0.0) -> float:
    """Largest sup-norm displacement over distance across finite pairs; a
    displacement above zero_slack at distance 0 gives inf."""
    best = 0.0
    n = inst.n
    for i in range(n):
        xi, yi = f[i]
        row = inst.d[i]
        for j in range(i + 1, n):
            rho = row[j]
            if rho == INF:
                continue
            gap = max(abs(xi - f[j][0]), abs(yi - f[j][1]))
            if rho == 0.0:
                if gap > zero_slack:
                    return INF
            elif gap / rho > best:
                best = gap / rho
    return best


def check_selection(
    inst: Instance, f: Sequence[Pt], bound: float
) -> Tuple[Optional[str], float]:
    """(problem or None, seminorm): every value lies in every side of its
    set and the seminorm is at most `bound`."""
    if len(f) != inst.n:
        return f"selection has {len(f)} values for {inst.n} points", INF
    tol = REL_TOL * length_scale(inst, f)
    for i, (x, y) in enumerate(f):
        for a, b, al in inst.sets[i]:
            if a * x + b * y + al > tol * (abs(a) + abs(b)):
                return f"value {i} = ({x!r}, {y!r}) lies outside side {(a, b, al)}", INF
    sn = seminorm(inst, f, tol)
    if sn > bound * (1.0 + BOUND_REL_TOL):
        return f"seminorm {sn!r} exceeds the bound {bound!r}", sn
    return None, sn


def check_nogo(anchor_seminorm: Optional[float], lam: float) -> Optional[str]:
    """A NoGo at lam says no selection has seminorm <= lam, so planted
    anchors must have a larger seminorm."""
    if anchor_seminorm is not None and not anchor_seminorm > lam:
        return f"no-go at lambda {lam!r}, but the planted anchors have seminorm {anchor_seminorm!r}"
    return None


Row = Tuple[Dict[int, Fraction], Fraction]  # sum(c * x[m]) <= rhs


def sharp_rows(inst: Instance, lam: Fraction) -> List[Row]:
    """The seminorm-lam system: x[2i], x[2i+1] are the coordinates of
    point i; every side is a membership row and every finite pair bounds the
    coordinate gaps by lam times the distance."""
    rows: List[Row] = []
    for i, sides in enumerate(inst.sets):
        for a, b, al in sides:
            rows.append(({2 * i: Fraction(a), 2 * i + 1: Fraction(b)}, -Fraction(al)))
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            rho = inst.d[i][j]
            if rho == INF:
                continue
            cap = lam * Fraction(rho)
            for axis in (0, 1):
                p, q = 2 * i + axis, 2 * j + axis
                rows.append(({p: Fraction(1), q: Fraction(-1)}, cap))
                rows.append(({p: Fraction(-1), q: Fraction(1)}, cap))
    return rows


def check_witness(inst: Instance, lam: Fraction, witness) -> Optional[str]:
    """The witness of a feasible `sharp` verdict satisfies every row, in
    exact arithmetic."""
    if not isinstance(witness, dict):
        return "feasible verdict without a witness"
    x: List[Fraction] = []
    try:
        for i in range(inst.n):
            x.append(Fraction(witness[f"u{i + 1}"]))
            x.append(Fraction(witness[f"v{i + 1}"]))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable witness: {exc!r}"
    for k, (coeffs, rhs) in enumerate(sharp_rows(inst, lam)):
        if sum(c * x[m] for m, c in coeffs.items()) > rhs:
            return f"witness violates row {k} of the lambda={lam} system"
    return None
