"""Finite pseudometric spaces and shortest-path closures.

Distances are nonnegative extended reals; +inf marks unrelated points.  A
pseudometric allows distinct points at distance zero, which downstream code
treats as "must receive the same value".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import List, Optional, Union

INF = math.inf

# absolute slack for the triangle inequality; float matrices built from
# coordinate norms can miss the exact inequality by a few ulps
AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class PseudometricSpace:
    """n points with a symmetric, zero-diagonal, triangle-consistent matrix."""

    n: int
    d: List[List[float]]

    def rho(self, i: int, j: int) -> float:
        return self.d[i][j]


@dataclass(frozen=True)
class PreMetric:
    """Symmetric zero-diagonal weights; triangle inequality not required."""

    n: int
    w: List[List[float]]


@dataclass(frozen=True)
class MetricViolation:
    """First failed axiom: 'diagonal' (i), 'symmetry' (i,j) or 'triangle' (i,j,k)."""

    axiom: str
    i: int
    j: int
    k: int


def _check_matrix(d: List[List[float]]) -> Optional[MetricViolation]:
    """Raise on a matrix that is not square or holds NaN or a negative;
    else the first nonzero diagonal entry, else the first (i, j), j > i,
    with d[i][j] != d[j][i], else None.  The loops that name the first
    fault run only where a C-level pass finds one: a row passes when its
    `min` is >= 0 and its `sum` is not NaN (`min` may step over a NaN, a
    sum cannot), so no NaN reaches the comparison of each row right of the
    diagonal with its column below it, whose identity shortcut could hide
    one."""
    n = len(d)
    for row in d:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    for row in d:
        if min(row) >= 0.0 and (total := sum(row)) == total:
            continue
        for v in row:
            if isinstance(v, float) and math.isnan(v):
                raise ValueError("distance matrix entry is NaN")
            if v < 0:
                raise ValueError("distance matrix entry is negative")
    for i in range(n):
        if d[i][i] != 0:
            return MetricViolation("diagonal", i, i, i)
    if all(d[i][i + 1:] == list(map(itemgetter(i), d[i + 1:])) for i in range(n)):
        return None
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return MetricViolation("symmetry", i, j, j)
    return None


def validate_pseudometric(
    d: List[List[float]], tol: float = AXIOM_TOL
) -> Union[PseudometricSpace, MetricViolation]:
    """Check the three axioms; malformed input raises, a failed axiom reports.

    Returns the wrapped space on success, otherwise the first violation in
    scan order (diagonal, then symmetry, then triangle over (i,j,k)).
    """
    violation = _check_matrix(d)
    if violation is not None:
        return violation
    n = len(d)
    # d is symmetric by now, so (i, j) and (j, i) fail together and the first
    # failure lies above the diagonal; rounding is monotone, so d[i][j] beats
    # some d[i][k] + d[k][j] + tol exactly when it beats the smallest sum
    for i in range(n):
        di = d[i]
        for j in range(i + 1, n):
            dij = di[j]
            if dij > min(map(add, di, d[j])) + tol:
                k = next(k for k in range(n) if dij > di[k] + d[k][j] + tol)
                return MetricViolation("triangle", i, j, k)
    return PseudometricSpace(n, [[float(v) for v in row] for row in d])


def validate_premetric(w: List[List[float]]) -> Union[PreMetric, MetricViolation]:
    """Symmetry and zero diagonal only.  The PreMetric wraps `w` itself, not
    a copy."""
    return _check_matrix(w) or PreMetric(len(w), w)


def intrinsic_metric(w: PreMetric) -> PseudometricSpace:
    """Shortest-path closure of a pre-metric (Floyd-Warshall, inf-aware).

    The result is the largest pseudometric dominated by w entrywise; closing
    twice changes nothing.
    """
    n = w.n
    d = [row[:] for row in w.w]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return PseudometricSpace(n, d)
