"""Finite pseudometric spaces and shortest-path closures.

Distances are nonnegative extended reals; +inf marks unrelated points.  A
pseudometric allows distinct points at distance zero, which downstream code
treats as "must receive the same value".
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from operator import add
from typing import List, Optional, Union

INF = math.inf

# the one slack on a length, relative to the numbers compared: float
# matrices built from coordinate norms can miss the exact triangle
# inequality by a few ulps, and a relative slack does not depend on the unit
REL_TOL = 2.0**-40
TILE = 64  # the side of the blocks that `_check_matrix` compares


class gc_paused:
    """A `with` block that pauses the cyclic garbage collector, then restores its state (see `cli`)."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.enabled:
            gc.enable()


@dataclass(frozen=True)
class PseudometricSpace:
    """n points with a symmetric, zero-diagonal, triangle-consistent matrix."""

    n: int
    d: List[List[float]]


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
    with d[i][j] != d[j][i], else None.  One pass accepts a clean matrix: a
    zero diagonal, each row right of it with a `min` >= 0 and a sum that is
    not NaN (`min` may step over a NaN, a sum cannot, and a comparison's
    identity shortcut passes a NaN object held on both sides), and each row
    equal to the column below it, or above TILE points each TILE-block (I,
    J >= I) to the transpose of (J, I).  Only a failed pass looks further."""
    n = len(d)
    for row in d:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    for i, row in enumerate(d):
        upper = row[i + 1:]
        if not (
            row[i] == 0
            and (n > TILE or upper == [below[i] for below in d[i + 1:]])
            and (not upper or min(upper) >= 0.0 and (total := sum(upper)) == total)
        ):
            break
    else:
        if n <= TILE or all(
            list(zip(*[r[J:J + TILE] for r in d[I:I + TILE]])) == [tuple(r[I:I + TILE]) for r in d[J:J + TILE]]
            for I in range(0, n, TILE) for J in range(I, n, TILE)
        ):
            return None
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
    # the pass failed on an asymmetry here, or on rows that are not lists
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                return MetricViolation("symmetry", i, j, j)
    return None


def validate_pseudometric(d: List[List[float]]) -> Union[PseudometricSpace, MetricViolation]:
    """Check the three axioms; malformed input raises, a failed axiom reports.

    Returns the wrapped space on success, otherwise the first violation in
    scan order (diagonal, then symmetry, then triangle over (i,j,k)).
    """
    violation = _check_matrix(d)
    if violation is not None:
        return violation
    n = len(d)
    # d is symmetric by now, so (i, j) and (j, i) fail together and the first
    # failure lies above the diagonal; s + REL_TOL * s rounds monotonely in
    # the sum s = d[i][k] + d[k][j], so d[i][j] beats it for some k exactly
    # when it beats it for the smallest sum
    for i in range(n):
        di = d[i]
        for j in range(i + 1, n):
            dij = di[j]
            if dij > (least := min(map(add, di, d[j]))) + REL_TOL * least:
                k = next(k for k in range(n) if dij > (s := di[k] + d[k][j]) + REL_TOL * s)
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
