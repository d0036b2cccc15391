"""Self-test of the benchmark's checkers: each must accept a right answer and
reject a broken one, so a run that passes its checks has shown something.

    python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.  Needs no program: the right
answers are the planted anchors, which the generator knows.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from checks import check_nogo, check_selection, check_witness, seminorm
from gen import planted_halfplanes, planted_polygons


def _witness(anchors):
    return {f"{ax}{i + 1}": str(Fraction(p[k])) for i, p in enumerate(anchors) for k, ax in enumerate("uv")}


def cases():
    rng = random.Random(2024)
    hp = planted_halfplanes(rng, 12)
    poly = planted_polygons(rng, 8, 4)
    hp_sn = seminorm(hp, hp.anchors)
    poly_sn = seminorm(poly, poly.anchors)
    big = hp.scaled(40)

    # (name, problem reported or None, whether a problem is expected)
    yield "anchors are a valid selection", check_selection(hp, hp.anchors, hp_sn)[0], False
    yield "polygon centers are a valid selection", check_selection(poly, poly.anchors, poly_sn)[0], False
    yield "scaled anchors are a valid selection", check_selection(big, big.anchors, hp_sn)[0], False

    (a, b, al), = hp.sets[3]
    x, y = hp.anchors[3]
    t = (-(a * x + b * y + al) + 1e-3) / (a * a + b * b)  # just past the boundary
    moved = list(hp.anchors)
    moved[3] = (x + t * a, y + t * b)
    yield "value moved outside its half-plane", check_selection(hp, moved, 3 * hp_sn)[0], True

    a, b, al = poly.sets[5][2]
    x, y = poly.anchors[5]
    t = (-(a * x + b * y + al) + 1e-3) / (a * a + b * b)
    moved = list(poly.anchors)
    moved[5] = (x + t * a, y + t * b)
    yield "value moved outside one polygon side", check_selection(poly, moved, 3 * poly_sn)[0], True

    yield "seminorm over the bound", check_selection(hp, hp.anchors, hp_sn * (1 - 1e-6))[0], True

    yield "no-go below the anchors' seminorm", check_nogo(hp_sn, hp_sn / 2), False
    yield "no-go at the anchors' seminorm", check_nogo(hp_sn, hp_sn), True
    yield "no-go above the anchors' seminorm", check_nogo(hp_sn, 2 * hp_sn), True

    lam = Fraction(hp_sn)
    good = _witness(hp.anchors)
    yield "anchors are a sharp witness", check_witness(hp, lam, good), False
    yield "polygon centers are a sharp witness", check_witness(poly, Fraction(poly_sn), _witness(poly.anchors)), False
    bad = dict(good)
    bad["u4"] = str(Fraction(bad["u4"]) + 10 * lam * 16)  # far from every neighbour
    yield "perturbed sharp witness", check_witness(hp, lam, bad), True
    yield "witness checked at a smaller lambda", check_witness(hp, lam / 2, good), True
    yield "witness with a missing coordinate", check_witness(hp, lam, {k: v for k, v in good.items() if k != "v2"}), True


def main() -> int:
    bad = 0
    for name, problem, expected in cases():
        ok = (problem is not None) == expected
        bad += not ok
        verdict = "rejected" if problem is not None else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({problem})" if problem else ""))
    print(f"selftest: {bad} failing case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
