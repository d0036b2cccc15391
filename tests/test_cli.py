"""End-to-end tests of the command-line interface.

Most tests call `main` in-process.  `test_console_script_runs` runs the
`[project.scripts]` entry point of `pyproject.toml` in a child process the way
an installed wrapper does, so it needs no installation; `test_module_runs`
runs `python -m lipsel` the same way.
`test_installed_console_script_runs` checks the installed `lipsel` script and
runs only where it is on PATH."""

import argparse
import gc
import json
import math
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lipsel
from generators import (
    instance_doc,
    mixed_instance,
    planted_instance,
    polygon_doc,
    premetric_doc,
    random_polygon_instance,
    random_premetric,
)
from lipsel.cli import load_instance, main
from lipsel.oracle import estimate_min_seminorm

SEP4 = {
    "n": 2,
    "metric": {"matrix": [[0, 1], [1, 0]]},
    "sets": {
        "halfplanes": [
            {"h": [1, 0], "alpha": 0},
            {"h": [-1, 0], "alpha": 4},
        ]
    },
}

TWO_SQUARES = {
    "n": 2,
    "metric": {"matrix": [[0, 1], [1, 0]]},
    "sets": {
        "polygons": [
            [
                {"h": [1, 0], "alpha": -1},
                {"h": [-1, 0], "alpha": -1},
                {"h": [0, 1], "alpha": -1},
                {"h": [0, -1], "alpha": -1},
            ],
            [
                {"h": [1, 0], "alpha": -7},
                {"h": [-1, 0], "alpha": 5},
                {"h": [0, 1], "alpha": -1},
                {"h": [0, -1], "alpha": -1},
            ],
        ]
    },
}

CHAIN_PRE = {
    "n": 3,
    "metric": {"pre_metric": [[0, 1, "inf"], [1, 0, 1], ["inf", 1, 0]]},
    "sets": {
        "halfplanes": [
            {"h": [1, 0], "alpha": 0},
            {"h": [1, 0], "alpha": -1},
            {"h": [-1, 0], "alpha": 2},
        ]
    },
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out == '{"valid": true, "n": 2, "metric": "matrix", "sets": "halfplanes"}\n'


def test_validate_pre_metric_and_polygons(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", write(tmp_path, CHAIN_PRE))
    assert code == 0
    assert json.loads(out)["metric"] == "pre_metric"
    code, out, _ = run(capsys, "validate", write(tmp_path, TWO_SQUARES, "p.json"))
    assert code == 0
    assert json.loads(out)["sets"] == "polygons"


def test_validate_reports_triangle_violation(tmp_path, capsys):
    doc = {
        "n": 3,
        "metric": {"matrix": [[0, 5, 1], [5, 0, 1], [1, 1, 0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * 3},
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, doc))
    assert code == 3
    got = json.loads(out)
    assert got == {"valid": False, "axiom": "triangle", "i": 0, "j": 1, "k": 2}


def test_validate_reports_symmetry_violation(tmp_path, capsys):
    doc = {
        "n": 2,
        "metric": {"matrix": [[0, 1], [2, 0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * 2},
    }
    code, out, _ = run(capsys, "validate", write(tmp_path, doc))
    assert code == 3
    assert json.loads(out)["axiom"] == "symmetry"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("n"),
        lambda d: d.__setitem__("n", 2.0),
        lambda d: d.__setitem__("n", True),
        lambda d: d.__setitem__("n", 0),
        lambda d: d.pop("metric"),
        lambda d: d["metric"].__setitem__("pre_metric", [[0, 1], [1, 0]]),
        lambda d: d["metric"].__setitem__("matrix", [[0, 1]]),
        lambda d: d["metric"]["matrix"][0].__setitem__(1, -1),
        lambda d: d["metric"]["matrix"][0].__setitem__(1, "nan"),
        lambda d: d.pop("sets"),
        lambda d: d["sets"].__setitem__("halfplanes", d["sets"]["halfplanes"][:1]),
        lambda d: d["sets"]["halfplanes"][0].__setitem__("h", [0, 0]),
        lambda d: d["sets"]["halfplanes"][0].__setitem__("alpha", "inf"),
        lambda d: d["sets"]["halfplanes"][0].__setitem__("extra", 1),
        lambda d: d["sets"]["halfplanes"][0].__setitem__("h", [1]),
    ],
)
def test_validate_rejects_malformed_documents(tmp_path, capsys, mangle):
    doc = json.loads(json.dumps(SEP4))
    mangle(doc)
    code, out, err = run(capsys, "validate", write(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_validate_rejects_broken_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "not valid JSON" in err


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_success_document(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, err = run(capsys, "solve", path, "--lambda", "4")
    assert code == 0
    got = json.loads(out)
    assert got["outcome"] == "success"
    assert got["f"] == [[0.0, 0.0], [4.0, 0.0]]
    assert got["seminorm"] == 4.0
    assert got["bound"] == 12.0
    assert "diagnostics" not in got
    assert err == ""


def test_solve_no_go_document(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "solve", path, "--lambda", "2")
    assert code == 1
    assert json.loads(out) == {"outcome": "no_go", "stage": 1, "witness": 0}


def test_solve_split_lambdas(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "solve", path, "--lambda1", "4", "--lambda2", "0")
    assert code == 1
    assert json.loads(out) == {"outcome": "no_go", "stage": 3, "witness": 0}
    code, out, _ = run(capsys, "solve", path, "--lambda1", "4", "--lambda2", "4")
    assert code == 0
    assert json.loads(out)["bound"] == 12.0


def test_solve_trace_diagnostics(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, err = run(capsys, "solve", path, "--lambda", "4", "--trace")
    assert code == 0
    got = json.loads(out)
    diag = got["diagnostics"]
    assert diag["g"] == [[0.0, 0.0], [4.0, 0.0]]
    assert diag["hulls"][0]["y"] == ["-inf", "inf"]
    assert diag["refined"][1]["x"] == [4.0, 4.0]
    assert "stages 1-5 complete" in err


def test_solve_output_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    _, first, _ = run(capsys, "solve", path, "--lambda", "4", "--trace")
    _, second, _ = run(capsys, "solve", path, "--lambda", "4", "--trace")
    assert first == second


def test_solve_seed_is_ignored(tmp_path, capsys, monkeypatch):
    """`--seed` reaches nothing: on a planted n = 5 draw, whose hulls come
    from the exact envelope, --seed 0 and --seed 977 print the same bytes,
    plain and with --trace."""
    envelope, calls = lipsel.selection._envelope, []

    def spy(rows):
        calls.append(len(rows))
        return envelope(rows)

    monkeypatch.setattr(lipsel.selection, "_envelope", spy)
    path = write(tmp_path, instance_doc(planted_instance(random.Random(1), 5)))
    for trace in ([], ["--trace"]):
        first = run(capsys, "solve", path, "--lambda", "1", "--seed", "0", *trace)
        second = run(capsys, "solve", path, "--lambda", "1", "--seed", "977", *trace)
        assert first[0] == 0 and first[1] == second[1], (first, second)
    assert calls, "no hull reached the exact envelope"


def test_solve_flag_validation(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    for argv in (
        ["solve", path],
        ["solve", path, "--lambda", "0"],
        ["solve", path, "--lambda", "-1"],
        ["solve", path, "--lambda", "4", "--lambda1", "4"],
        ["solve", path, "--lambda1", "4"],
        ["solve", path, "--lambda1", "4", "--lambda2", "-1"],
        ["solve", path, "--lambda", "abc"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ")


def test_solve_zero_split_lambdas_run(tmp_path, capsys):
    doc = {
        "n": 1,
        "metric": {"matrix": [[0]]},
        "sets": {"halfplanes": [{"h": [1, 1], "alpha": 2}]},
    }
    code, out, _ = run(capsys, "solve", write(tmp_path, doc), "--lambda1", "0", "--lambda2", "0")
    assert code == 0
    assert json.loads(out)["f"] == [[-1.0, -1.0]]


def test_solve_polygon(tmp_path, capsys):
    path = write(tmp_path, TWO_SQUARES)
    code, out, _ = run(capsys, "solve", path, "--lambda", "4")
    assert code == 0
    got = json.loads(out)
    assert got["f"] == [[1.0, 0.0], [5.0, 0.0]]
    assert got["bound"] == 12.0
    code, out, _ = run(capsys, "solve", path, "--lambda", "1")
    assert code == 1
    assert json.loads(out)["outcome"] == "no_go"
    code, _, err = run(capsys, "solve", path, "--lambda1", "1", "--lambda2", "1")
    assert code == 2 and "single --lambda" in err


def test_solve_rejects_diagonal_violation_with_exit_3(tmp_path, capsys):
    doc = {
        "n": 2,
        "metric": {"matrix": [[0, 1], [1, 1]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * 2},
    }
    code, _, err = run(capsys, "solve", write(tmp_path, doc), "--lambda", "1")
    assert code == 3 and "diagonal" in err


def test_solve_pre_metric_matches_pre_closed_matrix(tmp_path, capsys):
    pre_path = write(tmp_path, CHAIN_PRE, "pre.json")
    closed = json.loads(json.dumps(CHAIN_PRE))
    closed["metric"] = {"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    closed_path = write(tmp_path, closed, "closed.json")
    _, a, _ = run(capsys, "solve", pre_path, "--lambda", "2", "--trace")
    _, b, _ = run(capsys, "solve", closed_path, "--lambda", "2", "--trace")
    assert a == b
    assert json.loads(a)["outcome"] == "success"


def test_solve_accepts_rational_strings(tmp_path, capsys):
    doc = json.loads(json.dumps(SEP4))
    doc["metric"]["matrix"] = [[0, "1/2"], ["0.5", 0]]
    code, out, _ = run(capsys, "solve", write(tmp_path, doc), "--lambda", "8")
    assert code == 0
    assert json.loads(out)["f"] == [[0.0, 0.0], [4.0, 0.0]]


FOUR_POINTS = {
    "n": 4,
    "metric": {
        "matrix": [
            [0, 1.5, 2, 0.25],
            [1.5, 0, 0.5, 1.25],
            [2, 0.5, 0, 1.75],
            [0.25, 1.25, 1.75, 0],
        ]
    },
    "sets": {
        "halfplanes": [
            {"h": [1, 0], "alpha": 0},
            {"h": [-1, 2], "alpha": 1.5},
            {"h": [0, -1], "alpha": -2},
            {"h": [3, 1], "alpha": 0.75},
        ]
    },
}


def test_plain_number_rows_parse_like_their_string_forms(tmp_path, capsys):
    as_strings = json.loads(json.dumps(FOUR_POINTS))
    as_strings["metric"]["matrix"] = [[str(v) for v in row] for row in FOUR_POINTS["metric"]["matrix"]]
    for argv in (["--lambda", "1"], ["--lambda", "1/4"], ["--lambda", "2", "--trace"]):
        outs = []
        for doc, name in ((FOUR_POINTS, "numbers.json"), (as_strings, "strings.json")):
            code, out, _ = run(capsys, "solve", write(tmp_path, doc, name), *argv)
            outs.append((code, out))
        assert outs[0] == outs[1], argv
        assert outs[0][1]


def test_rows_mixing_numbers_and_strings_parse_exactly(tmp_path):
    doc = json.loads(json.dumps(CHAIN_PRE))
    doc["metric"] = {"matrix": [[0, "1/3", "inf"], ["1/3", 0.0, 1], ["inf", 1, 0]]}
    inst = load_instance(write(tmp_path, doc), want_exact=False, full_triangle=False)
    assert inst.inst.space.d == [[0.0, 1 / 3, math.inf], [1 / 3, 0.0, 1.0], [math.inf, 1.0, 0.0]]
    assert all(type(v) is float for row in inst.inst.space.d for v in row)
    exact = load_instance(write(tmp_path, doc), want_exact=True, full_triangle=False)
    assert exact.inst.space.d[0][1] == Fraction(1, 3)


def test_exact_loads_equal_the_rationals_of_every_entry(tmp_path, monkeypatch):
    # JSON numbers stay as read, strings become Fractions: the JSON float 0.1
    # is the dyadic Fraction(0.1), the string "0.1" is 1/10
    doc = {
        "n": 5,
        "metric": {"matrix": [
            [0, 0.5, 0.1, "inf", 1],
            [0.5, 0, "1/3", 2, 0.25],
            [0.1, "1/3", 0.0, "0.1", 3],
            ["inf", 2, "0.1", 0, 1.5],
            [1, 0.25, 3, 1.5, 0],  # a row of plain numbers only
        ]},
        "sets": {"halfplanes": [{"h": [0.1, 3], "alpha": "1/3"}, {"h": [1, 0], "alpha": -0.75}]
                 + [{"h": ["0.1", 2.5], "alpha": 0}] * 3},
    }
    F = Fraction
    want_d = [
        [F(0), F(1, 2), F(0.1), math.inf, F(1)],
        [F(1, 2), F(0), F(1, 3), F(2), F(1, 4)],
        [F(0.1), F(1, 3), F(0), F(1, 10), F(3)],
        [math.inf, F(2), F(1, 10), F(0), F(3, 2)],
        [F(1), F(1, 4), F(3), F(3, 2), F(0)],
    ]
    want_planes = [(F(0.1), F(3), F(1, 3)), (F(1), F(0), F(-3, 4))] + [(F(1, 10), F(5, 2), F(0))] * 3
    path = write(tmp_path, doc)
    for plain in (lipsel.cli._PLAIN_NUMBER_TYPES, set()):  # with and without the fast paths
        monkeypatch.setattr(lipsel.cli, "_PLAIN_NUMBER_TYPES", plain)
        got = load_instance(path, want_exact=True, full_triangle=False).inst
        assert got.space.d == want_d
        assert got.space.d[0][2] != F(1, 10)
        assert [(hp.h.x1, hp.h.x2, hp.alpha) for hp, in got.polygons] == want_planes
        assert got.polygons[0][0].h.x1 != F(1, 10)
        assert type(got.space.d[1][2]) is type(got.space.d[2][3]) is type(got.polygons[0][0].alpha) is F


def test_exact_pre_metric_closes_over_fractions(tmp_path):
    doc = {
        "n": 3,
        "metric": {"pre_metric": [[0, 0.1, 1], [0.1, 0, 0.2], [1, 0.2, 0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * 3},
    }
    d = load_instance(write(tmp_path, doc), want_exact=True).inst.space.d
    assert d[0][2] == d[2][0] == Fraction(0.1) + Fraction(0.2)
    assert d[0][2] != Fraction(0.1 + 0.2)
    assert type(d[0][2]) is Fraction


@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "metric.matrix[0][1]: expected a number, got a boolean"),
        (math.nan, "metric.matrix[0][1]: NaN is not allowed"),
        ("nan", "metric.matrix[0][1]: cannot parse number 'nan'"),
    ],
)
def test_matrix_entries_that_are_not_numbers_exit_2(tmp_path, capsys, bad, message):
    doc = json.loads(json.dumps(SEP4))
    doc["metric"]["matrix"] = [[0, bad], [bad, 0]]
    path = write(tmp_path, doc)  # json writes math.nan as the literal NaN
    for command in (["solve", path, "--lambda", "4"], ["validate", path]):
        code, out, err = run(capsys, *command)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _load_outcome(path, full_triangle, want_exact):
    """What `load_instance` gives for a file: its error, or its violation,
    distances and sides, numbers by repr so that -0.0 and 0.0, 3 and 3.0
    differ."""
    try:
        got = load_instance(path, want_exact=want_exact, full_triangle=full_triangle)
    except lipsel.cli.CliError as exc:
        return ("error", exc.code, str(exc))
    if got.violation is not None:
        return ("violation", got.violation)
    if not want_exact:
        assert all(type(v) is float for row in got.inst.space.d for v in row)
        assert all(type(v) is float for poly in got.inst.polygons for hp in poly for v in (*hp.h, hp.alpha))
    return repr(got.inst.space.d), repr(got.inst.polygons)


def test_plain_number_fast_paths_equal_the_per_entry_parse(tmp_path, monkeypatch):
    """Matrix rows and sides of plain JSON numbers skip the per-entry
    parse; on random half-plane and polygon documents, loaded with float
    and with exact numbers, that gives the instance and the error text of
    the per-entry parse, which every entry takes when the set of plain
    number types is empty.  Entries include bools, ints beyond float
    range, NaN in float-only and in mixed rows and before a later token that
    does not parse, negatives, infinities, string numbers and zero
    normals; some rows mix floats with symmetric "inf", "1/3" and "0.5"
    entries, of which a mixed row parses only the strings other than
    "inf", some hold a NaN before a bad token in the same row, and some put
    "inf" next to a NaN, a bad token, or another spelling of infinity."""
    pool = [0.0, -0.0, 1.5, 0.1, 3, 0, 2.0**60, 10**400, -1.0, -2, True, math.nan, math.inf, -math.inf,
            "1/3", "0.5", "inf", "nan", "abc"]
    rng = random.Random("plain-numbers")
    seen = {"error": 0, "violation": 0, "loaded": 0, "nan": 0, "nan_first": 0, "zero_normal": 0,
            "polygons": 0, "exact": 0, "mixed_loaded": 0, "nan_in_mixed_row": 0, "inf_next_to_fault": 0}
    for draw in range(2000):
        n = rng.randint(1, 4)
        bad = rng.random() < 0.6
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.choice([1.5, 2.0, 0.25, 7, 1])
                if rng.random() < 0.2:
                    d[i][j] = d[j][i] = rng.choice(["inf", "1/3", "0.5"])
        for _ in range(rng.randint(1, 3) if bad else 0):
            d[rng.randrange(n)][rng.randrange(n)] = rng.choice(pool)
        if bad and n >= 2 and rng.random() < 0.2:  # a NaN, then a bad token, in one row
            row, (j1, j2) = d[rng.randrange(n)], sorted(rng.sample(range(n), 2))
            row[j1], row[j2] = math.nan, rng.choice(["abc", "nan", True, 10**400])
        if bad and n >= 2 and rng.random() < 0.3:  # "inf" just before or after a NaN or another token
            row, j = d[rng.randrange(n)], rng.randrange(n - 1)
            pair = ["inf", rng.choice([math.nan, "abc", "nan", True, 10**400, " inf", "+inf", "-inf", "Inf"])]
            row[j], row[j + 1] = pair if rng.random() < 0.5 else pair[::-1]
            seen["inf_next_to_fault"] += 1
        polygons = rng.random() < 0.5
        sides = []
        for _ in range(n):
            poly = []
            for _ in range(rng.randint(1, 3) if polygons else 1):
                h = [rng.choice([1.0, -2.0, 0.5, 3, 0]), rng.choice([1.0, 0.0, -1, 2])]
                side = {"h": h, "alpha": rng.choice([0.0, -1.5, 4, -0.0, 0.1])}
                if bad and rng.random() < 0.2:
                    slot = rng.choice([0, 1, "alpha"])
                    (side if slot == "alpha" else h)[slot] = rng.choice(pool)
                poly.append(side)
            sides.append(poly)
        sets = {"polygons": sides} if polygons else {"halfplanes": [poly[0] for poly in sides]}
        kind = rng.choice(["matrix", "pre_metric"])
        path = str(tmp_path / f"doc{draw % 4}.json")
        with open(path, "w") as fh:
            json.dump({"n": n, "metric": {kind: d}, "sets": sets}, fh)
        full, exact = rng.random() < 0.5, rng.random() < 0.5
        fast = _load_outcome(path, full, exact)
        with monkeypatch.context() as m:
            m.setattr(lipsel.cli, "_PLAIN_NUMBER_TYPES", set())
            slow = _load_outcome(path, full, exact)
        assert fast == slow, (d, sets, kind, full, exact)
        seen[fast[0] if fast[0] in ("error", "violation") else "loaded"] += 1
        mixed = [any(type(v) is float for v in row) and any(type(v) is str for v in row) for row in d]
        if fast[0] not in ("error", "violation"):
            seen["polygons"] += polygons
            seen["exact"] += exact
            seen["mixed_loaded"] += any(mixed)
        seen["zero_normal"] += fast[0] == "error" and "normal must be nonzero" in fast[2]
        if fast[0] == "error" and fast[2].startswith("metric") and "NaN" in fast[2]:
            seen["nan"] += 1
            flat = [v for row in d for v in row]
            first = next(k for k, v in enumerate(flat) if isinstance(v, float) and math.isnan(v))
            seen["nan_first"] += any(isinstance(v, (str, bool)) or v == 10**400 for v in flat[first + 1:])
            seen["nan_in_mixed_row"] += mixed[first // n]
    assert min(seen.values()) >= 15, seen


@pytest.mark.parametrize("command", ["solve", "validate", "sharp"])
@pytest.mark.parametrize(
    "where, value, message",
    [
        ("matrix", 10**400, "metric.matrix[0][1]: number out of float range"),
        ("matrix", "1e400", "metric.matrix[0][1]: number out of float range"),
        ("normal", 10**400, "halfplanes[0].h[0]: number out of float range"),
    ],
    ids=["int-in-matrix", "string-in-matrix", "int-as-coordinate"],
)
def test_numbers_beyond_float_range_exit_2(tmp_path, capsys, command, where, value, message):
    doc = json.loads(json.dumps(SEP4))
    if where == "matrix":
        doc["metric"]["matrix"] = [[0, value], [value, 0]]
    else:
        doc["sets"]["halfplanes"][0]["h"][0] = value
    flags = [] if command == "validate" else ["--lambda", "4"]
    code, out, err = run(capsys, command, write(tmp_path, doc), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# sharp and estimate


def test_sharp_feasible_and_witness(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "sharp", path, "--lambda", "4")
    assert code == 0
    got = json.loads(out)
    assert got["verdict"] == "feasible"
    assert got["lambda"] == "4"
    w = {k: Fraction(v) for k, v in got["witness"].items()}
    assert w["u1"] == 0 and w["u2"] == 4
    assert abs(w["v1"] - w["v2"]) <= 4


def test_sharp_infeasible(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "sharp", path, "--lambda", "399/100")
    assert code == 1
    assert json.loads(out) == {"verdict": "infeasible", "lambda": "399/100"}


def test_sharp_polygon_system(tmp_path, capsys):
    path = write(tmp_path, TWO_SQUARES)
    code, out, _ = run(capsys, "sharp", path, "--lambda", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "feasible"
    code, _, _ = run(capsys, "sharp", path, "--lambda", "3")
    assert code == 1


def test_sharp_accepts_lambda_zero(tmp_path, capsys):
    doc = {
        "n": 1,
        "metric": {"matrix": [[0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}]},
    }
    code, out, _ = run(capsys, "sharp", write(tmp_path, doc), "--lambda", "0")
    assert code == 0


def test_sharp_point_cap(tmp_path, capsys):
    # the cap is checked as soon as n is read, before the metric: a matrix
    # that breaks the triangle inequality (exit 3 if it were checked) exits 2
    n = 9
    broken = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    broken[0][1] = broken[1][0] = 5
    for matrix in ([[0] * n for _ in range(n)], broken):
        doc = {"n": n, "metric": {"matrix": matrix}, "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * n}}
        path = write(tmp_path, doc)
        for command in (["sharp", path, "--lambda", "1"], ["estimate", path, "--hi", "8"]):
            code, out, err = run(capsys, *command)
            assert (code, out, err) == (2, "", "error: oracle commands are capped at 8 points\n")
    assert run(capsys, "validate", path)[0] == 3


def test_sharp_rejects_triangle_violation(tmp_path, capsys):
    doc = {
        "n": 3,
        "metric": {"matrix": [[0, 5, 1], [5, 0, 1], [1, 1, 0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}] * 3},
    }
    code, _, err = run(capsys, "sharp", write(tmp_path, doc), "--lambda", "1")
    assert code == 3 and "triangle" in err


def test_estimate_frozen_bracket(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, out, _ = run(capsys, "estimate", path, "--hi", "8", "--iters", "10")
    assert code == 0
    assert out == (
        '{"lo": "511/128", "hi": "4", "width": "1/128", '
        '"lo_float": 3.9921875, "hi_float": 4}\n'
    )


def test_estimate_infeasible_hi(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, _, err = run(capsys, "estimate", path, "--hi", "2")
    assert code == 4 and "infeasible" in err


def test_estimate_flag_validation(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    code, _, _ = run(capsys, "estimate", path, "--lo", "8", "--hi", "8")
    assert code == 2
    code, _, _ = run(capsys, "estimate", path, "--hi", "8", "--iters", "-1")
    assert code == 2


def test_estimate_rejects_a_negative_lo(tmp_path, capsys):
    # x <= 0 and x >= 1 at distance 1, and x <= 0 alone: a negative --lo
    # fails the same way on both, before any elimination
    apart = {
        "n": 2,
        "metric": {"matrix": [[0, 1], [1, 0]]},
        "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}, {"h": [-1, 0], "alpha": 1}]},
    }
    alone = {"n": 1, "metric": {"matrix": [[0]]}, "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}]}}
    for doc in (apart, alone):
        got = run(capsys, "estimate", write(tmp_path, doc), "--lo", "-1", "--hi", "64")
        assert got == (2, "", "error: --lo must be >= 0\n")


def test_estimate_rejects_a_feasible_lo(tmp_path, capsys):
    # x <= 0 alone has optimum 0, so --lo 1/3 is feasible and a bracket
    # from it would leave the optimum out; --lo 0 brackets it
    doc = {"n": 1, "metric": {"matrix": [[0]]}, "sets": {"halfplanes": [{"h": [1, 0], "alpha": 0}]}}
    alone = write(tmp_path, doc)
    got = run(capsys, "estimate", alone, "--lo", "1/3", "--hi", "5", "--iters", "6")
    assert got == (4, "", "error: --lo is feasible; lower it\n")
    code, out, _ = run(capsys, "estimate", alone, "--lo", "0", "--hi", "5", "--iters", "6")
    assert code == 0 and json.loads(out)["lo"] == "0"


def test_estimate_brackets_polygons(tmp_path, capsys):
    path = write(tmp_path, TWO_SQUARES)
    code, out, _ = run(capsys, "estimate", path, "--hi", "8", "--iters", "10")
    assert code == 0
    exact = load_instance(path, want_exact=True).inst
    lo, hi = estimate_min_seminorm(exact, Fraction(0), Fraction(8), 10)
    got = json.loads(out)
    assert (Fraction(got["lo"]), Fraction(got["hi"])) == (lo, hi)
    assert lo < 4 <= hi  # the squares are 4 apart at distance 1


# ---------------------------------------------------------------------------
# result round-trip


def test_validate_result_round_trip(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    _, out, _ = run(capsys, "solve", path, "--lambda", "4")
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, _ = run(capsys, "validate", path, "--result", str(result))
    assert code == 0
    got = json.loads(out)
    assert got["verified"] is True and got["seminorm"] == 4.0


def test_validate_result_catches_tampering(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    _, out, _ = run(capsys, "solve", path, "--lambda", "4")
    doc = json.loads(out)
    doc["f"][0][0] = 1.0  # leaves the first half-plane
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", path, "--result", str(result))
    assert code == 1
    got = json.loads(out)
    assert got["verified"] is False and got["reason"] == "membership"


def test_validate_result_names_the_pair_that_breaks_the_bound(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    _, out, _ = run(capsys, "solve", path, "--lambda", "4")
    doc = json.loads(out)
    doc["f"][0][0] = -100.0  # deep inside x <= 0, but 104 from point 1 at distance 1
    result = tmp_path / "result.json"
    result.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", path, "--result", str(result))
    assert code == 1
    assert json.loads(out) == {"verified": False, "reason": "seminorm", "index": None, "pair": [0, 1]}


def test_validate_result_polygon_membership(tmp_path, capsys):
    path = write(tmp_path, TWO_SQUARES)
    _, out, _ = run(capsys, "solve", path, "--lambda", "4")
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, _ = run(capsys, "validate", path, "--result", str(result))
    assert code == 0 and json.loads(out)["verified"] is True


def test_validate_result_rejects_no_go_documents(tmp_path, capsys):
    path = write(tmp_path, SEP4)
    _, out, _ = run(capsys, "solve", path, "--lambda", "2")
    result = tmp_path / "result.json"
    result.write_text(out)
    code, _, err = run(capsys, "validate", path, "--result", str(result))
    assert code == 2 and "success" in err


# ---------------------------------------------------------------------------
# internal errors


def test_solve_on_non_metric_matrix_exits_3(tmp_path, capsys):
    # d(0, 2) = 6 > d(0, 1) + d(1, 2) = 0: `solve` checks only symmetry and
    # the diagonal, the selection fails the solver's own verification, and
    # the triangle check that follows reports the input's fault as `validate`
    # does
    doc = {
        "n": 3,
        "metric": {"matrix": [[0, 0, 6], [0, 0, 0], [6, 0, 0]]},
        "sets": {
            "halfplanes": [
                {"h": [1, -3], "alpha": 5},
                {"h": [-1, 1], "alpha": -2.125},
                {"h": [-3, 0], "alpha": -0.125},
            ]
        },
    }
    path = write(tmp_path, doc)
    code, out, err = run(capsys, "solve", path, "--lambda", "1")
    assert (code, err) == (3, "")
    assert json.loads(out) == {"valid": False, "axiom": "triangle", "i": 0, "j": 2, "k": 1}
    assert run(capsys, "validate", path) == (code, out, err)


def test_any_internal_error_exits_5(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("planted fault")

    monkeypatch.setattr("lipsel.cli.run_projection_algorithm", broken)
    code, out, err = run(capsys, "solve", write(tmp_path, SEP4), "--lambda", "4")
    assert code == 5
    assert out == '{"outcome": "error", "reason": "ZeroDivisionError: planted fault"}\n'
    assert "ZeroDivisionError: planted fault" in err


# ---------------------------------------------------------------------------
# the paused garbage collector


@pytest.fixture
def collector():
    """Restores the cyclic garbage collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
def test_entry_points_pause_the_collector_and_leave_it_as_found(tmp_path, capsys, monkeypatch, collector, enabled):
    """`main`, `load_instance` and `run_projection_algorithm` run their
    loads and solves with the cyclic garbage collector off, and leave it on
    or off as the caller had it, on every way out: a Success, a NoGo, exit
    2 from a fault in the input, the flags or argparse's usage check, exit
    3, exit 5, and each function's own raise."""
    path = write(tmp_path, SEP4)
    asym = json.loads(json.dumps(SEP4))
    asym["metric"]["matrix"][0][1] = 2
    asym_path = write(tmp_path, asym, "asym.json")
    during = []
    for module, name in [(lipsel.cli, "validate_premetric"), (lipsel.selection, "_report")]:
        def spy(*args, real=getattr(module, name)):
            during.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(module, name, spy)
    (gc.enable if enabled else gc.disable)()
    for argv, code in [
        (["solve", path, "--lambda", "4"], 0),
        (["solve", path, "--lambda", "2"], 1),
        (["solve", path, "--lambda1", "4", "--lambda2", "0"], 1),
        (["solve", str(tmp_path / "missing.json"), "--lambda", "4"], 2),
        (["solve", path], 2),
        (["solve"], 2),
        (["solve", asym_path, "--lambda", "4"], 3),
        (["validate", asym_path], 3),
    ]:
        assert run(capsys, *argv)[0] == code, argv
        assert gc.isenabled() is enabled, argv

    def broken(*args):
        during.append(gc.isenabled())
        raise ZeroDivisionError("planted fault")

    monkeypatch.setattr(lipsel.selection, "_report", broken)
    assert run(capsys, "solve", path, "--lambda", "4")[0] == 5
    assert gc.isenabled() is enabled
    with pytest.raises(ZeroDivisionError):
        lipsel.selection.run_projection_algorithm(load_instance(path).inst, (4.0, 4.0))
    assert gc.isenabled() is enabled
    monkeypatch.undo()
    with pytest.raises(lipsel.cli.CliError):
        load_instance(str(tmp_path / "missing.json"))
    assert gc.isenabled() is enabled
    inst = load_instance(path).inst
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError):
        lipsel.selection.run_projection_algorithm(inst, (math.nan, 1.0))
    assert gc.isenabled() is enabled
    assert isinstance(lipsel.selection.run_projection_algorithm(inst, (2.0, 2.0)), lipsel.selection.NoGo)
    assert isinstance(lipsel.selection.run_projection_algorithm(inst, (4.0, 4.0)), lipsel.selection.Success)
    assert gc.isenabled() is enabled
    assert len(during) >= 8 and not any(during), during


def test_loads_and_solves_leave_no_cyclic_garbage(tmp_path, capsys, monkeypatch, collector):
    """The premise of the pause: a load and a solve make no reference
    cycles, so the collector, run before and after them, finds nothing to
    free.  Serial and split solves of a planted instance (a Success, a NoGo
    at stage 1 and one at stage 3), a polygon solve, a `pre_metric` load
    and solve, and `sharp`'s exact load; then whole `solve`, `sharp` and
    `estimate` commands, once `main` has built its parser (which makes
    cycles)."""
    rng = random.Random("no-cycles")
    planted = write(tmp_path, instance_doc(planted_instance(rng, 200)), "planted.json")
    polygons = write(tmp_path, polygon_doc(random_polygon_instance(rng, 100, 4, planted=True)), "polygons.json")
    small = instance_doc(mixed_instance(rng, 5))
    pre = write(tmp_path, premetric_doc(small["sets"], random_premetric(rng, 5)), "pre.json")
    exact = write(tmp_path, small, "small.json")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    solve = lipsel.selection.run_projection_algorithm
    gc.disable()
    outcomes = []
    for split_min in (math.inf, lipsel.selection.SPLIT_MIN):
        monkeypatch.setattr(lipsel.selection, "SPLIT_MIN", split_min)
        for path, lambdas in [
            (planted, (2.0, 2.0)),
            (planted, (0.125, 0.125)),
            (planted, (2.0, 0.001)),
            (polygons, (1.0, 1.0)),
            (pre, (2.0, 2.0)),
            (exact, None),
        ]:
            gc.collect()
            if lambdas is None:
                got = load_instance(path, want_exact=True, point_cap=lipsel.cli.SHARP_POINT_CAP)
                outcomes.append(type(got.inst).__name__)
            else:
                got = solve(load_instance(path).inst, lambdas)
                outcomes.append(getattr(got, "stage", type(got).__name__))
            del got
            assert gc.collect() == 0, (path, lambdas)
    assert outcomes[:6] == outcomes[6:] and outcomes[:4] == ["Success", 1, 3, "Success"], outcomes
    assert forks or len(os.sched_getaffinity(0)) < 2
    run(capsys, "validate", exact)
    for argv in [
        ["solve", planted, "--lambda", "2"],
        ["sharp", exact, "--lambda", "1"],
        ["estimate", exact, "--hi", "64"],
    ]:
        gc.collect()
        assert run(capsys, *argv)[0] in (0, 1, 4), argv
        assert gc.collect() == 0, argv


# ---------------------------------------------------------------------------
# console script


def _check_exit_codes(argv, tmp_path, env=None):
    path = write(tmp_path, SEP4)
    got = subprocess.run(
        [*argv, "solve", path, "--lambda", "4"],
        capture_output=True, text=True, env=env,
    )
    assert got.returncode == 0
    assert json.loads(got.stdout)["outcome"] == "success"
    # missing required flag: argparse exits with the flag-error code
    got = subprocess.run([*argv, "sharp", path], capture_output=True, text=True, env=env)
    assert got.returncode == 2


def _checkout_env():
    """The environment with the imported `lipsel` package's parent directory
    first on PYTHONPATH, so a child process imports the same copy."""
    src = str(Path(lipsel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["lipsel"]
    module, attr = entry.split(":")
    # what the wrapper that setuptools installs for the entry point runs
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _check_exit_codes([sys.executable, "-c", code], tmp_path, env=_checkout_env())


def test_module_runs(tmp_path):
    _check_exit_codes([sys.executable, "-m", "lipsel"], tmp_path, env=_checkout_env())


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    """A reader that closes the pipe after 60 bytes of a document larger
    than the pipe's 64 KiB buffer is neither an answer nor a fault."""
    inst = planted_instance(random.Random("closed-stdout"), 400)
    path = write(tmp_path, instance_doc(inst))
    child = subprocess.Popen(
        [sys.executable, "-m", "lipsel", "solve", path, "--lambda", "2", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_checkout_env(),
    )
    assert len(child.stdout.read(60)) == 60
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 141, err
    assert "Traceback" not in err and "Error" not in err, err


@pytest.mark.skipif(
    shutil.which("lipsel") is None, reason="console script 'lipsel' is not on PATH"
)
def test_installed_console_script_runs(tmp_path):
    _check_exit_codes([shutil.which("lipsel")], tmp_path)


# ---------------------------------------------------------------------------
# repeated calls in one process


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, SEP4)
    assert run(capsys, "validate", path)[0] == 0  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, want in (
        (["solve", path, "--lambda", "4"], 0),
        (["solve", path, "--lambda", "2"], 1),
        (["sharp", path, "--lambda", "4"], 0),
        (["validate", path], 0),
        (["estimate", path, "--hi", "8"], 0),
    ):
        assert run(capsys, *argv)[0] == want, argv
    assert built == []


def test_calls_in_one_process_share_no_state(tmp_path, capsys):
    """Each call of a sequence in one process prints what the same call
    prints alone in a fresh `python -m lipsel` process."""
    path = write(tmp_path, SEP4)
    result = str(tmp_path / "result.json")
    sequence = [
        ["solve", path, "--lambda", "4", "--trace"],
        ["solve", path, "--lambda", "4"],
        ["solve", path, "--lambda1", "1", "--lambda2", "1/4"],
        ["sharp", path],
        ["sharp", path, "--lambda", "1"],
        ["estimate", path, "--hi", "64"],
        ["validate", path, "--result", result],
    ]
    in_process = []
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        in_process.append((code, out.encode()))
        if argv == sequence[1]:
            assert code == 0 and "diagnostics" not in json.loads(out)
            Path(result).write_text(out)
    assert [code for code, _ in in_process] == [0, 0, 1, 2, 1, 0, 0]
    for argv, got in zip(sequence, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "lipsel", *argv], capture_output=True, env=_checkout_env()
        )
        assert got == (alone.returncode, alone.stdout), argv
