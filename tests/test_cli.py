import argparse
import dataclasses
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _closed_forms as cf
from conftest import poschl_teller, spy
from sobolev1d import Potential, build_green, make_example, minimizer, potential_from_spec
from sobolev1d.cli import (
    ORACLE_CELLS,
    ORACLE_TOL,
    VERIFY_CHECKS,
    _csv_rows,
    canonical_json,
    cmd_verify,
    main,
)
from sobolev1d.fcurve import (
    _default_samples,
    build_fcurve,
    check_minimality_equivalence,
    find_critical_points,
)
from sobolev1d.fundamental import PinReads, SolverError, solve_log_solution
from sobolev1d.minimizer import default_window
from sobolev1d.oracle import DiscreteRayleighProblem, discrete_minimize

EXAMPLE = '{"kind": "example", "A": 1, "B": 2}'
CONSTANT = '{"kind": "constant", "v": 1}'
DISHONEST = (
    '{"kind": "table", "x": [-2,-1,0,1,2], "v": [1,1,1,1,1],'
    ' "lower_bound": 4, "upper_bound": 5}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json(capsys):
    code, out, err = run(capsys, "solve", "--potential", EXAMPLE)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert abs(doc["m"] - cf.M_EXACT) < 1e-6
    assert abs(doc["a_star"] - cf.A1_EXACT) < 1e-6
    assert doc["attainment"] == "attained"
    assert len(doc["critical_points"]) == 1
    assert len(doc["rejected_candidates"]) == 1
    assert "m =" in err  # human summary goes to stderr


def test_solve_csv(capsys):
    code, out, _ = run(capsys, "solve", "--potential", CONSTANT, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert abs(float(table["m"]) - 2.0) < 1e-10


def test_solve_csv_writes_null_for_a_pin_that_is_not_attained(capsys):
    step = '{"kind": "step", "v0": 1, "v1": 4}'
    code, out, _ = run(capsys, "solve", "--potential", step, "--format", "csv")
    assert code == 0
    assert "a_star,null" in out.splitlines()


def test_solve_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", "--potential", EXAMPLE)
    _, out2, _ = run(capsys, "solve", "--potential", EXAMPLE)
    assert out1 == out2


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve", "--potential", EXAMPLE, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema_version"] == 1


def test_an_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "solve", "--potential", CONSTANT, "--out", str(target))
    assert (code, out) == (2, "")
    assert f"configuration error: cannot write --out {target}" in err


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--potential", EXAMPLE, "--grid=-2:2:9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,F,dF,d2F,phi_plus,phi_minus"
    assert len(lines) == 10
    mid = lines[5].split(",")  # a = 0 row
    assert float(mid[0]) == 0.0
    assert abs(float(mid[1]) - cf.F_AT_0) < 1e-9
    assert abs(float(mid[2]) - cf.DF_AT_0) < 1e-9
    assert float(mid[4]) == 1.0 and float(mid[5]) == 1.0


def test_scan_json(capsys):
    code, out, _ = run(
        capsys, "scan", "--potential", EXAMPLE, "--grid=0:1:2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["F"] == pytest.approx(cf.F_AT_0, abs=1e-9)


def test_scan_defaults_to_the_curve_grid(capsys):
    code, out, _ = run(capsys, "scan", "--potential", EXAMPLE)
    assert code == 0
    pot = make_example(1.0, 2.0)
    curve = build_fcurve(*solve_log_solution(pot, *default_window(pot)))
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == curve.grid.size
    assert [row[0] for row in rows] == [f"{a:.15e}" for a in curve.grid.tolist()]
    assert [row[1] for row in rows] == [f"{f:.15e}" for f in curve.value_at(curve.grid).tolist()]


def test_scan_grid_outside_window(capsys):
    code, _, err = run(capsys, "scan", "--potential", EXAMPLE, "--grid=-40:40:5")
    assert code == 2
    assert "window" in err


def test_green_lattice(capsys):
    code, out, _ = run(
        capsys, "green", "--potential", CONSTANT, "--x=-1:1:3", "--y=0:0:1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,G"
    rows = [line.split(",") for line in lines[1:]]
    assert abs(float(rows[0][2]) - math.exp(-1.0) / 2.0) < 1e-12
    assert abs(float(rows[1][2]) - 0.5) < 1e-12
    assert float(rows[0][2]) == float(rows[2][2])  # symmetry


@pytest.mark.parametrize(
    "spec",
    [EXAMPLE, '{"kind": "piecewise_constant", "edges": [-1, 1], "values": [1, 5, 1]}'],
    ids=["example", "well"],
)
def test_scan_and_green_match_scalar_reads(capsys, spec):
    """The tables equal rows built from one scalar read per pin and lattice point."""
    pot = potential_from_spec(json.loads(spec))
    plus, minus = solve_log_solution(pot, *default_window(pot))
    curve = build_fcurve(plus, minus)
    green = build_green(plus, minus)
    scan = [
        (float(a), curve.value_at(a), curve.slope_at(a), curve.curvature_at(a),
         plus.phi_at(a), minus.phi_at(a))
        for a in np.linspace(-3.0, 3.0, 41)
    ]
    lattice = np.linspace(-4.0, 4.0, 9)
    table = [(float(x), float(y), green.value(x, y)) for x in lattice for y in lattice]
    scan_keys = ("a", "F", "dF", "d2F", "phi_plus", "phi_minus")

    def doc(keys, rows):
        rows = [dict(zip(keys, row)) for row in rows]
        return canonical_json({"schema_version": 1, "potential": pot.label, "rows": rows}) + "\n"

    expected = {
        ("scan", "csv"): _csv_rows(",".join(scan_keys), scan),
        ("scan", "json"): doc(scan_keys, scan),
        ("green", "csv"): _csv_rows("x,y,G", table),
        ("green", "json"): doc(("x", "y", "G"), table),
    }
    for (command, fmt), text in expected.items():
        flags = ["--grid=-3:3:41"] if command == "scan" else ["--x=-4:4:9", "--y=-4:4:9"]
        code, out, _ = run(capsys, command, "--potential", spec, "--format", fmt, *flags)
        assert code == 0
        assert out == text


def test_green_requires_lattice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["green", "--potential", CONSTANT])
    assert exc.value.code == 2


def test_bad_spec_exits_2(capsys):
    assert run(capsys, "solve", "--potential", "{broken")[0] == 2
    assert run(capsys, "solve", "--potential", '{"kind": "nope"}')[0] == 2
    assert run(capsys, "solve", "--potential", "/no/such/file.json")[0] == 2
    code, _, err = run(capsys, "solve", "--potential", CONSTANT, "--window=-5,5")
    assert code == 2
    code, _, _ = run(capsys, "solve", "--potential", CONSTANT, "--tol", "0.1")
    assert code == 2


def test_dishonest_bounds_exit_3(capsys):
    code, _, err = run(capsys, "solve", "--potential", DISHONEST)
    assert code == 3
    assert "solver error" in err


def test_a_table_over_its_explicit_upper_bound_is_refused_by_solve_and_flagged_by_verify(capsys):
    """The table peaks at 2 over [0.5, 1.9]: solve names the first sample above 1.9."""
    spec = (
        '{"kind": "table", "x": [-2,-1,0,1,2], "v": [1,1,2,1,1],'
        ' "lower_bound": 0.5, "upper_bound": 1.9}'
    )
    code, out, err = run(capsys, "solve", "--potential", spec)
    assert (code, out) == (3, "")
    assert re.search(r"V\(-?[\d.e-]+\) = [\d.]+ exceeds its declared upper bound 1\.9", err), err
    code, out, _ = run(capsys, "verify", "--potential", spec)
    assert code == 4
    assert out.splitlines()[0].startswith("FAIL bounds-declared")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_potential_exits_3_from_solve_and_verify(capsys, monkeypatch, bad):
    """The side solve and verify's mesh oracle refuse the same potential alike."""
    from sobolev1d import Potential, cli

    holey = Potential(
        evaluate=lambda x: np.where(np.abs(np.asarray(x) - 3.0) < 0.5, bad, 1.0),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    monkeypatch.setattr(cli, "potential_from_spec", lambda spec: holey)
    for command in ("solve", "verify"):
        code, out, err = run(capsys, command, "--potential", CONSTANT)
        assert (code, out) == (3, "")
        assert "solver error" in err and "non-finite" in err


def test_window_must_be_finite_and_fit_the_mesh_cap(capsys):
    code, out, err = run(capsys, "solve", "--potential", CONSTANT, "--window=-inf,inf")
    assert (code, out) == (2, "")
    assert "finite" in err
    # 4e8 cells at h0 = 0.05: refused before the mesh is allocated.
    code, out, err = run(capsys, "solve", "--potential", CONSTANT, "--window=-1e7,1e7")
    assert (code, out) == (3, "")
    assert "initial mesh needs 400000000 cells" in err


HUGE_CONTRAST_PWC = (
    '{"kind": "piecewise_constant", "edges": [0, 1, 1e300], "values": [1e300, 1, 1, 0.001]}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--potential", HUGE_CONTRAST_PWC),
        ("scan", "--potential", HUGE_CONTRAST_PWC),
        ("green", "--potential", HUGE_CONTRAST_PWC, "--x=0:1:3", "--y=0:1:3"),
        ("solve", "--potential", CONSTANT, "--window=-1e308,1e308"),
        ("solve", "--potential", CONSTANT, "--window=-6e306,6e306"),
    ],
    ids=["solve-pwc", "scan-pwc", "green-pwc", "solve-wide-window", "solve-count-sum"],
)
def test_an_initial_cell_count_past_the_float_range_is_refused_by_the_cap(capsys, argv):
    """The count (b - a)/h0, or the sum of the segments' counts, overflows to inf,
    which the MAX_CELLS cap refuses, unwarned."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "solver error: the initial mesh needs inf cells" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--potential", CONSTANT)
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith(("PASS", "SKIP")) for line in lines)
    assert any(line.startswith("PASS oracle-agreement") for line in lines)


def test_verify_solves_each_side_once(capsys, monkeypatch):
    from sobolev1d import cli, fundamental, minimizer

    pairs = spy(monkeypatch, (minimizer, cli), "solve_log_solution", lambda *a, **k: a)
    refines = spy(monkeypatch, (fundamental,), "_refine", lambda *a: a)
    code, _, _ = run(capsys, "verify", "--potential", CONSTANT)
    assert code == 0
    assert len(pairs) == 1
    assert len(refines) == 1


@pytest.mark.parametrize(
    "command, extra",
    [
        ("solve", {"--format"}),
        ("scan", {"--format", "--grid"}),
        ("green", {"--format", "--x", "--y"}),
        ("verify", set()),
    ],
)
def test_each_command_takes_the_documented_options(command, extra):
    from sobolev1d.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert options - {"-h", "--help"} == {"--potential", "--window", "--tol", "--out"} | extra


def test_a_value_error_inside_a_command_is_not_a_configuration_error(capsys, monkeypatch):
    from sobolev1d import cli

    def broken(*args, **kwargs):
        raise ValueError("raised inside the library")

    monkeypatch.setattr(cli, "minimize", broken)
    with pytest.raises(ValueError, match="raised inside the library"):
        main(["solve", "--potential", CONSTANT])


@pytest.mark.parametrize(
    "argv",
    [("solve",), ("scan",), ("green", "--x=-1:1:3", "--y=0:0:1"), ("verify",)],
    ids=["solve", "scan", "green", "verify"],
)
def test_a_window_the_solve_refuses_exits_2_before_solving(capsys, monkeypatch, argv):
    from sobolev1d import cli, minimizer

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("solve_log_solution called")

    monkeypatch.setattr(minimizer, "solve_log_solution", counted)
    monkeypatch.setattr(cli, "solve_log_solution", counted)
    code, out, err = run(capsys, *argv, "--potential", CONSTANT, "--window=-5,5")
    assert (code, out) == (2, "")
    assert "configuration error" in err and "decay margin" in err
    assert calls == []


FAR_STEP = '{"kind": "step", "v0": 1, "v1": 4, "center": 100}'


def test_a_step_no_node_sees_exits_3_not_flat(capsys):
    """V > 1 everywhere, so m = 2 is not attained; on the default window [-25, 25] the
    solve sees V = 1 only, and the declared bounds [1, 4] do not make F flat.  verify
    refuses it too (VERIFY_TABLE["far_step"])."""
    code, out, err = run(capsys, "solve", "--potential", FAR_STEP)
    assert (code, out) == (3, "")
    assert "solver error" in err and "declared bounds [1, 4]" in err
    assert "widen the window, declare the pieces or tighten the bounds" in err
    code, out, _ = run(capsys, "solve", "--potential", FAR_STEP, "--window=-25,125")
    assert code == 0
    assert json.loads(out)["attainment"] == "empty"


@pytest.mark.parametrize("command", ["solve", "scan", "verify"])
def test_a_constant_prints_what_the_one_piece_step_prints(capsys, command):
    """Apart from its label, the constant's output is the one-piece step's, byte for byte."""
    code, constant, _ = run(capsys, command, "--potential", '{"kind": "constant", "v": 2}')
    step_spec = '{"kind": "piecewise_constant", "edges": [], "values": [2]}'
    step_code, step, _ = run(capsys, command, "--potential", step_spec)
    assert code == step_code == 0
    assert step.replace("piecewise constant (1 pieces)", "constant 2") == constant


def _table(**entries) -> str:
    return json.dumps({"kind": "table", "x": [0, 1, 2, 3], "v": [1, 1, 1, 1], **entries})


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        (("solve", "--window", "1,2,3"), CONSTANT, "--window must be 'x_min,x_max'"),
        (("solve", "--window", "a,b"), CONSTANT, "--window values must be numbers"),
        (("scan", "--grid=a:b:3"), CONSTANT, "--grid values must be numeric"),
        (("scan", "--grid=0:1:0"), CONSTANT, "--grid count must be >= 1"),
        (("solve",), "[]", "potential spec must be an object, got list"),
        (("solve",), '{"kind": "piecewise_constant", "edges": 3, "values": [1, 2]}',
         "potential spec entry 'edges' must be an array"),
        (("solve",), '{"kind": "piecewise_constant", "values": [1, 2]}',
         "potential spec of kind 'piecewise_constant' needs 'edges'"),
        (("solve",), '{"kind": "step", "v0": 4, "v1": 1}',
         "upper bound 1.0 below lower bound 4.0"),
        (("solve",), '{"kind": "step", "v0": 1, "v1": 4, "width": 0}',
         "transition width must be positive"),
        (("solve",), '{"kind": "example", "A": -1, "B": 2}', "need A > 0 and B > 0"),
        (("solve",), _table(x=[0, 1, 2], v=[1, 1, 1]),
         "table grid must be 1-D, strictly increasing, with >= 4 points"),
        (("solve",), _table(v=[1, 1, 1]), "table samples must match the grid in length"),
        (("solve",),
         json.dumps({"kind": "table", "x": [0, 1, 2, 3], "ell_prime": [-1, -1, -1, -1],
                     "ell_double_prime": [0, 0, 0]}),
         "ell_prime and ell_double_prime must match in length"),
        (("solve",), _table(lower_bound=0), "lower bound must be positive"),
        (("solve",), _table(lower_bound=3, upper_bound=2), "upper bound 2.0 below lower bound 3.0"),
        (("scan",), '{"kind": "step", "v0": 1, "v1": 4, "widht": 0.1}',
         "potential spec of kind 'step' has no entry 'widht'"),
        (("solve",),
         '{"kind": "piecewise_constant", "edges": [-1, 1], "values": [4, 1, 4],'
         ' "lower_bound": 2, "upper_bound": 3}',
         "potential spec of kind 'piecewise_constant' has no entry 'lower_bound'"),
        (("solve",), _table(ell_prime=[-1, -1, -1, -1]),
         "potential spec of kind 'table' takes 'v' or 'ell_prime' and 'ell_double_prime', "
         "not both"),
    ],
    ids=[
        "window-three-values", "window-not-numbers", "grid-not-numbers", "grid-count-0",
        "spec-not-object", "edges-not-array", "edges-missing", "step-v0-above-v1", "step-width-0",
        "example-negative-A", "table-3-points", "table-v-short", "table-ell-double-prime-short",
        "table-lower-bound-0", "table-bounds-crossed", "step-misspelt-entry",
        "piecewise-bounds", "table-v-and-ell-prime",
    ],
)
def test_malformed_options_and_specs_exit_2(capsys, tmp_path, argv, spec, message):
    """Each refusal exits 2 with its message; the spec is read from a file."""
    path = tmp_path / "spec.json"
    path.write_text(spec, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--potential", str(path))
    assert (code, out) == (2, "")
    assert f"configuration error: {message}" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"kind": "step", "v0": 1, "v1": 4, "center": NaN}', "center=nan"),
        ('{"kind": "step", "v0": 1, "v1": 4, "center": Infinity}', "center=inf"),
        ('{"kind": "piecewise_constant", "edges": [NaN], "values": [1, 2]}',
         "edges must be finite, got [nan]"),
        ('{"kind": "example", "A": Infinity, "B": 2}', "A=inf"),
    ],
    ids=["step-center-nan", "step-center-inf", "edges-nan", "example-A-inf"],
)
def test_non_finite_declarations_exit_2(capsys, recwarn, spec, message):
    """json reads NaN and Infinity; each is refused, naming itself, before V is evaluated."""
    code, out, err = run(capsys, "solve", "--potential", spec)
    assert (code, out) == (2, "")
    assert "configuration error:" in err and message in err
    assert "Warning" not in err and not recwarn.list


CUT_WELL = '{"kind": "piecewise_constant", "edges": [2, 4], "values": [100, 50, 100]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            ((command, *lattice, "--potential", CUT_WELL, "--window=-3.6,3.6"),
             "breakpoint 2 needs the window to contain [0.161522, 3.83848]")
            for command, lattice in (
                ("solve", ()), ("scan", ()), ("green", ("--x=0:1:2", "--y=0:1:2")), ("verify", ())
            )
        ),
        (("scan", "--potential", CONSTANT, "--grid=abc"), "--grid must be 'start:stop:count'"),
        (("scan", "--potential", CONSTANT, "--grid=-30:30:5"),
         "--grid must stay inside the curve window [-13, 13]"),
        (("green", "--potential", CONSTANT, "--x=abc", "--y=0:1:2"),
         "--x must be 'start:stop:count'"),
        (("green", "--potential", CONSTANT, "--x=-100:0:3", "--y=0:1:2"),
         "--x lattice leaves the window [-25, 25]"),
        (("scan", "--potential", CONSTANT, "--grid=nan:0:3"),
         "--grid must stay inside the curve window [-13, 13]"),
        (("green", "--potential", CONSTANT, "--x=0:0:1", "--y=nan:0:3"),
         "--y lattice leaves the window [-25, 25]"),
        # Refused before np.linspace would try to allocate the lattice.
        (("scan", "--potential", CONSTANT, "--grid=0:1:1000000000000"),
         "--grid count must be at most MAX_CELLS = 524288"),
        (("green", "--potential", CONSTANT, "--x=0:1:3", "--y=0:1:1000000000000"),
         "--y count must be at most MAX_CELLS = 524288"),
        (("green", "--potential", CONSTANT, "--x=0:1:1000", "--y=0:1:1000"),
         "--x and --y lattice has 1000000 points, more than MAX_CELLS = 524288"),
        # Lattices whose np.linspace steps are inf or NaN: the window checks refuse them.
        (("scan", "--potential", CONSTANT, "--grid=-inf:inf:3"),
         "--grid must stay inside the curve window [-13, 13]"),
        (("scan", "--potential", CONSTANT, "--grid=1e308:-1e308:5"),
         "--grid must stay inside the curve window [-13, 13]"),
        (("green", "--potential", CONSTANT, "--x=0:1:3", "--y=-1e308:1e308:2"),
         "--y lattice leaves the window [-25, 25]"),
    ],
    ids=[
        "solve-cut-window", "scan-cut-window", "green-cut-window", "verify-cut-window",
        "scan-grid-syntax", "scan-grid-range", "green-x-syntax", "green-x-range",
        "scan-grid-nan", "green-y-nan", "scan-grid-over-cap", "green-y-over-cap",
        "green-lattice-over-cap", "scan-grid-inf", "scan-grid-overflow", "green-y-overflow",
    ],
)
def test_bad_window_or_lattice_exits_2_before_solving(capsys, monkeypatch, argv, message):
    from sobolev1d import cli, minimizer

    def refused(*args, **kwargs):
        raise AssertionError("solve_log_solution called")

    monkeypatch.setattr(minimizer, "solve_log_solution", refused)
    monkeypatch.setattr(cli, "solve_log_solution", refused)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"configuration error: {message}" in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind": "piecewise_constant", "edges": [0], "values": [1, 1e400]}',
        '{"kind": "step", "v0": 1, "v1": 1e400}',
        '{"kind": "table", "x": [0, 1, 2, 3], "v": [1, 1, 1, 1], "upper_bound": 1e400}',
    ],
    ids=["piecewise", "step", "table"],
)
def test_infinite_bound_is_a_configuration_error(capsys, spec):
    code, out, err = run(capsys, "solve", "--potential", spec)
    assert (code, out) == (2, "")
    assert "configuration error: declared bounds must be finite" in err


def test_optional_spec_entries_take_their_default_or_exit_2(capsys):
    """A null optional entry is absent; any other non-number names itself, with exit 2."""
    step = '{"kind": "step", "v0": 1, "v1": 4'
    code, out, _ = run(capsys, "solve", "--potential", step + ', "width": null}')
    assert code == 0 and (code, out) == run(capsys, "solve", "--potential", step + "}")[:2]
    table = '{"kind": "table", "x": [0, 1, 2, 3], "v": [1, 2, 2, 1]'
    for spec, key in ((step + ', "center": [0]}', "center"),
                      (table + ', "lower_bound": [1]}', "lower_bound")):
        code, out, err = run(capsys, "solve", "--potential", spec)
        assert (code, out) == (2, "")
        assert f"configuration error: potential spec entry {key!r} is not a number" in err


@pytest.mark.parametrize(
    "spec, entry",
    [
        ({"kind": "constant", "v": True}, "'v'"),
        ({"kind": "constant", "v": "4"}, "'v'"),
        ({"kind": "piecewise_constant", "edges": [0], "values": [1, "4"]}, "'values'[1]"),
        ({"kind": "piecewise_constant", "edges": [True], "values": [1, 4]}, "'edges'[0]"),
        ({"kind": "step", "v0": 1, "v1": 4, "width": "2"}, "'width'"),
    ],
    ids=["bool", "string", "string-element", "bool-element", "optional-string"],
)
def test_booleans_and_numeric_strings_in_a_spec_exit_2(capsys, spec, entry):
    code, out, err = run(capsys, "solve", "--potential", json.dumps(spec))
    assert (code, out) == (2, "")
    assert f"configuration error: potential spec entry {entry} is not a number" in err


def test_cli_exports_only_main():
    from sobolev1d import cli

    assert cli.__all__ == ["main"]


@pytest.mark.parametrize("flags", [("--format", "csv"), ("--oracle-tol", "1")])
def test_verify_refuses_format_and_oracle_tol(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--potential", CONSTANT, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_oracle_tolerance_is_fixed(capsys):
    _, out, _ = run(capsys, "verify", "--potential", CONSTANT)
    oracle = out.splitlines()[-1]
    assert oracle.startswith("PASS oracle-agreement")
    assert oracle.endswith("(tolerance 0.01)")


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (("solve",), "json"),
        (("scan", "--grid=-2:2:9"), "csv"),
        (("green", "--x=-1:1:3", "--y=0:0:1"), "csv"),
    ],
    ids=["solve", "scan", "green"],
)
def test_format_default_per_command(capsys, argv, fmt):
    _, default, _ = run(capsys, *argv, "--potential", CONSTANT)
    _, explicit, _ = run(capsys, *argv, "--potential", CONSTANT, "--format", fmt)
    assert default == explicit
    assert default.startswith("{") == (fmt == "json")


def test_canonical_json_writes_an_empty_object_and_refuses_what_it_cannot_write():
    assert canonical_json({}) == "{}"
    with pytest.raises(TypeError, match="not a scalar: bytes"):
        _csv_rows("key,value", [("m", b"1")])
    with pytest.raises(TypeError, match="cannot serialize set"):
        canonical_json({"points": {1.0}})


def test_verify_flags_dishonest_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--potential", DISHONEST)
    assert code == 4
    assert out.splitlines()[0].startswith("FAIL bounds-declared")


def test_verify_flags_pieces_that_v_contradicts_between_midpoints(capsys, monkeypatch):
    """The solve reads V only at segment midpoints (0.5 in the well); a dip on [0.2, 0.4]
    inside the bounds passes the range test, but not the check of the declared pieces."""
    from sobolev1d import cli

    honest = cli.potential_from_spec(
        {"kind": "piecewise_constant", "edges": [-1, 1], "values": [4, 1, 4]}
    )

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.where((0.2 <= x) & (x <= 0.4), 2.0, honest.evaluate(x))

    lying = dataclasses.replace(honest, evaluate=evaluate)
    solve_log_solution(lying, *default_window(lying))
    monkeypatch.setattr(cli, "potential_from_spec", lambda spec: lying)
    code, out, _ = run(capsys, "verify", "--potential", CONSTANT)
    assert code == 4
    first = out.splitlines()[0]
    assert first.startswith("FAIL bounds-declared: sampled range [1, 4] vs declared [1, 4]; ")
    assert "samples differ from the declared pieces, first at x = 0.2" in first
    monkeypatch.setattr(cli, "potential_from_spec", lambda spec: honest)
    code, out, _ = run(capsys, "verify", "--potential", CONSTANT)
    assert code == 0
    assert out.splitlines()[0] == "PASS bounds-declared: sampled range [1, 4] vs declared [1, 4]"


def _dump_artifacts():
    path = Path(__file__).resolve().parents[1] / "tools" / "dump_artifacts.py"
    spec = importlib.util.spec_from_file_location("dump_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DUMP = _dump_artifacts()
# verify on every spec of tools/dump_artifacts.py: exit code, the status of each
# check (P, F, S) and the minimality-equivalence detail.  Only the two tables
# that leave their declared bounds fail, on those bounds; the far step (a solver
# error) and the overflowing table (a configuration error) are refused before any
# check, with the detail in the error message.
VERIFY_TABLE = {
    "example": (0, "PPPPPPP", "209 samples, 0 disagreements"),
    "step": (0, "PPPPPPP", "207 samples, 0 disagreements"),
    "well": (0, "PPPPPPP", "206 samples, 0 disagreements"),
    "double_well": (0, "PPPPPPP", "206 samples, 0 disagreements"),
    "high_contrast_well": (0, "PPPPPPP", "206 samples, 0 disagreements"),
    "jump_step": (0, "PPPPPPP", "206 samples, 0 disagreements"),
    "constant": (0, "PPPPPPP", "209 samples, 0 disagreements"),
    "jump_at_0": (0, "PPPPPPP", "206 samples, 0 disagreements"),
    "gaussian_table": (0, "PPPPPPP", "208 samples, 0 disagreements"),
    "dishonest": (4, "FSSSSSS", "skipped: declared bounds are wrong"),
    "over_bound_table": (4, "FSSSSSS", "skipped: declared bounds are wrong"),
    "overflow_table": (2, "", "the spline's slopes overflow"),
    "overflow_sample_table": (2, "", "the spline's slopes overflow"),
    "huge_contrast_pwc": (3, "", "oracle mesh spacing"),
    "log_derivative_table": (0, "PPPPPPP", "207 samples, 0 disagreements"),
    "high_contrast_step": (0, "PPPPPPP", "207 samples, 0 disagreements"),
    "far_well": (0, "PPPPPPP", "210 samples, 0 disagreements"),
    "shelf": (0, "PPPPPPP", "198 samples, 0 disagreements"),
    "far_step": (3, "", "declared bounds [1, 4] do not make F flat"),
    "ramp_table": (0, "PPPPPPP", "207 samples, 0 disagreements"),
    "small_example": (0, "PPPPPPP", "208 samples, 0 disagreements"),
    "tiny_example": (0, "PPPPPPP", "209 samples, 0 disagreements"),
}


@pytest.mark.parametrize("name", list(DUMP.SPECS))
def test_verify_prints_each_check_once_in_order(capsys, name):
    code, statuses, detail = VERIFY_TABLE[name]
    got, out, err = run(capsys, "verify", "--potential", json.dumps(DUMP.SPECS[name]))
    if not statuses:
        assert (got, out) == (code, "")
        assert {2: "configuration error", 3: "solver error"}[code] in err and detail in err
        return
    lines = out.splitlines()
    heads = [line.split(":", 1)[0].split(" ") for line in lines]
    assert [check for _, check in heads] == list(VERIFY_CHECKS)
    assert "".join(status[0] for status, _ in heads) == statuses
    assert lines[VERIFY_CHECKS.index("minimality-equivalence")].split(": ", 1)[1] == detail
    assert got == code


# Honest potentials whose solve is exact: a well past x = 30 and very small or
# very large V, which only an oracle on the solved window resolves, and contrast
# 1e3 and above, where u_a underflows inside the window and only a slope check
# in log space holds.  Tables are held constant outside their grid, so V' jumps
# at both grid ends: a hill, a dip, and the dump's log-derivative table with
# every x moved off the 0.25 lattice (its l' and l'' samples kept).
HONEST_SPECS = {
    "far-well": {"kind": "piecewise_constant", "edges": [39, 41], "values": [4, 1, 4]},
    "constant-1e-4": {"kind": "constant", "v": 1e-4},
    "constant-1e3": {"kind": "constant", "v": 1e3},
    "constant-4e4": {"kind": "constant", "v": 4e4},
    "step-0.01-1": {"kind": "step", "v0": 0.01, "v1": 1},
    "step-1-1e4": {"kind": "step", "v0": 1, "v1": 1e4},
    "step-1-1e3-narrow": {"kind": "step", "v0": 1, "v1": 1e3, "width": 0.1},
    "well-1e3": {"kind": "piecewise_constant", "edges": [-1, 1], "values": [1e3, 1, 1e3]},
    "well-1e4": {"kind": "piecewise_constant", "edges": [-1, 1], "values": [1e4, 1, 1e4]},
    "table-hill": {"kind": "table", "x": [-2, -1, 0, 1, 2], "v": [1, 2, 3, 2, 1]},
    "table-dip": {"kind": "table", "x": [-2, -1, 0, 1, 2], "v": [3, 2, 1, 2, 3]},
    "table-shifted-log-derivative": {
        **DUMP.SPECS["log_derivative_table"],
        "x": [x + 0.002739 for x in DUMP.SPECS["log_derivative_table"]["x"]],
    },
}


@pytest.mark.parametrize("name", list(HONEST_SPECS))
def test_verify_passes_on_far_wells_extreme_scales_and_high_contrast(capsys, name):
    code, out, _ = run(capsys, "verify", "--potential", json.dumps(HONEST_SPECS[name]))
    assert code == 0, out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"PASS {check}" for check in VERIFY_CHECKS
    ]


def test_verify_builds_its_oracle_on_the_window_it_solves(capsys, monkeypatch):
    """The mesh spans [-L, L], L = max(-x_min, x_max), in 12 000 cells, or at the
    default window's spacing (L = 25/sqrt(v0) = 17.34 here) on a wider window."""
    calls = spy(
        monkeypatch, (DiscreteRayleighProblem,), "from_potential",
        lambda pot, half_width, spacing: (half_width, spacing),
    )
    run(capsys, "verify", "--potential", EXAMPLE, "--window=-30,400")
    run(capsys, "verify", "--potential", EXAMPLE)
    [(wide, wide_spacing), (default, default_spacing)] = calls
    assert (wide, default) == (400.0, pytest.approx(25.0 / math.sqrt(cf.LOWER_BOUND), rel=1e-8))
    assert round(2.0 * wide / wide_spacing) == 276_759  # ceil(12 000 * 400 / 17.34)
    assert round(2.0 * default / default_spacing) == 12_000


def test_verify_oracle_agrees_on_a_window_far_wider_than_the_default(capsys):
    """At 12 000 cells on [-1000, 1000] the oracle's gap was 2.4e-2, over its tolerance."""
    code, out, _ = run(capsys, "verify", "--potential", EXAMPLE, "--window=-1000,1000")
    assert code == 0, out
    assert out.splitlines()[-1].startswith("PASS oracle-agreement")


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--potential", CONSTANT),
        ("scan", "--potential", CONSTANT, "--grid=-2:2:9"),
        ("green", "--potential", CONSTANT, "--x=-1:1:3", "--y=0:0:1"),
        ("verify", "--potential", CONSTANT),
        ("verify", "--potential", DISHONEST),
    ],
    ids=["solve", "scan", "green", "verify", "verify-failing"],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    code, expected, _ = run(capsys, *argv)
    target = tmp_path / "artifact"
    code_out, out, _ = run(capsys, *argv, "--out", str(target))
    assert out == ""
    assert code_out == code
    assert target.read_bytes() == expected.encode("utf-8")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sobolev1d.cli", "solve", "--potential", CONSTANT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["attainment"] == "flat"


def test_verify_table_without_bounds(capsys):
    xs = [0.25 * k for k in range(-40, 41)]
    spec = json.dumps(
        {"kind": "table", "x": xs, "v": [4.0 - 3.0 * math.exp(-0.5 * x * x) for x in xs]}
    )
    _, out, _ = run(capsys, "verify", "--potential", spec)
    lines = out.splitlines()
    assert lines[0].startswith("PASS bounds-declared")
    assert lines[1].startswith("PASS riccati-residual")


@pytest.mark.parametrize("seed", [1, 13, 29])
def test_verify_passes_on_steps_and_tables(capsys, seed):
    """Every check passes on the steps and tables the benchmark draws, flat tails included."""
    specs = DUMP.load_perfbench("specs")
    drawn = {
        json.dumps(op["spec"], sort_keys=True)
        for workload in specs.WORKLOADS
        for op in specs.op_list(workload, seed)
        if op["family"] in ("step", "table")
    }
    for spec in sorted(drawn):
        code, out, _ = run(capsys, "verify", "--potential", spec)
        assert code == 0, (spec[:30], out)
        assert out.count("PASS ") == len(VERIFY_CHECKS)


def _two_well() -> Potential:
    """4 - 3 exp(-(x - 3)^2) - 3 exp(-(x + 3)^2): continuous, two equal wells."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return 4.0 - 3.0 * np.exp(-((x - 3.0) ** 2)) - 3.0 * np.exp(-((x + 3.0) ** 2))

    return Potential(evaluate, 1.0, 4.0, tail_limits=(4.0, 4.0), label="two-well")


def _verify_lines(pot: Potential) -> dict[str, str]:
    """verify's status per check on a potential no spec kind describes."""
    code, text = cmd_verify(argparse.Namespace(potential=pot, window=None, tol=1e-10))
    statuses = {line.split(":")[0].split(" ")[1]: line.split(" ")[0] for line in text.splitlines()}
    assert (code == 4) == ("FAIL" in statuses.values())
    return statuses


def _curvature_without_cross_term(self):
    rp, rm = self.r_plus, self.r_minus
    return 2.0 * self.value * (rp * rp + rm * rm - self.v)


def _slope_sign_flipped(self):
    return self.value * (self.r_plus + self.r_minus)


@pytest.mark.parametrize(
    "make", [lambda: make_example(1.0, 2.0), lambda: poschl_teller(2.0, 1.0), _two_well],
    ids=["example", "poschl-teller", "two-well"],
)
@pytest.mark.parametrize(
    "name, broken",
    [("curvature", _curvature_without_cross_term), ("slope", _slope_sign_flipped)],
    ids=["curvature", "slope"],
)
def test_minimality_check_fails_when_the_analytic_derivatives_are_wrong(
    monkeypatch, make, name, broken
):
    """The minimality check, on verify's samples of an unpatched solve, sees either mutant.

    Under verify, a wrong F'' fails the check; a flipped F' swaps minima and
    maxima, and minimize refuses first: F at a node is below the m it reads.
    """
    pot = make()
    assert set(_verify_lines(pot).values()) == {"PASS"}
    report = minimizer.minimize(pot)
    roots = [p.location for p in report.critical_points + report.rejected_candidates]
    samples = np.append(_default_samples(report.curve), roots)
    monkeypatch.setattr(PinReads, name, property(broken))
    assert check_minimality_equivalence(report.curve, samples).n_disagree > 0
    if name == "curvature":
        assert _verify_lines(pot)["minimality-equivalence"] == "FAIL"
    else:
        with pytest.raises(SolverError, match="is below m = .*a minimum went unresolved"):
            _verify_lines(pot)


def test_verify_fails_when_roots_are_classified_the_wrong_way(monkeypatch):
    """Accepting the maximum and rejecting the minimum moves m past the mesh oracle's
    tolerance, and leaves F at a node below that m, which minimize refuses."""
    pot = make_example(1.0, 2.0)
    report = minimizer.minimize(pot)
    swapped = min([report.tail_infimum] + [p.value for p in report.rejected_candidates])
    lo, hi = default_window(pot)
    half = max(-lo, hi)
    m_disc, _ = discrete_minimize(
        DiscreteRayleighProblem.from_potential(pot, half, 2.0 * half / ORACLE_CELLS)
    )
    assert abs(m_disc - report.m_value) <= ORACLE_TOL < abs(m_disc - swapped)

    def flipped(curve):
        scan = find_critical_points(curve)
        return dataclasses.replace(scan, points=scan.rejected, rejected=scan.points)

    monkeypatch.setattr(minimizer, "find_critical_points", flipped)
    with pytest.raises(SolverError, match="is below m = .*a minimum went unresolved"):
        _verify_lines(pot)


def test_import_leaves_scipy_unloaded():
    verify = (
        "from sobolev1d.cli import main; "
        f"code = main(['verify', '--potential', {CONSTANT!r}]); "
    )
    xs = [0.5 * k for k in range(-12, 13)]
    table = json.dumps(
        {"kind": "table", "x": xs, "v": [4.0 - 3.0 * math.exp(-0.5 * x * x) for x in xs]}
    )
    solve = f"from sobolev1d.cli import main; code = main(['solve', '--potential', {table!r}]); "
    report = "print([m for m in sys.modules if m.startswith('scipy')]); "
    for script in (
        "import sys, sobolev1d; code = 0; ",
        f"import sys; {verify}",
        f"import sys; {solve}",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script + report + "sys.exit(code)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_leaves_numpy_ma_unloaded():
    """verify and the Rayleigh quotient load no numpy subpackage beyond bare numpy.

    The sorted unions of sample points do not pull in numpy.ma, as np.union1d
    does, and the Gauss-Legendre rule is held as constants, so
    numpy.polynomial stays unloaded too.
    """
    modules = ["numpy.ma", "numpy.polynomial"]
    bare = subprocess.run(
        [sys.executable, "-c", f"import sys, numpy; print([m in sys.modules for m in {modules!r}])"],
        capture_output=True,
        text=True,
        check=True,
    )
    if bare.stdout.strip() != "[False, False]":
        pytest.skip("this numpy loads numpy.ma or numpy.polynomial on import")
    specs = [CONSTANT, EXAMPLE, '{"kind": "piecewise_constant", "edges": [-1, 1], "values": [4, 1, 4]}']
    script = (
        "import sys; from sobolev1d.cli import main; "
        "from sobolev1d import make_example, minimize; "
        "from sobolev1d.minimizer import extremal, rayleigh_quotient; "
        f"codes = [main(['verify', '--potential', s]) "
        f"for s in {specs!r}]; "
        "pot = make_example(1.0, 2.0); "
        "rayleigh_quotient(extremal(minimize(pot)), pot); "
        f"print(codes, [m in sys.modules for m in {modules!r}])"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] [False, False]"


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind": "constant", "v": 1e-300}',
        '{"kind": "example", "A": 1e150, "B": 1e-149}',
        '{"kind": "constant", "v": 1e300}',
    ],
    ids=["constant-1e-300", "example-1e150", "constant-1e300"],
)
def test_verify_refuses_an_oracle_mesh_whose_h4_leaves_the_float_range(spec):
    """h^4 overflows or underflows at these scales: a solver error, not a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "sobolev1d.cli", "verify", "--potential", spec],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "solver error: oracle mesh spacing" in proc.stderr
    assert "Traceback" not in proc.stderr
    if '"constant"' in spec:
        # Refused before the solve, whose checks overflow at this scale.
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "v, flags",
    # On the window, 12 000 cells per default half-width overflow to inf cells:
    # capped at MAX_CELLS, whose spacing puts h^4 past the float range.
    [(1e300, ()), (1e-300, ()), (2, ("--window=-1e306,1e306",))],
    ids=["1e+300", "1e-300", "window-1e306"],
)
def test_verify_refuses_an_out_of_range_oracle_mesh_before_it_solves(
    capsys, monkeypatch, v, flags
):
    from sobolev1d import cli

    solves = spy(monkeypatch, (cli,), "minimize", lambda *a, **k: a)
    code, out, err = run(
        capsys, "verify", "--potential", json.dumps({"kind": "constant", "v": v}), *flags
    )
    assert (code, out) == (3, "")
    assert err.startswith("solver error: oracle mesh spacing")
    assert solves == []
