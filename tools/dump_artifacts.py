"""Write every CLI artifact, every demo output and a digest of every benchmark op to a directory.

Usage::

    PYTHONPATH=src python tools/dump_artifacts.py OUT_DIR

For each spec below, ``solve`` (json, csv), ``scan`` (csv, json on the pin
grid -3:3:41), ``green`` (csv, json on the lattice -4:4:9 x -4:4:9) and
``verify`` run in this process through ``sobolev1d.cli.main``. Each run
leaves one file ``<spec>.<command>.<format>`` holding the line
``exit <code>`` followed by everything the command wrote to stdout.
``dump_demos`` then runs each ``demos/*.py`` as its own process, as the
test suite does, against the same package, and leaves one file
``demo.<name>.txt`` with the line ``exit <code>`` and the demo's stdout.
``dump_digests`` leaves one file ``digest.<seed>.txt`` per seed of SEEDS,
with one line ``<op id> <sha256>`` per op of ``perfbench/specs.py``'s
``op_list`` over all three workloads; ``digest_lines`` says what each hash covers.
``dump_digests`` also leaves ``digest.sweep.txt`` in the same format, one
line per seeded random solve of ``sweep_specs`` at each tol of SWEEP_TOLS.
Point ``PYTHONPATH`` at two source trees and compare the two directories
with ``diff -r`` to check that a change keeps every artifact, every demo
output and every benchmark op's solve, verdict and reads bitwise the same.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sobolev1d
from sobolev1d.cli import main
from sobolev1d.fcurve import check_minimality_equivalence
from sobolev1d.fundamental import SolverError, solve_log_solution
from sobolev1d.minimizer import minimize
from sobolev1d.potential import potential_from_spec
from sobolev1d.window import default_window

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SEEDS = (1, 13, 29)
# The sweep: potentials per family, their seed, and the tols each is solved at.
SWEEP_SIZE = 75
SWEEP_SEED = 55
SWEEP_TOLS = (1e-6, 1e-10, 1e-13)

_GAUSS_X = [0.25 * k for k in range(-40, 41)]
_LOG_X = [0.25 * k for k in range(-16, 17)]

SPECS = {
    "example": {"kind": "example", "A": 1, "B": 2},
    "step": {"kind": "step", "v0": 1, "v1": 4},
    "well": {"kind": "piecewise_constant", "edges": [-1, 1], "values": [1, 5, 1]},
    "double_well": {
        "kind": "piecewise_constant",
        "edges": [-6, -5, 5, 6],
        "values": [4, 1, 4, 1, 4],
    },
    "high_contrast_well": {
        "kind": "piecewise_constant",
        "edges": [-1, 1],
        "values": [100, 1, 100],
    },
    "jump_step": {"kind": "piecewise_constant", "edges": [0], "values": [1, 4]},
    "constant": {"kind": "constant", "v": 2},
    "jump_at_0": {"kind": "piecewise_constant", "edges": [0], "values": [3, 1]},
    "gaussian_table": {
        "kind": "table",
        "x": _GAUSS_X,
        "v": [4.0 - 3.0 * math.exp(-0.5 * x * x) for x in _GAUSS_X],
    },
    "dishonest": {
        "kind": "table",
        "x": [-2, -1, 0, 1, 2],
        "v": [1, 1, 1, 1, 1],
        "lower_bound": 4,
        "upper_bound": 5,
    },
    # Its explicit upper bound sits 5% under its own peak V = 2: solve, scan and
    # green refuse the first sample above it (exit 3), verify FAILs bounds-declared (exit 4).
    "over_bound_table": {
        "kind": "table",
        "x": [-2, -1, 0, 1, 2],
        "v": [1, 1, 2, 1, 1],
        "lower_bound": 0.5,
        "upper_bound": 1.9,
    },
    # b^2 - 4ac of its spline's derivative overflows, so the spline's extremes between
    # samples, and with them its bounds, are unknown: every command refuses it (exit 2).
    "overflow_table": {
        "kind": "table",
        "x": [0, 1, 2, 3, 4],
        "v": [1e160, 3e160, 1e160, 1e160, 1e160],
    },
    # The not-a-knot build overflows on its 1.7e308 sample: the spline's slopes are
    # refused by name as above (exit 2), with no numpy warning ahead of that refusal.
    "overflow_sample_table": {"kind": "table", "x": [0, 1, 2, 3, 4], "v": [1, 1.7e308, 1, 1, 1]},
    # Contrast 1e303: the initial cell count overflows to inf, which the MAX_CELLS cap
    # refuses (exit 3); verify's oracle spacing over the window to the edge at 1e300
    # puts h^4 past the float range (exit 3).
    "huge_contrast_pwc": {
        "kind": "piecewise_constant",
        "edges": [0, 1, 1e300],
        "values": [1e300, 1, 1, 0.001],
    },
    # l' = -2 - tanh(x)/2, so V = l'' + l'^2 >= 1.75.
    "log_derivative_table": {
        "kind": "table",
        "x": _LOG_X,
        "ell_prime": [-2.0 - 0.5 * math.tanh(x) for x in _LOG_X],
        "ell_double_prime": [-0.5 / math.cosh(x) ** 2 for x in _LOG_X],
    },
    # Contrast 1e4: u_a underflows within the window, which only log space survives.
    "high_contrast_step": {"kind": "step", "v0": 1, "v1": 1e4},
    # A well past x = 30, inside the window the solve widens to reach it.
    "far_well": {"kind": "piecewise_constant", "edges": [39, 41], "values": [4, 1, 4]},
    # A flat-bottomed V = 4 well beside the deeper V = 1 well: F' stays under the
    # noise floor across the shelf's bottom, and the top between the wells is flat.
    "shelf": {
        "kind": "piecewise_constant",
        "edges": [-24, -4, 2, 3],
        "values": [9, 4, 9, 1, 9],
    },
    # A step past the default window: no node sees V vary, and the bounds [1, 4] do
    # not make F flat, so solve and verify refuse it (exit 3); scan and green run.
    "far_step": {"kind": "step", "v0": 1, "v1": 4, "center": 100},
    # A table held constant outside its grid: V' jumps at both grid ends, which
    # the table declares as breakpoints.
    "ramp_table": {"kind": "table", "x": [-2, -1, 0, 1, 2], "v": [1, 1.5, 2, 2.5, 3]},
    # example(1, 2) dilated by 1e4: v1 and every F below 1, where a threshold
    # clipped at 1 would turn absolute.
    "small_example": {"kind": "example", "A": 1e4, "B": 2e-4},
    # example(10, 1) dilated by 1e8: every threshold is relative to the potential,
    # so solve reads it attained and verify passes every check (exit 0).
    "tiny_example": {"kind": "example", "A": 1e9, "B": 1e-8},
}

RUNS = {
    "solve.json": ["solve", "--format", "json"],
    "solve.csv": ["solve", "--format", "csv"],
    "scan.csv": ["scan", "--format", "csv", "--grid=-3:3:41"],
    "scan.json": ["scan", "--format", "json", "--grid=-3:3:41"],
    "green.csv": ["green", "--format", "csv", "--x=-4:4:9", "--y=-4:4:9"],
    "green.json": ["green", "--format", "json", "--x=-4:4:9", "--y=-4:4:9"],
    "verify.txt": ["verify"],
}


def dump(out_dir: Path, specs: dict = SPECS) -> list[Path]:
    """Run every command on every spec; returns the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, spec in specs.items():
        for run, argv in RUNS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--potential", json.dumps(spec)])
            path = out_dir / f"{name}.{run}"
            path.write_text(f"exit {code}\n{out.getvalue()}", encoding="utf-8")
            written.append(path)
    return written


def dump_demos(out_dir: Path) -> list[Path]:
    """Run every demo against the imported package; returns the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(sobolev1d.__file__).resolve().parents[1]))
    written = []
    for demo in sorted(DEMOS.glob("*.py")):
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=DEMOS.parent, env=env, capture_output=True, text=True
        )
        path = out_dir / f"demo.{demo.stem}.txt"
        path.write_text(f"exit {done.returncode}\n{done.stdout}", encoding="utf-8")
        written.append(path)
    return written


def load_perfbench(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file; nothing joins ``sys.path``."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact(value) -> bytes:
    """Every bit of a value: floats by ``hex``, arrays by dtype, shape and bytes, and
    dataclasses by their ``init`` fields (a field set in ``__post_init__`` is derived
    from those, so a change of its layout moves no hash)."""
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(map(exact, value)) + b")"
    if isinstance(value, dict):
        return exact(sorted(value.items()))
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value) if f.init}
        return type(value).__name__.encode() + exact(fields)
    if callable(value):
        return value.__qualname__.encode()
    if value is None or isinstance(value, (int, str)):
        return repr(value).encode()
    raise TypeError(f"no exact form for {type(value).__name__}")


def digest_lines(seed: int, workloads=None) -> list[str]:
    """One line ``<op id> <sha256>`` per op of the workloads (all three when None).

    Each op runs through ``perfbench/ops.py``'s own workload class
    (``cli_verify`` in this process), and its hash covers ``minimize`` on
    the op's potential (both sides' mesh, r and l, m, a*, the verdict and
    every accepted and rejected critical point among the report's fields),
    the minimality check on a ``checks`` op's pair as ``verify`` runs it,
    and the op's own return value.
    """
    specs, ops = load_perfbench("specs"), load_perfbench("ops")
    lines = []
    for workload in workloads or specs.WORKLOADS:
        op_list = specs.op_list(workload, seed)
        kwargs = {"in_process": True} if workload == "cli_verify" else {}
        bench = ops.WORKLOAD_CLASSES[workload](op_list, **kwargs)
        for i, op in enumerate(op_list):
            report = minimize(potential_from_spec(op["spec"]))
            parts = [report, bench.run(i)]
            if op.get("read") == "checks":
                parts.append(check_minimality_equivalence(report.curve))
            lines.append(f"{op['id']} {hashlib.sha256(exact(parts)).hexdigest()}")
    return lines


def sweep_specs(size: int = SWEEP_SIZE) -> dict[str, dict]:
    """``size`` random specs of each family, by id: the closed-form example, the
    logistic step, piecewise constant with 2 to 5 pieces, and a spline table."""
    rng = np.random.default_rng(SWEEP_SEED)
    specs = {}
    for i in range(size):
        a = float(rng.uniform(0.3, 3.0))
        b = (1.7 + float(rng.uniform(0.0, 4.0))) / a
        specs[f"sweep.example.{i:03d}"] = {"kind": "example", "A": a, "B": b}
        v0 = float(rng.uniform(0.5, 4.0))
        specs[f"sweep.step.{i:03d}"] = {
            "kind": "step", "v0": v0, "v1": v0 * float(rng.uniform(1.0, 40.0)),
            "width": float(rng.uniform(0.1, 3.0)), "center": float(rng.uniform(-4.0, 4.0)),
        }
        n = int(rng.integers(2, 6))
        specs[f"sweep.pwc.{i:03d}"] = {
            "kind": "piecewise_constant",
            "edges": np.sort(rng.uniform(-6.0, 6.0, n - 1)).tolist(),
            "values": rng.uniform(0.5, 5.0, n).tolist(),
        }
        x = np.linspace(-3.0, 3.0, int(rng.integers(5, 16)))
        specs[f"sweep.table.{i:03d}"] = {
            "kind": "table", "x": x.tolist(), "v": rng.uniform(1.0, 4.0, x.size).tolist()
        }
    return specs


def sweep_lines(size: int = SWEEP_SIZE) -> list[str]:
    """One line ``<spec id>.<tol> <sha256>`` per spec of ``sweep_specs(size)`` and tol of
    SWEEP_TOLS, hashing both sides' mesh, r and l on the default window, or the refusal text."""
    lines = []
    for name, spec in sweep_specs(size).items():
        pot = potential_from_spec(spec)
        for tol in SWEEP_TOLS:
            try:
                sides = solve_log_solution(pot, *default_window(pot), tol)
                parts = [(side._mesh, side._r, side._l) for side in sides]
            except (ValueError, SolverError) as refused:
                parts = [f"{type(refused).__name__}: {refused}"]
            lines.append(f"{name}.{tol:g} {hashlib.sha256(exact(parts)).hexdigest()}")
    return lines


def dump_digests(out_dir: Path) -> list[Path]:
    """Write ``digest.<seed>.txt`` for each seed of SEEDS, then ``digest.sweep.txt``;
    returns the files written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in (*SEEDS, "sweep"):
        lines = sweep_lines() if name == "sweep" else digest_lines(name)
        path = out_dir / f"digest.{name}.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: dump_artifacts.py OUT_DIR")
    dump(Path(sys.argv[1]))
    dump_demos(Path(sys.argv[1]))
    dump_digests(Path(sys.argv[1]))
