"""Seeded sweeps of the CLI boundary: every input ends in exit 0, 2, 3 or 4.

Each run goes through ``cli.main`` in process with every warning an error, so
a numpy warning or a Python exception ahead of the check that refuses the
input fails the sweep, naming the run.
"""

import contextlib
import io
import json
import math
import random
import warnings

from sobolev1d.cli import main

NUMBERS = (0.0, -1.0, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.0, 4.0, 1e3, 1e12, 1e300,
           math.inf, math.nan)
# Step widths and |center|s stay moderate: (x - center)/width in make_monotone_step's
# evaluate overflows numpy once |x - center|/width passes the float range, which
# this sweep would find on every run of such a step (see CHANGES.md).
STEP_SHAPES = (1e-3, 0.5, 1.0, 1e3)
TABLE_SPACINGS = (1e-3, 1.0, 1e3)

FLAG_SPECS = (
    {"kind": "constant", "v": 2},
    {"kind": "step", "v0": 1, "v1": 4},
    {"kind": "piecewise_constant", "edges": [-1, 1], "values": [4, 1, 4]},
    {"kind": "table", "x": [-2, -1, 0, 1, 2], "v": [1, 1.5, 2, 2.5, 3]},
    {"kind": "example", "A": 1, "B": 2},
)
ENDS = (0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 1e-12, 30.0, -30.0, 1e12, -1e12,
        1e300, -1e300, 1e308, -1e308, math.inf, -math.inf, math.nan)
TOLS = (1e-15, 1e-14, 1e-10, 1e-6, 1e-5, 0.0, math.inf, math.nan)


def random_spec(rng: random.Random) -> dict:
    """A spec of kind constant, step, piecewise_constant or table, its numbers from NUMBERS."""
    kind = rng.choice(("constant", "step", "piecewise_constant", "table"))
    if kind == "constant":
        return {"kind": kind, "v": rng.choice(NUMBERS)}
    if kind == "step":
        spec = {"kind": kind, "v0": rng.choice(NUMBERS), "v1": rng.choice(NUMBERS)}
        if rng.random() < 0.5:
            spec["width"] = rng.choice(STEP_SHAPES)
        if rng.random() < 0.5:
            spec["center"] = rng.choice((-1.0, 1.0)) * rng.choice(STEP_SHAPES)
        return spec
    if kind == "piecewise_constant":
        edges = sorted(rng.choice(NUMBERS) for _ in range(rng.randint(1, 4)))
        return {"kind": kind, "edges": edges, "values": [rng.choice(NUMBERS) for _ in edges + [0]]}
    spacing, n = rng.choice(TABLE_SPACINGS), rng.randint(4, 7)
    return {"kind": kind, "x": [spacing * k for k in range(n)],
            "v": [rng.choice(NUMBERS) for _ in range(n)]}


def random_flags(rng: random.Random) -> list[str]:
    """solve, scan, green or verify on a spec of FLAG_SPECS, with drawn window, tol, lattices."""
    command = rng.choice(("solve", "scan", "green", "verify"))
    argv = [command, "--potential", json.dumps(rng.choice(FLAG_SPECS))]

    def lattice() -> str:
        return f"{rng.choice(ENDS)!r}:{rng.choice(ENDS)!r}:{rng.randint(1, 5)}"

    if rng.random() < 0.5:
        argv.append(f"--window={rng.choice(ENDS)!r},{rng.choice(ENDS)!r}")
    if rng.random() < 0.5:
        argv.append(f"--tol={rng.choice(TOLS)!r}")
    if command == "scan" and rng.random() < 0.5:
        argv.append(f"--grid={lattice()}")
    if command == "green":
        argv += [f"--x={lattice()}", f"--y={lattice()}"]
    return argv


def assert_every_exit_is_owned(argvs: list[list[str]]) -> None:
    """Each run of ``main`` returns 0, 2, 3 or 4 and raises nothing; the failure lists the rest."""
    bad = []
    sink = io.StringIO()
    for argv in argvs:
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                warnings.simplefilter("error")
                code = main(argv)
        except Exception as exc:  # any exception is the finding
            bad.append(f"{argv}: {type(exc).__name__}: {exc}")
        else:
            if code not in (0, 2, 3, 4):
                bad.append(f"{argv}: exit {code}")
        sink.seek(0)
        sink.truncate()
    assert not bad, f"{len(bad)} of {len(argvs)} runs:\n" + "\n".join(bad[:10])


def test_solve_on_drawn_specs_exits_by_a_rule():
    rng = random.Random(1)
    assert_every_exit_is_owned(
        [["solve", "--potential", json.dumps(random_spec(rng))] for _ in range(1000)]
    )


def test_every_command_on_drawn_flags_exits_by_a_rule():
    rng = random.Random(1)
    assert_every_exit_is_owned([random_flags(rng) for _ in range(800)])
