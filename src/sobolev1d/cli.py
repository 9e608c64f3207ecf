"""Command-line front end.

Subcommands:

* ``solve``  -- run the full minimization, emit a report (JSON or CSV).
* ``scan``   -- tabulate a, F, F', F'', phi_+, phi_- over a pin grid (CSV/JSON).
* ``green``  -- tabulate the Green function over an (x, y) lattice.
* ``verify`` -- run the invariant suite, one PASS/FAIL/SKIP line per check.

Every command takes ``--potential``, ``--window``, ``--tol`` and ``--out``.
The three that write a table or report also take ``--format``: ``solve``
defaults to json, ``scan`` and ``green`` to csv.  ``verify`` prints text; its
minimality check tests F' and F'' against differences of F at the default
curve samples and every root; its mesh oracle spans [-L, L], L = max(-x_min,
x_max) of the solved window, in ORACLE_CELLS cells, or at the default
window's spacing when L is wider than its half-width (at most MAX_CELLS
cells); the bounds check reads its samples of V, and, when the potential
is piecewise constant, compares each sample off a breakpoint with V at the
midpoint of its piece within [-L, L];
the oracle passes when |m_mesh - m| <= ORACLE_TOL (1e-2).
Checks are skipped only after the declared bounds fail.

Exit codes: 0 success, 2 configuration error (bad flags, malformed spec, a
window or tol the solve refuses, a --grid, --x or --y lattice that is
malformed, leaves its window or has more than MAX_CELLS points (the green
lattice counted as --x times --y), all found before any solve; an --out
file that cannot be written), 3 solver failure, 4 verification failure.

Each command builds its whole artifact as text; ``main`` writes it once, to
``--out`` when given, else to stdout.  Output is deterministic: identical
configuration yields byte-identical artifacts.  Every float is rendered
with 16 significant digits ("%.15e"), so reports can be re-verified offline
without precision loss.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .fcurve import _default_samples, build_fcurve, check_minimality_equivalence
from .fcurve import find_critical_points  # noqa: F401 -- a name perfbench/tracing.py patches
from .fundamental import (
    DEFAULT_TOL,
    check_envelope_bounds,
    check_riccati_residual,
    solve_log_solution,
)
from .green import build_green, gaussian_test, residual_check
from .mesh import MAX_CELLS, SolverError, _bounds
from .minimizer import SCHEMA_VERSION, default_window, minimize
from .oracle import DiscreteRayleighProblem, discrete_minimize
from .potential import potential_from_spec
from .window import _check_window, _curve_window

__all__ = ["main"]

# verify's mesh oracle: its cells over the default window (a wider window gets
# proportionally more, up to MAX_CELLS), and the largest |m_mesh - m| it passes.
ORACLE_CELLS = 12_000
ORACLE_TOL = 1e-2

# The invariant suite of ``verify``, in the order it prints them.
VERIFY_CHECKS = (
    "bounds-declared",
    "riccati-residual",
    "envelope-bounds",
    "wronskian-constancy",
    "minimality-equivalence",
    "green-weak-identity",
    "oracle-agreement",
)


class ConfigError(ValueError):
    """Bad flags or potential spec; maps to exit code 2."""


def _configure(args: argparse.Namespace) -> None:
    """Validate --potential, --window and --tol in place, as the solve would.

    ``args.potential`` becomes a Potential and ``args.window`` a pair of
    floats, or stays None for ``default_window``.
    """
    spec_text = args.potential
    try:
        if spec_text.lstrip().startswith("{"):
            spec = json.loads(spec_text)
        else:
            spec = json.loads(Path(spec_text).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read potential spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed potential spec JSON: {exc}") from exc
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ConfigError("--window must be 'x_min,x_max'")
        try:
            args.window = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError("--window values must be numbers") from exc
    try:
        args.potential = potential_from_spec(spec)
        _check_window(args.potential, *(args.window or default_window(args.potential)), args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return f"{x:.15e}"
    raise TypeError(f"not a scalar: {type(x).__name__}")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats as %.15e."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_rows(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _table(args: argparse.Namespace, keys: tuple[str, ...], rows) -> str:
    """Rows as CSV under a header of the keys, or as JSON objects with those keys."""
    if args.format == "csv":
        return _csv_rows(",".join(keys), rows)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "potential": args.potential.label,
        "rows": [dict(zip(keys, row)) for row in rows],
    }
    return canonical_json(doc) + "\n"


def _parse_linspace(spec: str, flag: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} must be 'start:stop:count'")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{flag} values must be numeric") from exc
    if count < 1:
        raise ConfigError(f"{flag} count must be >= 1")
    if count > MAX_CELLS:
        raise ConfigError(f"{flag} count must be at most MAX_CELLS = {MAX_CELLS}")
    with np.errstate(invalid="ignore", over="ignore"):  # the window checks refuse inf and NaN
        return np.linspace(start, stop, count)


def cmd_solve(args: argparse.Namespace) -> tuple[int, str]:
    report = minimize(args.potential, args.window, args.tol)
    if args.format == "json":
        text = canonical_json(report.to_json_dict()) + "\n"
    else:
        rows = [
            ("m", report.m_value),
            ("best_constant", report.best_constant),
            ("tail_estimate", report.tail_infimum),
            ("a_star", report.a_star if report.a_star is not None else math.nan),
            ("n_critical_points", len(report.critical_points)),
        ]
        text = _csv_rows("key,value", rows)
    print(
        f"m = {report.m_value:.12g}, best constant C = {report.best_constant:.12g}, "
        f"attainment = {report.attainment}"
        + (f", a* = {report.a_star:.12g}" if report.a_star is not None else ""),
        file=sys.stderr,
    )
    return 0, text


def cmd_scan(args: argparse.Namespace) -> tuple[int, str]:
    window = args.window or default_window(args.potential)
    if args.grid is not None:
        grid = _parse_linspace(args.grid, "--grid")
        lo, hi = _curve_window(args.potential, window)
        if not np.all((lo <= grid) & (grid <= hi)):  # NaN fails too
            raise ConfigError(f"--grid must stay inside the curve window [{lo:g}, {hi:g}]")
    curve = build_fcurve(*solve_log_solution(args.potential, *window, args.tol))
    if args.grid is None:
        grid = curve.grid
    reads = curve._reads(grid)
    # math.exp per element, as phi_at does for one pin: np.exp can differ by an ulp.
    rows = list(
        zip(
            grid.tolist(),
            reads.value.tolist(),
            reads.slope.tolist(),
            reads.curvature.tolist(),
            map(math.exp, reads.l_plus.tolist()),
            map(math.exp, reads.l_minus.tolist()),
        )
    )
    return 0, _table(args, ("a", "F", "dF", "d2F", "phi_plus", "phi_minus"), rows)


def cmd_green(args: argparse.Namespace) -> tuple[int, str]:
    lo, hi = args.window or default_window(args.potential)
    xs = _parse_linspace(args.x, "--x")
    ys = _parse_linspace(args.y, "--y")
    points = xs.size * ys.size
    if points > MAX_CELLS:
        raise ConfigError(
            f"--x and --y lattice has {points} points, more than MAX_CELLS = {MAX_CELLS}"
        )
    for name, vals in (("--x", xs), ("--y", ys)):
        if not np.all((lo <= vals) & (vals <= hi)):
            raise ConfigError(f"{name} lattice leaves the window [{lo:g}, {hi:g}]")
    green = build_green(*solve_log_solution(args.potential, lo, hi, args.tol))
    lattice = green.value(xs[:, None], ys[None, :]).tolist()
    rows = [
        (x, y, g)
        for x, row in zip(xs.tolist(), lattice)
        for y, g in zip(ys.tolist(), row)
    ]
    return 0, _table(args, ("x", "y", "G"), rows)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    pot = args.potential
    window = args.window or default_window(pot)
    half = max(-window[0], window[1])
    # The default window's spacing, kept on wider windows: the oracle's gap grows
    # like the spacing squared.
    cells = math.ceil(min(MAX_CELLS, ORACLE_CELLS * max(1.0, half / default_window(pot)[1])))
    # Built first, so that a non-finite V exits 3 before the bounds check.
    problem = DiscreteRayleighProblem.from_potential(pot, half, 2.0 * half / cells)
    lines: list[tuple[str, str, str]] = []

    def record(name: str, ok: bool | None, detail: str) -> None:
        status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        lines.append((status, name, detail))

    inside = (window[0] <= problem.nodes) & (problem.nodes <= window[1])
    breaks = np.array([b for b in pot.breakpoints if window[0] < b < window[1]], dtype=float)
    v = np.append(problem.v_samples[inside], pot.evaluate(breaks))
    lo, hi = _bounds(pot)
    bounds_ok = bool(np.all((lo <= v) & (v <= hi)))
    detail = (
        f"sampled range [{v.min():.6g}, {v.max():.6g}] vs declared "
        f"[{pot.lower_bound:.6g}, {pot.upper_bound:.6g}]"
    )
    if pot.piecewise_constant:
        # The solve reads each piece at one point: every oracle node off a breakpoint checks it.
        inner = np.array([b for b in pot.breakpoints if -half < b < half], dtype=float)
        edges = np.concatenate(([-half], inner, [half]))
        piece = np.asarray(pot.evaluate(0.5 * (edges[:-1] + edges[1:])), dtype=float)
        at = np.searchsorted(inner, problem.nodes, side="right")
        off = (problem.v_samples != piece[at]) & ~np.isin(problem.nodes, pot.breakpoints)
        if off.any():
            bounds_ok = False
            detail += (
                f"; {int(off.sum())} samples differ from the declared pieces, "
                f"first at x = {problem.nodes[off][0]:.6g}"
            )
    record("bounds-declared", bounds_ok, detail)
    if not bounds_ok:
        for name in VERIFY_CHECKS[len(lines) :]:
            record(name, None, "skipped: declared bounds are wrong")
        return _verify_emit(lines)

    report = minimize(pot, args.window, args.tol)
    plus, minus, curve = report.phi_plus, report.phi_minus, report.curve
    res_p = check_riccati_residual(plus)
    res_m = check_riccati_residual(minus)
    record(
        "riccati-residual",
        res_p.passed and res_m.passed,
        f"max |r' + r^2 - V| = {max(res_p.max_residual, res_m.max_residual):.3e} "
        f"(tolerance {res_p.tolerance:.3e})",
    )
    env = check_envelope_bounds(plus, minus)
    worst_env = max(env.violations.values()) if env.violations else 0.0
    record("envelope-bounds", env.passed, f"worst log-space violation {worst_env:.3e}")

    drift = curve.wronskian_drift()
    record("wronskian-constancy", drift <= 1e-8, f"relative drift {drift:.3e}")

    roots = [p.location for p in report.critical_points + report.rejected_candidates]
    eq = check_minimality_equivalence(curve, np.append(_default_samples(curve), roots))
    record(
        "minimality-equivalence",
        eq.n_disagree == 0,
        f"{eq.locations.size} samples, {eq.n_disagree} disagreements",
    )

    greens = build_green(plus, minus)
    inset = 0.25 * min(-window[0], window[1])
    tests = [gaussian_test(c, 0.7 / math.sqrt(pot.lower_bound)) for c in (0.0, -inset, inset)]
    gr = residual_check(greens, 0.25 * inset, tests)
    record(
        "green-weak-identity",
        gr.passed,
        f"max residual {max(gr.residuals):.3e} over {len(gr.residuals)} test functions",
    )

    m_disc, node = discrete_minimize(problem)
    gap = abs(m_disc - report.m_value)
    record(
        "oracle-agreement",
        gap <= ORACLE_TOL,
        f"|m_mesh - m| = {gap:.3e} at node x = {problem.nodes[node]:.6g} "
        f"(tolerance {ORACLE_TOL:g})",
    )
    return _verify_emit(lines)


def _verify_emit(lines: list[tuple[str, str, str]]) -> tuple[int, str]:
    """One 'STATUS name: detail' line per check; exit 4 if any failed."""
    failed = any(status == "FAIL" for status, _, _ in lines)
    text = "".join(f"{status} {name}: {detail}\n" for status, name, detail in lines)
    return 4 if failed else 0, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev1d",
        description=(
            "Best constant and extremal functions of the sup-norm Sobolev "
            "embedding -u'' + V u with a bounded potential."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--potential",
        required=True,
        help="potential spec: a JSON file path or an inline JSON object",
    )
    common.add_argument(
        "--window",
        default=None,
        help="solve window 'x_min,x_max' (default: +-25/sqrt(v0), wider past breakpoints)",
    )
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="integration tolerance")
    common.add_argument("--out", default=None, help="write the artifact to this file")
    format_kwargs = dict(choices=("json", "csv"), help="artifact format (default: %(default)s)")

    p_solve = sub.add_parser("solve", parents=[common], help="full minimization report")
    p_solve.add_argument("--format", default="json", **format_kwargs)
    p_solve.set_defaults(func=cmd_solve)

    p_scan = sub.add_parser("scan", parents=[common], help="tabulate the energy curve")
    p_scan.add_argument("--format", default="csv", **format_kwargs)
    p_scan.add_argument(
        "--grid", default=None, help="pin lattice 'start:stop:count' (default: curve grid)"
    )
    p_scan.set_defaults(func=cmd_scan)

    p_green = sub.add_parser("green", parents=[common], help="tabulate the Green function")
    p_green.add_argument("--format", default="csv", **format_kwargs)
    p_green.add_argument("--x", required=True, help="x lattice 'start:stop:count'")
    p_green.add_argument("--y", required=True, help="y lattice 'start:stop:count'")
    p_green.set_defaults(func=cmd_green)

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure(args)
        code, text = args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"configuration error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
