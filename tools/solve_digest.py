"""One sha256 per benchmark op of what it solves and reads, to compare two trees bit for bit.

Usage::

    PYTHONPATH=src python tools/solve_digest.py SEED [SEED ...]

For each seed, and each op of ``perfbench/specs.py``'s ``op_list`` over all
three workloads, this solves the op's potential with ``minimize`` on its
default window and prints one line ``<seed> <op id> <sha256>``.  The hash
covers the shared mesh, r and l of both sides, m, a*, the attainment
verdict and every accepted and rejected critical point (location, F, F''
and |F'| there).  For a ``query`` op it also covers what the op reads of
the solved pair, as the benchmark times it: ``scan`` reads F, F', F'' and
phi_± at SCAN_PINS pins one pin at a time, ``green`` reads G on the
LATTICE x LATTICE lattice one pair of points at a time, ``rayleigh`` the
Rayleigh quotient of the extremal, and ``checks`` the envelope report and
the minimality-equivalence gaps.  The benchmark's ``checks`` op runs the
minimality check only on a potential without breakpoints; the digest
covers it on every pair, as ``sobolev1d verify`` runs it.  Point
``PYTHONPATH`` at two source trees and ``diff`` the two outputs to check
that a change leaves every side solve, verdict and read bitwise unchanged.
``perfbench/specs.py`` is loaded from its file, read only, and nothing is
added to ``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sobolev1d import build_green, extremal, minimize, potential_from_spec, rayleigh_quotient
from sobolev1d.fcurve import check_minimality_equivalence
from sobolev1d.fundamental import check_envelope_bounds

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"
# The scan pins and the Green lattice of the query workload's reads.
SCAN_PINS = 201
LATTICE = 15


def load_specs():
    """The module ``perfbench/specs.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_specs", SPECS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def query_reads(read: str, pot, report) -> tuple:
    """What one query op reads of its solved pair, by its kind ``read``."""
    curve, plus, minus = report.curve, report.phi_plus, report.phi_minus
    if read == "scan":
        pins = np.linspace(*curve.window, SCAN_PINS).tolist()
        return tuple(
            (curve.value_at(a), curve.slope_at(a), curve.curvature_at(a), plus.phi_at(a),
             minus.phi_at(a))
            for a in pins
        )
    if read == "green":
        g = build_green(plus, minus)
        lattice = np.linspace(0.5 * curve.window[0], 0.5 * curve.window[1], LATTICE).tolist()
        return tuple(tuple(g.value(x, y) for y in lattice) for x in lattice)
    if read == "rayleigh":
        return (rayleigh_quotient(extremal(report), pot),)
    env = check_envelope_bounds(plus, minus)
    eq = check_minimality_equivalence(curve)
    gaps = tuple(a.tobytes() for a in (eq.locations, eq.slope_gap, eq.curvature_gap))
    return sorted(env.violations.items()), env.passed, gaps


def digest(op: dict) -> str:
    """sha256 of one op's solve, and of a query op's reads, as the module docstring lists them."""
    pot = potential_from_spec(op["spec"])
    report = minimize(pot)
    h = hashlib.sha256()
    for side in (report.phi_plus, report.phi_minus):
        for array in (side._mesh, side._r, side._l):
            h.update(array.tobytes())
    points = [
        [(p.location, p.value, p.curvature, p.slope_residual) for p in kind]
        for kind in (report.critical_points, report.rejected_candidates)
    ]
    a_star = None if report.a_star is None else float(report.a_star)
    h.update(repr((float(report.m_value), a_star, report.attainment, points)).encode())
    if "read" in op:
        h.update(repr(query_reads(op["read"], pot, report)).encode())
    return h.hexdigest()


def digest_lines(seed: int, workloads=None) -> list[str]:
    """One line per op of the workloads (all three when None) for one seed."""
    specs = load_specs()
    return [
        f"{seed} {op['id']} {digest(op)}"
        for workload in workloads or specs.WORKLOADS
        for op in specs.op_list(workload, seed)
    ]


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for seed in sys.argv[1:]:
        print("\n".join(digest_lines(int(seed))))
