"""One sha256 per benchmark op of what ``minimize`` computes, to compare two trees bit for bit.

Usage::

    PYTHONPATH=src python tools/solve_digest.py SEED [SEED ...]

For each seed, and each op of ``perfbench/specs.py``'s ``op_list`` over all
three workloads, this solves the op's potential with ``minimize`` on its
default window and prints one line ``<seed> <op id> <sha256>``.  The hash
covers the shared mesh, r and l of both sides, m, a*, the attainment
verdict and every accepted and rejected critical point (location, F, F''
and |F'| there).  Point ``PYTHONPATH`` at two source trees and ``diff`` the
two outputs to check that a change leaves every side solve and verdict
bitwise unchanged.  ``perfbench/specs.py`` is loaded from its file, read
only, and nothing is added to ``sys.path``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

from sobolev1d import minimize, potential_from_spec

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"


def load_specs():
    """The module ``perfbench/specs.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_specs", SPECS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(spec: dict) -> str:
    """sha256 of the solve of one potential spec, as the module docstring lists it."""
    report = minimize(potential_from_spec(spec))
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
    return h.hexdigest()


def digest_lines(seed: int, workloads=None) -> list[str]:
    """One line per op of the workloads (all three when None) for one seed."""
    specs = load_specs()
    return [
        f"{seed} {op['id']} {digest(op['spec'])}"
        for workload in workloads or specs.WORKLOADS
        for op in specs.op_list(workload, seed)
    ]


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for seed in sys.argv[1:]:
        print("\n".join(digest_lines(int(seed))))
