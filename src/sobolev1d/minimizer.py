"""Best constant of the sup-norm Sobolev embedding with a bounded potential.

The embedding constant is governed by

    m(V) = inf { (||u'||_2^2 + int V u^2) / max|u|^2 : u in H^1, u != 0 },

so that max|u| <= m(V)^{-1/2} ||u||_V is sharp.  The infimum splits into a
pointwise stage (solved exactly by the pinned minimizers u_a) followed by a
one-dimensional minimization of the pinned energy F over the pin location:

    m(V) = min( liminf of F at the window tails, min of F over its
                interior candidate minimizers ).

Extremal functions exist exactly when an interior candidate beats the tail
value; constant potentials are degenerate (every pin works, F flat) and a
strict gap in the other direction means the infimum escapes to infinity and
no extremal exists.  ``minimize`` classifies accordingly, with an explicit
"undetermined" verdict when the decision margin is inside the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fcurve import (
    CONDITION_TOL,
    ROOT_TOL,
    CriticalPoint,
    FCurve,
    build_fcurve,
    find_critical_points,
)
from .fundamental import (
    DEFAULT_TOL,
    ExtremalFunction,
    LogSolution,
    extremal_function,
    solve_log_solution,
)
from .mesh import SolverError, _honest
from .potential import Potential
from .quadrature import composite_gauss_legendre
from .window import DEFAULT_WINDOW_FACTOR  # noqa: F401 -- perfbench/selftest.py reads it from here
from .window import default_window

__all__ = [
    "MinimizationReport",
    "default_window",
    "minimize",
    "extremal",
    "rayleigh_quotient",
    "classify_attainment",
]

# Decision band of the attained/empty/undetermined verdict, relative to m.
CLASSIFICATION_TOL = 1e-9
# Version of every JSON document: the report and the CLI tables.
SCHEMA_VERSION = 1


def classify_attainment(
    tail_infimum: float,
    best_candidate: float | None,
    flat: bool,
) -> tuple[str, float | None]:
    """Attainment verdict and decision margin (tail - best candidate).

    flat        -> "flat" (every pin attains; constant potentials)
    no interior candidate, or tail below all candidates -> "empty"
    candidate strictly below the tail value -> "attained"
    |margin| <= CLASSIFICATION_TOL * m, m = min(tail, best) -> "undetermined"
    """
    if flat:
        return "flat", None
    if best_candidate is None:
        return "empty", None
    margin = tail_infimum - best_candidate
    band = CLASSIFICATION_TOL * min(tail_infimum, best_candidate)
    if margin > band:
        return "attained", margin
    if margin < -band:
        return "empty", margin
    return "undetermined", margin


@dataclass
class MinimizationReport:
    """Everything ``minimize`` decided, plus the artifacts it was decided on.

    The JSON-facing fields are mirrored by ``to_json_dict``; phi_plus,
    phi_minus and curve are kept for reuse (extremal functions, Green
    evaluators) and are not serialized.  requested_window is the window
    argument of ``minimize`` as passed; window is the window actually solved
    on.  The label, tol and domain margin are read from phi_plus.
    """

    m_value: float
    best_constant: float
    attainment: str
    a_star: float | None
    margin: float | None
    tail_infimum: float
    tail_method: str
    critical_points: list[CriticalPoint]
    rejected_candidates: list[CriticalPoint]
    window: tuple[float, float]
    requested_window: tuple[float, float] | None
    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)
    curve: FCurve = field(repr=False)

    def to_json_dict(self) -> dict:
        def point(p: CriticalPoint, minimal: bool) -> dict:
            # Schema 1's three minimality flags all state the list a root is in.
            flags = ("balanced_slope", "plus_side_product", "minus_side_product")
            return {
                "a": p.location,
                "F": p.value,
                "curvature": p.curvature,
                "slope_residual": p.slope_residual,
                **dict.fromkeys(flags, minimal),
            }

        pot, (x_min, x_max) = self.phi_plus.potential, self.window
        return {
            "schema_version": SCHEMA_VERSION,
            "potential": pot.label,
            "m": self.m_value,
            "best_constant": self.best_constant,
            "attainment": self.attainment,
            "a_star": self.a_star,
            "critical_points": [point(p, True) for p in self.critical_points],
            "rejected_candidates": [point(p, False) for p in self.rejected_candidates],
            "flat": self.attainment == "flat",
            "tail_estimate": self.tail_infimum,
            "tail_method": self.tail_method,
            "margins": {
                "decision": self.margin,
                "domain": math.sqrt(pot.lower_bound) * min(abs(x_min), x_max),
            },
            "window": [self.window[0], self.window[1]],
            # Schema 1 lists every pipeline setting; grid_spacing and inset are null.
            "solver_config": {
                "window": self.requested_window,
                "ode_tol": self.phi_plus.tol,
                "grid_spacing": None,
                "inset": None,
                "root_tol": ROOT_TOL,
                "condition_tol": CONDITION_TOL,
                "classification_tol": CLASSIFICATION_TOL,
            },
        }


def _tail_infimum(potential: Potential, curve: FCurve) -> tuple[float, str]:
    """Energy level of pins escaping to +-inf.

    With declared tail limits the exact value 2 sqrt(min limit) is used;
    otherwise the curve is sampled at its window edges, which is a flagged
    heuristic (fine when the window is wide enough for F to have settled).
    """
    if potential.tail_limits is not None:
        return 2.0 * math.sqrt(min(potential.tail_limits)), "declared-tail-limits"
    return float(np.min(curve.value_at(curve.grid[[0, -1]]))), "edge-sampled"


def minimize(
    potential: Potential,
    window: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
) -> MinimizationReport:
    """Run the full two-stage minimization for a bounded potential.

    window: (x_min, x_max); None picks ``default_window``.
    tol: accuracy requested from the log-space integration.

    Every other tolerance is a module constant relative to the potential:
    ROOT_TOL and CONDITION_TOL in ``fcurve``, CLASSIFICATION_TOL here.  Its
    band CLASSIFICATION_TOL * m decides the verdict, and F below m (1 -
    CLASSIFICATION_TOL) at a node of a curve that is not flat raises SolverError.
    """
    x_min, x_max = window if window is not None else default_window(potential)
    phi_plus, phi_minus = solve_log_solution(potential, x_min, x_max, tol)
    curve = build_fcurve(phi_plus, phi_minus)
    scan = find_critical_points(curve)
    tail, tail_method = _tail_infimum(potential, curve)

    best: CriticalPoint | None = min(scan.points, key=lambda p: p.value, default=None)
    attainment, margin = classify_attainment(tail, None if best is None else best.value, scan.flat)
    m_value = tail if best is None else min(tail, best.value)
    # m is the infimum of F, so a node below it is a minimum no critical point resolved.
    f = curve.node_reads.value
    k = int(np.argmin(f))
    if not scan.flat and f[k] < m_value * (1.0 - CLASSIFICATION_TOL):
        raise SolverError(
            f"F = {f[k]:.10g} at the node {curve.nodes[k]:.10g} is below m = {m_value:.10g}: "
            "a minimum went unresolved among the undecided nodes"
        )
    # A flat scan's one candidate is its representative at 0.
    a_star = best.location if attainment in ("attained", "flat") else None
    return MinimizationReport(
        m_value=m_value,
        best_constant=m_value ** -0.5,
        attainment=attainment,
        a_star=a_star,
        margin=margin,
        tail_infimum=tail,
        tail_method=tail_method,
        critical_points=scan.points,
        rejected_candidates=scan.rejected,
        window=(float(x_min), float(x_max)),
        requested_window=window,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        curve=curve,
    )


def extremal(report: MinimizationReport) -> ExtremalFunction | None:
    """The normalized extremal function u_{a*}, or None when none exists.

    Flat curves return the representative centered at 0; any translate is
    equally extremal there.
    """
    if report.a_star is None:
        return None
    return extremal_function(report.phi_plus, report.phi_minus, report.a_star)


def rayleigh_quotient(u: ExtremalFunction, potential: Potential) -> float:
    """The quotient (||u'||_2^2 + int V u^2) / max|u|^2 of an extremal over its window.

    max|u| = 1 at the center, and u' is read analytically with u, as
    (log u, u'/u) once per node of the composite Gauss-Legendre rule, whose
    panels split at the center and at the potential's breakpoints.  V at the
    nodes is read by ``_honest`` (SolverError outside the declared bounds).
    Always >= m(V) up to quadrature error; equal to it at a*.  For a trial
    function, integrate with ``quadrature.composite_gauss_legendre``.
    """
    if not isinstance(u, ExtremalFunction):
        raise TypeError(
            f"rayleigh_quotient reads an extremal() function, not a {type(u).__name__}; "
            "integrate a trial function with quadrature.composite_gauss_legendre"
        )

    def integrand(x):
        log_u, rate = u._reads(x)
        uu = np.exp(log_u)
        du = uu * rate
        return du * du + _honest(potential, x) * uu * uu

    splits = [u.center, *potential.breakpoints]
    panel = 0.4 / math.sqrt(potential.upper_bound)
    return composite_gauss_legendre(integrand, *u.window, splits=splits, panel_length=panel)
