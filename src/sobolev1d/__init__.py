"""Sharp sup-norm Sobolev constants on the line.

For a potential V with 0 < v0 <= V <= v1 the quadratic form
``E(u) = int (u')^2 + V u^2`` controls the squared sup norm,

    sup |u|^2  <=  m(V)^{-1} E(u),

and the best factor m(V) is found by minimizing the pinned energy
``F(a) = min { E(u) : u(a) = max |u| = 1 }`` over the pin location a.
This package computes F and its derivatives from two one-sided
logarithmic-derivative solutions, locates and classifies the minimizers,
evaluates the associated Green function, and cross-checks everything
against a direct finite-difference minimization.
"""

from .fcurve import (
    CriticalPoint,
    CriticalPointScan,
    EquivalenceReport,
    EquivalenceRow,
    FCurve,
    build_fcurve,
    check_minimality_equivalence,
    find_critical_points,
)
from .fundamental import (
    ComparisonReport,
    EnvelopeReport,
    ExtremalFunction,
    GluingReport,
    LogSolution,
    ResidualReport,
    SolverError,
    check_comparison,
    check_envelope_bounds,
    check_gluing,
    check_riccati_residual,
    decay_inset,
    extremal_function,
    solve_log_solution,
)
from .green import (
    GreenEvaluator,
    GreenResidualReport,
    build_green,
    gaussian_test,
    residual_check,
)
from .minimizer import (
    MinimizationReport,
    classify_attainment,
    default_window,
    extremal,
    minimize,
    rayleigh_quotient,
)
from .oracle import (
    DiscreteRayleighProblem,
    discrete_first_step,
    discrete_minimize,
)
from .potential import (
    Potential,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    potential_from_log_derivative,
    potential_from_spec,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalPoint",
    "CriticalPointScan",
    "EquivalenceReport",
    "EquivalenceRow",
    "FCurve",
    "build_fcurve",
    "check_minimality_equivalence",
    "find_critical_points",
    "ComparisonReport",
    "EnvelopeReport",
    "ExtremalFunction",
    "GluingReport",
    "LogSolution",
    "ResidualReport",
    "SolverError",
    "check_comparison",
    "check_envelope_bounds",
    "check_gluing",
    "check_riccati_residual",
    "decay_inset",
    "extremal_function",
    "solve_log_solution",
    "GreenEvaluator",
    "GreenResidualReport",
    "build_green",
    "gaussian_test",
    "residual_check",
    "MinimizationReport",
    "classify_attainment",
    "default_window",
    "extremal",
    "minimize",
    "rayleigh_quotient",
    "DiscreteRayleighProblem",
    "discrete_first_step",
    "discrete_minimize",
    "Potential",
    "make_constant",
    "make_example",
    "make_monotone_step",
    "make_piecewise_constant",
    "potential_from_log_derivative",
    "potential_from_spec",
    "__version__",
]
