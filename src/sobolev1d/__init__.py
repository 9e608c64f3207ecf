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

The top level exports the pipeline; the building blocks (the pair solve, the
energy curve, checks and reports, the mesh oracle) are imported from their
submodules: ``fundamental``, ``fcurve``, ``green``, ``minimizer``, ``oracle``.
"""

from .fundamental import SolverError
from .green import build_green
from .minimizer import extremal, minimize, rayleigh_quotient
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
    "minimize",
    "extremal",
    "rayleigh_quotient",
    "build_green",
    "Potential",
    "make_constant",
    "make_example",
    "make_monotone_step",
    "make_piecewise_constant",
    "potential_from_log_derivative",
    "potential_from_spec",
    "SolverError",
    "__version__",
]
