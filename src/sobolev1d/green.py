"""Green function of -d^2/dx^2 + V on the line, from the decaying solutions.

With phi_minus, phi_plus the decaying solutions normalized at 0 and
W = phi_minus' (0) - phi_plus'(0) their (constant) Wronskian,

    G(x, y) = phi_minus(min(x, y)) phi_plus(max(x, y)) / W,

symmetric by construction and equal to u_y(x) / F(y).  G, the curve F and
the pinned minimizer u_y read the pair through one reader,
``fundamental._pair_reads``, which reads each side only at the points on its
own side of a point y.  Everything is evaluated in log space, so
lattice spans that would overflow phi itself are harmless.  For V == v the
closed form is e^{-sqrt(v)|x-y|} / (2 sqrt(v)).

``residual_check`` verifies the defining weak identity

    int( G(., y)' v' + V G(., y) v ) = v(y)

for supplied test functions by composite quadrature over the solved window,
split at the diagonal kink and at the potential's breakpoints, to within
RESIDUAL_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .fundamental import LogSolution, _check_pair, _honest, _pair_reads, _PairReader
from .quadrature import composite_rule

__all__ = [
    "GreenEvaluator",
    "GreenResidualReport",
    "build_green",
    "residual_check",
    "gaussian_test",
]

# Largest residual of the weak identity that passes.
RESIDUAL_TOL = 1e-6


@dataclass
class GreenEvaluator(_PairReader):
    """Vectorized evaluator of G on the solved window: G(x, y), its log and d/dx G."""

    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)
    wronskian: float

    def _reads(self, x, y):
        """(log G(x, y), d/dx log G(x, y)): floats for two points, else broadcast arrays.

        One ``_pair_reads`` call: phi_minus at the smaller argument and
        phi_plus at the larger; the rate is r_minus left of the diagonal and
        r_plus from it on.
        """
        (rp, rm, lp, lm, _), left = _pair_reads(self.phi_plus, self.phi_minus, x, y)
        rate = (rm if left else rp) if isinstance(left, bool) else np.where(left, rm, rp)
        return lm + lp - math.log(self.wronskian), rate

    value = _PairReader.__call__
    section_derivative = _PairReader._derivative


def build_green(phi_plus: LogSolution, phi_minus: LogSolution) -> GreenEvaluator:
    """Assemble the evaluator; the sides must come from one solve."""
    wronskian = _check_pair(phi_plus, phi_minus)
    return GreenEvaluator(phi_plus=phi_plus, phi_minus=phi_minus, wronskian=wronskian)


@dataclass
class GreenResidualReport:
    """Residuals of the weak identity, one per test function."""

    residuals: list[float]
    passed: bool


def residual_check(
    green: GreenEvaluator,
    y: float,
    test_functions: Sequence[tuple[Callable, Callable]],
) -> GreenResidualReport:
    """Check int(G(., y)' v' + V G(., y) v) = v(y) for each (v, v').

    Integrates over the solved window, so it is meaningful for test
    functions negligible outside it (the identity is over the whole line).
    Panels are split at y and at the potential's breakpoints.  G(., y), its
    rate and V are read at the quadrature nodes once, for all test
    functions (one dense read per side), V by ``_honest``, which raises
    SolverError outside the declared bounds; each residual is then one dot
    product with the weights.
    """
    lo, hi = green.window
    if not (lo < y < hi):
        raise ValueError(f"diagonal point {y:g} outside window [{lo:g}, {hi:g}]")
    pot = green.phi_plus.potential
    x, w = composite_rule(
        lo, hi, splits=[y, *pot.breakpoints], panel_length=0.4 / math.sqrt(pot.upper_bound)
    )
    log_g, rate = green._reads(x, y)
    g = np.exp(log_g)
    g_rate, v_g = g * rate, _honest(pot, x) * g
    residuals = []
    for v, v_prime in test_functions:
        integrand = g_rate * np.asarray(v_prime(x)) + v_g * np.asarray(v(x))
        residuals.append(abs(float(np.dot(w, integrand)) - float(v(y))))
    worst = max(residuals) if residuals else 0.0
    return GreenResidualReport(residuals=residuals, passed=worst <= RESIDUAL_TOL)


def gaussian_test(center: float, width: float) -> tuple[Callable, Callable]:
    """A Gaussian bump test function and its derivative."""

    def v(x):
        t = (np.asarray(x, dtype=float) - center) / width
        return np.exp(-0.5 * t * t)

    def v_prime(x):
        t = (np.asarray(x, dtype=float) - center) / width
        return -t / width * np.exp(-0.5 * t * t)

    return v, v_prime
