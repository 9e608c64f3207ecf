"""Green function of -d^2/dx^2 + V on the line, from the decaying solutions.

With phi_minus, phi_plus the decaying solutions normalized at 0 and
W = phi_minus' (0) - phi_plus'(0) their (constant) Wronskian,

    G(x, y) = phi_minus(min(x, y)) phi_plus(max(x, y)) / W,

symmetric by construction and equal to u_y(x) / F(y).  G, the pinned
minimizer u_y and the curve F all read the pair through one reader,
``fundamental._pair_reads``.  Everything is evaluated in log space, so
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

from .fundamental import LogSolution, _check_pair, _exp, _pair_reads
from .potential import Potential
from .quadrature import composite_gauss_legendre

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
class GreenEvaluator:
    """Vectorized evaluator of G on the solved window."""

    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)
    wronskian: float

    @property
    def window(self) -> tuple[float, float]:
        return self.phi_plus.window

    @property
    def potential(self) -> Potential:
        return self.phi_plus.potential

    def _reads(self, x, y):
        """(log G(x, y), d/dx log G(x, y)): floats for two points, else broadcast arrays.

        ``_pair_reads`` gives phi_minus at the smaller argument and phi_plus
        at the larger one, one dense read per side; the x-derivative's rate
        is r_minus left of the diagonal and r_plus from it on.
        """
        (rp, rm, lp, lm, _), left = _pair_reads(self.phi_plus, self.phi_minus, x, y)
        rate = np.where(left, rm, rp) if isinstance(left, np.ndarray) else (rm if left else rp)
        return lm + lp - math.log(self.wronskian), rate

    def log_value(self, x, y):
        return self._reads(x, y)[0]

    def value(self, x, y):
        return _exp(self._reads(x, y)[0])

    __call__ = value

    def diagonal(self, y):
        """G(y, y) = 1/F(y)."""
        return self.value(y, y)

    def section_derivative(self, x, y):
        """d/dx G(x, y) away from the diagonal (right-derivative at x = y)."""
        log_g, rate = self._reads(x, y)
        return _exp(log_g) * rate


def build_green(phi_plus: LogSolution, phi_minus: LogSolution) -> GreenEvaluator:
    """Assemble the evaluator; the sides must come from one solve."""
    wronskian = _check_pair(phi_plus, phi_minus)
    return GreenEvaluator(phi_plus=phi_plus, phi_minus=phi_minus, wronskian=wronskian)


@dataclass
class GreenResidualReport:
    """Residuals of the weak identity, one per test function."""

    residuals: list[float]
    tolerance: float
    passed: bool


def residual_check(
    green: GreenEvaluator,
    y: float,
    test_functions: Sequence[tuple[Callable, Callable]],
) -> GreenResidualReport:
    """Check int(G(., y)' v' + V G(., y) v) = v(y) for each (v, v').

    Integrates over the solved window, so it is meaningful for test
    functions negligible outside it (the identity is over the whole line).
    Panels are split at y and at the potential's breakpoints.
    """
    lo, hi = green.window
    if not (lo < y < hi):
        raise ValueError(f"diagonal point {y:g} outside window [{lo:g}, {hi:g}]")
    pot = green.potential
    panel = 0.4 / math.sqrt(pot.upper_bound)
    residuals = []
    for v, v_prime in test_functions:

        def integrand(x):
            log_g, rate = green._reads(x, y)
            g = np.exp(log_g)
            return g * rate * np.asarray(v_prime(x)) + np.asarray(
                pot.evaluate(x)
            ) * g * np.asarray(v(x))

        total = composite_gauss_legendre(
            integrand,
            lo,
            hi,
            splits=[y, *pot.breakpoints],
            panel_length=panel,
        )
        residuals.append(abs(total - float(v(y))))
    worst = max(residuals) if residuals else 0.0
    return GreenResidualReport(
        residuals=residuals, tolerance=RESIDUAL_TOL, passed=worst <= RESIDUAL_TOL
    )


def gaussian_test(center: float, width: float) -> tuple[Callable, Callable]:
    """A Gaussian bump test function and its derivative."""

    def v(x):
        t = (np.asarray(x, dtype=float) - center) / width
        return np.exp(-0.5 * t * t)

    def v_prime(x):
        t = (np.asarray(x, dtype=float) - center) / width
        return -t / width * np.exp(-0.5 * t * t)

    return v, v_prime
