"""The pinned energy curve F(a) and its critical points.

F(a) is the least energy  ||u'||_2^2 + int V u^2  among H^1 functions with
u(a) = max|u| = 1.  In terms of the log-derivatives r_± of the decaying
solutions it is purely algebraic:

    F(a)   = r_minus(a) - r_plus(a)                  (> 0),
    F'(a)  = -F(a) (r_plus(a) + r_minus(a)),
    F''(a) = 2 F(a) (r_plus^2 + r_plus r_minus + r_minus^2 - V(a)),

so no differencing of F is ever needed.  The product F phi_plus phi_minus
equals the Wronskian W = r_minus(0) - r_plus(0) identically; its constancy
along the grid is a strong cross-check of the integration.

Candidate minimizers of F are the roots of F' with nonnegative curvature,
within a slack; the other roots are rejected as local maxima.  The list a
root lands in is its one minimality verdict: the balanced-slope test
-l_+' = l_-' >= sqrt(V) and the one-sided products h_±' H_± = ∓1 (which
reduce to 2 r_± phi_+ phi_- / W) restate the same predicate in other units.
``check_minimality_equivalence`` tests the F' and F'' that the verdict is
taken on against five-point differences of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fundamental import (
    LogSolution,
    PinReads,
    SolverError,
    _check_inside,
    _check_pair,
    _curve_window,
    _exp,
    _is_point,
    _pair_reads,
    _sample_grid,
)
from .potential import Potential

__all__ = [
    "FCurve",
    "CriticalPoint",
    "CriticalPointScan",
    "EquivalenceReport",
    "build_fcurve",
    "find_critical_points",
    "check_minimality_equivalence",
]

# Slope sign changes whose bracket values both sit under
# NOISE_FACTOR * tol * max(1, max F) are integrator noise.
NOISE_FACTOR = 100.0
# Roots with curvature below -CURVATURE_SLACK * max(1, max F) are rejected.
CURVATURE_SLACK = 1e-8
# Newton polish of F' roots stops once a step is below ROOT_TOL.
ROOT_TOL = 1e-12
# Scaled tolerance of the F', F'' check against differences of F.
CONDITION_TOL = 1e-6
# The check's difference step, in units of 1/sqrt(v1).
DIFFERENCE_STEP = 3e-3


@dataclass
class FCurve:
    """Samples and dense evaluators of F, F', F'' on a truncation-safe window.

    The grid is the solutions' sample grid inset from the window edges by
    the decay inset, where the seeding transient of both sides is far below
    every tolerance used here.  Every evaluator takes a pin or an array of pins
    and reads each side once per call; ``grid_reads`` keeps the reads at the
    grid that built the curve, from which ``values``, ``slope`` and
    ``curvature`` on the grid derive.
    """

    grid: np.ndarray
    wronskian: float
    window: tuple[float, float]
    potential: Potential
    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)
    grid_reads: PinReads = field(repr=False)

    @property
    def values(self) -> np.ndarray:
        """F on the grid."""
        return self.grid_reads.value

    @property
    def slope(self) -> np.ndarray:
        """F' on the grid."""
        return self.grid_reads.slope

    @property
    def curvature(self) -> np.ndarray:
        """F'' on the grid."""
        return self.grid_reads.curvature

    def _reads(self, a, v: bool = True) -> PinReads:
        """The pair read at x = y = a, a pin (kept a float) or an array of pins; V there if v."""
        a = float(a) if _is_point(a) else np.asarray(a, dtype=float)
        _check_inside(a, self.window, "pin location outside curve window")
        return _pair_reads(self.phi_plus, self.phi_minus, a, a, v)[0]

    def value_at(self, a):
        return self._reads(a, v=False).value

    def slope_at(self, a):
        return self._reads(a, v=False).slope

    def curvature_at(self, a):
        return self._reads(a).curvature

    def log_phi_sum(self, a):
        """log(phi_plus(a) * phi_minus(a)); equals log(W/F(a)) identically."""
        reads = self._reads(a, v=False)
        return reads.l_plus + reads.l_minus

    def product_criterion(self, side: str, a):
        """h_side'(a) H_side(a), the one-sided minimality product.

        Equals 2 r_side(a) phi_plus(a) phi_minus(a) / W; at interior minima
        of F the "+" product is -1 and the "-" product is +1.
        """
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        reads = self._reads(a, v=False)
        r = reads.r_plus if side == "+" else reads.r_minus
        return 2.0 * r * _exp(reads.l_plus + reads.l_minus) / self.wronskian

    def wronskian_drift(self) -> float:
        """max |F phi_+ phi_- / W - 1| over the grid (should be ~roundoff)."""
        reads = self.grid_reads
        log_w = np.log(self.values) + reads.l_plus + reads.l_minus
        return float(np.max(np.abs(np.expm1(log_w - math.log(self.wronskian)))))


def build_fcurve(phi_plus: LogSolution, phi_minus: LogSolution) -> FCurve:
    """Assemble the energy curve from the two decaying solutions.

    The solutions must have been produced on the same window; the curve grid
    is their sample grid (spacing SAMPLE_SPACING/sqrt(v0), plus 0 and the
    breakpoints) restricted to [x_min + inset, x_max - inset] with the decay
    inset 12/sqrt(v0).  The solver's decay margin of 20 keeps 0 inside.
    """
    wronskian = _check_pair(phi_plus, phi_minus)
    potential = phi_plus.potential
    lo, hi = _curve_window(potential, phi_plus.window)
    grid = _sample_grid(phi_plus)
    grid = grid[(grid >= lo) & (grid <= hi)]

    reads = _pair_reads(phi_plus, phi_minus, grid, grid, v_at_x=True)[0]
    if np.any(reads.value <= 0.0):
        raise SolverError("energy curve is not positive; integration is unusable")
    return FCurve(
        grid=grid,
        wronskian=wronskian,
        window=(lo, hi),
        potential=potential,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        grid_reads=reads,
    )


@dataclass
class CriticalPoint:
    """A polished root of F': F, F'' and |F'| there, from one one-pin read."""

    location: float
    value: float
    curvature: float
    slope_residual: float


@dataclass
class CriticalPointScan:
    """Outcome of the critical-point search.

    ``points`` hold the accepted candidates (F' root, curvature above
    -CURVATURE_SLACK * max(1, max F)); ``rejected`` the roots that failed
    the curvature test (local maxima; one whose slope stays under the noise
    floor is not listed).  The list a root is in is its minimality verdict.
    ``flat`` marks a curve whose slope never exceeds the noise floor: every
    pin is then critical and ``points`` carries a single representative at 0.
    """

    points: list[CriticalPoint]
    rejected: list[CriticalPoint]
    flat: bool
    noise_floor: float


def _polish_root(curve: FCurve, lo: float, hi: float, s_lo: float, xtol: float) -> float:
    """Root of F' in [lo, hi], where F' changes sign; s_lo is F'(lo).

    Newton's method on F' with the analytic F'', safeguarded by the sign
    bracket: a step that would leave the bracket, or is not below half the
    step before last, is replaced by bisection.  Stops once a step is below
    xtol.
    """
    # Orient the bracket so that F' < 0 at neg and F' > 0 at pos.
    neg, pos = (lo, hi) if s_lo < 0.0 else (hi, lo)
    x = 0.5 * (lo + hi)
    step = prev_step = hi - lo
    for _ in range(100):
        reads = curve._reads(x)
        f = reads.slope
        if f == 0.0:
            return x
        if f < 0.0:
            neg = x
        else:
            pos = x
        df = reads.curvature
        dx = f / df if df != 0.0 else math.inf
        if abs(dx) < 0.5 * abs(prev_step) and min(neg, pos) < x - dx < max(neg, pos):
            prev_step, step = step, dx
            x -= dx
        else:
            prev_step, step = step, 0.5 * (pos - neg)
            x = neg + step
        if abs(step) < xtol or x in (neg, pos):
            return x
    raise SolverError(f"root polish of F' did not converge in [{lo:g}, {hi:g}]")


def _slope_roots(curve: FCurve, noise_floor: float) -> list[float]:
    """Polished sign changes of F' above the noise floor, and a wide well's grid minimum."""
    roots: list[float] = []
    s = curve.slope
    g = curve.grid
    left, right = s[:-1], s[1:]
    brackets = (left * right <= 0.0) & (np.maximum(np.abs(left), np.abs(right)) > noise_floor)
    for i in np.flatnonzero(brackets).tolist():
        if s[i] == 0.0:
            root = float(g[i])
        elif s[i + 1] == 0.0:
            root = float(g[i + 1])
        else:
            root = _polish_root(curve, float(g[i]), float(g[i + 1]), float(s[i]), ROOT_TOL)
        if not roots or abs(root - roots[-1]) > max(10 * ROOT_TOL, 1e-11):
            roots.append(root)
    i, f = int(np.argmin(curve.values)), curve.values
    if f[i] < min(f[0], f[-1]) - noise_floor:
        if not any(g[max(i - 1, 0)] <= root <= g[min(i + 1, g.size - 1)] for root in roots):
            roots = sorted(roots + [float(g[i])])
    return roots


def find_critical_points(curve: FCurve) -> CriticalPointScan:
    """Locate the candidate minimizers of F on the curve window.

    Sign changes of the sampled slope are polished to within ROOT_TOL by
    safeguarded Newton steps on the dense slope F' with the analytic F'',
    one read of both sides per step.
    Sign changes whose bracket values both sit under the noise floor
    (NOISE_FACTOR * tol * max(1, max F)) are integrator noise in an
    asymptotically flat region and are ignored; a curve whose slope never
    exceeds the floor is classified flat (constant potentials).  A well many
    decay lengths wide keeps F' under the floor on both sides of its minimum,
    so a grid minimum of F below both edge values by more than the floor,
    with no root within one grid cell, is a candidate too.  Roots with
    curvature below -CURVATURE_SLACK * max(1, max F) are reported as rejected;
    a maximum whose slope stays under the floor is not.  Each root is read
    once, by the one-pin pair read.
    """
    scale = max(1.0, float(np.max(np.abs(curve.values))))
    noise_floor = NOISE_FACTOR * curve.phi_plus.tol * scale
    curvature_slack = CURVATURE_SLACK * scale

    flat = float(np.max(np.abs(curve.slope))) <= noise_floor
    # A flat curve has one representative, at a = 0.
    roots = [0.0] if flat else _slope_roots(curve, noise_floor)
    if not roots:
        return CriticalPointScan(points=[], rejected=[], flat=False, noise_floor=noise_floor)
    points: list[CriticalPoint] = []
    rejected: list[CriticalPoint] = []
    for x in roots:
        reads = curve._reads(x)
        pt = CriticalPoint(x, reads.value, reads.curvature, abs(reads.slope))
        (points if flat or pt.curvature >= -curvature_slack else rejected).append(pt)
    return CriticalPointScan(
        points=points,
        rejected=rejected,
        flat=flat,
        noise_floor=noise_floor,
    )


@dataclass
class EquivalenceReport:
    """The analytic F' and F'' against five-point differences of F, at each kept pin.

    ``slope_gap`` is |F' - D1F| / (F max(1, sqrt(v1))) and ``curvature_gap``
    is |F'' - D2F| / (F max(1, v1)); a pin disagrees when either gap is over
    CONDITION_TOL (or NaN).
    """

    locations: np.ndarray
    slope_gap: np.ndarray
    curvature_gap: np.ndarray

    @property
    def n_disagree(self) -> int:
        worst = np.maximum(self.slope_gap, self.curvature_gap)
        return int(np.count_nonzero(~(worst <= CONDITION_TOL)))

    @property
    def all_agree(self) -> bool:
        return self.n_disagree == 0


def _default_samples(curve: FCurve) -> np.ndarray:
    """About 200 evenly strided pins of the curve grid."""
    return curve.grid[:: max(1, curve.grid.size // 200)]


def check_minimality_equivalence(
    curve: FCurve, samples: Sequence[float] | None = None
) -> EquivalenceReport:
    """Check the F' and F'' that critical points are classified on against F itself.

    At each sample a, the analytic F'(a) and F''(a) are compared with the
    five-point differences of F at a +- h and a +- 2h, where
    h = DIFFERENCE_STEP/sqrt(v1), on the scales of EquivalenceReport.  Samples within 2h of a curve window
    edge or of a breakpoint are dropped: there the stencil leaves the window
    or straddles a jump of F''.  The samples (by default ``_default_samples``)
    must lie in the curve window; every pin of every stencil is read in one call.
    """
    a = _default_samples(curve) if samples is None else np.asarray(samples, dtype=float)
    _check_inside(a, curve.window, "sample outside curve window")
    v1 = curve.potential.upper_bound
    h = DIFFERENCE_STEP / math.sqrt(v1)
    lo, hi = curve.window
    cuts = np.array(curve.potential.breakpoints)
    keep = (lo + 2.0 * h <= a) & (a <= hi - 2.0 * h)
    keep &= np.all(np.abs(np.subtract.outer(a, cuts)) > 2.0 * h, axis=-1)
    a = a[keep]
    reads = curve._reads(a + np.array([0.0, -2.0 * h, -h, h, 2.0 * h])[:, None])
    f = reads.value
    d1 = (f[1] - f[4] + 8.0 * (f[3] - f[2])) / (12.0 * h)
    d2 = (16.0 * (f[2] + f[3]) - (f[1] + f[4]) - 30.0 * f[0]) / (12.0 * h * h)
    return EquivalenceReport(
        a,
        np.abs(reads.slope[0] - d1) / (f[0] * max(1.0, math.sqrt(v1))),
        np.abs(reads.curvature[0] - d2) / (f[0] * max(1.0, v1)),
    )
