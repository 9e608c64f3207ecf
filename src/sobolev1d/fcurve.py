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

Candidate minimizers of F are the critical points with nonnegative
curvature.  Three equivalent local-minimality criteria are exposed (for
continuous V): the balanced-slope test  -l_+' = l_-' >= sqrt(V), and one
one-sided product test per side,  h_+' H_+ = -1 with l_+'' <= 0  and its
mirror image, where h_± = phi_±^2 and H_± is the decaying primitive that
represents the opposite side through phi_∓ = W phi_± H_±.  Numerically the
products reduce to  2 r_±(a) exp(l_+(a) + l_-(a)) / W.
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
    _is_point,
    _pair_reads,
    _sample_grid,
    decay_inset,
)
from .potential import Potential

__all__ = [
    "FCurve",
    "CriticalPoint",
    "CriticalPointScan",
    "EquivalenceRow",
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
# Absolute tolerance shared by every local-minimality test.
CONDITION_TOL = 1e-6


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
    tol: float
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

    def _sides(self, a) -> PinReads:
        """The pair read at x = y = a, a pin (kept a float) or an array of pins; V is not read."""
        a = float(a) if _is_point(a) else np.asarray(a, dtype=float)
        _check_inside(a, self.window, "pin location outside curve window")
        return _pair_reads(self.phi_plus, self.phi_minus, a, a)[0]

    def _reads(self, a) -> PinReads:
        """``_sides`` with V at the pins, for F'' and the minimality tests."""
        reads = self._sides(a)
        v = np.asarray(self.potential.evaluate(np.asarray(a, dtype=float)), dtype=float)
        return reads._replace(v=float(v) if isinstance(reads.r_plus, float) else v)

    def value_at(self, a):
        return self._sides(a).value

    def slope_at(self, a):
        return self._sides(a).slope

    def curvature_at(self, a):
        return self._reads(a).curvature

    def log_phi_sum(self, a):
        """log(phi_plus(a) * phi_minus(a)); equals log(W/F(a)) identically."""
        reads = self._sides(a)
        return reads.l_plus + reads.l_minus

    def product_criterion(self, side: str, a):
        """h_side'(a) H_side(a), the one-sided minimality product.

        Equals 2 r_side(a) phi_plus(a) phi_minus(a) / W; at interior minima
        of F the "+" product is -1 and the "-" product is +1.
        """
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        return self._sides(a).product(side, self.wronskian)

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
    inset = decay_inset(potential)
    x_min, x_max = phi_plus.window
    lo, hi = x_min + inset, x_max - inset
    grid = _sample_grid(phi_plus)
    grid = grid[(grid >= lo) & (grid <= hi)]

    reads = _pair_reads(phi_plus, phi_minus, grid, grid)[0]
    reads = reads._replace(v=np.asarray(potential.evaluate(grid), dtype=float))
    if np.any(reads.value <= 0.0):
        raise SolverError("energy curve is not positive; integration is unusable")
    return FCurve(
        grid=grid,
        wronskian=wronskian,
        window=(float(lo), float(hi)),
        potential=potential,
        tol=phi_plus.tol,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        grid_reads=reads,
    )


@dataclass
class CriticalPoint:
    """A polished root of F' with its local-minimality diagnostics.

    ``balanced_slope``: -l_+'(a) = l_-'(a) >= sqrt(V(a)) within tolerance.
    ``plus_side_product``: h_+'(a) H_+(a) = -1 and l_+''(a) <= 0.
    ``minus_side_product``: h_-'(a) H_-(a) = +1 and l_-''(a) <= 0.
    """

    location: float
    value: float
    curvature: float
    slope_residual: float
    balanced_slope: bool
    plus_side_product: bool
    minus_side_product: bool


@dataclass
class CriticalPointScan:
    """Outcome of the critical-point search.

    ``points`` hold the accepted candidates (F' root, curvature above
    -CURVATURE_SLACK * max(1, max F)); ``rejected`` the roots that failed
    the curvature test (local maxima).  ``flat`` marks a curve whose slope never exceeds
    the noise floor: every pin is then critical and ``points`` carries a
    single representative at a = 0.
    """

    points: list[CriticalPoint]
    rejected: list[CriticalPoint]
    flat: bool
    noise_floor: float


def _condition_flags(
    reads: PinReads, wronskian: float, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The balanced-slope and the two one-sided product tests at every pin."""
    rp, rm, v = reads.r_plus, reads.r_minus, reads.v
    balanced = (np.abs(rp + rm) <= tol) & (np.minimum(-rp, rm) >= np.sqrt(v) - tol)
    plus = (np.abs(reads.product("+", wronskian) + 1.0) <= tol) & (v - rp * rp <= tol)
    minus = (np.abs(reads.product("-", wronskian) - 1.0) <= tol) & (v - rm * rm <= tol)
    return balanced, plus, minus


def _make_point(curve: FCurve, a: float, condition_tol: float) -> CriticalPoint:
    reads = curve._reads(a)
    balanced, plus, minus = _condition_flags(reads, curve.wronskian, condition_tol)
    return CriticalPoint(
        location=float(a),
        value=reads.value,
        curvature=reads.curvature,
        slope_residual=abs(reads.slope),
        balanced_slope=bool(balanced),
        plus_side_product=bool(plus),
        minus_side_product=bool(minus),
    )


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


def find_critical_points(curve: FCurve) -> CriticalPointScan:
    """Locate the candidate minimizers of F on the curve window.

    Sign changes of the sampled slope are polished to within ROOT_TOL by
    safeguarded Newton steps on the dense slope F' with the analytic F'',
    one read of both sides per step.
    Sign changes whose bracket values both sit under the noise floor
    (NOISE_FACTOR * tol * max(1, max F)) are integrator noise in an
    asymptotically flat region and are ignored; a curve whose slope never
    exceeds the floor is classified flat (constant potentials).  Roots with
    curvature below -CURVATURE_SLACK * max(1, max F) are reported as rejected.
    The minimality flags of each point use CONDITION_TOL.
    """
    scale = max(1.0, float(np.max(np.abs(curve.values))))
    noise_floor = NOISE_FACTOR * curve.tol * scale
    curvature_slack = CURVATURE_SLACK * scale

    if float(np.max(np.abs(curve.slope))) <= noise_floor:
        rep = _make_point(curve, 0.0, CONDITION_TOL)
        return CriticalPointScan(
            points=[rep],
            rejected=[],
            flat=True,
            noise_floor=noise_floor,
        )

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

    points: list[CriticalPoint] = []
    rejected: list[CriticalPoint] = []
    for root in roots:
        pt = _make_point(curve, root, CONDITION_TOL)
        (points if pt.curvature >= -curvature_slack else rejected).append(pt)
    return CriticalPointScan(
        points=points,
        rejected=rejected,
        flat=False,
        noise_floor=noise_floor,
    )


@dataclass
class EquivalenceRow:
    location: float
    local_min: bool
    balanced_slope: bool
    plus_side_product: bool
    minus_side_product: bool

    @property
    def agree(self) -> bool:
        return (
            self.local_min
            == self.balanced_slope
            == self.plus_side_product
            == self.minus_side_product
        )


@dataclass
class EquivalenceReport:
    rows: list[EquivalenceRow]
    tol: float

    @property
    def n_disagree(self) -> int:
        return sum(not row.agree for row in self.rows)

    @property
    def all_agree(self) -> bool:
        return self.n_disagree == 0


def check_minimality_equivalence(
    curve: FCurve, samples: Sequence[float] | None = None
) -> EquivalenceReport:
    """Evaluate the four local-minimality tests at each sample and compare.

    At every location the direct test (|F'| <= tol and F'' >= -tol) must
    return the same truth value as the balanced-slope and the two one-sided
    product criteria; the shared tolerance is the absolute CONDITION_TOL.
    Meaningful for continuous potentials.  All samples are read in one call.
    """
    if samples is None:
        step = max(1, curve.grid.size // 200)
        samples = curve.grid[::step]
    a = np.asarray(samples, dtype=float)
    reads = curve._reads(a)
    local_min = (np.abs(reads.slope) <= CONDITION_TOL) & (reads.curvature >= -CONDITION_TOL)
    flags = _condition_flags(reads, curve.wronskian, CONDITION_TOL)
    rows = [
        EquivalenceRow(*row)
        for row in zip(a.tolist(), local_min.tolist(), *(f.tolist() for f in flags))
    ]
    return EquivalenceReport(rows=rows, tol=CONDITION_TOL)
