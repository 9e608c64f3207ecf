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

from .fundamental import LogSolution, SolverError, _check_pair, _match, decay_inset
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


@dataclass
class FCurve:
    """Samples and dense evaluators of F, F', F'' on a truncation-safe window.

    The grid is the solutions' grid inset from the window edges by the decay
    inset, where the seeding transient of both sides is far below every
    tolerance used here.
    """

    grid: np.ndarray
    values: np.ndarray
    slope: np.ndarray
    curvature: np.ndarray
    wronskian: float
    window: tuple[float, float]
    potential: Potential
    tol: float
    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)

    def _check(self, a) -> np.ndarray:
        arr = np.asarray(a, dtype=float)
        lo, hi = self.window
        eps = 1e-12 * (1.0 + abs(lo) + abs(hi))
        if np.any(arr < lo - eps) or np.any(arr > hi + eps):
            raise ValueError(f"pin location outside curve window [{lo:g}, {hi:g}]")
        return arr

    def _rates(self, a) -> tuple[np.ndarray, np.ndarray]:
        arr = self._check(a)
        return (
            np.asarray(self.phi_plus.ell_prime_at(arr)),
            np.asarray(self.phi_minus.ell_prime_at(arr)),
        )

    def value_at(self, a):
        rp, rm = self._rates(a)
        return _match(a, rm - rp)

    def slope_at(self, a):
        rp, rm = self._rates(a)
        return _match(a, -(rm - rp) * (rp + rm))

    def curvature_at(self, a):
        rp, rm = self._rates(a)
        v = np.asarray(self.potential.evaluate(np.asarray(a, dtype=float)))
        return _match(a, 2.0 * (rm - rp) * (rp * rp + rp * rm + rm * rm - v))

    def log_phi_sum(self, a):
        """log(phi_plus(a) * phi_minus(a)); equals log(W/F(a)) identically."""
        arr = self._check(a)
        out = np.asarray(self.phi_plus.ell_at(arr)) + np.asarray(
            self.phi_minus.ell_at(arr)
        )
        return _match(a, out)

    def product_criterion(self, side: str, a):
        """h_side'(a) H_side(a), the one-sided minimality product.

        Equals 2 r_side(a) phi_plus(a) phi_minus(a) / W; at interior minima
        of F the "+" product is -1 and the "-" product is +1.
        """
        rp, rm = self._rates(a)
        r = rp if side == "+" else rm
        if side not in ("+", "-"):
            raise ValueError(f"side must be '+' or '-', got {side!r}")
        out = 2.0 * r * np.exp(np.asarray(self.log_phi_sum(a))) / self.wronskian
        return _match(a, out)

    def wronskian_drift(self) -> float:
        """max |F phi_+ phi_- / W - 1| over the grid (should be ~roundoff)."""
        log_w = np.log(self.values) + np.asarray(
            self.phi_plus.ell_at(self.grid)
        ) + np.asarray(self.phi_minus.ell_at(self.grid))
        return float(np.max(np.abs(np.expm1(log_w - math.log(self.wronskian)))))


def build_fcurve(
    phi_plus: LogSolution,
    phi_minus: LogSolution,
    potential: Potential | None = None,
    *,
    inset: float | None = None,
) -> FCurve:
    """Assemble the energy curve from the two decaying solutions.

    The solutions must have been produced on the same window; the curve grid
    is their grid restricted to [x_min + inset, x_max - inset] (default
    inset: the decay inset, 12/sqrt(v0)).
    """
    wronskian = _check_pair(phi_plus, phi_minus)
    if potential is None:
        potential = phi_plus.potential
    if inset is None:
        inset = decay_inset(potential)
    x_min, x_max = phi_plus.window
    lo, hi = x_min + inset, x_max - inset
    if not (lo < 0.0 < hi):
        raise ValueError(
            f"window too narrow for inset {inset:g}: curve window [{lo:g}, {hi:g}] "
            "must contain 0"
        )
    mask = (phi_plus.grid >= lo) & (phi_plus.grid <= hi)
    grid = phi_plus.grid[mask]

    rp = np.asarray(phi_plus.ell_prime_at(grid))
    rm = np.asarray(phi_minus.ell_prime_at(grid))
    values = rm - rp
    if np.any(values <= 0.0):
        raise SolverError("energy curve is not positive; integration is unusable")
    v = np.asarray(potential.evaluate(grid))
    slope = -values * (rp + rm)
    curvature = 2.0 * values * (rp * rp + rp * rm + rm * rm - v)
    return FCurve(
        grid=grid,
        values=values,
        slope=slope,
        curvature=curvature,
        wronskian=wronskian,
        window=(float(lo), float(hi)),
        potential=potential,
        tol=max(phi_plus.tol, phi_minus.tol),
        phi_plus=phi_plus,
        phi_minus=phi_minus,
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
    single representative at a = 0.  ``derivative_sign_based_only`` is set
    for discontinuous potentials, where the product criteria are one-sided
    and only the sign of F' is trustworthy.
    """

    points: list[CriticalPoint]
    rejected: list[CriticalPoint]
    flat: bool
    noise_floor: float
    derivative_sign_based_only: bool


def _condition_flags(
    curve: FCurve, potential: Potential, a: float, tol: float
) -> tuple[bool, bool, bool]:
    rp = float(curve.phi_plus.ell_prime_at(a))
    rm = float(curve.phi_minus.ell_prime_at(a))
    v = float(potential.evaluate(a))
    sq = math.sqrt(v)
    balanced = abs(rp + rm) <= tol and min(-rp, rm) >= sq - tol
    prod_plus = float(curve.product_criterion("+", a))
    prod_minus = float(curve.product_criterion("-", a))
    plus = abs(prod_plus + 1.0) <= tol and (v - rp * rp) <= tol
    minus = abs(prod_minus - 1.0) <= tol and (v - rm * rm) <= tol
    return balanced, plus, minus


def _make_point(
    curve: FCurve, potential: Potential, a: float, condition_tol: float
) -> CriticalPoint:
    balanced, plus, minus = _condition_flags(curve, potential, a, condition_tol)
    return CriticalPoint(
        location=float(a),
        value=float(curve.value_at(a)),
        curvature=float(curve.curvature_at(a)),
        slope_residual=abs(float(curve.slope_at(a))),
        balanced_slope=balanced,
        plus_side_product=plus,
        minus_side_product=minus,
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
        f = float(curve.slope_at(x))
        if f == 0.0:
            return x
        if f < 0.0:
            neg = x
        else:
            pos = x
        df = float(curve.curvature_at(x))
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


def find_critical_points(
    curve: FCurve,
    potential: Potential | None = None,
    *,
    root_tol: float = 1e-12,
    condition_tol: float = 1e-6,
) -> CriticalPointScan:
    """Locate the candidate minimizers of F on the curve window.

    Sign changes of the sampled slope are polished to within root_tol by
    safeguarded Newton steps on the dense slope F' with the analytic F''.
    Sign changes whose bracket values both sit under the noise floor
    (NOISE_FACTOR * tol * max(1, max F)) are integrator noise in an
    asymptotically flat region and are ignored; a curve whose slope never
    exceeds the floor is classified flat (constant potentials).  Roots with
    curvature below -CURVATURE_SLACK * max(1, max F) are reported as rejected.
    """
    if potential is None:
        potential = curve.potential
    scale = max(1.0, float(np.max(np.abs(curve.values))))
    noise_floor = NOISE_FACTOR * curve.tol * scale
    curvature_slack = CURVATURE_SLACK * scale

    if float(np.max(np.abs(curve.slope))) <= noise_floor:
        rep = _make_point(curve, potential, 0.0, condition_tol)
        return CriticalPointScan(
            points=[rep],
            rejected=[],
            flat=True,
            noise_floor=noise_floor,
            derivative_sign_based_only=not potential.continuous,
        )

    roots: list[float] = []
    s = curve.slope
    g = curve.grid
    for i in range(len(g) - 1):
        if s[i] * s[i + 1] > 0.0:
            continue
        if max(abs(s[i]), abs(s[i + 1])) <= noise_floor:
            continue
        if s[i] == 0.0:
            root = float(g[i])
        elif s[i + 1] == 0.0:
            root = float(g[i + 1])
        else:
            root = _polish_root(curve, float(g[i]), float(g[i + 1]), float(s[i]), root_tol)
        if not roots or abs(root - roots[-1]) > max(10 * root_tol, 1e-11):
            roots.append(root)

    points: list[CriticalPoint] = []
    rejected: list[CriticalPoint] = []
    for root in roots:
        pt = _make_point(curve, potential, root, condition_tol)
        (points if pt.curvature >= -curvature_slack else rejected).append(pt)
    return CriticalPointScan(
        points=points,
        rejected=rejected,
        flat=False,
        noise_floor=noise_floor,
        derivative_sign_based_only=not potential.continuous,
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
    curve: FCurve,
    samples: Sequence[float] | None = None,
    tol: float = 1e-6,
    potential: Potential | None = None,
) -> EquivalenceReport:
    """Evaluate the four local-minimality tests at each sample and compare.

    At every location the direct test (|F'| <= tol and F'' >= -tol) must
    return the same truth value as the balanced-slope and the two one-sided
    product criteria; the shared tolerance is absolute.  Meaningful for
    continuous potentials.
    """
    if potential is None:
        potential = curve.potential
    if samples is None:
        step = max(1, curve.grid.size // 200)
        samples = curve.grid[::step]
    rows = []
    for a in np.asarray(samples, dtype=float):
        slope = float(curve.slope_at(a))
        curv = float(curve.curvature_at(a))
        local_min = abs(slope) <= tol and curv >= -tol
        balanced, plus, minus = _condition_flags(curve, potential, float(a), tol)
        rows.append(
            EquivalenceRow(
                location=float(a),
                local_min=local_min,
                balanced_slope=balanced,
                plus_side_product=plus,
                minus_side_product=minus,
            )
        )
    return EquivalenceReport(rows=rows, tol=tol)
