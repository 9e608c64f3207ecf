"""The pinned energy curve F(a) and its critical points.

F(a) is the least energy  ||u'||_2^2 + int V u^2  among H^1 functions with
u(a) = max|u| = 1.  In terms of the log-derivatives r_± of the decaying
solutions it is purely algebraic:

    F(a)   = r_minus(a) - r_plus(a)                  (> 0),
    F'(a)  = -F(a) (r_plus(a) + r_minus(a)),
    F''(a) = 2 F(a) (r_plus^2 + r_plus r_minus + r_minus^2 - V(a)),

so no differencing of F is ever needed, and F and F' at the mesh nodes come
from the r_± both sides store there.  The product F phi_plus phi_minus
equals the Wronskian W = r_minus(0) - r_plus(0) identically; its constancy
along the grid is a strong cross-check of the integration.

A root of F' where it turns from - to + is a candidate minimizer, one where
it turns from + to - a rejected local maximum.  The list a root lands in is
its one minimality verdict: the balanced-slope test -l_+' = l_-' >= sqrt(V)
and the one-sided products h_±' H_± = ∓1 (which reduce to
2 r_± phi_+ phi_- / W) restate the same predicate in other units.
``check_minimality_equivalence`` tests the F' and F'' that the verdict is
taken on against five-point differences of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fundamental import LogSolution, PinReads, _check_pair, _exp, _pair_reads
from .mesh import SolverError
from .potential import Potential
from .window import _check_inside, _curve_window, _sample_grid

__all__ = [
    "FCurve",
    "CriticalPoint",
    "CriticalPointScan",
    "EquivalenceReport",
    "build_fcurve",
    "find_critical_points",
    "check_minimality_equivalence",
]

# Nodes where |F'| is at most NOISE_FACTOR * tol * max F * sqrt(v1) are undecided.
NOISE_FACTOR = 100.0
# Maxima with curvature below -CURVATURE_SLACK * max F are rejected.
CURVATURE_SLACK = 1e-8
# Newton polish of F' roots stops once a step is below ROOT_TOL / sqrt(v1).
ROOT_TOL = 1e-12
# Scaled tolerance of the F', F'' check against differences of F.
CONDITION_TOL = 1e-6
# The check's difference step, in units of 1/sqrt(v1).
DIFFERENCE_STEP = 3e-3


@dataclass
class FCurve:
    """F and F' at the mesh nodes, and F, F', F'' anywhere, on a truncation-safe window.

    The window is the solved window less the decay inset at each end, where
    the seeding transient of both sides is far below every tolerance used
    here.  ``node_reads`` are the r_± and l_± both sides store at ``nodes``,
    the mesh nodes in the window; critical points are found on them.
    ``grid`` is the solutions' sample grid in the window, the pin lattice of
    reports: ``wronskian_drift`` reads the pair there when called.  Every
    evaluator takes a pin or an array of pins and reads each side once per
    call; F'' is read at pins, by ``curvature_at``.
    """

    grid: np.ndarray
    wronskian: float
    window: tuple[float, float]
    potential: Potential
    phi_plus: LogSolution = field(repr=False)
    phi_minus: LogSolution = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    node_reads: PinReads = field(repr=False)

    def _reads(self, a, v: bool = True) -> PinReads:
        """The pair read at x = y = a, a pin (in floats) or an array, by ``_pair_reads``; V if v."""
        a = a if isinstance(a, float) else np.asarray(a, dtype=float)
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
        reads = self._reads(self.grid, v=False)
        log_w = np.log(reads.value) + reads.l_plus + reads.l_minus
        return float(np.max(np.abs(np.expm1(log_w - math.log(self.wronskian)))))


def build_fcurve(phi_plus: LogSolution, phi_minus: LogSolution) -> FCurve:
    """Assemble the energy curve from the two decaying solutions.

    The solutions must have been produced on the same window; the curve
    window is that window less the decay inset 12/sqrt(v0) at each end, and
    the solver's decay margin of 20 keeps 0 inside.  The node reads are the
    values both sides hold at their mesh nodes there: no side is read and V
    is sampled nowhere.  The grid is the sample grid (spacing
    SAMPLE_SPACING/sqrt(v0), plus 0 and the breakpoints) in the window.
    """
    wronskian = _check_pair(phi_plus, phi_minus)
    potential = phi_plus.potential
    lo, hi = _curve_window(potential, phi_plus.window)
    grid = _sample_grid(potential, phi_plus.window)
    mesh = phi_plus._mesh
    inside = slice(np.searchsorted(mesh, lo), np.searchsorted(mesh, hi, side="right"))
    reads = PinReads(*(a[inside] for a in (phi_plus._r, phi_minus._r, phi_plus._l, phi_minus._l)))
    if np.any(reads.value <= 0.0):
        raise SolverError("energy curve is not positive; integration is unusable")
    return FCurve(
        grid=grid[(grid >= lo) & (grid <= hi)],
        wronskian=wronskian,
        window=(lo, hi),
        potential=potential,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        nodes=mesh[inside],
        node_reads=reads,
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

    ``points`` hold the candidates (roots where F' turns from - to +);
    ``rejected`` the roots where F' turns from + to - and F'' is below
    -CURVATURE_SLACK * max F (local maxima; a top flatter than that
    is not listed).  The list a root is in is its minimality verdict.
    ``flat`` marks a curve whose slope stays under the noise floor at every
    node and whose declaration confines F within NOISE_FACTOR * tol * max F:
    every pin is then critical and ``points`` carries one representative at 0.
    """

    points: list[CriticalPoint]
    rejected: list[CriticalPoint]
    flat: bool
    noise_floor: float


def _polish_root(curve: FCurve, lo: float, hi: float, s_lo: float) -> float:
    """Root of F' in [lo, hi], where F' changes sign; s_lo is F'(lo).

    Newton's method on F' with the analytic F'', safeguarded by the sign
    bracket: a step that would leave the bracket, or is not below half the
    step before last, is replaced by bisection.  Stops once a step is below
    ROOT_TOL/sqrt(v1).
    """
    xtol = ROOT_TOL / math.sqrt(curve.potential.upper_bound)
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


def _critical_point(curve: FCurve, a: float) -> CriticalPoint:
    reads = curve._reads(a)
    return CriticalPoint(a, reads.value, reads.curvature, abs(reads.slope))


def find_critical_points(curve: FCurve) -> CriticalPointScan:
    """Locate the candidate minimizers of F on the curve window.

    A node is decided where |F'| clears the noise floor NOISE_FACTOR * tol *
    max F * sqrt(v1) over the nodes, as F' = -F (r_plus + r_minus) is F times
    a rate.  A curve with no decided node is flat only when the declaration
    proves it: F lies in [2 sqrt(v0), 2 sqrt(v1)] at every pin, so
    2 (sqrt(v1) - sqrt(v0)) at most the floor of F, NOISE_FACTOR * tol *
    max F, does, and so does a piecewise-constant V with no breakpoints.  Any
    other such curve is refused with SolverError: the nodes did not see V
    vary, which does not show that it is constant.  Each two consecutive
    decided nodes whose F' differ in sign bracket one root, undecided nodes
    between them or not, so a well many decay lengths wide, where F' stays
    under the floor, is bracketed as any other.  The root is polished to
    ROOT_TOL/sqrt(v1) by safeguarded Newton steps on the dense F' with the
    analytic F'', one read of both sides per step.  Where F' turns from - to
    + the root is a candidate; where it turns from + to - it is rejected if
    its curvature is below -CURVATURE_SLACK * max F, and is not listed
    otherwise.  Each root is read once more, by the one-pin pair read.
    """
    pot = curve.potential
    v0, v1 = pot.lower_bound, pot.upper_bound
    scale = float(np.max(curve.node_reads.value))
    # The floor of F itself; F' is F times a rate, so its floor is sqrt(v1) times that.
    f_floor = NOISE_FACTOR * curve.phi_plus.tol * scale
    noise_floor = f_floor * math.sqrt(v1)
    s = curve.node_reads.slope
    decided = np.abs(s) > noise_floor
    if not decided.any():
        one_piece = pot.piecewise_constant and not pot.breakpoints
        if not one_piece and 2.0 * (math.sqrt(v1) - math.sqrt(v0)) > f_floor:
            raise SolverError(
                f"F' is under the noise floor {noise_floor:.3g} at every node of the curve window "
                f"[{curve.window[0]:g}, {curve.window[1]:g}], but the declared bounds "
                f"[{v0:g}, {v1:g}] do not make F flat: widen the window, declare the pieces "
                "or tighten the bounds"
            )
        # A flat curve has one representative, at a = 0.
        return CriticalPointScan([_critical_point(curve, 0.0)], [], True, noise_floor)
    x, s = curve.nodes[decided], s[decided]
    points, rejected = [], []
    for i in np.flatnonzero(np.diff(np.signbit(s))).tolist():
        lo, hi, s_lo = float(x[i]), float(x[i + 1]), float(s[i])
        pt = _critical_point(curve, _polish_root(curve, lo, hi, s_lo))
        if s_lo < 0.0:
            points.append(pt)
        elif pt.curvature < -CURVATURE_SLACK * scale:
            rejected.append(pt)
    return CriticalPointScan(points, rejected, False, noise_floor)


@dataclass
class EquivalenceReport:
    """The analytic F' and F'' against five-point differences of F, at each kept pin.

    ``slope_gap`` is |F' - D1F| / (F sqrt(v1)) and ``curvature_gap`` is
    |F'' - D2F| / (F v1), both free of units; a pin disagrees when either gap
    is over CONDITION_TOL (or NaN).
    """

    locations: np.ndarray
    slope_gap: np.ndarray
    curvature_gap: np.ndarray

    @property
    def n_disagree(self) -> int:
        worst = np.maximum(self.slope_gap, self.curvature_gap)
        return int(np.count_nonzero(~(worst <= CONDITION_TOL)))


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
        np.abs(reads.slope[0] - d1) / (f[0] * math.sqrt(v1)),
        np.abs(reads.curvature[0] - d2) / (f[0] * v1),
    )
