"""Decaying solutions of -u'' + V u = 0, integrated in log space.

For a bounded potential 0 < v0 <= V <= v1 the equation -u'' + V u = 0 has,
up to positive scaling, exactly one positive solution phi_plus decaying at
+inf and one solution phi_minus decaying at -inf.  Their values sweep many
orders of magnitude across a useful window, so everything here works with
l = log phi and its derivative r = l', which solves the Riccati equation

    r' = V - r^2.

The decaying branch r ~ -sqrt(V) (side "+") is the attracting fixed branch
of the backward flow, and r ~ +sqrt(V) (side "-") attracts the forward
flow, so integrating side "+" backward from x_max with seed -sqrt(V(x_max))
and side "-" forward from x_min with seed +sqrt(V(x_min)) converges onto
the decaying solutions at rate exp(-2 sqrt(v0) * distance).  l is
normalized so that l(0) = 0, i.e. phi(0) = 1.

Scheme.  On a cell [x, x + h] the linear system (u, u')' = A (u, u') with
A = [[0, 1], [V, 0]] is advanced by the sixth-order Magnus step built on
V at the cell's three Gauss-Legendre nodes (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros 2009).  Its exponent Omega = [[p, q], [s, -p]] is
traceless, so exp(Omega) = cosh(theta) I + sinh(theta)/theta Omega with
theta^2 = p^2 + q s, in closed form.  The cell map [[a, b], [c, d]] acts
on r as the Moebius map r -> (c + d r)/(a + b r), applied in each side's
attracting direction (the inverse map for side "+"), and the increment of
l is log(a + b r), taken as log1p with cosh(theta) - 1 = 2 sinh(theta/2)^2
and summed with compensation.  The step is exact for piecewise constant V,
and the Gauss nodes lie strictly inside each cell, so a jump is never
sampled.  r crosses at most _SWEEP_LEAF cells by a plain loop, one map per
cell; longer meshes compose the maps in pairs, recursively (Kogge & Stone
1973), which keeps r within a few dozen ulps of the exact recurrence of the
same float maps and bitwise equal to the loop on short meshes.

Off-mesh points are evaluated by a partial Magnus step
from the mesh node on the stable side (forward from the left node for "-",
backward from the right node for "+"), on one of two paths: an array of
points in one vectorized pass per side, or single points in float
arithmetic (``_dense_one``), which skips numpy's per-call cost on
one-element arrays.  Both paths share the Magnus exponent (``_omega``) and
run the same operations in the same order.  Each side keeps in ``_floats``
the solved window, the mesh ends as floats, memoryviews of the mesh, r and
l, whose items are floats, and, for a piecewise-constant potential, a
memoryview of ``_pieces``, the V the solve read on each cell; the float
path checks each point against the window and clamps it to the mesh ends
by plain comparisons (a point past the window, or in the slack band at its
ends, goes on to ``_check_inside``) and finds by ``bisect`` the cell that
``searchsorted`` finds.  A step in a cell of
constant V = c takes the exact map of V = c, as the solve does, and
samples no V (the float path writes _omega(c, c, c, h) as (0, h, h c),
exact but for the sign of the zero p, which no step reads);
any other step samples V at its Gauss nodes, all in one potential.evaluate
call, so a read of both sides at one pin evaluates V at most once.  V at a
pin (``ell_second_at``, F'') is always read from evaluate.  0 is a mesh
node, so l(0) = 0 exactly and a solve makes no off-mesh read.

Points and arrays.  Every reader here and in ``fcurve`` and ``green`` takes a
point (a float or a 0-d array), which gives Python floats all the way up, or
an array, which gives arrays of its shape; element i is bitwise the point's.
The pair is read at (x, y) by ``_pair_reads`` alone: phi_minus at min(x, y)
and phi_plus at max(x, y), two points by one ``_dense_one`` call.

The pointwise minimizer of the pinned problem (u(a) = max|u| = 1) is
u_a = G(., a)/G(a, a), read without quadrature, each side only at the
points on its own side of a.  u_a and G are two views of the pair
(``_PairReader``), and u_a hands its center's reads to ``_pair_reads``:

    u_a(x) = phi_minus(x)/phi_minus(a)  (x < a),
             phi_plus(x)/phi_plus(a)    (x >= a).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mesh import (
    _GAUSS,
    SolverError,
    _bounds,
    _cell_maps,
    _gauss_nodes,
    _honest,
    _magnus,
    _omega,
    _refine,
)
from .potential import Potential
from .window import MIN_DOMAIN_MARGIN, _check_inside, _curve_window, _sample_grid, decay_inset

__all__ = [
    "SolverError",
    "LogSolution",
    "ExtremalFunction",
    "solve_log_solution",
    "extremal_function",
    "check_riccati_residual",
    "check_envelope_bounds",
    "decay_inset",
    "DEFAULT_TOL",
    "MIN_DOMAIN_MARGIN",
]

DEFAULT_TOL = 1e-10
# Points of the Riccati residual check.
RESIDUAL_POINTS = 201
# Log-space slack of the envelope checks.
ENVELOPE_SLACK = 1e-8
# Most cells ``_sweep`` crosses by its plain loop; above, composing cell maps
# in pairs is faster (one level of pairs breaks even near 200 cells).
_SWEEP_LEAF = 256


def _is_point(x) -> bool:
    """True for a float or a 0-d array (one point), False for an array or a list."""
    # isinstance first: np.ndim costs over a microsecond on a float.
    return isinstance(x, float) or np.ndim(x) == 0


def _exp(x):
    """np.exp of a float or an array; a float stays a float, rounded as np.exp rounds."""
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of x with the rounding error of each addition folded back in."""
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    bb = s - prev
    err = (prev - (s - bb)) + (x - bb)
    return s + np.cumsum(err)


def _sweep(r0: float, a, q, s, d) -> np.ndarray:
    """r at every node of the maps r -> (s + d r)/(a + q r), cell k taking node k to k + 1.

    Cell k acts on (1, r) as N_k = [[a, q], [s, d]].  Up to _SWEEP_LEAF cells
    a plain loop; above, each pair N_{2j+1} N_{2j}, divided by its (1,1) entry
    to stay finite, is one map of a half-length chain giving r at the even
    nodes, and one more step each gives the odd nodes, within a few dozen ulps
    of the loop.  Side "-" has positive entries and side "+" the
    pattern [[+, -], [-, +]], which products keep: no entry is a difference.
    """
    n = a.size
    if n <= _SWEEP_LEAF:
        rs = [r0]
        r = r0
        for a_k, d_k, q_k, s_k in zip(a.tolist(), d.tolist(), q.tolist(), s.tolist()):
            r = (s_k + d_k * r) / (a_k + q_k * r)
            rs.append(r)
        return np.array(rs)
    m = n // 2
    a0, q0, s0, d0 = a[: 2 * m : 2], q[: 2 * m : 2], s[: 2 * m : 2], d[: 2 * m : 2]
    a1, q1, s1, d1 = a[1::2], q[1::2], s[1::2], d[1::2]
    pa = a1 * a0 + q1 * s0
    even = _sweep(
        r0, np.ones(m), (a1 * q0 + q1 * d0) / pa, (s1 * a0 + d1 * s0) / pa, (s1 * q0 + d1 * d0) / pa
    )
    r = np.empty(n + 1)
    r[: 2 * m + 1 : 2] = even
    r[1 : 2 * m : 2] = (s0 + d0 * even[:-1]) / (a0 + q0 * even[:-1])
    if n > 2 * m:
        # An odd last cell is left out of the pairs and stepped alone.
        r[n] = (s[-1] + d[-1] * even[-1]) / (a[-1] + q[-1] * even[-1])
    return r


@dataclass(frozen=True)
class LogSolution:
    """One decaying solution: r = (log phi)' and l = log phi at its mesh nodes.

    Attributes:
        side: "+" (decays at +inf) or "-" (decays at -inf).
        window: (x_min, x_max).
        tol: the accuracy requested at construction.
        potential: the potential integrated against.

    The mesh contains 0, where l is 0, and is shared with the other side of
    the same solve; r and l anywhere in the window come from a partial
    Magnus step off the mesh (``_dense``).
    """

    side: str
    window: tuple[float, float]
    tol: float
    potential: Potential
    _mesh: np.ndarray = field(repr=False)
    _r: np.ndarray = field(repr=False)
    _l: np.ndarray = field(repr=False)
    # V on each cell when the potential is piecewise constant, else None.
    _pieces: np.ndarray | None = field(default=None, repr=False)
    # What ``_dense_one`` reads (see the module docstring).
    _floats: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mesh, pieces = self._mesh, self._pieces
        floats = (*self.window, float(mesh[0]), float(mesh[-1]),
                  *map(memoryview, (mesh, self._r, self._l)), *_bounds(self.potential),
                  None if pieces is None else memoryview(pieces))
        object.__setattr__(self, "_floats", floats)

    def _dense(self, x):
        """(r, l) at x by a partial Magnus step from the node on the stable side; l(0) = 0.

        An array takes one ``_cell_maps`` call for all its points (``_magnus``
        on its cells' V instead, when the potential is piecewise constant) and
        gives two arrays of x's shape; a point (a float or a 0-d array) takes
        ``_dense_one`` and gives two Python floats, bitwise the same.  Both
        refuse a V outside the declared bounds, as the solve does (SolverError).
        """
        if _is_point(x):
            return _dense_one(((self, float(x)),))[0][0]
        xs = np.asarray(x, dtype=float)
        _check_inside(xs, self.window, "position outside solved window")
        mesh = self._mesh
        flat = np.clip(xs.ravel(), mesh[0], mesh[-1])
        if self.side == "-":
            # Forward from the left node of the cell holding x.
            k = np.clip(np.searchsorted(mesh, flat, side="right") - 1, 0, mesh.size - 2)
            lo, h, sign, cell = mesh[k], flat - mesh[k], 1.0, k
        else:
            # Backward from the right node of the cell holding x.
            k = np.clip(np.searchsorted(mesh, flat, side="left"), 1, mesh.size - 1)
            lo, h, sign, cell = flat, mesh[k] - flat, -1.0, k - 1
        if self._pieces is None:
            cm1, P, Q, R = _cell_maps(self.potential, lo, h)
        else:
            cm1, P, Q, R = _magnus((self._pieces[cell],) * 3, h)
        r0 = self._r[k]
        P, Q, R = sign * P, sign * Q, sign * R
        du = cm1 + P + Q * r0
        r = (R + (1.0 + cm1 - P) * r0) / (1.0 + du)
        l = self._l[k] + np.log1p(du)
        return r.reshape(xs.shape), l.reshape(xs.shape)

    def ell_at(self, x):
        """log phi(x), normalized to vanish at 0."""
        return self._dense(x)[1]

    def ell_prime_at(self, x):
        """Log-derivative r(x) = phi'(x)/phi(x)."""
        return self._dense(x)[0]

    def ell_second_at(self, x):
        """l''(x) = V(x) - r(x)^2, algebraically from the Riccati equation.

        A V(x) that ``_honest`` refuses raises SolverError, for a point and for an array.
        """
        if _is_point(x):
            ((r, _),), v = _dense_one(((self, float(x)),), float(x))
            return v - r * r
        r, _ = self._dense(x)
        return _honest(self.potential, np.asarray(x, dtype=float)) - r * r

    def phi_at(self, x):
        """phi(x) = exp(ell(x)); phi(0) = 1."""
        return _exp(self._dense(x)[1])


def solve_log_solution(
    potential: Potential,
    x_min: float,
    x_max: float,
    tol: float = DEFAULT_TOL,
) -> tuple[LogSolution, LogSolution]:
    """Integrate both decaying branches of r' = V - r^2 across the window.

    Returns (phi_plus, phi_minus) on one adaptive mesh (split at 0 and at
    the potential's breakpoints, refined by step doubling where V varies),
    which the two solutions share.  Each cell is crossed by one sixth-order Magnus step
    applied to r as a Moebius map: side "-" forward from x_min seeded with
    +sqrt(V) there, side "+" backward from x_max seeded with -sqrt(V).
    l = log phi gets the log of the map's denominator, summed outward from
    l(0) = 0.  ``_refine`` checks the window and tol, sizes the mesh and
    controls its error.  Each solution evaluates r and l anywhere in the
    window.

    Raises ValueError for a window or tolerance that ``_refine`` refuses
    (``_check_window``), and SolverError if the mesh needs more than
    MAX_CELLS cells, if ``_honest`` refuses a V, or if a log-derivative
    leaves its invariant band.
    """
    lo, hi, cm1, P, Q, R, pieces = _refine(potential, x_min, x_max, tol)
    mesh = np.append(lo, hi[-1])

    # Sweep in each side's attracting direction: forward for "-", backward
    # for "+" (the inverse maps, last cell first).  The seeds take V at the
    # Gauss node nearest the starting edge, which is never on a jump.
    seeds = [lo[0] + (0.5 - _GAUSS) * (hi[0] - lo[0]), hi[-1] - (0.5 - _GAUSS) * (hi[-1] - lo[-1])]
    v = _honest(potential, np.array(seeds))
    r_minus = _sweep(math.sqrt(v[0]), 1.0 + cm1 + P, Q, R, 1.0 + cm1 - P)
    a, d = (1.0 + cm1 - P)[::-1], (1.0 + cm1 + P)[::-1]
    r_plus = _sweep(-math.sqrt(v[1]), a, -Q[::-1], -R[::-1], d)[::-1]

    rates = np.concatenate((r_minus, -r_plus))
    s0, s1 = math.sqrt(potential.lower_bound), math.sqrt(potential.upper_bound)
    slack = 1e-8 * s1
    if not np.all((s0 - slack <= rates) & (rates <= s1 + slack)):
        raise SolverError(
            f"a log-derivative left its invariant band {s0:.4g} <= |r| <= {s1:.4g}; "
            "the declared potential bounds are not honest"
        )

    # l = 0 at the node x = 0, summed outward in both directions.
    k0 = int(np.searchsorted(mesh, 0.0))

    def solution(side: str, r: np.ndarray, dl: np.ndarray) -> LogSolution:
        l = np.zeros(mesh.size)
        l[k0 + 1 :] = _compensated_cumsum(dl[k0:])
        l[:k0] = -_compensated_cumsum(dl[:k0][::-1])[::-1]
        return LogSolution(
            side=side,
            window=(float(x_min), float(x_max)),
            tol=float(tol),
            potential=potential,
            _mesh=mesh,
            _r=r,
            _l=l,
            _pieces=pieces,
        )

    return (
        solution("+", r_plus, -np.log1p(cm1 - P - Q * r_plus[1:])),
        solution("-", r_minus, np.log1p(cm1 + P + Q * r_minus[:-1])),
    )


def _dense_one(reads, pin: float | None = None):
    """``_dense`` of each (solution, point) in reads, in float arithmetic, V sampled in one call.

    The reads share one potential.  Each point is checked against its window
    and located as the array path locates it.  When the potential is
    piecewise constant, each step takes its cell's V from the solve and
    only the pin, if given, goes to potential.evaluate; otherwise the Gauss
    nodes of all the steps, and the pin after them, go to one call.  Then
    each read steps from its node, taking ``_magnus``'s exponential.  To
    stay bitwise equal to the array path, sinh and log1p go through numpy,
    whose loops can round differently from ``math``'s; sqrt is correctly
    rounded either way, and squares are products, as numpy's ``** 2`` is.
    Returns the (r, l) floats of each read and V at the pin (None without
    one).  A V outside the bounds in ``_floats``, at a node or the pin, is
    refused by ``_honest``.
    """
    cells, nodes, v = [], [], []
    for solution, x in reads:
        x_min, x_max, first, last, mesh, rs, ls, v_lo, v_hi, pieces = solution._floats
        if not x_min <= x <= x_max:
            # Past the window or in its slack band, which _check_inside accepts.
            _check_inside(x, solution.window, "position outside solved window")
        # Clamped to the mesh ends, x can fall off only one end of the cells.
        x = first if x < first else last if x > last else x
        plus = solution.side == "+"
        if plus:
            # Backward from the right node of the cell holding x.
            k = bisect.bisect_left(mesh, x) or 1
            lo, h, cell = x, mesh[k] - x, k - 1
        else:
            # Forward from the left node of the cell holding x; x = last is in the last cell.
            k = bisect.bisect_right(mesh, x) - 1 if x < last else len(mesh) - 2
            lo, h, cell = mesh[k], x - mesh[k], k
        cells.append((plus, rs[k], ls[k], h))
        if pieces is None:
            nodes += _gauss_nodes(lo, h)
        else:
            v.append(pieces[cell])
    if pin is not None:
        nodes.append(pin)
    if nodes:
        sampled = np.asarray(reads[0][0].potential.evaluate(np.array(nodes)), dtype=float).tolist()
        if not (math.isfinite(sum(sampled)) and v_lo <= min(sampled) and max(sampled) <= v_hi):
            _honest(reads[0][0].potential, nodes, sampled)
        v += sampled
    steps = []
    for j, (plus, r0, l0, h) in enumerate(cells):
        if pieces is None:
            p, q, s = _omega(v[3 * j], v[3 * j + 1], v[3 * j + 2], h)
        else:
            # _omega(c, c, c, h) to the bit, but for the sign of p = 0, which no step reads.
            p, q, s = 0.0, h, h * v[j]
        t = math.sqrt(p * p + q * s)
        half, whole = float(np.sinh(0.5 * t)), float(np.sinh(t))
        cm1 = 2.0 * (half * half)
        shc = whole / t if t > 0.0 else 1.0
        # Side "+" steps backward: its sign goes into sinh(theta)/theta once.
        shc = -shc if plus else shc
        P, Q, R = shc * p, shc * q, shc * s
        du = cm1 + P + Q * r0
        r = (R + (1.0 + cm1 - P) * r0) / (1.0 + du)
        steps.append((r, l0 + float(np.log1p(du))))
    return steps, (v[-1] if pin is not None else None)


def _check_pair(phi_plus: LogSolution, phi_minus: LogSolution) -> float:
    """Enforce the rules shared by every consumer of the two sides; no side is read.

    The sides must come '+' then '-' from one solve, which gives them one mesh
    array (ValueError otherwise).  W = r_minus(0) - r_plus(0) is taken at the
    mesh node 0 and returned; it must be positive (SolverError otherwise).
    """
    if phi_plus.side != "+" or phi_minus.side != "-":
        raise ValueError("need a '+' solution and a '-' solution, in that order")
    if phi_plus._mesh is not phi_minus._mesh:
        raise ValueError("the two sides were not solved together, e.g. on different windows")
    k0 = int(np.searchsorted(phi_plus._mesh, 0.0))
    w = float(phi_minus._r[k0] - phi_plus._r[k0])
    if w <= 0.0:
        raise SolverError(f"nonpositive Wronskian {w:g}")
    return w


class PinReads(NamedTuple):
    """r_±, l_± (l_±(0) = 0) and V at the same pins, with F, F', F'' from them.

    Floats for one pin, arrays for many; ``v`` is None where V was not read.
    """

    r_plus: np.ndarray | float
    r_minus: np.ndarray | float
    l_plus: np.ndarray | float
    l_minus: np.ndarray | float
    v: np.ndarray | float | None = None

    @property
    def value(self) -> np.ndarray:
        return self.r_minus - self.r_plus

    @property
    def slope(self) -> np.ndarray:
        return -self.value * (self.r_plus + self.r_minus)

    @property
    def curvature(self) -> np.ndarray:
        rp, rm = self.r_plus, self.r_minus
        return 2.0 * self.value * (rp * rp + rp * rm + rm * rm - self.v)


def _pair_reads(phi_plus: LogSolution, phi_minus: LogSolution, x, y, v_at_x=False, at_y=None):
    """phi_minus read at min(x, y) and phi_plus at max(x, y), V at x if asked, and the mask x < y.

    Two points take one ``_dense_one`` call and give floats and a bool (with
    a NaN, x < y is False and the NaN still reaches a read that refuses it).
    For an array x and a point y, each side's ``_dense`` reads only the x on
    its side of y; the reads at y fill the other entries: ``at_y``, the
    ``PinReads`` of a caller that already holds them, or else y read as two
    points.  For an array y, one dense read per side at the broadcast min or
    max.  At x = y both sides read the same pins, as F needs.  A V at x
    that ``_honest`` refuses raises SolverError, as at a Gauss node.
    """
    if _is_point(x) and _is_point(y):
        x, y = float(x), float(y)
        left = x < y
        ((rm, lm), (rp, lp)), v = _dense_one(
            ((phi_minus, x if left else y), (phi_plus, y if left else x)), x if v_at_x else None
        )
        return PinReads(rp, rm, lp, lm, v), left
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    left = x < y
    if y.ndim:
        (rm, lm), (rp, lp) = phi_minus._dense(np.minimum(x, y)), phi_plus._dense(np.maximum(x, y))
    else:
        if at_y is None:
            at_y = _pair_reads(phi_plus, phi_minus, y, y)[0]
        rp, rm, lp, lm = (np.full(x.shape, c) for c in at_y[:4])
        rm[left], lm[left] = phi_minus._dense(x[left])
        rp[~left], lp[~left] = phi_plus._dense(x[~left])
    v = _honest(phi_plus.potential, x) if v_at_x else None
    return PinReads(rp, rm, lp, lm, v), left


class _PairReader:
    """A view f of the solved pair, read through its ``_reads(*at) -> (log f, f'/f)``."""

    @property
    def window(self) -> tuple[float, float]:
        return self.phi_plus.window

    def log_value(self, *at):
        return self._reads(*at)[0]

    def __call__(self, *at):
        return _exp(self._reads(*at)[0])

    def _derivative(self, *at):
        """d/dx f, x the first argument; the right-hand value at the kink."""
        log_f, rate = self._reads(*at)
        return _exp(log_f) * rate


@dataclass
class ExtremalFunction(_PairReader):
    """The pinned minimizer u_a = G(., a)/G(a, a): u(a) = max|u| = 1, energy F(a).

    u is assembled from the two decaying solutions, so its sup-norm is
    exactly 1, attained only at the center, whose reads it keeps.  The
    derivative has a kink there; ``derivative`` returns the right-hand value.
    """

    center: float
    phi_plus: LogSolution
    phi_minus: LogSolution
    # Both sides at the center, read once, V sampled in one call.
    _at_center: PinReads = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._at_center = _pair_reads(self.phi_plus, self.phi_minus, self.center, self.center)[0]

    def _reads(self, x):
        """(log u, u'/u): phi_minus read where x < a, else phi_plus (which refuses a NaN)."""
        at = self._at_center
        if _is_point(x):
            side, la = (self.phi_minus, at.l_minus) if x < self.center else (self.phi_plus, at.l_plus)
            r, l = side._dense(x)
            return l - la, r
        (rp, rm, lp, lm, _), left = _pair_reads(
            self.phi_plus, self.phi_minus, x, self.center, at_y=at
        )
        return np.where(left, lm - at.l_minus, lp - at.l_plus), np.where(left, rm, rp)

    derivative = _PairReader._derivative


def extremal_function(
    phi_plus: LogSolution, phi_minus: LogSolution, a: float
) -> ExtremalFunction:
    """Assemble u_a from the two sides; a must sit one decay inset inside the window."""
    _check_pair(phi_plus, phi_minus)
    window = _curve_window(phi_plus.potential, phi_plus.window)
    _check_inside(a, window, f"center {a:g} too close to the window edges; keep it inside")
    return ExtremalFunction(center=float(a), phi_plus=phi_plus, phi_minus=phi_minus)


@dataclass
class ResidualReport:
    """Worst deviation of the dense output from the Riccati equation."""

    max_residual: float
    tolerance: float
    passed: bool


def check_riccati_residual(solution: LogSolution) -> ResidualReport:
    """Check |r' + r^2 - V| at RESIDUAL_POINTS interior points off the mesh.

    r' is taken from the dense output by a five-point stencil whose own
    truncation error is negligible, so the residual measures interpolation
    quality; the stencil is read in one call, with step 1e-3/sqrt(v1).  The
    tolerance is max(2e-9, 10*tol) * v1, as r' + r^2 - V is an energy.  The
    Magnus dense output is smooth inside each cell, and its measured
    residual is about 1e-12 * v1 for tol <= 1e-10 (example, logistic step,
    spline table and step potentials), so the tolerance flags a broken
    dense output, not roundoff.  V at the points is read by ``_honest``: one
    outside the declared bounds raises SolverError.
    """
    pot = solution.potential
    tolerance = max(2e-9, 10.0 * solution.tol) * pot.upper_bound
    lo, hi = solution.window
    h = 1e-3 / math.sqrt(pot.upper_bound)
    xs = np.linspace(lo + 5 * h, hi - 5 * h, RESIDUAL_POINTS)
    for b in pot.breakpoints:
        xs = xs[np.abs(xs - b) > 3 * h]
    stencil, _ = solution._dense(np.stack((xs, xs + 2 * h, xs + h, xs - h, xs - 2 * h)))
    r, r_2h, r_h, r_mh, r_m2h = stencil
    rp = (-r_2h + 8.0 * r_h - 8.0 * r_mh + r_m2h) / (12.0 * h)
    res = np.abs(rp + r * r - _honest(pot, xs))
    worst = float(res.max()) if res.size else 0.0
    return ResidualReport(worst, float(tolerance), worst <= tolerance)


@dataclass
class EnvelopeReport:
    """Two-sided exponential envelope checks, in log space.

    ``violations`` maps check names to the worst (positive) overshoot of the
    corresponding inequality; zero means the bound held everywhere sampled.
    """

    violations: dict[str, float]
    passed: bool


def check_envelope_bounds(phi_plus: LogSolution, phi_minus: LogSolution) -> EnvelopeReport:
    """Verify the exponential envelopes implied by the bounds v0 <= V <= v1.

    Checked on the sample grid (spacing SAMPLE_SPACING/sqrt(v0), plus 0 and
    the breakpoints), all in log space with slack ENVELOPE_SLACK:

    * sqrt(v0/v1) e^{-max(s0 x, s1 x)} <= phi_plus(x) <= sqrt(v1/v0) e^{-min(s0 x, s1 x)}
      and the mirror image for phi_minus, where s0 = sqrt(v0), s1 = sqrt(v1);
    * e^{-s1|x-a|} <= u_a(x) <= e^{-s0|x-a|} and
      (v0/s1) e^{-s1|x-a|} <= sgn(a-x) u_a'(x) <= (v1/s0) e^{-s0|x-a|}
      for the centers a = 0 and a = +-r/2, where [-r, r] is the largest
      interval about 0 one decay inset inside the window, at the grid
      points over 1e-9/s1 from the center.  The slope is
      checked as log|u_a'| = log u_a + log|u_a'/u_a|, its sign from the
      rate u_a'/u_a alone, so no u_a underflows at high contrast.

    The pair (checked by ``_check_pair``) is read on the grid by one
    ``_pair_reads`` call, one dense read per side, and both sides at the
    three centers by one ``_dense_one`` call, as ``ExtremalFunction`` reads
    its center: each log u_a and u_a'/u_a is bitwise its ``_reads``.
    """
    _check_pair(phi_plus, phi_minus)
    pot = phi_plus.potential
    v0, v1 = pot.lower_bound, pot.upper_bound
    s0, s1 = math.sqrt(v0), math.sqrt(v1)
    lo, hi = _curve_window(pot, phi_plus.window)
    r = min(abs(lo), hi)

    worst: dict[str, float] = {}

    def record(name: str, violation: np.ndarray | float) -> None:
        v = float(np.max(violation)) if np.size(violation) else 0.0
        worst[name] = max(worst.get(name, 0.0), v)

    x = _sample_grid(pot, phi_plus.window)
    (rp, rm, lp, lm, _), _ = _pair_reads(phi_plus, phi_minus, x, x)
    record("phi_plus_upper", lp - (0.5 * math.log(v1 / v0) - np.minimum(s0 * x, s1 * x)))
    record("phi_plus_lower", (0.5 * math.log(v0 / v1) - np.maximum(s0 * x, s1 * x)) - lp)
    record("phi_minus_upper", lm - (0.5 * math.log(v1 / v0) + np.maximum(s0 * x, s1 * x)))
    record("phi_minus_lower", (0.5 * math.log(v0 / v1) + np.minimum(s0 * x, s1 * x)) - lm)

    centers = (-0.5 * r, 0.0, 0.5 * r)
    reads = _dense_one([(side, a) for a in centers for side in (phi_plus, phi_minus)])[0]
    for a, (_, la_p), (_, la_m) in zip(centers, reads[::2], reads[1::2]):
        off = np.abs(x - a) > 1e-9 / s1
        xs = x[off]
        left = xs < a
        logu = np.where(left, lm[off] - la_m, lp[off] - la_p)
        rate = np.where(left, rm[off], rp[off])
        d = np.abs(xs - a)
        record("pinned_upper", logu - (-s0 * d))
        record("pinned_lower", (-s1 * d) - logu)
        if np.any(np.sign(a - xs) * rate <= 0.0):
            record("pinned_slope_sign", 1.0)
        logd = logu + np.log(np.abs(rate))
        record("pinned_slope_upper", logd - (math.log(v1 / s0) - s0 * d))
        record("pinned_slope_lower", (math.log(v0 / s1) - s1 * d) - logd)

    passed = all(v <= ENVELOPE_SLACK for v in worst.values())
    return EnvelopeReport(violations=worst, passed=passed)
