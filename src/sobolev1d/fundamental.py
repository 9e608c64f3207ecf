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

Mesh and error control.  The mesh depends on V, the window and tol, not on
the side, so ``solve_log_solution`` refines one mesh and sweeps its cell
maps once per side; the two solutions share its node array.  The window is
split at 0 and at the potential's breakpoints into segments, and every cell
is laid by one rule (``_lay``): k equal cells on a segment or stretch, laid
out from the end nearer 0 with exact ends, so the mesh of a window
symmetric about 0 is bitwise mirror-symmetric.  A segment [a, b] needs
ceil((b - a)/h0) initial cells, h0 = 0.05 (max(tol, 1e-12)/1e-10)^(1/6) /
sqrt(v1); more than MAX_CELLS raise SolverError before V is read.  Every
stretch of constant V = c is laid by ``_constant_cells``: the fewest equal
cells with theta = h sqrt(|c|) <= 20, each with the exact map of constant
V, which needs no check.  A potential declared piecewise constant
(``Potential.piecewise_constant``) makes each segment a stretch: V is read
once, at the segment midpoints, each stretch takes the value read there,
and the stretches are the whole mesh (never more cells than the initial
ones, as h0 sqrt(v1) < 20).  Any other potential is sampled once,
into samples[j, g, k]: V at Gauss node j of initial cell k (g = 0) or of
its left (g = 1) or right (g = 2) half.  It is filled a block of
_SAMPLE_BLOCK // 3 cells at a time, so that each potential.evaluate call's
points and each step-doubling row stay block-sized: an array over ~128 KB
comes from fresh pages, a page fault per 4 KB.  A cell whose nine samples
are one number c is flat, and a cell with one sample apart ends a run.
Each maximal run of flat cells that share c and cross no edge (they may
cross blocks) becomes a stretch when that takes fewer cells than the run
had.  Every other sampled cell is checked by step doubling (``_double``:
one step against two half steps, whose maps it builds from V at the
halves' Gauss nodes, three blocks at a time in the first round, all cells
at once later); the matrix difference is converted to r and l units
with |r| <= sqrt(v1), and a cell over its budget comes back bisected,
each half with its map, until all pass.  The
budget is 2 sqrt(v0) * itol per unit length, with itol = min(3e-10,
max(tol/1000, 1e-13)): errors in r decay at rate 2 sqrt(v0) along the
flow, so the dense output carries r to about itol.  A floor of a few dozen
ulps keeps roundoff from driving refinement; more than MAX_CELLS cells
raise SolverError.  Off-mesh points are evaluated by a partial Magnus step
from the mesh node on the stable side (forward from the left node for "-",
backward from the right node for "+"), on one of two paths: an array of
points in one vectorized pass per side, or single points in float
arithmetic (``_dense_one``), which skips numpy's per-call cost on
one-element arrays.  Both paths share the Magnus exponent (``_omega``) and
run the same operations in the same order.  Each side keeps in ``_floats``
the window widened by ``_slack``, the mesh ends as floats, memoryviews of
the mesh, r and l, whose items are floats, and, for a piecewise-constant
potential, a memoryview of ``_pieces``, the V the solve read on each cell;
the float path checks and clamps each point by plain comparisons and finds
by ``bisect`` the cell that ``searchsorted`` finds.  A step in a cell of
constant V = c takes the exact map of V = c, as the solve does, and
samples no V (the float path writes _omega(c, c, c, h) as (0, h, h c),
exact but for the sign of the zero p, which no step reads);
any other step samples V at its Gauss nodes, all in one potential.evaluate
call, so a read of both sides at one pin evaluates V at most once.  V at a
pin (``ell_second_at``, F'') is always read from evaluate.  0 is a mesh
node, so l(0) = 0 exactly and a solve makes no off-mesh read.

Points and arrays.  Every reader here and in ``fcurve`` and ``green`` takes a
point (a float or a 0-d array), which gives Python floats all the way up, or
an array, which gives arrays of its shape; element i is bitwise the point's
(``phi_at`` aside, whose exponential rounds by ``math`` for a point).  The
pair is read at (x, y) by ``_pair_reads`` alone: phi_minus at min(x, y) and
phi_plus at max(x, y), two points by one ``_dense_one`` call.

Bounds and bands.  Every V the package reads (samples, segment midpoints,
seeds, off-mesh steps, pins, and the points of the Riccati residual, Green
and Rayleigh checks) must pass ``_honest`` (a constant piece's off-mesh
steps reuse its midpoint V); only ``cli.cmd_verify``'s bounds check and
the mesh oracle read V to report it.  So theta^2 >= h^2 v0 on every cell
and theta <= 20 overflows no map.  The seeded flows then stay in

    -sqrt(v1) <= r_plus <= -sqrt(v0),    sqrt(v0) <= r_minus <= sqrt(v1),

(at r = +-sqrt(v1) and +-sqrt(v0) the Riccati field points inward), which
is the bound the error conversion uses.  The solver checks both sides
against it, with slack 1e-8 sqrt(v1), as a numerical safety net: the
declared bounds are not honest when either leaves it.

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

from .potential import Potential

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
# Tolerances the solver accepts; outside this range the dense output cannot
# honestly deliver what is asked.
TOL_RANGE = (1e-14, 1e-6)
# Required decay margin sqrt(v0) * min(|x_min|, x_max): truncating the line to
# the window perturbs the solution by ~exp(-2 * margin).
MIN_DOMAIN_MARGIN = 20.0
# How far the default window reaches, in decay lengths 1/sqrt(v0).
DEFAULT_WINDOW_FACTOR = 25.0
# How far past every breakpoint a window must reach, in decay lengths: the
# decay inset plus one, so that the curve window holds each jump and its well.
BREAKPOINT_REACH = 13.0
# Most mesh cells one side may use before the solver gives up.
MAX_CELLS = 1 << 19
# Spacing of the sample grid, in decay lengths 1/sqrt(v0).
SAMPLE_SPACING = 0.025
# Points of the Riccati residual check.
RESIDUAL_POINTS = 201
# Log-space slack of the envelope checks.
ENVELOPE_SLACK = 1e-8
# Relative slack of the declared bounds on every V the solver reads (``_bounds``).
BOUNDS_SLACK = 1e-9

# Gauss-Legendre nodes of a cell [x, x + h]: the midpoint and midpoint +- _GAUSS h.
_GAUSS = math.sqrt(15.0) / 10.0
# Step-doubling estimates below this many ulps of the cell map are roundoff.
_FLOOR_ULPS = 32.0 * np.finfo(float).eps
# Largest theta = h sqrt(|V|) of a cell laid across a run of constant V; at
# cosh(20) ~ 2.4e8 the entries of the exact map stay far from overflow.
_THETA_MAX = 20.0
# Points per potential.evaluate call when the mesh is sampled, and three times
# the initial cells per block of the first refinement round: a block's nine
# samples per cell fill three calls in a 96 KB array, and so do the samples at
# one Gauss node of the three blocks checked together.  An array over ~128 KB
# comes from fresh pages, a page fault per 4 KB, each time one is made.
_SAMPLE_BLOCK = 4096
# Most cells ``_sweep`` crosses by its plain loop; above, composing cell maps
# in pairs is faster (one level of pairs breaks even near 200 cells).
_SWEEP_LEAF = 256


class SolverError(RuntimeError):
    """Numerical failure inside an integrator or verifier."""


def decay_inset(potential: Potential) -> float:
    """Distance from the window edges within which seeding error may linger.

    Seeding with the asymptotic Riccati root leaves a transient that decays
    like exp(-2 sqrt(v0) d) with the distance d from the seeded edge; at
    d = 12/sqrt(v0) it is ~3.8e-11, below every tolerance used here.
    """
    return 12.0 / math.sqrt(potential.lower_bound)


def default_window(potential: Potential) -> tuple[float, float]:
    """+-25/sqrt(v0), or wider, so that the curve window reaches 1/sqrt(v0) past every jump."""
    s0 = math.sqrt(potential.lower_bound)
    reach = max(map(abs, potential.breakpoints), default=-math.inf) + BREAKPOINT_REACH / s0
    w = max(DEFAULT_WINDOW_FACTOR / s0, reach)
    return (-w, w)


def _check_window(potential: Potential, x_min: float, x_max: float, tol: float) -> None:
    """Raise ValueError for a window or tol that the solve cannot honour."""
    if not (-math.inf < x_min < 0.0 < x_max < math.inf):
        raise ValueError(f"window must be finite and contain 0, got [{x_min:g}, {x_max:g}]")
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
    margin = math.sqrt(potential.lower_bound) * min(abs(x_min), x_max)
    if margin < MIN_DOMAIN_MARGIN:
        raise ValueError(
            f"decay margin sqrt(v0)*min(|x_min|, x_max) = {margin:.3f} < "
            f"{MIN_DOMAIN_MARGIN:g}; widen the window"
        )
    reach = BREAKPOINT_REACH / math.sqrt(potential.lower_bound)
    for b in potential.breakpoints:
        if not (x_min <= b - reach and b + reach <= x_max):
            raise ValueError(
                f"breakpoint {b:g} needs the window to contain [{b - reach:g}, {b + reach:g}]"
                f" ({BREAKPOINT_REACH:g}/sqrt(v0) on each side); widen the window"
            )


def _curve_window(potential: Potential, window: tuple[float, float]) -> tuple[float, float]:
    """The window moved in by the decay inset at each end: where F and u_a are read."""
    inset = decay_inset(potential)
    return window[0] + inset, window[1] - inset


def _slack(window: tuple[float, float]) -> tuple[float, float]:
    """The window widened for roundoff at its ends by 1e-12 of |lo| + |hi| (> 0: 0 is inside)."""
    lo, hi = window
    eps = 1e-12 * (abs(lo) + abs(hi))
    return lo - eps, hi + eps


def _check_inside(x, window: tuple[float, float], what: str) -> None:
    """Raise ValueError unless x (a point or an array) lies in the window; NaN never does."""
    point = not (isinstance(x, np.ndarray) and x.ndim)
    if point and window[0] <= x <= window[1]:
        # Inside the window itself: no slack to build.
        return
    lo, hi = _slack(window)
    inside = lo <= x <= hi if point else np.all((lo <= x) & (x <= hi))
    if not inside:
        raise ValueError(f"{what} [{window[0]:g}, {window[1]:g}]")


def _is_point(x) -> bool:
    """True for a float or a 0-d array (one point), False for an array or a list."""
    # isinstance first: np.ndim costs over a microsecond on a float.
    return isinstance(x, float) or np.ndim(x) == 0


def _exp(x):
    """np.exp of a float or an array; a float stays a float, rounded as np.exp rounds."""
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


def _gauss_nodes(lo, h):
    """Gauss-Legendre nodes of the cells [lo, lo + h]: left nodes, midpoints, right nodes."""
    mid = lo + 0.5 * h
    off = _GAUSS * h
    return mid - off, mid, mid + off


def _gauss_points(lo: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``_gauss_nodes`` of many cells in one array, left nodes first."""
    return np.concatenate(_gauss_nodes(lo, h))


def _omega(v1, v2, v3, h):
    """Entries (p, q, s) of the sixth-order Magnus exponent Omega = [[p, q], [s, -p]].

    v1, v2, v3 are V at the Gauss-Legendre nodes of a cell of length h.
    Only + - * / appear, so floats and arrays give bitwise the same entries.
    """
    d2 = (math.sqrt(15.0) / 3.0) * h * (v3 - v1)
    d3 = (10.0 / 3.0) * h * (v3 - 2.0 * v2 + v1)
    # Omega = a1 + a3/12 + [-20 a1 - a3 + [a1, a2], a2 - [a1, 2 a3 + [a1, a2]]/60]/240
    # with a1 = h A(mid), a2 = d2 [[0, 0], [1, 0]], a3 = d3 [[0, 0], [1, 0]],
    # expanded in closed form.
    p = h * d2 * ((40.0 * h * h * v2 + h * d3) / 30.0 - 20.0) / 240.0
    q = h + h * h * (h * d2 * d2 - 20.0 * d3) / 3600.0
    s = h * v2 + d3 / 12.0 + h * (
        d3 * (20.0 * h * v2 + d3) / 30.0 - d2 * d2 * (1.0 - h * h * v2 / 30.0)
    ) / 120.0
    return p, q, s


def _magnus(v, h: np.ndarray):
    """Sixth-order Magnus maps of u'' = V u over cells of length h.

    v = (v1, v2, v3) holds V at each cell's three Gauss-Legendre nodes.
    Returns (cm1, P, Q, R) with exp(Omega) = (1 + cm1) I + [[P, Q], [R, -P]],
    where (p, q, s) = ``_omega`` are the entries of the exponent, cm1 =
    cosh(theta) - 1 and (P, Q, R) = sinh(theta)/theta (p, q, s), theta^2 =
    p^2 + q s >= h^2 v0.  For v1 = v2 = v3 the map is the exact one of constant V.
    """
    p, q, s = _omega(*v, h)
    t = np.sqrt(p * p + q * s)
    shc = np.divide(np.sinh(t), t, out=np.ones_like(t), where=t > 0.0)
    return 2.0 * np.sinh(0.5 * t) ** 2, shc * p, shc * q, shc * s


def _cell_maps(potential: Potential, lo: np.ndarray, h: np.ndarray):
    """``_magnus`` maps of the cells [lo, lo + h], with V sampled by ``_samples``."""
    return _magnus(_honest(potential, _gauss_points(lo, h)).reshape(3, -1), h)


def _doubling_error(full, left, right, s1: float):
    """Step-doubling error of each cell map, in r and l units, and its roundoff floor.

    Writing each map as I + N, the difference between two half steps and
    one full step is N_R + N_L + N_R N_L - N.  With |r| <= s1 and a Moebius
    denominator >= 1 along the attracting direction, an entry error
    (da, db, dc, dd) moves r by at most |dc| + s1 (|da| + |dd|) + s1^2 |db|
    and l by at most |da| + |dd| + s1 |db|, for either side.
    """

    def entries(m):
        cm1, p, q, r = m
        return cm1 + p, q, r, cm1 - p

    a, b, c, d = entries(full)
    la, lb, lc, ld = entries(left)
    ra, rb, rc, rd = entries(right)
    da = ra + la + (ra * la + rb * lc) - a
    db = rb + lb + (ra * lb + rb * ld) - b
    dc = rc + lc + (rc * la + rd * lc) - c
    dd = rd + ld + (rc * lb + rd * ld) - d

    def units(ea, eb, ec, ed):
        ea, eb, ec, ed = np.abs(ea), np.abs(eb), np.abs(ec), np.abs(ed)
        return np.maximum(ec + s1 * (ea + ed) + s1 * s1 * eb, ea + ed + s1 * eb)

    size = (
        np.abs(f) + np.abs(fl) + np.abs(fr)
        for f, fl, fr in zip((a, b, c, d), (la, lb, lc, ld), (ra, rb, rc, rd))
    )
    return units(da, db, dc, dd), _FLOOR_ULPS * units(*size)


def _segment_edges(potential: Potential, x_min: float, x_max: float) -> list[float]:
    inner = [b for b in potential.breakpoints if x_min < b < x_max]
    return sorted({x_min, 0.0, *inner, x_max})


def _sorted_unique(a, b) -> np.ndarray:
    """The distinct values of a and b, sorted: ``np.union1d`` without loading ``numpy.ma``."""
    x = np.sort(np.concatenate((np.ravel(a), np.ravel(b))))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _sample_grid(solution: LogSolution) -> np.ndarray:
    """The window at spacing SAMPLE_SPACING/sqrt(v0), plus 0 and the breakpoints."""
    potential = solution.potential
    x_min, x_max = solution.window
    spacing = SAMPLE_SPACING / math.sqrt(potential.lower_bound)
    n = max(2, int(math.ceil((x_max - x_min) / spacing)))
    grid = _sorted_unique(
        np.linspace(x_min, x_max, n + 1), _segment_edges(potential, x_min, x_max)
    )
    keep = np.concatenate(([True], np.diff(grid) > 1e-12 * (x_max - x_min)))
    return grid[keep]


def _lay(a: np.ndarray, b: np.ndarray, k: np.ndarray):
    """(lo, hi) of k[i] equal cells on each [a[i], b[i]], in increasing order.

    Each interval is laid out from its end nearer 0, with its ends exact, so
    the mesh of a window symmetric about 0 is bitwise mirror-symmetric.
    """
    nodes = []
    for near, far, n in zip(a.tolist(), b.tolist(), k.tolist()):
        flip = near < 0.0
        if flip:
            near, far = far, near
        x = near + (far - near) * (np.arange(n + 1) / n)
        x[0], x[-1] = near, far
        nodes.append(x[::-1] if flip else x)
    return np.concatenate([x[:-1] for x in nodes]), np.concatenate([x[1:] for x in nodes])


def _theta_cells(a, b, c) -> np.ndarray:
    """Fewest equal cells with theta = h sqrt(c) <= _THETA_MAX on [a, b] at V = c, as floats."""
    return np.maximum(1.0, np.ceil((b - a) * np.sqrt(c) / _THETA_MAX))


def _constant_cells(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """(lo, hi, *map) of the cells laid across each stretch [a[i], b[i]] of constant V = c[i].

    Each stretch gets its ``_theta_cells`` cells, laid by ``_lay``, and each
    cell the exact map of constant V.
    """
    k = _theta_cells(a, b, c).astype(np.int64)
    lo, hi = _lay(a, b, k)
    c = np.repeat(c, k)
    return lo, hi, *_magnus((c, c, c), hi - lo)


def _bounds(potential: Potential) -> tuple[float, float]:
    """[v0 (1 - BOUNDS_SLACK), v1 (1 + BOUNDS_SLACK)]: where every V the solver reads must lie."""
    return potential.lower_bound * (1 - BOUNDS_SLACK), potential.upper_bound * (1 + BOUNDS_SLACK)


def _honest(potential: Potential, x, v=None) -> np.ndarray:
    """V at the points x (by ``_samples`` unless given as v), refused unless all in ``_bounds``.

    SolverError names x and V(x) at the first non-finite value, or else the
    first outside; x has v's shape, or builds it when called.
    """
    lo, hi = _bounds(potential)
    v = np.asarray(_samples(potential, np.ravel(x)).reshape(np.shape(x)) if v is None else v, float)
    inside = (lo <= v) & (v <= hi)
    if inside.all():
        return v
    finite = np.isfinite(v)
    i = int(np.argmin(inside if finite.all() else finite))
    at = f"V({np.ravel(x() if callable(x) else x)[i]:g}) = {v.flat[i]:g}"
    if not finite.flat[i]:
        raise SolverError(f"the potential evaluated to a non-finite value, {at}")
    side = "exceeds its declared upper" if v.flat[i] > hi else "is below its declared lower"
    bound = potential.upper_bound if v.flat[i] > hi else potential.lower_bound
    raise SolverError(f"{at} {side} bound {bound:g}; the declared potential bounds are not honest")


def _samples(potential: Potential, points: np.ndarray) -> np.ndarray:
    """V at the points, _SAMPLE_BLOCK at a time, unchecked (``_honest`` checks it)."""
    v = np.empty_like(points)
    for start in range(0, points.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        v[block] = potential.evaluate(points[block])
    return v


def _halves(lo: np.ndarray, hi: np.ndarray):
    """(lo, h) of the halves of the cells [lo, hi], left halves first."""
    mid = 0.5 * (lo + hi)
    return np.concatenate((lo, mid)), np.concatenate((mid - lo, hi - mid))


def _double(lo: np.ndarray, hi: np.ndarray, maps, v, per_length, s1):
    """Step doubling of the cells [lo, hi], with their maps, against their halves.

    v[j] holds V at Gauss node j of each half, left halves first, from which
    the halves' maps are built.  Returns the accepted cells (lo, hi, *maps)
    and the rejected ones bisected, each half with its map, in the same
    layout, left halves first.
    """
    n, (half_lo, half_h) = lo.size, _halves(lo, hi)
    halves = _magnus(v, half_h)
    err, floor = _doubling_error(maps, [x[:n] for x in halves], [x[n:] for x in halves], s1)
    ok = err <= np.maximum(per_length * (hi - lo), floor)
    bad = np.tile(~ok, 2)
    # half_lo[n:] are the midpoints, where the left halves end.
    return (lo[ok], hi[ok], *(x[ok] for x in maps)), (
        half_lo[bad], np.concatenate((half_lo[n:], hi))[bad], *(x[bad] for x in halves)
    )


def _refine(potential: Potential, edges: list[float], h0: float, per_length: float, s1: float):
    """Lay the mesh of the segments between edges and refine it until each cell passes.

    Each segment [a, b] needs ceil((b - a)/h0) initial cells; more than
    MAX_CELLS in all raise SolverError before V is read.  Every stretch of
    constant V gets ``_constant_cells``, whose exact maps need no check.
    A piecewise-constant potential makes each segment a stretch at V read
    at its midpoint only, and that is the whole mesh; as h0 sqrt(v1) <=
    0.24 < _THETA_MAX, it is never more cells than the initial ones.  Any
    other potential is sampled once, into samples[j, g, k] (module
    docstring), a block of cells at a time, and ``_honest`` checks it before
    any map is built.  A maximal run of flat cells becomes a stretch when
    that takes fewer cells than the run had; the other cells go to
    ``_double`` three blocks at a time, with maps from samples[:, 0, k] and
    their halves' V from samples[:, 1:, k], k the group's kept cells.
    Each later round samples V at the halves of the bisected cells
    ``_double`` handed back, all at once, and doubles them again.
    Returns the accepted cells (lo, hi) in increasing order with their maps,
    then V on each cell for a piecewise-constant potential, else None.
    """
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    with np.errstate(over="ignore"):  # an overflowing count is inf, which the cap refuses
        counts = np.ceil((b - a) / h0)
        if counts.sum() > MAX_CELLS:
            raise SolverError(
                f"the initial mesh needs {counts.sum():.0f} cells, more than {MAX_CELLS}; "
                "narrow the window or loosen the tolerance"
            )
    if potential.piecewise_constant:
        v = _honest(potential, 0.5 * (a + b))
        lo, hi, *maps = _constant_cells(a, b, v)
        # No cell crosses a segment edge, so each takes its segment's V.
        return lo, hi, *maps, v[np.searchsorted(b, lo, side="right")]
    lo, hi = _lay(a, b, counts.astype(np.int64))
    size = _SAMPLE_BLOCK // 3
    # samples[j, g, k]: V at Gauss node j of cell k (g = 0), or of its left (g = 1)
    # or right (g = 2) half: nine floats a cell, the round's largest array.
    samples = np.empty((3, 3, lo.size))

    def points(blk=slice(None)):
        half_lo, half_h = _halves(lo[blk], hi[blk])
        return _gauss_points(np.append(lo[blk], half_lo), np.append(hi[blk] - lo[blk], half_h))

    for blk in (slice(i, i + size) for i in range(0, lo.size, size)):
        samples[:, :, blk] = _samples(potential, points(blk)).reshape(3, 3, -1)
    _honest(potential, points, samples)
    flat = np.all(samples == samples[0, 0], axis=(0, 1))
    done: list[tuple] = []
    keep = np.ones(lo.size, dtype=bool)
    if flat.any():
        # Maximal runs of flat cells that share c and cross no edge; a cell that
        # is not flat is a run of one, which never takes fewer cells.
        c = samples[0, 0]
        joined = flat[1:] & flat[:-1] & (c[1:] == c[:-1]) & ~np.isin(lo[1:], edges)
        starts = np.flatnonzero(np.concatenate(([True], ~joined)))
        counts = np.diff(np.append(starts, lo.size))
        a, b, c = lo[starts], hi[starts + counts - 1], c[starts]
        merge = _theta_cells(a, b, c) < counts
        if merge.any():
            keep = ~np.repeat(merge, counts)
            done.append(_constant_cells(a[merge], b[merge], c[merge]))
        # Where V varies each cell is a run, so these are as long as the mesh: freed
        # before step doubling, which sets the solve's peak memory.
        del joined, starts, counts, a, b, c, merge
    # Step doubling three blocks at a time: each group's maps from samples[:, 0, k] and
    # its halves' V as one 64 KB row per node j, samples[j, 1:, k], freed before the
    # next group's are built: both at once would set the round's peak.
    checked = []
    for i in range(0, lo.size, 3 * size):
        k = i + np.flatnonzero(keep[i : i + 3 * size])
        if k.size:
            maps, v = _magnus(samples[:, 0, k], hi[k] - lo[k]), [x[1:, k].ravel() for x in samples]
            checked.append(_double(lo[k], hi[k], maps, v, per_length, s1))
            del maps, v
    while checked:
        done.extend(ok for ok, _ in checked)
        lo, hi, *maps = (np.concatenate(col) for col in zip(*(bad for _, bad in checked)))
        if not lo.size:
            break
        if sum(cells[0].size for cells in done) + lo.size > MAX_CELLS or np.any(lo >= hi):
            raise SolverError(
                f"step-doubling refinement exceeded {MAX_CELLS} cells; "
                "the potential is too rough for the requested tolerance"
            )
        v = _honest(potential, _gauss_points(*_halves(lo, hi)))
        checked = [_double(lo, hi, maps, v.reshape(3, -1), per_length, s1)]
    cells = [np.concatenate(col) for col in zip(*done)]
    order = np.argsort(cells[0], kind="stable")
    return *(col[order] for col in cells), None


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
        floats = (*_slack(self.window), float(mesh[0]), float(mesh[-1]),
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
        pieces = self._floats[-1]
        if pieces is None:
            cm1, P, Q, R = _cell_maps(self.potential, lo, h)
        else:
            cm1, P, Q, R = _magnus((np.asarray(pieces)[cell],) * 3, h)
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
        """phi(x) = exp(ell(x)); phi(0) = 1.

        math.exp for a point, np.exp for an array: the two may differ by an ulp.
        """
        l = self._dense(x)[1]
        return math.exp(l) if isinstance(l, float) else np.exp(l)


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
    l(0) = 0.  See the module docstring for the error control.  Each
    solution evaluates r and l anywhere in the window.

    Raises ValueError for a window or tolerance that ``_check_window``
    refuses, and SolverError if the mesh needs more than MAX_CELLS cells, if
    ``_honest`` refuses a V, or if a log-derivative leaves its invariant band.
    """
    _check_window(potential, x_min, x_max, tol)
    s0, s1 = math.sqrt(potential.lower_bound), math.sqrt(potential.upper_bound)

    # Refine to a tolerance tighter than the one requested, so that it is met
    # with room.  Errors in r decay at rate 2 sqrt(v0) along the flow, so a
    # budget of 2 sqrt(v0) internal_tol per unit length keeps r within about
    # internal_tol.
    internal_tol = min(3e-10, max(tol / 1000.0, 1e-13))
    h0 = 0.05 * (max(tol, 1e-12) / 1e-10) ** (1.0 / 6.0) / s1
    edges = _segment_edges(potential, x_min, x_max)
    lo, hi, cm1, P, Q, R, pieces = _refine(potential, edges, h0, 2.0 * s0 * internal_tol, s1)
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
        inside_lo, inside_hi, first, last, mesh, rs, ls, v_lo, v_hi, pieces = solution._floats
        if not inside_lo <= x <= inside_hi:
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

    x = _sample_grid(phi_plus)
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
