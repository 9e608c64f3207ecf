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

Mesh and error control.  The mesh depends on V, the window and tol, not
on the side, so ``solve_log_solution`` refines one mesh and sweeps its cell
maps once per side; the two solutions share its node array.  The initial
mesh is uniform with spacing h0 = 0.05 (max(tol, 1e-12)/1e-10)^(1/6) /
sqrt(v1), split at the window edges, at 0 and at the potential's
breakpoints.  The first round samples V once, at the Gauss nodes of every
initial cell and of its two halves.  A cell whose nine samples are one
number c is flat.  Each maximal run of flat cells that share c and cross no
edge is replaced by equal cells with theta = h sqrt(|c|) <= 20, laid out
from the end nearer 0, when that takes fewer cells than the run had; their
map is the exact one of constant V, so they need no check and no further
sample.  Where one sample differs, the
cell is treated as if no run existed.  Every other cell is checked by step
doubling (one step against two half steps, all cells at once); the
matrix difference is converted to r and l units with |r| <= sqrt(v1), and
cells over their budget are bisected until all pass.  The budget is
2 sqrt(v0) * itol per unit length, with itol = min(3e-10, max(1e-13,
tol/1000)): errors in r decay at rate 2 sqrt(v0) along the flow, so the
dense output carries r to about itol.  A floor of a few dozen ulps keeps
roundoff from driving refinement; more than MAX_CELLS cells raise
SolverError.  Off-mesh points are evaluated by a partial Magnus step from
the mesh node on the stable side (forward from the left node for "-",
backward from the right node for "+"), on one of two paths: an array of
points in one vectorized pass, a single point in float arithmetic, which
skips numpy's per-call cost on one-element arrays.  Both paths share the
Magnus exponent (``_omega``) and run the same operations in the same order.
0 is a mesh node, so l(0) = 0 exactly and a solve makes no off-mesh read.

Points and arrays.  Every reader here and in ``fcurve`` and ``green`` takes a
point (a float or a 0-d array), which gives Python floats all the way up, or
an array, which gives arrays of its shape; element i is bitwise the point's
(``phi_at`` aside, whose exponential rounds by ``math`` for a point).

Bands.  The seeded flows stay in

    -sqrt(v1) <= r_plus <= -sqrt(v0),    sqrt(v0) <= r_minus <= sqrt(v1),

(at r = +-sqrt(v1) and +-sqrt(v0) the Riccati field points inward), which
is the bound the error conversion uses.  The solver checks both sides
against it, with slack 1e-8 max(1, sqrt(v1)), and refuses when either
leaves it: the declared bounds are then not honest.

The pointwise minimizer of the pinned problem (u(a) = max|u| = 1) is
u_a = G(., a)/G(a, a), read without quadrature through ``_pair_reads``, the
one reader of the solved pair, which G and F = 1/G(a, a) use as well:

    u_a(x) = phi_minus(x)/phi_minus(a)  (x < a),
             phi_plus(x)/phi_plus(a)    (x >= a).
"""

from __future__ import annotations

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
    "check_comparison",
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
# Most mesh cells one side may use before the solver gives up.
MAX_CELLS = 1 << 19
# Spacing of the sample grid, in decay lengths 1/sqrt(v0).
SAMPLE_SPACING = 0.025
# Points of the Riccati residual check.
RESIDUAL_POINTS = 201
# Log-space slack of the envelope checks.
ENVELOPE_SLACK = 1e-8
# Grid size and log-space tolerance of the comparison check.
COMPARISON_POINTS = 801
COMPARISON_TOL = 1e-6

# Gauss-Legendre nodes of a cell [x, x + h]: the midpoint and midpoint +- _GAUSS h.
_GAUSS = math.sqrt(15.0) / 10.0
# Step-doubling estimates below this many ulps of the cell map are roundoff.
_FLOOR_ULPS = 32.0 * np.finfo(float).eps
# Largest theta = h sqrt(|V|) of a cell laid across a run of constant V; at
# cosh(20) ~ 2.4e8 the entries of the exact map stay far from overflow.
_THETA_MAX = 20.0
# Points per potential.evaluate call when the mesh is sampled: numpy
# temporaries above ~16k points cost page faults on every call.
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


def _check_inside(x, window: tuple[float, float], what: str) -> None:
    """Raise ValueError unless x (a point or an array) lies in the window; NaN never does."""
    lo, hi = window
    # Tiny slack for roundoff at the endpoints themselves.
    eps = 1e-12 * (1.0 + abs(lo) + abs(hi))
    if isinstance(x, np.ndarray) and x.ndim:
        inside = np.all((lo - eps <= x) & (x <= hi + eps))
    else:
        inside = lo - eps <= x <= hi + eps
    if not inside:
        raise ValueError(f"{what} [{lo:g}, {hi:g}]")


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
    p^2 + q s.  For v1 = v2 = v3 the map is the exact one of constant V.
    """
    p, q, s = _omega(*v, h)
    z = p * p + q * s
    t = np.sqrt(np.abs(z))
    grow = z >= 0.0
    if grow.all():
        # Always so for V > 0: the sinh branch alone, as np.where would pick it.
        cm1, sh = 2.0 * np.sinh(0.5 * t) ** 2, np.sinh(t)
    else:
        cm1 = np.where(grow, 2.0 * np.sinh(0.5 * t) ** 2, -2.0 * np.sin(0.5 * t) ** 2)
        sh = np.where(grow, np.sinh(t), np.sin(t))
    with np.errstate(invalid="ignore", divide="ignore"):
        shc = sh / t
    shc = np.where(t > 0.0, shc, 1.0)
    return cm1, shc * p, shc * q, shc * s


def _cell_maps(potential: Potential, lo: np.ndarray, h: np.ndarray):
    """``_magnus`` maps of the cells [lo, lo + h], sampling V for all cells in one call."""
    v = np.asarray(potential.evaluate(_gauss_points(lo, h)), dtype=float)
    return _magnus(v.reshape(3, -1), h)


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
        np.abs(x) + np.abs(y) + np.abs(z)
        for x, y, z in zip((a, b, c, d), (la, lb, lc, ld), (ra, rb, rc, rd))
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


def _initial_mesh(edges: list[float], h0: float) -> np.ndarray:
    """Uniform nodes of spacing <= h0 on each piece between consecutive edges.

    Each piece is laid out from its end nearer 0, so the mesh of a window
    symmetric about 0 is bitwise mirror-symmetric.  More than MAX_CELLS
    cells raise SolverError before any node is allocated.
    """
    pieces = list(zip(edges[:-1], edges[1:]))
    counts = [int(math.ceil((hi - lo) / h0)) for lo, hi in pieces]
    if sum(counts) > MAX_CELLS:
        raise SolverError(
            f"the initial mesh needs {sum(counts)} cells, more than {MAX_CELLS}; "
            "narrow the window or loosen the tolerance"
        )
    nodes = [np.asarray(edges, dtype=float)]
    for (lo, hi), n in zip(pieces, counts):
        near, far = (lo, hi) if lo >= 0.0 else (hi, lo)
        nodes.append(near + (far - near) * (np.arange(1, n) / n))
    return np.sort(np.concatenate(nodes))


def _flat_runs(lo: np.ndarray, hi: np.ndarray, v: np.ndarray, edges: list[float]):
    """Cells laid across the runs of constant V, and the mask of the cells they replace.

    v holds the first-round samples of each cell [lo, hi], one column per
    cell.  A cell is flat when its samples are one number c.  Each maximal
    run of adjacent flat cells that share c and cross no segment edge is
    replaced by k equal cells with theta = h sqrt(|c|) <= _THETA_MAX, laid
    out from the end nearer 0 as in ``_initial_mesh``, when k is fewer than
    the cells of the run; a NaN sample is never equal to itself and an
    infinite c needs infinitely many cells, so neither is replaced.
    Returns the mask of the cells kept and (lo, hi, c) of the new cells, or
    None when no run is replaced.
    """
    c = v[0]
    flat = np.all(v == c, axis=0)
    if not flat.any():
        return None
    joined = flat[1:] & flat[:-1] & (c[1:] == c[:-1]) & ~np.isin(lo[1:], edges)
    starts = np.flatnonzero(np.concatenate(([True], ~joined)))
    counts = np.diff(np.append(starts, lo.size))
    a, b, c = lo[starts], hi[starts + counts - 1], c[starts]
    k = np.maximum(1.0, np.ceil((b - a) * np.sqrt(np.abs(c)) / _THETA_MAX))
    merge = flat[starts] & (k < counts)
    if not merge.any():
        return None
    a, b, c, k = a[merge], b[merge], c[merge], k[merge].astype(np.int64)
    near, far = np.where(a >= 0.0, a, b), np.where(a >= 0.0, b, a)
    # Node j = 0..k of each run, flattened run after run.
    run = np.repeat(np.arange(k.size), k + 1)
    first = np.cumsum(k + 1) - (k + 1)
    j = np.arange(run.size) - first[run]
    x = near[run] + (far - near)[run] * (j / k[run])
    x = np.where(j == 0, near[run], np.where(j == k[run], far[run], x))
    pair = np.delete(np.arange(run.size - 1), first[1:] - 1)
    new_lo = np.minimum(x[pair], x[pair + 1])
    new_hi = np.maximum(x[pair], x[pair + 1])
    return ~np.repeat(merge, counts), new_lo, new_hi, c[run[pair]]


def _samples(potential: Potential, points: np.ndarray) -> np.ndarray:
    """V at the points, _SAMPLE_BLOCK at a time, refused when a sample is not finite."""
    v = np.empty_like(points)
    for start in range(0, points.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        v[block] = potential.evaluate(points[block])
    if not np.all(np.isfinite(v)):
        raise SolverError("the potential evaluated to a non-finite value")
    return v


def _halves(lo: np.ndarray, hi: np.ndarray):
    """Midpoints of the cells [lo, hi], and (lo, h) of their halves, left halves first."""
    mid = 0.5 * (lo + hi)
    return mid, np.concatenate((lo, mid)), np.concatenate((mid - lo, hi - mid))


# Finite samples far above the declared bound overflow the cell maps; the
# finiteness test of the doubling error names that case, so it need not warn.
@np.errstate(over="ignore", invalid="ignore")
def _refine(
    potential: Potential, nodes: np.ndarray, edges: list[float], per_length: float, s1: float
):
    """Cross runs of constant V in closed form; bisect other cells until each passes step doubling.

    The first round samples V once, at the Gauss nodes of every initial cell
    and of its two halves.  Runs of constant V get ``_flat_runs`` cells with
    the exact constant-V map; the other cells are checked by step doubling
    on those samples, and later rounds sample only the new halves.
    Returns the accepted cells (lo, hi) in increasing order with their maps.
    """
    lo, hi = nodes[:-1], nodes[1:]
    mid, half_lo, half_h = _halves(lo, hi)
    points = np.concatenate((_gauss_points(lo, hi - lo), _gauss_points(half_lo, half_h)))
    v = _samples(potential, points).reshape(9, lo.size)
    done: list[tuple] = []
    n_done = 0
    runs = _flat_runs(lo, hi, v, edges)
    if runs is not None:
        keep, run_lo, run_hi, c = runs
        done.append((run_lo, run_hi, *_magnus((c, c, c), run_hi - run_lo)))
        n_done = run_lo.size
        lo, hi, mid, v = lo[keep], hi[keep], mid[keep], v[:, keep]
    maps = _magnus(v[:3], hi - lo)
    halves = _magnus(v[3:].reshape(3, -1), np.concatenate((mid - lo, hi - mid)))
    while lo.size:
        left = tuple(x[: lo.size] for x in halves)
        right = tuple(x[lo.size :] for x in halves)
        err, floor = _doubling_error(maps, left, right, s1)
        if not np.all(np.isfinite(err)):
            raise SolverError(
                "the cell maps overflow on finite samples; the potential exceeds "
                f"its declared upper bound {potential.upper_bound:g}"
            )
        ok = err <= np.maximum(per_length * (hi - lo), floor)
        done.append((lo[ok], hi[ok], *(x[ok] for x in maps)))
        n_done += int(ok.sum())
        bad = ~ok
        if not bad.any():
            break
        if n_done + 2 * int(bad.sum()) > MAX_CELLS or np.any(
            (mid[bad] <= lo[bad]) | (mid[bad] >= hi[bad])
        ):
            raise SolverError(
                f"step-doubling refinement exceeded {MAX_CELLS} cells; "
                "the potential is too rough for the requested tolerance"
            )
        lo, hi = np.concatenate((lo[bad], mid[bad])), np.concatenate((mid[bad], hi[bad]))
        maps = tuple(np.concatenate((l[bad], r[bad])) for l, r in zip(left, right))
        mid, half_lo, half_h = _halves(lo, hi)
        v = _samples(potential, _gauss_points(half_lo, half_h))
        halves = _magnus(v.reshape(3, -1), half_h)
    cells = [np.concatenate(col) for col in zip(*done)]
    order = np.argsort(cells[0], kind="stable")
    return [col[order] for col in cells]


def _compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of x with the rounding error of each addition folded back in."""
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    bb = s - prev
    err = (prev - (s - bb)) + (x - bb)
    return s + np.cumsum(err)


def _sweep(r0: float, cm1, P, Q, R) -> np.ndarray:
    """r at every node, applying r -> (R + (1 + cm1 - P) r)/(1 + cm1 + P + Q r) cell by cell.

    The plain loop up to _SWEEP_LEAF cells; above, ``_compose_sweep`` pairs the
    maps, within a few dozen ulps of the exact recurrence of these float maps.
    """
    return _compose_sweep(r0, 1.0 + cm1 + P, Q, R, 1.0 + cm1 - P)


def _compose_sweep(r0: float, a, q, s, d) -> np.ndarray:
    """r at every node of the maps r -> (s + d r)/(a + q r), cell k taking node k to k + 1.

    Cell k acts on (1, r) as N_k = [[a, q], [s, d]].  Above _SWEEP_LEAF cells
    each pair N_{2j+1} N_{2j}, divided by its (1,1) entry to stay finite, is
    one map of a half-length chain giving r at the even nodes; one more step
    each gives the odd nodes.  Side "-" has positive entries and side "+" the
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
    even = _compose_sweep(
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
        domain_margin: sqrt(v0) * min(|x_min|, x_max).
        tol: the accuracy requested at construction.
        potential: the potential integrated against.

    The mesh contains 0, where l is 0, and is shared with the other side of
    the same solve; r and l anywhere in the window come from a partial
    Magnus step off the mesh (``_dense``).
    """

    side: str
    window: tuple[float, float]
    domain_margin: float
    tol: float
    potential: Potential
    _mesh: np.ndarray = field(repr=False)
    _r: np.ndarray = field(repr=False)
    _l: np.ndarray = field(repr=False)

    def _dense(self, x):
        """(r, l) at x by a partial Magnus step from the node on the stable side.

        l vanishes at 0.  Every read of r or l goes through here, so a caller
        that needs both sides at many points reads each side once.  Two
        paths, chosen by the rank of x: an array takes one ``_cell_maps``
        call for all its points and returns two arrays of x's shape; a point
        (a float or a 0-d array) takes ``_dense_one``, in float arithmetic,
        and returns two Python floats.  The two paths agree bitwise.
        """
        if _is_point(x):
            return self._dense_one(float(x))
        xs = np.asarray(x, dtype=float)
        _check_inside(xs, self.window, "position outside solved window")
        mesh = self._mesh
        flat = np.clip(xs.ravel(), mesh[0], mesh[-1])
        if self.side == "-":
            # Forward from the left node of the cell holding x.
            k = np.clip(np.searchsorted(mesh, flat, side="right") - 1, 0, mesh.size - 2)
            lo, h, sign = mesh[k], flat - mesh[k], 1.0
        else:
            # Backward from the right node of the cell holding x.
            k = np.clip(np.searchsorted(mesh, flat, side="left"), 1, mesh.size - 1)
            lo, h, sign = flat, mesh[k] - flat, -1.0
        cm1, P, Q, R = _cell_maps(self.potential, lo, h)
        r0 = self._r[k]
        P, Q, R = sign * P, sign * Q, sign * R
        du = cm1 + P + Q * r0
        r = (R + (1.0 + cm1 - P) * r0) / (1.0 + du)
        l = self._l[k] + np.log1p(du)
        return r.reshape(xs.shape), l.reshape(xs.shape)

    def _dense_one(self, x: float) -> tuple[float, float]:
        """``_dense`` at one point, with ``_magnus``'s exponential taken by one branch.

        To stay bitwise equal to the array path, sinh, sin and log1p go
        through numpy, whose loops can round differently from ``math``'s;
        sqrt is correctly rounded either way, and squares are products, as
        numpy's ``** 2`` is.
        """
        _check_inside(x, self.window, "position outside solved window")
        mesh = self._mesh
        x = min(max(x, float(mesh[0])), float(mesh[-1]))
        if self.side == "-":
            k = min(max(int(mesh.searchsorted(x, side="right")) - 1, 0), mesh.size - 2)
            lo = float(mesh[k])
            h, sign = x - lo, 1.0
        else:
            k = min(max(int(mesh.searchsorted(x, side="left")), 1), mesh.size - 1)
            lo, h, sign = x, float(mesh[k]) - x, -1.0
        v = np.asarray(self.potential.evaluate(np.array(_gauss_nodes(lo, h))), dtype=float)
        p, q, s = _omega(*v.tolist(), h)
        z = p * p + q * s
        t = math.sqrt(abs(z))
        if z >= 0.0:
            half, whole = float(np.sinh(0.5 * t)), float(np.sinh(t))
            cm1 = 2.0 * (half * half)
        else:
            half, whole = float(np.sin(0.5 * t)), float(np.sin(t))
            cm1 = -2.0 * (half * half)
        shc = whole / t if t > 0.0 else 1.0
        P, Q, R = sign * (shc * p), sign * (shc * q), sign * (shc * s)
        r0 = float(self._r[k])
        du = cm1 + P + Q * r0
        r = (R + (1.0 + cm1 - P) * r0) / (1.0 + du)
        l = float(self._l[k]) + float(np.log1p(du))
        return r, l

    def ell_at(self, x):
        """log phi(x), normalized to vanish at 0."""
        return self._dense(x)[1]

    def ell_prime_at(self, x):
        """Log-derivative r(x) = phi'(x)/phi(x)."""
        return self._dense(x)[0]

    def ell_second_at(self, x):
        """l''(x) = V(x) - r(x)^2, algebraically from the Riccati equation."""
        r, _ = self._dense(x)
        v = np.asarray(self.potential.evaluate(np.asarray(x, dtype=float)), dtype=float)
        return float(v) - r * r if isinstance(r, float) else v - r * r

    def phi_at(self, x):
        """phi(x) = exp(ell(x)); phi(0) = 1.

        math.exp for a point, np.exp for an array: the two may differ by an ulp.
        """
        l = self.ell_at(x)
        return math.exp(l) if isinstance(l, float) else np.exp(l)


def solve_log_solution(
    potential: Potential,
    x_min: float,
    x_max: float,
    tol: float = DEFAULT_TOL,
) -> tuple[LogSolution, LogSolution]:
    """Integrate both decaying branches of r' = V - r^2 across the window.

    Returns (phi_plus, phi_minus) on one adaptive mesh (split at 0 and at
    the potential's breakpoints, refined by step doubling), which the two
    solutions share.  Each cell is crossed by one sixth-order Magnus step
    applied to r as a Moebius map: side "-" forward from x_min seeded with
    +sqrt(V) there, side "+" backward from x_max seeded with -sqrt(V).
    l = log phi gets the log of the map's denominator, summed outward from
    l(0) = 0.  See the module docstring for the error control.  Each
    solution evaluates r and l anywhere in the window.

    Raises ValueError for a bad window (finite, x_min < 0 < x_max, with
    decay margin sqrt(v0)*min(|x_min|, x_max) >= 20) or tolerance outside
    [1e-14, 1e-6], and SolverError if the mesh needs more than MAX_CELLS
    cells or a log-derivative leaves its invariant band (declared bounds
    not honest).
    """
    if not (-math.inf < x_min < 0.0 < x_max < math.inf):
        raise ValueError(f"window must be finite and contain 0, got [{x_min:g}, {x_max:g}]")
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise ValueError(f"tol must lie in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]")
    v0, v1 = potential.lower_bound, potential.upper_bound
    s0, s1 = math.sqrt(v0), math.sqrt(v1)
    margin = s0 * min(abs(x_min), x_max)
    if margin < MIN_DOMAIN_MARGIN:
        raise ValueError(
            f"decay margin sqrt(v0)*min(|x_min|, x_max) = {margin:.3f} < "
            f"{MIN_DOMAIN_MARGIN:g}; widen the window"
        )

    # Refine to a tolerance tighter than the one requested, so that it is met
    # with room.  Errors in r decay at rate 2 sqrt(v0) along the flow, so a
    # budget of 2 sqrt(v0) internal_tol per unit length keeps r within about
    # internal_tol.
    internal_tol = min(3e-10, max(1e-13, tol / 1000.0))
    h0 = 0.05 * (max(tol, 1e-12) / 1e-10) ** (1.0 / 6.0) / s1
    edges = _segment_edges(potential, x_min, x_max)
    lo, hi, cm1, P, Q, R = _refine(
        potential, _initial_mesh(edges, h0), edges, 2.0 * s0 * internal_tol, s1
    )
    mesh = np.append(lo, hi[-1])

    # Sweep in each side's attracting direction: forward for "-", backward
    # for "+" (the inverse maps, last cell first).  The seeds take V at the
    # Gauss node nearest the starting edge, which is never on a jump.
    start = lo[0] + (0.5 - _GAUSS) * (hi[0] - lo[0])
    r_minus = _sweep(math.sqrt(float(potential.evaluate(start))), cm1, P, Q, R)
    start = hi[-1] - (0.5 - _GAUSS) * (hi[-1] - lo[-1])
    seed = -math.sqrt(float(potential.evaluate(start)))
    r_plus = _sweep(seed, cm1[::-1], -P[::-1], -Q[::-1], -R[::-1])[::-1]

    rates = np.concatenate((r_minus, -r_plus))
    slack = 1e-8 * max(1.0, s1)
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
            domain_margin=margin,
            tol=float(tol),
            potential=potential,
            _mesh=mesh,
            _r=r,
            _l=l,
        )

    return (
        solution("+", r_plus, -np.log1p(cm1 - P - Q * r_plus[1:])),
        solution("-", r_minus, np.log1p(cm1 + P + Q * r_minus[:-1])),
    )


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

    def product(self, side: str, wronskian: float) -> np.ndarray:
        """h_side' H_side = 2 r_side phi_plus phi_minus / W."""
        r = self.r_plus if side == "+" else self.r_minus
        return 2.0 * r * _exp(self.l_plus + self.l_minus) / wronskian


def _pair_reads(phi_plus: LogSolution, phi_minus: LogSolution, x, y):
    """phi_minus read at min(x, y) and phi_plus at max(x, y), and the mask x < y.

    One dense read per side; V is not read.  Floats for two points (one
    comparison orders them; with a NaN it is False and the NaN still reaches
    a read that refuses it), broadcast arrays otherwise.  At x = y both
    sides are read at the same pins, which is what F needs.
    """
    if _is_point(x) and _is_point(y):
        left = x < y
        (rm, lm), (rp, lp) = phi_minus._dense(x if left else y), phi_plus._dense(y if left else x)
    else:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        (rm, lm), (rp, lp) = phi_minus._dense(np.minimum(x, y)), phi_plus._dense(np.maximum(x, y))
        left = x < y
    return PinReads(rp, rm, lp, lm), left


@dataclass
class ExtremalFunction:
    """The pinned minimizer u_a = G(., a)/G(a, a): u(a) = max|u| = 1, energy F(a).

    u is assembled from the two decaying solutions, so its sup-norm is
    exactly 1, attained only at the center.  The derivative has a kink at
    the center; ``derivative`` returns the right-hand value there.
    """

    center: float
    phi_plus: LogSolution
    phi_minus: LogSolution
    # (l_plus, l_minus) at the center, read once.
    _at_center: tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._at_center = (
            self.phi_plus.ell_at(self.center),
            self.phi_minus.ell_at(self.center),
        )

    @property
    def window(self) -> tuple[float, float]:
        return self.phi_plus.window

    def _reads(self, x):
        """(log u, u'/u) at x: the pair read at (x, a), less the center's logs."""
        (rp, rm, lp, lm, _), left = _pair_reads(self.phi_plus, self.phi_minus, x, self.center)
        la_p, la_m = self._at_center
        if isinstance(left, np.ndarray):
            return np.where(left, lm - la_m, lp - la_p), np.where(left, rm, rp)
        return (lm - la_m, rm) if left else (lp - la_p, rp)

    def log_value(self, x):
        return self._reads(x)[0]

    def __call__(self, x):
        return _exp(self._reads(x)[0])

    def derivative(self, x):
        log_u, rate = self._reads(x)
        return _exp(log_u) * rate


def extremal_function(
    phi_plus: LogSolution, phi_minus: LogSolution, a: float
) -> ExtremalFunction:
    """Assemble u_a from the two sides; a must sit one decay inset inside the window."""
    _check_pair(phi_plus, phi_minus)
    lo, hi = phi_plus.window
    inset = decay_inset(phi_plus.potential)
    if not (lo + inset <= a <= hi - inset):
        raise ValueError(
            f"center {a:g} too close to the window edges; keep it inside "
            f"[{lo + inset:g}, {hi - inset:g}]"
        )
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
    quality; the stencil is read in one call.  The tolerance is
    max(10*tol, 2e-9) scaled by max(1, v1).  The Magnus dense output is
    smooth inside each cell, and its measured residual is about
    1e-12 * max(1, v1) for tol <= 1e-10 (example, logistic step, spline
    table and step potentials), so the tolerance flags a broken dense
    output, not roundoff.
    """
    pot = solution.potential
    tolerance = max(10.0 * solution.tol, 2e-9) * max(1.0, pot.upper_bound)
    lo, hi = solution.window
    h = 1e-3 / max(1.0, math.sqrt(pot.upper_bound))
    xs = np.linspace(lo + 5 * h, hi - 5 * h, RESIDUAL_POINTS)
    for b in pot.breakpoints:
        xs = xs[np.abs(xs - b) > 3 * h]
    stencil, _ = solution._dense(np.stack((xs, xs + 2 * h, xs + h, xs - h, xs - 2 * h)))
    r, r_2h, r_h, r_mh, r_m2h = stencil
    rp = (-r_2h + 8.0 * r_h - 8.0 * r_mh + r_m2h) / (12.0 * h)
    res = np.abs(rp + r * r - np.asarray(pot.evaluate(xs)))
    worst = float(res.max()) if res.size else 0.0
    return ResidualReport(worst, float(tolerance), worst <= tolerance)


@dataclass
class EnvelopeReport:
    """Two-sided exponential envelope checks, in log space.

    ``violations`` maps check names to the worst (positive) overshoot of the
    corresponding inequality; zero means the bound held everywhere sampled.
    """

    violations: dict[str, float]
    slack: float
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
      interval about 0 one decay inset inside the window.
    """
    pot = phi_plus.potential
    v0, v1 = pot.lower_bound, pot.upper_bound
    s0, s1 = math.sqrt(v0), math.sqrt(v1)
    lo, hi = phi_plus.window
    inset = decay_inset(pot)
    r = min(abs(lo + inset), hi - inset)

    worst: dict[str, float] = {}

    def record(name: str, violation: np.ndarray | float) -> None:
        v = float(np.max(violation)) if np.size(violation) else 0.0
        worst[name] = max(worst.get(name, 0.0), v)

    x = _sample_grid(phi_plus)
    _, lp = phi_plus._dense(x)
    record("phi_plus_upper", lp - (0.5 * math.log(v1 / v0) - np.minimum(s0 * x, s1 * x)))
    record("phi_plus_lower", (0.5 * math.log(v0 / v1) - np.maximum(s0 * x, s1 * x)) - lp)
    _, lm = phi_minus._dense(x)
    record("phi_minus_upper", lm - (0.5 * math.log(v1 / v0) + np.maximum(s0 * x, s1 * x)))
    record("phi_minus_lower", (0.5 * math.log(v0 / v1) + np.minimum(s0 * x, s1 * x)) - lm)

    for a in (-0.5 * r, 0.0, 0.5 * r):
        u = extremal_function(phi_plus, phi_minus, a)
        xs = x[np.abs(x - a) > 1e-9]
        logu, rate = u._reads(xs)
        d = np.abs(xs - a)
        record("pinned_upper", logu - (-s0 * d))
        record("pinned_lower", (-s1 * d) - logu)
        du = np.exp(logu) * rate
        signed = np.sign(a - xs) * du
        if np.any(signed <= 0.0):
            record("pinned_slope_sign", 1.0)
        logd = np.log(np.maximum(signed, 1e-300))
        record("pinned_slope_upper", logd - (math.log(v1 / s0) - s0 * d))
        record("pinned_slope_lower", (math.log(v0 / s1) - s1 * d) - logd)

    passed = all(v <= ENVELOPE_SLACK for v in worst.values())
    return EnvelopeReport(violations=worst, slack=ENVELOPE_SLACK, passed=passed)


@dataclass
class ComparisonReport:
    """Pointwise comparison u_a(V) >= u_a(V_tilde) for V <= V_tilde."""

    precondition_ok: bool
    precondition_violation: float
    min_log_margin: float
    passed: bool


def check_comparison(
    potential_low: Potential, potential_high: Potential, a: float
) -> ComparisonReport:
    """Check the comparison principle between two ordered potentials.

    If V <= V_tilde pointwise, the pinned minimizers satisfy
    u_a(x; V) >= u_a(x; V_tilde) everywhere.  Both sides are solved on
    +-25/sqrt(v0) with the smaller v0, and the log-space margin is checked
    to COMPARISON_TOL at COMPARISON_POINTS uniform points of that window.  A
    failed precondition (potential_low above potential_high somewhere on the
    grid) is reported, not silently passed.
    """
    w = 25.0 / math.sqrt(min(potential_low.lower_bound, potential_high.lower_bound))
    grid = np.linspace(-w, w, COMPARISON_POINTS)

    v_lo = np.asarray(potential_low.evaluate(grid))
    v_hi = np.asarray(potential_high.evaluate(grid))
    gap = float(np.max(v_lo - v_hi))
    precondition_ok = gap <= 1e-12 * max(1.0, float(np.max(np.abs(v_hi))))

    us = [
        extremal_function(*solve_log_solution(pot, -w, w), a)
        for pot in (potential_low, potential_high)
    ]
    margin = np.asarray(us[0].log_value(grid)) - np.asarray(us[1].log_value(grid))
    min_margin = float(np.min(margin))
    return ComparisonReport(
        precondition_ok=precondition_ok,
        precondition_violation=max(gap, 0.0),
        min_log_margin=min_margin,
        passed=precondition_ok and min_margin >= -COMPARISON_TOL,
    )
