"""Mesh and error control.  The mesh depends on V, the window and tol, not on
the side, so ``solve_log_solution`` refines one mesh and sweeps its cell
maps once per side; the two solutions share its node array.  The window is
split at 0 and at the potential's breakpoints into segments, and every cell
is laid by one rule (``_lay``): k equal cells on a segment or stretch, laid
out from the end nearer 0 with exact ends, so the mesh of a window
symmetric about 0 is bitwise mirror-symmetric.  ``_refine`` sizes the mesh
from the window and tol (its docstring states h0 and the budget).  Every
stretch of constant V = c is laid by ``_constant_cells``: the fewest equal
cells with theta = h sqrt(|c|) <= 20, each with the exact map of constant
V, which needs no check.  A potential declared piecewise constant
(``Potential.piecewise_constant``) makes each segment a stretch: V is read
once, at the segment midpoints, each stretch takes the value read there,
and the stretches are the whole mesh (never more cells than the initial
ones, as h0 sqrt(v1) <= 0.24 < 20).  Any other potential is sampled once,
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
each half with its map, until all pass.  A floor of a few dozen
ulps keeps roundoff from driving refinement; more than MAX_CELLS cells
raise SolverError.

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
"""

from __future__ import annotations

import math

import numpy as np

from .potential import Potential
from .window import _check_window, _segment_edges

# Most mesh cells one side may use before the solver gives up.
MAX_CELLS = 1 << 19
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


class SolverError(RuntimeError):
    """Numerical failure inside an integrator or verifier."""


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


def _refine(potential: Potential, x_min: float, x_max: float, tol: float):
    """Lay the mesh of the window's segments and refine it until each cell passes.

    First ``_check_window`` refuses, with ValueError and before V is read, a
    window or tol the solve cannot honour; every tol left is at most 1e-6.
    The segments lie between ``_segment_edges``.  Each needs ceil(length/h0)
    initial cells, h0 = 0.05 (max(tol, 1e-12)/1e-10)^(1/6)/sqrt(v1), so
    h0 sqrt(v1) <= 0.24 for every tol the check lets in; more than MAX_CELLS
    in all raise SolverError before V is read.  A cell passes when its step-doubling
    error is within the budget 2 sqrt(v0) itol per unit length, itol =
    min(3e-10, max(tol/1000, 1e-13)), or its roundoff floor: errors in r
    decay at rate 2 sqrt(v0) along the flow, so r is carried to about itol,
    tighter than tol.  Every stretch of
    constant V gets ``_constant_cells``, whose exact maps need no check.
    A piecewise-constant potential makes each segment a stretch at V read
    at its midpoint only, and that is the whole mesh; as 0.24 < _THETA_MAX,
    it is never more cells than the initial ones.  Any
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
    _check_window(potential, x_min, x_max, tol)
    s0, s1 = math.sqrt(potential.lower_bound), math.sqrt(potential.upper_bound)
    itol = min(3e-10, max(tol / 1000.0, 1e-13))
    h0 = 0.05 * (max(tol, 1e-12) / 1e-10) ** (1.0 / 6.0) / s1
    per_length = 2.0 * s0 * itol
    edges = _segment_edges(potential, x_min, x_max)
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
