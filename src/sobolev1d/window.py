"""The window and tolerance rules of a solve, and the window's pin lattice."""

from __future__ import annotations

import math

import numpy as np

from .potential import Potential

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
# Spacing of the sample grid, in decay lengths 1/sqrt(v0).
SAMPLE_SPACING = 0.025


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


def _check_inside(x, window: tuple[float, float], what: str) -> None:
    """Raise ValueError unless x (a point or an array) lies in the window; NaN never does.

    The window is widened at its ends, for roundoff, by 1e-12 of |lo| + |hi|
    (> 0: 0 is inside); a point within the window itself returns first.
    """
    point = not (isinstance(x, np.ndarray) and x.ndim)
    if point and window[0] <= x <= window[1]:
        return
    eps = 1e-12 * (abs(window[0]) + abs(window[1]))
    lo, hi = window[0] - eps, window[1] + eps
    inside = lo <= x <= hi if point else np.all((lo <= x) & (x <= hi))
    if not inside:
        raise ValueError(f"{what} [{window[0]:g}, {window[1]:g}]")


def _segment_edges(potential: Potential, x_min: float, x_max: float) -> list[float]:
    inner = [b for b in potential.breakpoints if x_min < b < x_max]
    return sorted({x_min, 0.0, *inner, x_max})


def _sample_grid(potential: Potential, window: tuple[float, float]) -> np.ndarray:
    """The window at spacing SAMPLE_SPACING/sqrt(v0), plus 0 and the breakpoints.

    A point within 1e-12 of the window of the one before it, an exact
    duplicate too, is dropped.
    """
    x_min, x_max = window
    spacing = SAMPLE_SPACING / math.sqrt(potential.lower_bound)
    n = max(2, int(math.ceil((x_max - x_min) / spacing)))
    grid = np.sort(
        np.concatenate((np.linspace(x_min, x_max, n + 1), _segment_edges(potential, x_min, x_max)))
    )
    keep = np.concatenate(([True], np.diff(grid) > 1e-12 * (x_max - x_min)))
    return grid[keep]
