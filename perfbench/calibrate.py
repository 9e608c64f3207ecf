"""A fixed reference computation that measures how fast the machine runs now.

On a shared two-core x86 machine the same op list can take 20% longer from
one pass to the next, because other tenants compete for the cores; CPU time
drifts with wall time, so it does not help. The benchmark therefore runs
``reference()`` before every op and scales each pass's op times by
``REFERENCE_S / r``, where ``r`` is the mean reference time of that pass: a
figure reads as the time it would take on a machine where ``reference()``
takes ``REFERENCE_S``.

The reference is a classical Runge-Kutta integration of a Riccati equation
with a Python right-hand side on small NumPy arrays: the same mix of
interpreter calls, small-array arithmetic and allocation as the package's
side solves, so the two slow down together; a tight scalar loop tracked
the workloads far worse. Over ten runs per workload with different seeds
on that machine, the interquartile range over median of throughput was
4.4%, 2.2% and 11% scaled (solve, query, cli_verify) against 13%, 37% and
15% unscaled. The reference uses no sobolev1d code, so a change to the
package cannot move it. The raw wall times are reported next to the
scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Nominal time of reference() on an idle core of the 2-core x86 sandbox the
# benchmark was tuned on; it only fixes the scale of the reported times.
REFERENCE_S = 0.040
_STEPS = 3000
_STEP = 0.005


def _rhs(x: float, y: np.ndarray) -> np.ndarray:
    return np.array([2.0 + math.sin(x) - y[0] * y[0], y[0]])


def reference() -> float:
    """Run the reference computation; returns its wall time in seconds."""
    t0 = perf_counter()
    h = _STEP
    x, y = 0.0, np.array([1.0, 0.0])
    states = []
    for _ in range(_STEPS):
        k1 = _rhs(x, y)
        k2 = _rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = _rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = _rhs(x + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h
        states.append(y)
    np.searchsorted(np.arange(float(_STEPS)), np.linspace(0.0, _STEPS, 2000))
    return perf_counter() - t0


def factor(reference_seconds: list[float]) -> float:
    """Multiplier that takes times measured alongside these reference runs
    to the nominal speed."""
    return REFERENCE_S * len(reference_seconds) / sum(reference_seconds)
