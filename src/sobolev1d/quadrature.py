"""Composite Gauss-Legendre quadrature with hard splits at known kinks.

The 12-point rule is held as constants: the six positive nodes and their
weights are the shortest float literals that round-trip the output of
``numpy.polynomial.legendre.leggauss(12)``, which is exactly symmetric, so
the mirrored arrays equal that output bit for bit without importing
``numpy.polynomial``.  ``tests/test_quadrature.py`` pins this against
``leggauss(ORDER)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["composite_gauss_legendre", "composite_rule"]

# Gauss-Legendre points per panel.
ORDER = 12


_HALF_NODES = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_HALF_WEIGHTS = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


def composite_rule(
    lo: float,
    hi: float,
    *,
    splits: Sequence[float] = (),
    panel_length: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ORDER-point rule on panels of [lo, hi] split at the kinks."""
    if hi <= lo:
        raise ValueError(f"empty integration range [{lo:g}, {hi:g}]")
    edges = [lo, hi] + [float(s) for s in splits if lo < s < hi]
    edges = sorted(set(edges))
    cuts = [
        np.linspace(a, b, max(1, int(np.ceil((b - a) / panel_length))) + 1)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    c = np.concatenate([sub[:-1] for sub in cuts])
    d = np.concatenate([sub[1:] for sub in cuts])
    mid, half = 0.5 * (c + d), 0.5 * (d - c)
    return (mid[:, None] + half[:, None] * NODES).ravel(), (half[:, None] * WEIGHTS).ravel()


def composite_gauss_legendre(
    fun: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    splits: Sequence[float] = (),
    panel_length: float = 0.25,
) -> float:
    """Integrate fun over [lo, hi], splitting panels at the given kinks.

    The integrand is evaluated vectorized on all ``composite_rule`` nodes at
    once.  With smooth pieces and panels a fraction of the integrand's
    variation scale, the ORDER-point rule is accurate to roundoff for
    everything in this package.
    """
    x, w = composite_rule(lo, hi, splits=splits, panel_length=panel_length)
    return float(np.dot(w, np.asarray(fun(x), dtype=float)))
