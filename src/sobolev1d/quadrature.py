"""Composite Gauss-Legendre quadrature with hard splits at known kinks."""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

import numpy as np

__all__ = ["composite_gauss_legendre", "composite_rule"]

# Gauss-Legendre points per panel.
ORDER = 12


@cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(ORDER)


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
    nodes, weights = _rule()
    cuts = [
        np.linspace(a, b, max(1, int(np.ceil((b - a) / panel_length))) + 1)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    c = np.concatenate([sub[:-1] for sub in cuts])
    d = np.concatenate([sub[1:] for sub in cuts])
    mid, half = 0.5 * (c + d), 0.5 * (d - c)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


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
