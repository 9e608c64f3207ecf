import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev1d import quadrature
from sobolev1d.quadrature import composite_gauss_legendre


def _per_panel(fun, lo, hi, splits, panel_length):
    """Reference: the nodes and weights built one panel at a time."""
    edges = sorted(set([lo, hi] + [float(s) for s in splits if lo < s < hi]))
    nodes, weights = np.polynomial.legendre.leggauss(quadrature.ORDER)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        n_sub = max(1, int(np.ceil((b - a) / panel_length)))
        sub = np.linspace(a, b, n_sub + 1)
        for c, d in zip(sub[:-1], sub[1:]):
            half = 0.5 * (d - c)
            xs.append(0.5 * (c + d) + half * nodes)
            ws.append(half * weights)
    return float(np.dot(np.concatenate(ws), fun(np.concatenate(xs))))


def test_rule_constants_equal_leggauss_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(quadrature.ORDER)
    assert quadrature.NODES.tobytes() == nodes.tobytes()
    assert quadrature.WEIGHTS.tobytes() == weights.tobytes()


def test_smooth_integral():
    got = composite_gauss_legendre(np.sin, 0.0, math.pi, panel_length=0.5)
    assert abs(got - 2.0) < 1e-14


def test_splits_capture_kink():
    def f(x):
        return np.abs(np.asarray(x, dtype=float))

    exact = 1.0  # integral of |x| over [-1, 1]
    coarse = composite_gauss_legendre(f, -1.0, 1.0, panel_length=2.0)
    split = composite_gauss_legendre(f, -1.0, 1.0, splits=(0.0,), panel_length=2.0)
    assert abs(split - exact) < 1e-15
    assert abs(split - exact) < abs(coarse - exact)


def test_splits_outside_range_ignored():
    got = composite_gauss_legendre(
        np.exp, 0.0, 1.0, splits=(-5.0, 7.0), panel_length=0.25
    )
    assert abs(got - (math.e - 1.0)) < 1e-14


def test_reversed_or_empty_interval_rejected():
    import pytest

    with pytest.raises(ValueError):
        composite_gauss_legendre(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        composite_gauss_legendre(np.sin, 2.0, 1.0)


finite = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    lo=finite,
    width=st.floats(1e-3, 60.0),
    splits=st.lists(finite, max_size=6),
    panel_length=st.floats(0.05, 5.0),
    fun=st.sampled_from([np.sin, np.exp, np.abs, lambda x: np.exp(-x * x) * np.cos(3 * x)]),
)
def test_nodes_match_per_panel_reference_bitwise(lo, width, splits, panel_length, fun):
    hi = lo + width
    got = composite_gauss_legendre(fun, lo, hi, splits=splits, panel_length=panel_length)
    assert got == _per_panel(fun, lo, hi, splits, panel_length)
