import math

import numpy as np
import pytest

import _closed_forms as cf
from conftest import spy
from sobolev1d import (
    build_green,
    make_constant,
    make_example,
    make_piecewise_constant,
    potential_from_spec,
)
from sobolev1d.fcurve import build_fcurve
from sobolev1d.fundamental import LogSolution, solve_log_solution
from sobolev1d.green import gaussian_test, residual_check
from sobolev1d.quadrature import composite_gauss_legendre
from sobolev1d.window import default_window

WINDOW = (-25.0, 25.0)


def _green_for(pot, window=WINDOW):
    plus, minus = solve_log_solution(pot, *window)
    return plus, minus, build_green(plus, minus)


@pytest.fixture(scope="module")
def example_green():
    return _green_for(make_example(cf.A, cf.B))


def test_constant_closed_form():
    _, _, green = _green_for(make_constant(1.0))
    xs = np.linspace(-10, 10, 41)
    ys = np.linspace(-9.5, 9.5, 39)
    gx, gy = np.meshgrid(xs, ys)
    exact = np.exp(-np.abs(gx - gy)) / 2.0
    got = green.value(gx, gy)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert green.value(0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert green.value(1.0, 0.0) == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)


def test_symmetry_random_pairs(example_green, rng):
    _, _, green = example_green
    xs = rng.uniform(-15, 15, size=100)
    ys = rng.uniform(-15, 15, size=100)
    a = green.value(xs, ys)
    b = green.value(ys, xs)
    assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-9


def test_diagonal_inverts_energy_curve(example_green):
    plus, minus, green = example_green
    pot = make_example(cf.A, cf.B)
    curve = build_fcurve(plus, minus)
    ys = np.linspace(-6, 6, 25)
    for y in ys:
        assert green.value(y, y) == pytest.approx(1.0 / curve.value_at(y), rel=1e-10)


def test_derivative_jump_is_minus_one(example_green):
    _, _, green = example_green
    for y in (-2.0, 0.0, 1.3):
        jump = green.section_derivative(y + 1e-13, y) - green.section_derivative(
            y - 1e-13, y
        )
        assert jump == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize(
    "x, y",
    [(0.5, np.linspace(-2.0, 2.0, 9)), (np.linspace(-2.0, 2.0, 9), 0.5), (0.5, 0.5)],
    ids=["scalar-array", "array-scalar", "scalar-scalar"],
)
def test_section_derivative_broadcasts_like_value(x, y):
    _, _, green = _green_for(make_constant(1.0))
    d = np.subtract(x, y)
    # On V = 1, G = e^{-|x-y|}/2; the right derivative at x = y is -1/2.
    exact = np.where(d < 0, 1.0, -1.0) * np.exp(-np.abs(d)) / 2.0
    got = green.section_derivative(x, y)
    assert np.shape(got) == np.shape(exact)
    assert isinstance(got, float) == (np.ndim(exact) == 0)
    assert np.max(np.abs(got - exact)) < 1e-12


def test_residual_check_reads_each_side_once_for_all_test_functions(example_green, monkeypatch):
    _, _, green = example_green
    calls = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: self.side)
    tests = [gaussian_test(c, 0.8) for c in (-1.0, 0.0, 1.0)]
    assert residual_check(green, 0.7, tests).passed
    assert sorted(calls) == ["+", "-"]


RESIDUAL_POTENTIALS = {
    "example": lambda: make_example(cf.A, cf.B),
    "pwc-well": lambda: make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]),
    "table": lambda: potential_from_spec(
        {"kind": "table", "x": np.linspace(-3.0, 3.0, 13).tolist(),
         "v": (2.0 + np.sin(np.linspace(-3.0, 3.0, 13))).tolist()}
    ),
}


@pytest.mark.parametrize("n_tests", [1, 5])
@pytest.mark.parametrize("name", sorted(RESIDUAL_POTENTIALS))
def test_residual_check_matches_one_quadrature_per_test_function_bitwise(name, n_tests):
    """Reading G, its rate and V once gives each residual the bits of its own quadrature."""
    pot = RESIDUAL_POTENTIALS[name]()
    _, _, green = _green_for(pot, default_window(pot))
    y = 0.3
    tests = [gaussian_test(c, 0.8) for c in np.linspace(-2.0, 2.0, n_tests)]
    lo, hi = green.window
    expected = []
    for v, v_prime in tests:

        def integrand(x, v=v, v_prime=v_prime):
            log_g, rate = green._reads(x, np.full_like(x, y))
            g = np.exp(log_g)
            v_x = np.asarray(pot.evaluate(x))
            return g * rate * np.asarray(v_prime(x)) + v_x * g * np.asarray(v(x))

        total = composite_gauss_legendre(
            integrand, lo, hi, splits=[y, *pot.breakpoints],
            panel_length=0.4 / math.sqrt(pot.upper_bound),
        )
        expected.append(abs(total - float(v(y))))
    got = residual_check(green, y, tests).residuals
    assert [r.hex() for r in got] == [r.hex() for r in expected]


def test_weak_identity_gaussians(example_green):
    _, _, green = example_green
    tests = [gaussian_test(c, 0.8) for c in (-2.0, -0.5, 0.0, 0.9, 2.4)]
    report = residual_check(green, 0.7, tests)
    assert report.passed
    assert max(report.residuals) <= 1e-6
    assert len(report.residuals) == 5


def test_weak_identity_piecewise():
    pot = make_piecewise_constant([-0.4, 1.1], [2.0, 0.7, 3.5])
    w = 25.0 / math.sqrt(pot.lower_bound)
    _, _, green = _green_for(pot, (-w, w))
    report = residual_check(green, 0.25, [gaussian_test(0.0, 1.0)])
    assert report.passed, report


def test_residual_check_rejects_edge_source(example_green):
    _, _, green = example_green
    with pytest.raises(ValueError):
        residual_check(green, WINDOW[1], [gaussian_test(0.0, 1.0)])


def test_gaussian_test_pair_consistent():
    v, dv = gaussian_test(0.3, 0.9)
    xs = np.linspace(-2, 2, 11)
    h = 1e-6
    fd = (v(xs + h) - v(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - dv(xs))) < 1e-8
