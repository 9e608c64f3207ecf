import dataclasses
import math

import numpy as np
import pytest

import _closed_forms as cf
from sobolev1d import (
    Potential,
    build_green,
    extremal,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
    rayleigh_quotient,
)
from sobolev1d.minimizer import classify_attainment, default_window
from sobolev1d.cli import canonical_json


@pytest.fixture(scope="module")
def example_report():
    return minimize(make_example(cf.A, cf.B))


@pytest.mark.parametrize("v", [0.25, 1.0, 4.0, 9.0])
def test_constant_potentials(v):
    report = minimize(make_constant(v))
    exact = 2.0 * math.sqrt(v)
    assert abs(report.m_value - exact) <= 1e-8 * exact
    assert abs(report.best_constant - exact**-0.5) <= 1e-8 * exact**-0.5
    assert report.attainment == "flat"
    assert report.flat
    u = extremal(report)
    xs = np.linspace(*report.window, 2001)
    assert np.max(np.abs(u(xs) - np.exp(-math.sqrt(v) * np.abs(xs)))) < 1e-8


def test_example_attained(example_report):
    report = example_report
    assert report.attainment == "attained"
    assert abs(report.m_value - cf.M_EXACT) < 1e-6
    assert abs(report.a_star - cf.A1_EXACT) < 1e-6
    assert abs(report.best_constant - cf.M_EXACT**-0.5) < 1e-9
    assert len(report.critical_points) == 1
    assert len(report.rejected_candidates) == 1
    assert report.tail_infimum == pytest.approx(2.0 * math.sqrt(cf.TAIL_VALUE))
    assert report.tail_method == "declared-tail-limits"
    assert report.margin == pytest.approx(report.tail_infimum - report.m_value)


def test_edge_sampled_tail_matches_declared_tail(example_report):
    """Without tail_limits the tail is read off the curve's edges; the verdict is the same."""
    report = minimize(dataclasses.replace(make_example(cf.A, cf.B), tail_limits=None))
    assert report.tail_method == "edge-sampled"
    assert report.tail_infimum >= report.m_value
    assert report.m_value == example_report.m_value
    assert report.a_star == example_report.a_star
    assert report.attainment == example_report.attainment == "attained"


def test_monotone_step_empty():
    report = minimize(make_monotone_step(1.0, 4.0))
    assert report.attainment == "empty"
    assert abs(report.m_value - 2.0) < 1e-3
    assert report.a_star is None
    assert extremal(report) is None


def test_square_well_attained():
    pot = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
    report = minimize(pot)
    assert report.attainment == "attained"
    assert abs(report.a_star) < 1e-8  # symmetric well pins at the center
    assert report.m_value < 2.0 * math.sqrt(pot.tail_limits[0])


def _poschl_teller(k, lam):
    """V = k^2 - lam (lam + 1) sech^2 x, with sech^2 written without cosh, which overflows."""
    c = lam * (lam + 1.0)

    def evaluate(x):
        e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
        return k * k - c * 4.0 * e / ((1.0 + e) * (1.0 + e))

    return Potential(
        evaluate=evaluate,
        lower_bound=k * k - c,
        upper_bound=k * k,
        tail_limits=(k * k, k * k),
        label=f"poschl-teller k={k:g} lambda={lam:g}",
    )


@pytest.mark.parametrize(
    "k, lam", [(2.0, 1.0), (3.0, 2.0), (1.7, 1.2), (2.0, 1.5615)], ids=str
)
def test_poschl_teller_well_matches_its_closed_form(k, lam):
    """m for every lam and F for lam = 1; (2, 1.5615) has contrast v1/v0 = 1.84e4."""
    report = minimize(_poschl_teller(k, lam))
    m = cf.poschl_teller_m(k, lam)
    assert abs(report.m_value - m) <= 1e-12 * m
    assert abs(report.a_star) <= 1e-9
    assert report.attainment == "attained"
    if lam == 1.0:
        pins = np.linspace(*report.curve.window, 401)
        exact = cf.poschl_teller_f_lambda_1(pins, k)
        assert np.max(np.abs(report.curve.value_at(pins) / exact - 1.0)) <= 1e-12


@pytest.mark.parametrize("k, lam", [(2.0, 1), (3.0, 1), (3.0, 2), (2.5, 2)], ids=str)
def test_poschl_teller_pair_matches_its_closed_forms(k, lam):
    """phi_+, phi_-, W, G and u_a to 1e-12 relative; F' and F'' to 1e-11 of their largest value.

    The pins span the curve window, where the seeding transient is negligible.
    """
    report = minimize(_poschl_teller(k, lam))
    plus, minus, curve = report.phi_plus, report.phi_minus, report.curve
    pins = np.linspace(*curve.window, 401)
    exact = np.vectorize

    for side, sol in (("+", plus), ("-", minus)):
        phi = np.exp(exact(cf.poschl_teller_log_phi)(pins, k, lam, side))
        assert np.max(np.abs(sol.phi_at(pins) / phi - 1.0)) <= 1e-12
        assert abs(sol.phi_at(pins[7]) / phi[7] - 1.0) <= 1e-12

    green = build_green(plus, minus)
    assert abs(green.wronskian / cf.poschl_teller_wronskian(k, lam) - 1.0) <= 1e-12
    lattice = np.linspace(*curve.window, 41)
    x, y = lattice[:, None], lattice[None, :]
    g = np.exp(exact(cf.poschl_teller_log_green)(x, y, k, lam))
    assert np.max(np.abs(green.value(x, y) / g - 1.0)) <= 1e-12
    for i, j in ((0, 40), (13, 13), (29, 4)):
        assert abs(green.value(lattice[i], lattice[j]) / g[i, j] - 1.0) <= 1e-12

    u = extremal(report)
    u_exact = np.exp(exact(cf.poschl_teller_log_extremal)(pins, u.center, k, lam))
    assert np.max(np.abs(u(pins) / u_exact - 1.0)) <= 1e-12

    for got, f in ((curve.slope_at(pins), cf.poschl_teller_slope),
                   (curve.curvature_at(pins), cf.poschl_teller_curvature)):
        want = exact(f)(pins, k, lam)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_translation_equivariance(example_report):
    shifted = minimize(make_example(cf.A, cf.B).shifted(3.0))
    assert abs(shifted.m_value - example_report.m_value) < 1e-9
    assert abs(shifted.a_star - (example_report.a_star + 3.0)) < 1e-7


def test_explicit_window(example_report):
    report = minimize(make_example(cf.A, cf.B), window=(-30.0, 30.0))
    assert abs(report.m_value - example_report.m_value) < 1e-9
    assert report.window == (-30.0, 30.0)


def test_default_window_scales():
    assert default_window(make_constant(1.0)) == (-25.0, 25.0)
    assert default_window(make_constant(0.25)) == (-50.0, 50.0)


def test_classify_attainment_paths():
    assert classify_attainment(4.0, 3.0, False, 1e-9) == ("attained", 1.0)
    assert classify_attainment(2.0, None, False, 1e-9)[0] == "empty"
    assert classify_attainment(2.0, 2.5, False, 1e-9)[0] == "empty"
    assert classify_attainment(2.0, 2.0 + 1e-12, False, 1e-9)[0] == "undetermined"
    assert classify_attainment(2.0, 2.0, True, 1e-9)[0] == "flat"


def test_report_json_shape(example_report):
    doc = example_report.to_json_dict()
    assert doc["schema_version"] == 1
    keys = list(doc)
    assert keys[:4] == ["schema_version", "potential", "m", "best_constant"]
    assert doc["attainment"] == "attained"
    assert doc["critical_points"][0]["balanced_slope"] is True
    assert doc["margins"]["decision"] == pytest.approx(example_report.margin)


def test_report_solver_config_block():
    report = minimize(make_constant(1.0), window=(-30.0, 30.0))
    assert canonical_json(report.to_json_dict()["solver_config"]) == (
        "{\n"
        '  "window": [\n'
        "    -3.000000000000000e+01,\n"
        "    3.000000000000000e+01\n"
        "  ],\n"
        '  "ode_tol": 1.000000000000000e-10,\n'
        '  "grid_spacing": null,\n'
        '  "inset": null,\n'
        '  "root_tol": 1.000000000000000e-12,\n'
        '  "condition_tol": 1.000000000000000e-06,\n'
        '  "classification_tol": 1.000000000000000e-09\n'
        "}"
    )


def test_rayleigh_quotient_kinked_exponential():
    pot = make_constant(1.0)

    def u(x):
        return np.exp(-np.abs(np.asarray(x, dtype=float)))

    q = rayleigh_quotient(u, pot, window=(-30.0, 30.0), kinks=[0.0])
    assert abs(q - 2.0) < 1e-9


def test_rayleigh_quotient_gaussian():
    pot = make_constant(1.0)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x * x)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x * np.exp(-x * x)

    q = rayleigh_quotient(u, pot, window=(-12.0, 12.0), u_prime=du)
    exact = 2.0 * math.sqrt(math.pi / 2.0)
    assert abs(q - exact) < 1e-9
    # five-point fallback derivative agrees to quadrature accuracy
    q_fd = rayleigh_quotient(u, pot, window=(-12.0, 12.0))
    assert abs(q_fd - exact) < 1e-7


def test_rayleigh_quotient_of_extremal_matches_m(example_report):
    u = extremal(example_report)
    q = rayleigh_quotient(u, make_example(cf.A, cf.B))
    assert abs(q - example_report.m_value) < 1e-7


def test_rayleigh_quotient_is_never_below_m(example_report):
    pot = make_example(cf.A, cf.B)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x - 0.3) ** 2)

    q = rayleigh_quotient(u, pot, window=(-12.0, 12.0))
    assert q >= example_report.m_value - 1e-9


def test_rayleigh_quotient_requires_window_for_callables():
    with pytest.raises(ValueError):
        rayleigh_quotient(lambda x: np.exp(-np.abs(x)), make_constant(1.0))
