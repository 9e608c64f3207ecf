import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _closed_forms as cf
from conftest import shifted
from sobolev1d import (
    Potential,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    potential_from_log_derivative,
    potential_from_spec,
)
from sobolev1d.potential import _critical_points, _not_a_knot


def test_constant_basic():
    pot = make_constant(4.0)
    assert pot.lower_bound == 4.0
    assert pot.upper_bound == 4.0
    assert pot.tail_limits == (4.0, 4.0)
    assert pot.continuous
    assert pot.breakpoints == ()
    x = np.linspace(-10, 10, 7)
    assert np.all(pot.evaluate(x) == 4.0)
    assert pot.evaluate(0.3) == 4.0


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_constant(0.0)
    with pytest.raises(ValueError):
        make_constant(-1.0)


def test_piecewise_constant_right_continuous():
    pot = make_piecewise_constant([-1.0, 2.0], [3.0, 1.0, 5.0])
    assert pot.evaluate(-1.5) == 3.0
    assert pot.evaluate(-1.0) == 1.0  # right-continuous at the jump
    assert pot.evaluate(0.0) == 1.0
    assert pot.evaluate(2.0) == 5.0
    assert pot.lower_bound == 1.0
    assert pot.upper_bound == 5.0
    assert pot.tail_limits == (3.0, 5.0)
    assert not pot.continuous
    assert pot.breakpoints == (-1.0, 2.0)


def test_piecewise_constant_dedupes_trivial_jumps():
    pot = make_piecewise_constant([0.0, 1.0], [2.0, 2.0, 3.0])
    assert pot.breakpoints == (1.0,)


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        make_piecewise_constant([1.0, 0.0], [1.0, 2.0, 3.0])  # edges not increasing
    with pytest.raises(ValueError):
        make_piecewise_constant([0.0], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        make_piecewise_constant([0.0], [1.0, -2.0])  # nonpositive value


def test_potential_refuses_breakpoints_out_of_order():
    with pytest.raises(ValueError, match="strictly increasing"):
        Potential(lambda x: np.ones(np.shape(x)), 1.0, 2.0, breakpoints=(1.0, 0.0))


def test_constant_potentials_declare_their_pieces():
    assert make_constant(4.0).piecewise_constant
    assert potential_from_spec({"kind": "constant", "v": 2.0}).piecewise_constant
    assert not make_example(cf.A, cf.B).piecewise_constant
    assert not make_monotone_step(1.0, 4.0).piecewise_constant


def test_non_finite_bounds_refused():
    with pytest.raises(ValueError, match=r"declared bounds must be finite, got \[1.0, inf\]"):
        Potential(lambda x: x, 1.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        Potential(lambda x: x, math.nan, 1.0)
    with pytest.raises(ValueError, match="finite"):
        make_constant(math.inf)
    with pytest.raises(ValueError, match=r"finite, got \[inf, inf\]"):
        make_example(1.0, 1e200)


@pytest.mark.parametrize(
    "v0, v1, message",
    [
        (4.0, 1.0, r"upper bound 1.0 below lower bound 4.0"),
        (0.0, 1.0, r"lower bound must be positive, got 0.0"),
        (math.nan, 1.0, r"declared bounds must be finite, got \[nan, 1.0\]"),
    ],
    ids=["v0-above-v1", "v0-zero", "v0-nan"],
)
def test_step_levels_are_refused_as_its_declared_bounds(v0, v1, message):
    """v0 and v1 are the step's declared bounds, so Potential refuses them."""
    with pytest.raises(ValueError, match=message):
        make_monotone_step(v0, v1)


def test_monotone_step_limits():
    pot = make_monotone_step(1.0, 4.0)
    assert pot.tail_limits == (1.0, 4.0)
    assert pot.continuous
    assert abs(pot.evaluate(0.0) - 2.5) < 1e-12  # midpoint of the transition
    xs = np.linspace(-30, 30, 101)
    v = pot.evaluate(xs)
    assert np.all(np.diff(v) >= 0.0)
    assert v[0] == pytest.approx(1.0, abs=1e-9)
    assert v[-1] == pytest.approx(4.0, abs=1e-9)


def test_example_parameters():
    pot = make_example(cf.A, cf.B)
    assert pot.lower_bound == pytest.approx(cf.LOWER_BOUND)
    assert pot.upper_bound == pytest.approx(cf.UPPER_BOUND)
    assert pot.tail_limits == pytest.approx((cf.TAIL_VALUE, cf.TAIL_VALUE))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(a=st.floats(0.2, 5.0), p=st.floats((1.0 + math.sqrt(5.0)) / 2.0, 50.0, exclude_min=True))
def test_example_declares_its_exact_range(a, p):
    """The bounds contain V on +-60A and miss its extremes by at most 2e-9 v1.

    The extremes lie at x/A in (-1, 0) and (1, 2); a 1e-5 A lattice there puts
    the sampled extremes within 1e-10 v1 of the true ones."""
    assume(a * (p / a) > (1.0 + math.sqrt(5.0)) / 2.0)
    pot = make_example(a, p / a)
    x = a * np.concatenate((
        np.linspace(-60.0, 60.0, 24_001),
        np.linspace(-1.0, 0.0, 100_001),
        np.linspace(1.0, 2.0, 100_001),
    ))
    v = pot.evaluate(x)
    slack = 2e-9 * pot.upper_bound
    assert pot.lower_bound <= v.min() <= pot.lower_bound + slack
    assert pot.upper_bound - slack <= v.max() <= pot.upper_bound


def test_example_requires_ab_above_golden_ratio():
    with pytest.raises(ValueError):
        make_example(1.0, 1.0)  # A B = 1 < (1+sqrt(5))/2
    make_example(1.0, 1.7)  # just above; fine


def test_example_matches_closed_form():
    pot = make_example(cf.A, cf.B)
    xs = np.linspace(-8.0, 8.0, 501)
    assert np.max(np.abs(pot.evaluate(xs) - cf.v_exact(xs))) < 1e-12
    assert pot.evaluate(0.0) == pytest.approx(cf.V_AT_0, abs=1e-14)
    assert pot.tail_limits == (cf.TAIL_VALUE, cf.TAIL_VALUE)
    # declared bounds really bound the samples
    assert np.all(pot.evaluate(xs) >= pot.lower_bound - 1e-12)
    assert np.all(pot.evaluate(xs) <= pot.upper_bound + 1e-12)


def test_shifted_translates_graph():
    pot = make_example(cf.A, cf.B)
    moved = shifted(pot, 2.5)
    xs = np.linspace(-5, 5, 101)
    assert np.allclose(moved.evaluate(xs), pot.evaluate(xs - 2.5), rtol=0, atol=1e-14)
    assert moved.lower_bound == pot.lower_bound
    base = make_piecewise_constant([0.0], [1.0, 2.0])
    assert shifted(base, 1.0).breakpoints == (1.0,)


def test_from_log_derivative_recovers_example():
    xs = np.linspace(-10, 10, 2001)
    pot = potential_from_log_derivative(
        xs, cf.ell_plus_prime_exact(xs), cf.ell_plus_second_exact(xs)
    )
    mid = np.linspace(-9, 9, 301)
    assert np.max(np.abs(pot.evaluate(mid) - cf.v_exact(mid))) < 1e-7


def test_spec_round_trip_kinds():
    assert potential_from_spec({"kind": "constant", "v": 2.0}).evaluate(1.0) == 2.0
    pot = potential_from_spec({"kind": "example", "A": 1, "B": 2})
    assert pot.evaluate(0.0) == pytest.approx(cf.V_AT_0)
    pot = potential_from_spec(
        {"kind": "piecewise_constant", "edges": [0.0], "values": [1.0, 2.0]}
    )
    assert pot.evaluate(-1.0) == 1.0 and pot.evaluate(1.0) == 2.0
    pot = potential_from_spec(
        {"kind": "step", "v0": 1.0, "v1": 4.0, "width": 1.0}
    )
    assert pot.tail_limits == (1.0, 4.0)
    xs = np.linspace(-6, 6, 601)
    pot = potential_from_spec(
        {"kind": "table", "x": xs.tolist(), "v": cf.v_exact(xs).tolist()}
    )
    assert abs(pot.evaluate(0.3) - cf.v_exact(0.3)) < 1e-8


def test_spec_rejects_garbage():
    with pytest.raises(ValueError):
        potential_from_spec({"kind": "constant"})
    with pytest.raises(ValueError):
        potential_from_spec({"kind": "mystery"})
    with pytest.raises(ValueError):
        potential_from_spec({"v": 1.0})
    with pytest.raises(ValueError):
        potential_from_spec({"kind": "table", "x": [0, 1, 2, 3], "v": [1, 1, -1, 1]})


def test_table_bounds_are_the_spline_range():
    """Without explicit bounds a table declares the exact range of its spline.

    A Gaussian well sampled every 0.25 has its minimum on a sample (x = 0);
    the declared lower bound must not sit above it.
    """
    xs = np.arange(-40, 41) * 0.25
    pot = potential_from_spec(
        {"kind": "table", "x": xs.tolist(), "v": (4.0 - 3.0 * np.exp(-0.5 * xs * xs)).tolist()}
    )
    assert 1.0 - 1e-8 <= pot.lower_bound <= 1.0
    assert 4.0 <= pot.upper_bound <= 4.0 + 1e-8
    fine = np.linspace(-10.5, 10.5, 200001)
    vals = np.asarray(pot.evaluate(fine))
    assert np.all(vals >= pot.lower_bound) and np.all(vals <= pot.upper_bound)


_GAUSS_X = [0.25 * k for k in range(-40, 41)]
_LOG_X = [0.25 * k for k in range(-16, 17)]
_NONUNIFORM_X = [-3.0, -2.2, -1.7, -0.9, -0.4, 0.15, 0.8, 1.1, 1.9, 2.3, 3.0]

# Reference figures of scipy 1.17.1's CubicSpline (not-a-knot) on three
# tables, written down once so that no test imports scipy: the declared
# bounds, the roots of the spline's derivative, and the potential at points
# before, inside and past each grid.  The two uniform tables are the ones
# tools/dump_artifacts.py writes.
SCIPY_SPLINES = {
    "gaussian_table": (
        {"kind": "table", "x": _GAUSS_X, "v": [4.0 - 3.0 * math.exp(-0.5 * x * x) for x in _GAUSS_X]},
        (0.999999996, 4.000000004),
        [-9.894337567297406, -9.605662432702594, -9.345916700026693, -9.095165085984815,
         -8.845110903280531, -2.7755575615628914e-17, 8.845110903280531, 9.095165085984815,
         9.345916700026693, 9.605662432702594, 9.894337567297406],
        [-11.0, -10.0, -9.875, -0.3, 0.1, 1.37, 9.85, 10.0, 12.0],
        [4.0, 4.0, 4.0, 1.1320290544928848, 1.0150492364827326, 2.8262379091757897,
         4.0, 4.0, 4.0],
    ),
    "log_derivative_table": (
        {
            "kind": "table",
            "x": _LOG_X,
            "ell_prime": [-2.0 - 0.5 * math.tanh(x) for x in _LOG_X],
            "ell_double_prime": [-0.5 / math.cosh(x) ** 2 for x in _LOG_X],
        },
        (2.250335681261944, 6.247652892713517),
        [],
        [-5.0, -4.0, -3.875, -0.3, 0.1, 1.37, 3.85, 4.0, 6.0],
        [2.250335687509597, 2.250335687509597, 2.2504320476123847, 2.981052583552996,
         3.7068545808918465, 5.836467052084906, 6.246826885390454, 6.247652886465864,
         6.247652886465864],
    ),
    "nonuniform": (
        {"kind": "table", "x": _NONUNIFORM_X,
         "v": [3.0 + math.sin(2.0 * x) + 0.2 * x for x in _NONUNIFORM_X]},
        (1.8365013339816827, 4.16314358898201),
        [-2.3743084487480695, -0.8334477915246811, 0.8406720520543152, 2.3364213198617807],
        [-4.0, -3.0, -2.6, -0.3, 0.1, 1.37, 2.4, 3.0, 5.0],
        [2.6794154981989258, 2.6794154981989258, 3.4626018603050337, 2.37707221086395,
         3.2206030049778214, 3.656292949759448, 2.471117537386996, 3.3205845018010742,
         3.3205845018010742],
    ),
}


@pytest.mark.parametrize("name", sorted(SCIPY_SPLINES))
def test_spline_matches_scipy_cubic_spline(name):
    """The numpy not-a-knot spline reproduces scipy's to 1e-13 relative."""
    spec, bounds, critical, xs, values = SCIPY_SPLINES[name]
    pot = potential_from_spec(spec)
    got = np.asarray(pot.evaluate(np.array(xs)))
    assert np.all(np.abs(got - values) <= 1e-13 * np.abs(values))
    assert [float(pot.evaluate(x)) for x in xs] == got.tolist()
    assert pot.lower_bound == pytest.approx(bounds[0], rel=1e-13, abs=0.0)
    assert pot.upper_bound == pytest.approx(bounds[1], rel=1e-13, abs=0.0)
    grid = np.asarray(spec["x"])
    if "v" in spec:
        samples = np.asarray(spec["v"])
    else:
        samples = np.asarray(spec["ell_double_prime"]) + np.asarray(spec["ell_prime"]) ** 2
    roots = np.sort(_critical_points(grid, _not_a_knot(grid, samples)))
    assert roots.shape == (len(critical),)
    assert np.all(np.abs(roots - critical) <= 1e-13 * np.maximum(1.0, np.abs(critical)))


@pytest.mark.parametrize(
    "x, v",
    [
        ([0, 1, 2, 3], [1, math.nan, 1, 1]),
        ([0, 1, 2, 3], [1, math.inf, 1, 1]),
        ([0, 1, math.nan, 3], [1, 1, 1, 1]),
        ([0, 1, 2, math.inf], [1, 1, 1, 1]),
    ],
)
def test_table_with_non_finite_entries_refused(x, v):
    with pytest.raises(ValueError, match="finite"):
        potential_from_spec({"kind": "table", "x": x, "v": v})


@pytest.mark.parametrize(
    "x, v",
    [
        ([0, 1, 2, 3, 4], [1, 1e300, 1, 1, 1]),
        ([0, 1, 2, 3, 4], [1e160, 3e160, 1e160, 1e160, 1e160]),
        ([0, 1, 2, 3, 4], [1, 1e300, 1e300, 1, 1]),
        # Each overflows first at its own step of the build: the not-a-knot
        # right-hand side (two), the Hermite add and divide, the derivative's 3a.
        ([0, 1, 2, 3, 4], [1, 1.7e308, 1, 1, 1]),
        ([0, 0.001, 2000, 3000], [1, 1e300, 1e-300, 0.001]),
        ([0, 0.001, 0.002, 3000], [1e300, 1e-300, 1000, 2]),
        ([0, 0.001, 0.002, 0.003], [0.001, 4, 1e300, 1e-300]),
        ([0, 0.001, 0.002, 3000, 4000], [1e300, 0, 1e12, 1e12, -1]),
    ],
    ids=["v0", "v1", "v2", "rhs-peak", "rhs-wide-grid", "hermite-add", "hermite-divide",
         "derivative-3a"],
)
def test_a_table_whose_spline_slopes_overflow_is_refused_by_name(x, v):
    """b^2 - 4ac of the spline's derivative overflows: its interior extremes, and so
    its bounds, are unknown, and the table is refused without a numpy warning,
    wherever in the build the overflow starts."""
    with pytest.raises(ValueError, match="the spline's slopes overflow"):
        potential_from_spec({"kind": "table", "x": x, "v": v})


def test_spline_interpolates_and_holds_the_end_samples():
    """The spline meets every sample, a cubic exactly, and is constant past the grid."""
    grid = np.array([-2.0, -1.3, -0.2, 0.4, 1.5, 2.0])
    cubic = 5.0 + 0.5 * grid - 0.3 * grid**2 + 0.1 * grid**3
    pot = potential_from_spec({"kind": "table", "x": grid.tolist(), "v": cubic.tolist()})
    assert np.asarray(pot.evaluate(grid)).tolist() == cubic.tolist()
    fine = np.linspace(-2.0, 2.0, 101)
    exact = 5.0 + 0.5 * fine - 0.3 * fine**2 + 0.1 * fine**3
    assert np.max(np.abs(np.asarray(pot.evaluate(fine)) - exact)) < 1e-13
    assert np.asarray(pot.evaluate([-np.inf, -7.0, 2.0, 9.0, np.inf])).tolist() == [
        cubic[0], cubic[0], cubic[-1], cubic[-1], cubic[-1]
    ]
    assert math.isnan(pot.evaluate(np.nan))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_piecewise_constant([math.nan], [1.0, 2.0]),
        lambda: make_piecewise_constant([0.0, math.inf], [1.0, 2.0, 3.0]),
        lambda: make_monotone_step(1.0, 4.0, center=math.nan),
        lambda: make_monotone_step(1.0, 4.0, width=math.inf),
        lambda: make_example(math.inf, 2.0),
        lambda: dataclasses.replace(make_constant(1.0), breakpoints=(math.nan,)),
    ],
    ids=["edge-nan", "edge-inf", "step-center-nan", "step-width-inf", "example-A-inf",
         "breakpoint-nan"],
)
def test_non_finite_declarations_are_refused(build):
    with pytest.raises(ValueError, match="finite"):
        build()
