import math

import numpy as np
import pytest

import _closed_forms as cf
from sobolev1d import (
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    potential_from_log_derivative,
    potential_from_spec,
)


def test_constant_basic():
    pot = make_constant(4.0)
    assert pot.lower_bound == 4.0
    assert pot.upper_bound == 4.0
    assert pot.tail_limits == (4.0, 4.0)
    assert pot.continuous
    assert pot.breakpoints == ()
    x = np.linspace(-10, 10, 7)
    assert np.all(pot(x) == 4.0)
    assert pot(0.3) == 4.0


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_constant(0.0)
    with pytest.raises(ValueError):
        make_constant(-1.0)


def test_piecewise_constant_right_continuous():
    pot = make_piecewise_constant([-1.0, 2.0], [3.0, 1.0, 5.0])
    assert pot(-1.5) == 3.0
    assert pot(-1.0) == 1.0  # right-continuous at the jump
    assert pot(0.0) == 1.0
    assert pot(2.0) == 5.0
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


def test_monotone_step_limits():
    pot = make_monotone_step(1.0, 4.0)
    assert pot.tail_limits == (1.0, 4.0)
    assert pot.continuous
    assert abs(pot(0.0) - 2.5) < 1e-12  # midpoint of the transition
    xs = np.linspace(-30, 30, 101)
    v = pot(xs)
    assert np.all(np.diff(v) >= 0.0)
    assert v[0] == pytest.approx(1.0, abs=1e-9)
    assert v[-1] == pytest.approx(4.0, abs=1e-9)


def test_example_parameters():
    pot = make_example(cf.A, cf.B)
    assert pot.lower_bound == pytest.approx(cf.LOWER_BOUND)
    assert pot.upper_bound == pytest.approx(cf.UPPER_BOUND)
    assert pot.tail_limits == pytest.approx((cf.TAIL_VALUE, cf.TAIL_VALUE))


def test_example_requires_ab_above_golden_ratio():
    with pytest.raises(ValueError):
        make_example(1.0, 1.0)  # A B = 1 < (1+sqrt(5))/2
    make_example(1.0, 1.7)  # just above; fine


def test_example_matches_closed_form():
    pot = make_example(cf.A, cf.B)
    xs = np.linspace(-8.0, 8.0, 501)
    assert np.max(np.abs(pot(xs) - cf.v_exact(xs))) < 1e-12
    assert pot(0.0) == pytest.approx(cf.V_AT_0, abs=1e-14)
    assert pot.tail_limits == (cf.TAIL_VALUE, cf.TAIL_VALUE)
    # declared bounds really bound the samples
    assert np.all(pot(xs) >= pot.lower_bound - 1e-12)
    assert np.all(pot(xs) <= pot.upper_bound + 1e-12)


def test_shifted_translates_graph():
    pot = make_example(cf.A, cf.B)
    moved = pot.shifted(2.5)
    xs = np.linspace(-5, 5, 101)
    assert np.allclose(moved(xs), pot(xs - 2.5), rtol=0, atol=1e-14)
    assert moved.lower_bound == pot.lower_bound
    base = make_piecewise_constant([0.0], [1.0, 2.0])
    assert base.shifted(1.0).breakpoints == (1.0,)


def test_from_log_derivative_recovers_example():
    xs = np.linspace(-10, 10, 2001)
    pot = potential_from_log_derivative(
        xs, cf.ell_plus_prime_exact(xs), cf.ell_plus_second_exact(xs)
    )
    mid = np.linspace(-9, 9, 301)
    assert np.max(np.abs(pot(mid) - cf.v_exact(mid))) < 1e-7


def test_spec_round_trip_kinds():
    assert potential_from_spec({"kind": "constant", "v": 2.0})(1.0) == 2.0
    pot = potential_from_spec({"kind": "example", "A": 1, "B": 2})
    assert pot(0.0) == pytest.approx(cf.V_AT_0)
    pot = potential_from_spec(
        {"kind": "piecewise_constant", "edges": [0.0], "values": [1.0, 2.0]}
    )
    assert pot(-1.0) == 1.0 and pot(1.0) == 2.0
    pot = potential_from_spec(
        {"kind": "step", "v0": 1.0, "v1": 4.0, "width": 1.0}
    )
    assert pot.tail_limits == (1.0, 4.0)
    xs = np.linspace(-6, 6, 601)
    pot = potential_from_spec(
        {"kind": "table", "x": xs.tolist(), "v": cf.v_exact(xs).tolist()}
    )
    assert abs(pot(0.3) - cf.v_exact(0.3)) < 1e-8


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
    vals = np.asarray(pot(fine))
    assert np.all(vals >= pot.lower_bound) and np.all(vals <= pot.upper_bound)
