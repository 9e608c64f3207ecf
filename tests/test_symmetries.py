"""The problem's exact symmetries, as property tests.

Dilation: V_s(x) = V(x/s)/s^2 (``conftest.dilated``) has m(V_s) = m(V)/s,
a*(V_s) = s a*(V) and the same verdict, for every s > 0.  Reflection, the
dilation by s = -1, keeps m and mirrors a*; translation by c keeps m and
moves a* by c.  Each test compares a solve of the transformed potential with
the solve of the original.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dilated
from sobolev1d import (
    SolverError,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
)
from sobolev1d.fundamental import DEFAULT_TOL

FAMILIES = {
    "example-1-2": lambda: make_example(1.0, 2.0),
    "example-10-1": lambda: make_example(10.0, 1.0),
    "pwc-4-1-9-2": lambda: make_piecewise_constant([-1.0, 0.5, 2.0], [4.0, 1.0, 9.0, 2.0]),
    "logistic-1-300": lambda: make_monotone_step(1.0, 300.0, width=0.2),
    # Two equal wells: F ties at -5.5 and 5.5, and the report names the first.
    "double-well": lambda: make_piecewise_constant([-6.0, -5.0, 5.0, 6.0], [4.0, 1.0, 4.0, 1.0, 4.0]),
    "step-1-4": lambda: make_monotone_step(1.0, 4.0),
}


@functools.cache
def _solved(name):
    pot = FAMILIES[name]()
    return pot, minimize(pot)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(FAMILIES)), exponent=st.floats(-6.0, 6.0))
# example(1e4, 2e-4), once read empty with m 32% high.
@example(name="example-1-2", exponent=4.0)
# Refused: F at a node is below the tail value that m would otherwise read.
@example(name="example-10-1", exponent=math.log10(3.16e5))
@example(name="pwc-4-1-9-2", exponent=5.0)
@example(name="logistic-1-300", exponent=-6.0)
def test_dilation_keeps_the_answer_or_refuses(name, exponent):
    """Right for every s <= 1e5; beyond, right or refused, never another answer."""
    pot, ref = _solved(name)
    s = 10.0**exponent
    try:
        report = minimize(dilated(pot, s))
    except SolverError:
        assert s > 1e5
        return
    assert report.attainment == ref.attainment
    assert report.m_value * s == pytest.approx(ref.m_value, rel=1e-10)
    if ref.a_star is None:
        assert report.a_star is None
    else:
        assert abs(report.a_star / s - ref.a_star) <= 1e-8 / math.sqrt(pot.upper_bound)


@pytest.mark.parametrize("s", [1e-9, 1e-8, 1e6, 1e7, 1e8, 1e9])
def test_noise_floor_dilates_with_the_potential(s):
    """example(10, 1) dilated by s, read right: F' = -F (r_plus + r_minus) shrinks
    like 1/s^2, and so does a noise floor in units of F sqrt(v1); the verdict band
    is relative to m and the root polish works in units of 1/sqrt(v1)."""
    report = minimize(make_example(10.0 * s, 1.0 / s))
    # m of example(A, B) is 2B (1 - 1/sqrt(1 + 4 A^2 B^2)), here with AB = 10.
    assert report.m_value == pytest.approx(2.0 / s * (1.0 - 1.0 / math.sqrt(401.0)), rel=1e-12)
    assert report.attainment == "attained"
    assert report.a_star == pytest.approx(s * (1.0 - math.sqrt(401.0)) / 2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reflection_keeps_m_bitwise_and_mirrors_the_pin(name):
    pot, ref = _solved(name)
    report = minimize(dilated(pot, -1.0))
    assert report.m_value == ref.m_value
    assert report.attainment == ref.attainment
    if name == "double-well":
        # The tie: both ways the report names the left well.
        assert report.a_star == ref.a_star == -5.5
    else:
        assert report.a_star == (None if ref.a_star is None else -ref.a_star)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(FAMILIES)), c=st.floats(-2.0, 2.0))
def test_translation_moves_the_pin_and_keeps_m(name, c):
    """Shifts small enough to keep every well out of the curve window's decay inset."""
    pot, ref = _solved(name)
    report = minimize(pot.shifted(c))
    bound = 100.0 * DEFAULT_TOL * ref.m_value
    assert report.attainment == ref.attainment
    assert abs(report.m_value - ref.m_value) <= bound
    if ref.a_star is None:
        assert report.a_star is None
    else:
        assert abs(report.a_star - c - ref.a_star) <= bound
