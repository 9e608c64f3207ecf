"""Confident wrong answers: those the solver gives today, each held as a strict xfail,
and those it once gave, unmarked.

A case passes when the answer is right or the solver refuses: a
``SolverError`` or an ``undetermined`` verdict passes, and any other
verdict must be the true one with m within rel 1e-10 of the true value.
The markers are strict, so the change that mends a case removes its marker.
A trial function's Rayleigh quotient bounds m from above, so an m above
one is wrong whatever the reference value; its quadrature shares no mesh
with the solve.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import _closed_forms as cf
from sobolev1d import (
    Potential,
    SolverError,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
)
from sobolev1d.cli import main
from conftest import gaussian_well_table, shifted

WRONG = pytest.mark.xfail(strict=True, raises=AssertionError)


def _narrow_well() -> Potential:
    """100 - 99 exp(-(x - 1.2345)^2 / 2e-8), declared [1, 100]."""
    return Potential(
        evaluate=lambda x: 100.0 - 99.0 * np.exp(-((np.asarray(x) - 1.2345) ** 2) / 2e-8),
        lower_bound=1.0,
        upper_bound=100.0,
    )


def _undeclared_well() -> Potential:
    """The well [4, 1, 4] on [0.3137, 0.3337], its jumps and pieces not declared."""
    well = make_piecewise_constant([0.3137, 0.3337], [4.0, 1.0, 4.0])
    return dataclasses.replace(well, breakpoints=(), piecewise_constant=False)


def _decaying_bump() -> Potential:
    """1 + 3/(1 + x^2) on [1, 4], no tail limits."""
    return Potential(
        evaluate=lambda x: 1.0 + 3.0 / (1.0 + np.asarray(x) ** 2), lower_bound=1.0, upper_bound=4.0
    )


def _slow_bump_with_dip() -> Potential:
    """1 + 1/(1 + (x/20)^2) - 0.3 exp(-x^2) on [0.7, 2], no tail limits."""

    def evaluate(x):
        x = np.asarray(x)
        return 1.0 + 1.0 / (1.0 + (x / 20.0) ** 2) - 0.3 * np.exp(-x * x)

    return Potential(evaluate=evaluate, lower_bound=0.7, upper_bound=2.0)


def _inset_well() -> Potential:
    """4 - 2 exp(-x^2) - 3 exp(-(x - 20)^2) on [1, 4], tails (4, 4).

    The deeper well sits in the decay inset of the default window, which the
    curve window cuts: the default window reads 3.0074208468385795 at 0.
    """

    def evaluate(x):
        x = np.asarray(x)
        return 4.0 - 2.0 * np.exp(-x * x) - 3.0 * np.exp(-((x - 20.0) ** 2))

    return Potential(evaluate=evaluate, lower_bound=1.0, upper_bound=4.0, tail_limits=(4.0, 4.0))


def _far_well() -> Potential:
    """4 - 2 exp(-x^2) - 3 exp(-(x - 40)^2) on [1, 4], tails (4, 4).

    ``_inset_well``'s deeper well moved past the default window (-25, 25),
    which never samples it: the default window reads 3.007420846838579 at 0.
    """

    def evaluate(x):
        x = np.asarray(x)
        return 4.0 - 2.0 * np.exp(-x * x) - 3.0 * np.exp(-((x - 40.0) ** 2))

    return Potential(evaluate=evaluate, lower_bound=1.0, upper_bound=4.0, tail_limits=(4.0, 4.0))


def _example_m(a: float, b: float) -> float:
    """m of example(A, B): 2B(1 - 1/sqrt(1 + 4 A^2 B^2)), attained."""
    return 2.0 * b * (1.0 - 1.0 / math.sqrt(1.0 + 4.0 * (a * b) ** 2))


@pytest.mark.parametrize(
    "build, m, attainment",
    [
        # example(A s, B/s) is example(A, B) dilated by s, so m scales by 1/s.
        pytest.param(
            lambda: make_example(1e4, 1e-3), _example_m(1e4, 1e-3), "attained",
            id="dilated_example",
        ),
        # example(1, 2) dilated by 1e4; once read 4e-4 empty.
        pytest.param(
            lambda: make_example(1e4, 2e-4), 3.029857499854668e-4, "attained",
            id="small_example",
        ),
        # example(1, 10) dilated by 1e9; once read flat.
        pytest.param(
            lambda: make_example(1e9, 1e-8), _example_m(1e9, 1e-8), "attained", id="tiny_example"
        ),
        # example(10, 1) dilated by 3.16e5: a well no decided node brackets, refused
        # because F at a node is below the tail value m would otherwise read.
        pytest.param(
            lambda: make_example(3.16e6, 1 / 3.16e5), _example_m(3.16e6, 1 / 3.16e5), "attained",
            id="unresolved_example",
        ),
        # example(1, 2) moved left by 10: the default window centres on 0 and the
        # curve window misses the well, reading 4.0 empty; a (-60, 60) window is right.
        pytest.param(
            lambda: shifted(make_example(1, 2), -10), _example_m(1, 2), "attained",
            marks=WRONG, id="translated_example",
        ),
        # Moved right by 10: refused, as F at a node is below the tail value m would read.
        pytest.param(
            lambda: shifted(make_example(1, 2), 10), _example_m(1, 2), "attained",
            id="translated_example_right",
        ),
        # The +-150 and +-200 windows agree to 7e-16.
        pytest.param(_inset_well, 2.4280040324105174, "attained", marks=WRONG, id="inset_well"),
        # The (-150, 150) window, at a* = 40; the (-200, 200) window agrees to 7e-16.
        pytest.param(_far_well, 2.428004032410519, "attained", marks=WRONG, id="far_well"),
        # The mpmath value; the same well centred at 0.3137 reads 19.975223916161646.
        pytest.param(
            _narrow_well, 19.97522391616165332, "attained", marks=WRONG, id="narrow_deep_well"
        ),
        # The declared twin reads 3.9411783928501642.
        pytest.param(
            _undeclared_well, 3.9411783928501642, "attained", marks=WRONG, id="undeclared_pwc"
        ),
        pytest.param(_decaying_bump, 2.0, "empty", marks=WRONG, id="decaying_bump_without_tails"),
        pytest.param(_slow_bump_with_dip, 2.0, "empty", marks=WRONG, id="slow_bump_without_tails"),
    ],
)
def test_minimize_is_right_or_refuses(build, m, attainment):
    try:
        report = minimize(build())
    except SolverError:
        return
    if report.attainment == "undetermined":
        return
    assert report.attainment == attainment
    assert report.m_value == pytest.approx(m, rel=1e-10)


@pytest.mark.parametrize(
    "build, center",
    [
        pytest.param(lambda: make_example(1.0, 2.0), None, id="example"),
        pytest.param(lambda: make_monotone_step(1.0, 4.0), None, id="step"),
        pytest.param(
            lambda: make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]), None, id="pwc_well"
        ),
        pytest.param(gaussian_well_table, None, id="gaussian_table"),
        # The deeper wells that the default window misses or cuts: m reads 3.00742,
        # and a Gaussian in either deeper well reads 2.93937.
        pytest.param(_far_well, 40.0, marks=WRONG, id="far_well"),
        pytest.param(_inset_well, 20.0, marks=WRONG, id="inset_well"),
        # m reads 4.0, and a Gaussian at the moved a* = -10.78 reads 3.75534.
        pytest.param(
            lambda: shifted(make_example(1.0, 2.0), -10.0), -10.78, marks=WRONG,
            id="translated_example",
        ),
    ],
)
def test_no_trial_function_lies_below_m(build, center):
    """A Gaussian of width 0.5 bounds m from above, by quadrature that shares no mesh with
    the solve; it sits at the given center, else at the reported a*, else at 0."""
    pot = build()
    report = minimize(pot)
    if center is None:
        center = 0.0 if report.a_star is None else report.a_star

    def u(x):
        return np.exp(-2.0 * (x - center) ** 2)

    q = cf.trial_quotient(
        u, lambda x: -4.0 * (x - center) * u(x), pot, (center - 12.0, center + 12.0),
        kinks=pot.breakpoints,
    )
    assert q >= report.m_value * (1.0 - 1e-9)


@pytest.mark.parametrize(
    "spec",
    [
        # Solved right (m = 2, empty), but narrower than verify's stencils.
        pytest.param(
            {"kind": "step", "v0": 1, "v1": 4, "width": 1e-3}, marks=WRONG, id="narrow_step"
        ),
        # Solved right (m = 19001.25); the oracle's absolute 1e-2 tolerance fails it.
        pytest.param({"kind": "example", "A": 1e-3, "B": 1e4}, marks=WRONG, id="steep_example"),
    ],
)
def test_verify_passes_on_an_honest_solve(capsys, spec):
    code = main(["verify", "--potential", json.dumps(spec)])
    assert code == 0, capsys.readouterr().out
