"""Confident wrong answers the solver gives today, each held as a strict xfail.

A case passes when the answer is right or the solver refuses: a
``SolverError`` or an ``undetermined`` verdict passes, and any other
verdict must be the true one with m within rel 1e-10 of the true value.
The markers are strict, so the change that mends a case removes its marker.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from sobolev1d import Potential, SolverError, make_example, make_piecewise_constant, minimize
from sobolev1d.cli import main

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
    return dataclasses.replace(well, breakpoints=(), pieces=None)


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


@pytest.mark.parametrize(
    "build, m, attainment",
    [
        # example(A s, B/s) is example(A, B) dilated by s: m = 2B(1 - 1/sqrt(401)) at A B = 10.
        pytest.param(
            lambda: make_example(1e4, 1e-3), 2e-3 * (1.0 - 1.0 / math.sqrt(401.0)), "attained",
            marks=WRONG, id="dilated_example",
        ),
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
