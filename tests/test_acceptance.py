"""End-to-end acceptance checks.

Each test covers one advertised guarantee at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or on failure).  Together they
are the release gate for the package.
"""

import math
import time

import numpy as np

import _closed_forms as cf
from sobolev1d import (
    build_green,
    extremal,
    make_constant,
    make_example,
    make_monotone_step,
    minimize,
)
from sobolev1d.fcurve import CONDITION_TOL, build_fcurve, check_minimality_equivalence
from sobolev1d.fundamental import check_envelope_bounds, solve_log_solution
from sobolev1d.green import gaussian_test, residual_check
from sobolev1d.oracle import DiscreteRayleighProblem, discrete_minimize
from conftest import random_piecewise_constant


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _solve_pair(pot, window=None):
    if window is None:
        w = 25.0 / math.sqrt(pot.lower_bound)
        window = (-w, w)
    plus, minus = solve_log_solution(pot, *window)
    return plus, minus


def test_criterion_1_constant_potentials():
    worst_m = worst_c = worst_u = worst_t = 0.0
    ok = True
    for v in (0.25, 1.0, 4.0, 9.0):
        start = time.perf_counter()
        report = minimize(make_constant(v))
        u = extremal(report)
        xs = np.linspace(*report.window, 4001)
        elapsed = time.perf_counter() - start
        exact = 2.0 * math.sqrt(v)
        rel_m = abs(report.m_value - exact) / exact
        rel_c = abs(report.best_constant - exact**-0.5) / exact**-0.5
        sup = float(np.max(np.abs(u(xs) - np.exp(-math.sqrt(v) * np.abs(xs)))))
        ok = ok and rel_m <= 1e-8 and rel_c <= 1e-8 and sup <= 1e-8
        ok = ok and report.attainment == "flat" and elapsed < 1.0
        worst_m = max(worst_m, rel_m)
        worst_c = max(worst_c, rel_c)
        worst_u = max(worst_u, sup)
        worst_t = max(worst_t, elapsed)
    _report(
        "criterion-1 constant potentials",
        ok,
        f"m rel {worst_m:.2e}, C rel {worst_c:.2e}, sup|u - exp| {worst_u:.2e}, "
        f"max {worst_t * 1e3:.0f} ms per case",
    )


def test_criterion_2_example_minimum():
    start = time.perf_counter()
    report = minimize(make_example(1.0, 2.0))
    elapsed = time.perf_counter() - start
    gap_m = abs(report.m_value - cf.M_EXACT)
    gap_a = abs(report.a_star - cf.A1_EXACT)
    one_candidate = len(report.critical_points) == 1
    rejected = report.rejected_candidates
    a2_rejected = (
        len(rejected) == 1
        and abs(rejected[0].location - cf.A2_EXACT) < 1e-6
        and report.phi_plus.ell_second_at(rejected[0].location) > 0.0
    )
    ok = gap_m <= 1e-6 and gap_a <= 1e-6 and one_candidate and a2_rejected
    ok = ok and elapsed < 5.0
    _report(
        "criterion-2 example minimum",
        ok,
        f"|m - {cf.M_EXACT}| = {gap_m:.2e}, |a* - a1| = {gap_a:.2e}, "
        f"|N(V)| = {len(report.critical_points)}, a2 rejected = {a2_rejected}, "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_example_fundamental_solutions():
    plus, minus = _solve_pair(make_example(1.0, 2.0))
    xs = np.linspace(-5.0, 5.0, 2001)
    rel_p = float(np.max(np.abs(plus.phi_at(xs) / cf.phi_plus_exact(xs) - 1.0)))
    rel_m = float(np.max(np.abs(minus.phi_at(xs) / cf.phi_minus_exact(xs) - 1.0)))
    ok = rel_p <= 1e-7 and rel_m <= 1e-7
    _report(
        "criterion-3 example fundamental solutions",
        ok,
        f"phi+ rel {rel_p:.2e}, phi- rel {rel_m:.2e} on [-5, 5]",
    )


def test_criterion_4_bounds_suite():
    rng = np.random.default_rng(404)
    worst_low = worst_high = 0.0
    envelopes_ok = True
    for _ in range(20):
        pot = random_piecewise_constant(rng)
        report = minimize(pot)
        v0, v1 = pot.lower_bound, pot.upper_bound
        lo = 2.0 * math.sqrt(v0)
        hi = 2.0 * math.sqrt(v1)
        worst_low = max(worst_low, lo - report.m_value)
        worst_high = max(worst_high, report.m_value - hi)
        env = check_envelope_bounds(report.phi_plus, report.phi_minus)
        envelopes_ok = envelopes_ok and env.passed
    ok = worst_low <= 1e-8 and worst_high <= 1e-8 and envelopes_ok
    _report(
        "criterion-4 bounds suite",
        ok,
        f"20 random step potentials: worst lower-bound slack {worst_low:.2e}, "
        f"worst upper-bound slack {worst_high:.2e}, envelopes ok = {envelopes_ok}",
    )


def test_criterion_5_nondecreasing_potential():
    report = minimize(make_monotone_step(1.0, 4.0))
    gap = abs(report.m_value - 2.0)
    increments = np.diff(report.curve.value_at(report.curve.grid))
    strictly_increasing = bool(np.all(increments > 0.0))
    ok = gap <= 1e-3 and report.attainment == "empty" and strictly_increasing
    _report(
        "criterion-5 nondecreasing potential",
        ok,
        f"|m - 2| = {gap:.2e}, attainment = {report.attainment}, "
        f"min grid increment {increments.min():.2e}",
    )


def test_criterion_6_oracle_agreement():
    rng = np.random.default_rng(608)
    cases = [
        ("constant", make_constant(1.0)),
        ("example", make_example(1.0, 2.0)),
        ("random-steps-1", random_piecewise_constant(rng)),
        ("random-steps-2", random_piecewise_constant(rng)),
    ]
    ok = True
    details = []
    for name, pot in cases:
        m_true = minimize(pot).m_value
        gaps = []
        for h in (0.005, 0.0025):
            problem = DiscreteRayleighProblem.from_potential(pot, 30.0, h)
            m_disc, _ = discrete_minimize(problem)
            gaps.append(abs(m_disc - m_true))
        ok = ok and gaps[0] <= 1e-2 and gaps[1] < gaps[0]
        details.append(f"{name} {gaps[0]:.1e}->{gaps[1]:.1e}")
    _report(
        "criterion-6 oracle agreement",
        ok,
        "gap at h=0.005 -> h=0.0025: " + ", ".join(details),
    )


def test_criterion_7_green_function():
    rng = np.random.default_rng(707)
    plus, minus = _solve_pair(make_example(1.0, 2.0))
    green = build_green(plus, minus)
    xs = rng.uniform(-15, 15, size=100)
    ys = rng.uniform(-15, 15, size=100)
    sym = float(
        np.max(np.abs(green.value(xs, ys) - green.value(ys, xs)) / green.value(xs, ys))
    )
    tests = [gaussian_test(c, 0.8) for c in (-2.0, -0.5, 0.0, 0.9, 2.4)]
    weak = residual_check(green, 0.7, tests)
    cp, cm = _solve_pair(make_constant(1.0))
    cgreen = build_green(cp, cm)
    gx = np.linspace(-8, 8, 101)
    gy = np.linspace(-7, 7, 83)
    mx, my = np.meshgrid(gx, gy)
    const_gap = float(
        np.max(np.abs(cgreen.value(mx, my) - np.exp(-np.abs(mx - my)) / 2.0))
    )
    ok = sym <= 1e-9 and weak.passed and max(weak.residuals) <= 1e-6 and const_gap <= 1e-8
    _report(
        "criterion-7 green function",
        ok,
        f"symmetry {sym:.2e} on 100 pairs, weak residual {max(weak.residuals):.2e} "
        f"on 5 tests, constant-V gap {const_gap:.2e}",
    )


def test_criterion_8_identity_suite():
    pot = make_example(1.0, 2.0)
    plus, minus = _solve_pair(pot)
    curve = build_fcurve(plus, minus)
    drift = curve.wronskian_drift()

    xs = np.linspace(-6.0, 6.0, 601)
    f = curve.value_at(xs)
    df = curve.slope_at(xs)
    d2f = curve.curvature_at(xs)
    scale1 = np.maximum(1.0, np.abs(df))
    l4_gap = float(
        np.max(np.abs(df + f * f * (curve.product_criterion("+", xs) + 1.0)) / scale1)
    )
    scale2 = np.maximum(1.0, np.abs(d2f))
    l5_a = np.abs(
        d2f + 2.0 * df * minus.ell_prime_at(xs) + 2.0 * f * plus.ell_second_at(xs)
    )
    l5_b = np.abs(
        d2f + 2.0 * df * plus.ell_prime_at(xs) + 2.0 * f * minus.ell_second_at(xs)
    )
    l5_gap = float(np.max(np.maximum(l5_a, l5_b) / scale2))

    sub = np.linspace(-4.0, 4.0, 33)
    fd_gaps_1 = []
    fd_gaps_2 = []
    for h in (0.02, 0.01, 0.005):
        fd1 = (curve.value_at(sub + h) - curve.value_at(sub - h)) / (2 * h)
        fd2 = (
            curve.value_at(sub + h) - 2 * curve.value_at(sub) + curve.value_at(sub - h)
        ) / h**2
        fd_gaps_1.append(float(np.max(np.abs(fd1 - curve.slope_at(sub)))))
        fd_gaps_2.append(float(np.max(np.abs(fd2 - curve.curvature_at(sub)))))
    second_order = all(
        gaps[i + 1] < gaps[i] / 3.0
        for gaps in (fd_gaps_1, fd_gaps_2)
        for i in range(2)
    )

    ok = drift <= 1e-8 and l4_gap <= 1e-8 and l5_gap <= 1e-6 and second_order
    _report(
        "criterion-8 identity suite",
        ok,
        f"W drift {drift:.2e}, slope identity {l4_gap:.2e}, curvature identity "
        f"{l5_gap:.2e}, FD convergence ratios ok = {second_order}",
    )


def test_criterion_9_minimality_equivalence():
    """The F' and F'' that decide minimality match five-point differences of F."""
    cases = [
        (make_example(1.0, 2.0), np.linspace(-6.0, 6.0, 80)),
        (make_constant(2.25), np.linspace(-8.0, 8.0, 60)),
        (make_monotone_step(1.0, 4.0), np.linspace(-8.0, 8.0, 58)),
    ]
    total = 0
    disagreements = 0
    worst = 0.0
    ok = True
    for pot, samples in cases:
        plus, minus = _solve_pair(pot)
        curve = build_fcurve(plus, minus)
        report = check_minimality_equivalence(curve, samples)
        total += report.locations.size
        disagreements += report.n_disagree
        worst = max(worst, float(np.max(report.curvature_gap)))
        ok = ok and report.n_disagree == 0

    # At both roots of the example the differences confirm the sign of F''.
    pot = make_example(1.0, 2.0)
    plus, minus = _solve_pair(pot)
    curve = build_fcurve(plus, minus)
    ends = check_minimality_equivalence(curve, [cf.A1_EXACT, cf.A2_EXACT])
    bound = CONDITION_TOL * curve.value_at(ends.locations) * pot.upper_bound
    d2f = curve.curvature_at(ends.locations)
    signs = bool(d2f[0] > bound[0] and d2f[1] < -bound[1])
    total += 2
    ok = ok and signs and ends.n_disagree == 0 and total >= 200
    _report(
        "criterion-9 minimality equivalence",
        ok,
        f"{total} samples across three potentials, {disagreements} disagreements, "
        f"worst scaled F'' gap {worst:.1e}, F'' sign certain at a1 and a2 = {signs}",
    )
