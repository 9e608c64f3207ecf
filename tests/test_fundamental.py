import ast
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _closed_forms as cf
from sobolev1d import (
    Potential,
    SolverError,
    build_green,
    extremal,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
    potential_from_spec,
)
from sobolev1d.fcurve import build_fcurve
from sobolev1d.fundamental import (
    LogSolution,
    _cell_maps,
    _pair_reads,
    check_envelope_bounds,
    check_riccati_residual,
    decay_inset,
    extremal_function,
    solve_log_solution,
)
from sobolev1d.green import gaussian_test, residual_check
from sobolev1d.minimizer import default_window, rayleigh_quotient
from sobolev1d.quadrature import composite_rule
from sobolev1d import fundamental
from conftest import counting, dilated, random_piecewise_constant, spy

WINDOW = (-25.0, 25.0)


@pytest.fixture(scope="module")
def example_pair():
    pot = make_example(cf.A, cf.B)
    plus, minus = solve_log_solution(pot, *WINDOW)
    return pot, plus, minus


def test_window_and_side_validation():
    pot = make_constant(1.0)
    with pytest.raises(ValueError):
        solve_log_solution(pot, 1.0, 25.0)  # window must contain 0
    with pytest.raises(ValueError):
        solve_log_solution(pot, -25.0, 25.0, tol=1e-3)  # out of range
    with pytest.raises(ValueError):
        solve_log_solution(pot, -5.0, 5.0)  # decay margin too small
    with pytest.raises(ValueError, match="finite"):
        solve_log_solution(pot, -math.inf, math.inf)


def test_the_window_slack_is_relative_to_the_window():
    """example(10, 1) dilated by 1e-9: its window is about 1e-8 wide, so a point
    1e-6 of x_max past the end is outside, and no absolute slack lets it in."""
    pot = make_example(1e-8, 1e9)
    plus, _ = solve_log_solution(pot, *default_window(pot))
    x_max = plus.window[1]
    plus.ell_at(x_max)
    with pytest.raises(ValueError, match="outside solved window"):
        plus.ell_at(x_max * (1.0 + 1e-6))


def test_constant_solution_is_exact():
    pot = make_constant(4.0)
    plus, minus = solve_log_solution(pot, *WINDOW)
    xs = np.linspace(-24, 24, 97)
    assert np.max(np.abs(plus.ell_at(xs) + 2.0 * xs)) < 1e-12
    assert np.max(np.abs(plus.ell_prime_at(xs) + 2.0)) < 1e-12
    assert np.max(np.abs(minus.ell_at(xs) - 2.0 * xs)) < 1e-12
    assert plus.ell_at(0.0) == 0.0
    assert plus.phi_at(0.0) == 1.0


def test_example_matches_closed_forms(example_pair):
    _, plus, minus = example_pair
    xs = np.linspace(-5.0, 5.0, 801)
    rel_p = np.abs(plus.phi_at(xs) / cf.phi_plus_exact(xs) - 1.0)
    rel_m = np.abs(minus.phi_at(xs) / cf.phi_minus_exact(xs) - 1.0)
    assert np.max(rel_p) < 1e-7
    assert np.max(rel_m) < 1e-7
    assert np.max(np.abs(plus.ell_prime_at(xs) - cf.ell_plus_prime_exact(xs))) < 1e-8
    assert np.max(np.abs(minus.ell_prime_at(xs) - cf.ell_minus_prime_exact(xs))) < 1e-8
    assert plus.phi_at(1.0) == pytest.approx(cf.PHI_PLUS_AT_1, rel=1e-9)
    assert minus.phi_at(1.0) == pytest.approx(cf.PHI_MINUS_AT_1, rel=1e-9)


@pytest.mark.parametrize("cells", [[0, 1]], ids=["growing"])
def test_cell_map_of_constant_v_is_exact_on_either_branch(cells):
    """Constant V > 0 gives cosh and sinh; V < 0 never reaches a map (``_honest``)."""
    v = np.array([4.0, 0.25])[cells]
    h = np.array([0.3, 1.0])[cells]
    cm1, P, Q, R = fundamental._magnus((v, v, v), h)
    w = np.sqrt(v) * h
    sine = np.sinh(w) / np.sqrt(v)
    np.testing.assert_allclose(1.0 + cm1, np.cosh(w), rtol=1e-14)
    assert np.all(P == 0.0)
    np.testing.assert_allclose(Q, sine, rtol=1e-14)
    np.testing.assert_allclose(R, v * sine, rtol=1e-14)


@pytest.mark.parametrize(
    "pot, window",
    [
        (make_example(1.0, 2.0), WINDOW),
        (make_piecewise_constant([0.0], [3.0, 1.0]), WINDOW),  # jump at 0
        (make_example(1.0, 2.0), (-22.0, 31.0)),
    ],
    ids=["example", "jump-at-0", "asymmetric"],
)
def test_solve_makes_no_dense_read(pot, window, monkeypatch):
    reads = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: self.side)
    sides = solve_log_solution(pot, *window)
    assert reads == []
    for sol in sides:
        assert sol.ell_at(0.0) == 0.0


def test_second_derivative_uses_riccati(example_pair):
    _, plus, _ = example_pair
    xs = np.linspace(-4, 4, 101)
    assert np.max(np.abs(plus.ell_second_at(xs) - cf.ell_plus_second_exact(xs))) < 1e-8


def test_riccati_residual_example(example_pair):
    _, plus, minus = example_pair
    for sol in (plus, minus):
        report = check_riccati_residual(sol)
        assert report.passed, report
        assert report.max_residual < report.tolerance


def test_riccati_residual_piecewise(rng):
    pot = random_piecewise_constant(rng)
    w = 25.0 / math.sqrt(pot.lower_bound)
    plus = solve_log_solution(pot, -w, w)[0]
    report = check_riccati_residual(plus)
    assert report.passed, report


def test_tolerance_consistency(example_pair):
    pot, plus, _ = example_pair
    loose = solve_log_solution(pot, *WINDOW, tol=1e-8)[0]
    xs = np.linspace(-24.5, 24.5, 401)
    assert np.max(np.abs(loose.ell_at(xs) - plus.ell_at(xs))) < 1e-6


def test_seeding_robustness(example_pair):
    pot, plus, _ = example_pair
    wide = solve_log_solution(pot, WINDOW[0], WINDOW[1] + 8.0)[0]
    cut = WINDOW[1] - decay_inset(pot)
    xs = np.linspace(WINDOW[0] + 0.5, cut, 501)
    assert np.max(np.abs(wide.ell_at(xs) - plus.ell_at(xs))) < 1e-8


def test_dishonest_bounds_rejected():
    pot = make_constant(1.0)
    lying = type(pot)(
        evaluate=pot.evaluate,
        lower_bound=4.0,
        upper_bound=5.0,
        breakpoints=(),
        tail_limits=(4.0, 5.0),
        label="dishonest",
    )
    with pytest.raises(SolverError, match=r"V\(-?[\d.]+\) = 1 is below its declared lower bound 4"):
        solve_log_solution(lying, -12.0, 12.0)
    well = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
    # Its tail limits name the lie at construction; without them the solve does.
    with pytest.raises(ValueError, match=r"declared tail limits \(4.0, 4.0\) must lie within"):
        dataclasses.replace(well, lower_bound=1.0, upper_bound=3.0)
    understated = dataclasses.replace(
        well, lower_bound=1.0, upper_bound=3.0, piecewise_constant=False, tail_limits=None
    )
    with pytest.raises(SolverError, match=r"V\(-?[\d.]+\) = 4 exceeds its declared upper bound 3"):
        solve_log_solution(understated, *WINDOW)
    # A smooth bump: refused at its first sample above 2, before any map is
    # built, so without a warning.
    bump = Potential(
        evaluate=lambda x: 1.0 + 300.0 * np.exp(-np.square(x)), lower_bound=1.0, upper_bound=2.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="exceeds its declared upper bound 2"):
            solve_log_solution(bump, *WINDOW)


def test_the_band_check_refuses_what_the_bounds_check_lets_through(monkeypatch):
    """With the bounds ``_honest`` reads widened to (0, inf), the invariant band still refuses
    a well whose r_minus peaks at 2, inside the wide band [1/sqrt(3), 3] but above sqrt(3)."""
    monkeypatch.setattr(fundamental, "_bounds", lambda potential: (0.0, math.inf))
    well = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
    understated = dataclasses.replace(
        well, lower_bound=1.0, upper_bound=3.0, piecewise_constant=False, tail_limits=None
    )
    with pytest.raises(SolverError, match="invariant band"):
        solve_log_solution(understated, *WINDOW)


@pytest.mark.parametrize(
    "evaluate, words",
    [
        (lambda x: 1.0 + 1.1 * np.exp(-np.square(x)), "exceeds its declared upper bound 2"),
        (lambda x: 2.0 - 1.01 * np.exp(-np.square(x)), "is below its declared lower bound 1"),
    ],
    ids=["above", "below"],
)
def test_a_gaussian_that_leaves_its_declared_bounds_is_refused(evaluate, words):
    """V peaks at 2.1, or dips to 0.99, near 0: minimize used to answer for both."""
    with pytest.raises(SolverError, match=r"V\(-?[\d.e-]+\) = [\d.]+ " + words):
        minimize(Potential(evaluate, 1.0, 2.0))


def _checked_point(check: str, pot: Potential) -> float:
    """A quadrature or residual point at which only the check reads V, never the solve."""
    lo, hi = WINDOW
    h = 1e-3 / math.sqrt(pot.upper_bound)
    if check == "riccati":
        return float(np.linspace(lo + 5 * h, hi - 5 * h, fundamental.RESIDUAL_POINTS)[37])
    # The nodes of green.residual_check at y = 0.5 and of rayleigh_quotient centered at 0.5.
    x = composite_rule(lo, hi, splits=[0.5], panel_length=0.4 / math.sqrt(pot.upper_bound))[0]
    return float(x[x.size // 3])


@pytest.mark.parametrize("check", ["riccati", "green", "rayleigh"])
def test_a_check_that_reads_v_over_its_declared_bound_is_refused(check):
    """V is 2 v1 at one point the check reads and the solve does not: the check refuses it."""
    pot = make_example(cf.A, cf.B)
    x_star = _checked_point(check, pot)
    v1 = pot.upper_bound
    liar = dataclasses.replace(
        pot, evaluate=lambda x: np.where(np.asarray(x) == x_star, 2.0 * v1, pot.evaluate(x))
    )
    plus, minus = solve_log_solution(liar, *WINDOW)
    runs = {
        "riccati": lambda: check_riccati_residual(plus),
        "green": lambda: residual_check(build_green(plus, minus), 0.5, [gaussian_test(0.0, 1.0)]),
        "rayleigh": lambda: rayleigh_quotient(extremal_function(plus, minus, 0.5), liar),
    }
    words = f"V({x_star:g}) = {2.0 * v1:g} exceeds its declared upper bound {v1:g}"
    with pytest.raises(SolverError, match=re.escape(words)):
        runs[check]()


# The only functions that call .evaluate: the door (_samples), the float path that hands any
# refusal to _honest, the two readers that report V rather than refuse it, and __call__.
EVALUATE_CALLERS = {
    "_samples",
    "_dense_one",
    "cmd_verify",
    "DiscreteRayleighProblem.from_potential",
    "Potential.__call__",
}


def _evaluate_calls(node: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing def or class path, line) of every ``.evaluate(...)`` call under node."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    calls = []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "evaluate":
            calls.append((scope, node.lineno))
    for child in ast.iter_child_nodes(node):
        calls += _evaluate_calls(child, scope)
    return calls


def test_v_is_read_only_through_its_doors():
    """Every other reader of V samples it through ``_honest``, which holds it to the bounds."""
    stray = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in sorted(Path(fundamental.__file__).parent.glob("*.py"))
        for scope, line in _evaluate_calls(ast.parse(path.read_text(encoding="utf-8")))
        if scope not in EVALUATE_CALLERS
    ]
    assert not stray


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x: np.where(np.asarray(x, dtype=float) < -20.0, -1.0, 1.0),
        lambda x: np.full(np.shape(x), -1.0),
    ],
    ids=["negative-left-seed", "negative-everywhere"],
)
def test_negative_v_at_a_seed_is_a_solver_error(evaluate):
    """sqrt(V) of a negative seed is NaN, which the band check refuses."""
    with pytest.raises(SolverError, match="declared potential bounds are not honest"):
        minimize(Potential(evaluate, 1.0, 1.0))


def test_refinement_past_max_cells_is_refused(monkeypatch):
    """An initial mesh within MAX_CELLS whose step doubling would pass it."""
    monkeypatch.setattr(fundamental, "MAX_CELLS", 2000)
    rough = Potential(lambda x: 2.0 + np.sin(40.0 * np.asarray(x, dtype=float)), 1.0, 3.0)
    with pytest.raises(SolverError, match="refinement exceeded 2000 cells"):
        solve_log_solution(rough, -25.0, 25.0)


def test_refinement_cap_is_exact(monkeypatch):
    """A cap of the solve's final cell count passes; one cell less is refused."""
    for pot in (make_example(1.0, 2.0), make_monotone_step(1.0, 40.0, width=3.0)):
        window = default_window(pot)
        cells = solve_log_solution(pot, *window)[0]._mesh.size - 1
        monkeypatch.setattr(fundamental, "MAX_CELLS", cells)
        solve_log_solution(pot, *window)
        monkeypatch.setattr(fundamental, "MAX_CELLS", cells - 1)
        with pytest.raises(SolverError, match=f"refinement exceeded {cells - 1} cells"):
            solve_log_solution(pot, *window)
        monkeypatch.undo()


def test_extremal_function_shape(example_pair):
    _, plus, minus = example_pair
    u = extremal_function(plus, minus, cf.A1_EXACT)
    assert u(cf.A1_EXACT) == 1.0
    xs = np.linspace(-20, 20, 401)
    vals = np.asarray(u(xs))
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0 + 1e-12)
    # slopes have the right sign on each side of the pin
    assert u.derivative(cf.A1_EXACT - 1.0) > 0.0
    assert u.derivative(cf.A1_EXACT + 1.0) < 0.0
    with pytest.raises(ValueError):
        extremal_function(plus, minus, WINDOW[1])  # too close to the edge


@pytest.fixture(scope="module")
def constant_sides():
    pot = make_constant(1.0)
    plus, minus = solve_log_solution(pot, *WINDOW)
    wider_minus = solve_log_solution(pot, WINDOW[0], WINDOW[1] + 5.0)[1]
    return plus, minus, wider_minus


PAIR_CONSUMERS = {
    "build_fcurve": build_fcurve,
    "build_green": build_green,
    "check_envelope_bounds": check_envelope_bounds,
    "extremal_function": lambda plus, minus: extremal_function(plus, minus, 0.0),
}


@pytest.mark.parametrize("consumer", sorted(PAIR_CONSUMERS))
def test_pair_rules(consumer, constant_sides):
    plus, minus, wider_minus = constant_sides
    build = PAIR_CONSUMERS[consumer]
    build(plus, minus)
    with pytest.raises(ValueError, match="in that order"):
        build(minus, plus)
    with pytest.raises(ValueError, match="different windows"):
        build(plus, wider_minus)


@pytest.mark.parametrize("consumer", ["build_fcurve", "build_green"])
def test_nonpositive_wronskian_is_a_solver_error(consumer, constant_sides):
    plus = constant_sides[0]
    # A '+' solution relabelled '-' passes the order check but has W = 0.
    with pytest.raises(SolverError, match="nonpositive Wronskian"):
        PAIR_CONSUMERS[consumer](plus, dataclasses.replace(plus, side="-"))


def test_a_nonpositive_energy_curve_is_a_solver_error():
    """r_minus lowered below r_plus at the node after 0, inside the curve window (-13, 13),
    makes F negative there; W at node 0 and the shared mesh are left as they are."""
    plus, minus = solve_log_solution(make_constant(1.0), *WINDOW)
    r = minus._r.copy()
    k = int(np.searchsorted(minus._mesh, 0.0)) + 1
    assert 0.0 < minus._mesh[k] < 13.0
    r[k] = plus._r[k] - 1.0
    with pytest.raises(SolverError, match="energy curve is not positive"):
        build_fcurve(plus, dataclasses.replace(minus, _r=r))


@pytest.mark.parametrize("consumer", sorted(PAIR_CONSUMERS))
def test_sides_of_two_solves_on_one_window_are_refused(consumer):
    """phi_+ of one potential with phi_- of another share the window but not the solve."""
    plus = solve_log_solution(make_example(cf.A, cf.B), *WINDOW)[0]
    minus = solve_log_solution(make_constant(4.0), *WINDOW)[1]
    with pytest.raises(ValueError, match="not solved together"):
        PAIR_CONSUMERS[consumer](plus, minus)


@pytest.mark.parametrize(
    "consumer, read",
    [("build_green", []), ("build_fcurve", []), ("extremal_function", ["+", "-"])],
)
def test_the_pair_check_reads_no_side(consumer, read, monkeypatch):
    """W and the curve's nodes come from the stored rates: only the extremal's center is read."""
    pot, evaluated = counting(make_example(cf.A, cf.B))
    plus, minus = solve_log_solution(pot, *WINDOW)
    # A point read goes on to _dense_one, which counts it.
    arrays = spy(
        monkeypatch, (LogSolution,), "_dense",
        lambda self, x: [] if fundamental._is_point(x) else [self.side],
    )
    one_pin = spy(
        monkeypatch, (fundamental,), "_dense_one",
        lambda reads, pin=None: [solution.side for solution, _ in reads],
    )
    evaluated.clear()
    PAIR_CONSUMERS[consumer](plus, minus)
    assert sorted(side for call in arrays + one_pin for side in call) == read
    if not read:
        assert evaluated == []


def test_extremal_samples_v_once_at_its_center():
    """Both sides' steps to the center share one call, at their 3 + 3 Gauss nodes."""
    pot, evaluated = counting(make_example(cf.A, cf.B))
    plus, minus = solve_log_solution(pot, *WINDOW)
    evaluated.clear()
    u = extremal_function(plus, minus, cf.A1_EXACT)
    assert evaluated == [6]
    at = u._at_center
    assert (at.l_plus, at.l_minus) == (plus.ell_at(cf.A1_EXACT), minus.ell_at(cf.A1_EXACT))


def test_extremal_array_reads_its_center_from_construction(monkeypatch):
    """An array read of u_a takes one dense read per side and reads no point."""
    plus, minus = solve_log_solution(make_example(cf.A, cf.B), *WINDOW)
    u = extremal_function(plus, minus, cf.A1_EXACT)
    arrays = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: self.side)
    one_pin = spy(monkeypatch, (fundamental,), "_dense_one", lambda reads, pin=None: reads)
    u.log_value(np.linspace(-10.0, 10.0, 41))
    assert sorted(arrays) == ["+", "-"]
    assert one_pin == []


@pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "example", "A": 1, "B": 2},
        {"kind": "step", "v0": 1, "v1": 4},
        {"kind": "piecewise_constant", "edges": [-1, 1], "values": [4, 1, 4]},
        {"kind": "constant", "v": 2.5},
    ],
    ids=["example", "step", "well", "constant"],
)
def test_node_wronskian_is_the_dense_read_at_zero(spec, tol):
    """W taken from the stored rates at the node 0 is bitwise the dense read there."""
    plus, minus = solve_log_solution(potential_from_spec(spec), -30.0, 30.0, tol)
    dense = minus.ell_prime_at(0.0) - plus.ell_prime_at(0.0)
    assert build_green(plus, minus).wronskian == dense


def test_envelope_bounds_example(example_pair):
    _, plus, minus = example_pair
    report = check_envelope_bounds(plus, minus)
    assert report.passed, report.violations


def test_envelope_bounds_random(rng):
    for _ in range(3):
        pot = random_piecewise_constant(rng)
        w = 25.0 / math.sqrt(pot.lower_bound)
        plus, minus = solve_log_solution(pot, -w, w)
        report = check_envelope_bounds(plus, minus)
        assert report.passed, report.violations


def _side_minus_corrupted(monkeypatch, corrupt):
    """Every read of a side "-" returns corrupt(r, l) in place of (r, l)."""
    dense = LogSolution._dense

    def read(self, x):
        r, l = dense(self, x)
        return corrupt(r, l) if self.side == "-" else (r, l)

    monkeypatch.setattr(LogSolution, "_dense", read)


@pytest.mark.parametrize(
    "spec",
    [{"kind": "example", "A": 1, "B": 2}, {"kind": "step", "v0": 1, "v1": 1e4}],
    ids=["example", "step-1e4"],
)
def test_envelope_bounds_fail_on_a_corrupted_pair(monkeypatch, spec):
    """A wrong rate fails the slope-sign test, a wrong l the pinned bounds, at contrast 1e4 too."""
    pot = potential_from_spec(spec)
    plus, minus = solve_log_solution(pot, *default_window(pot))
    clean = check_envelope_bounds(plus, minus)
    assert clean.passed and "pinned_slope_sign" not in clean.violations
    with monkeypatch.context() as patch:
        _side_minus_corrupted(patch, lambda r, l: (-r, l))
        report = check_envelope_bounds(plus, minus)
    assert not report.passed
    assert report.violations["pinned_slope_sign"] > fundamental.ENVELOPE_SLACK
    with monkeypatch.context() as patch:
        _side_minus_corrupted(patch, lambda r, l: (r, 0.5 * l))
        report = check_envelope_bounds(plus, minus)
    assert not report.passed
    pinned = max(report.violations["pinned_upper"], report.violations["pinned_lower"])
    assert pinned > fundamental.ENVELOPE_SLACK


# Pairs V_low <= V_high pointwise.  example(1, B) rises with B wherever
# dV/dB = 2B + 2x/(x^2 + A^2) > 0, which holds everywhere once AB > 1/2.
ORDERED_PAIRS = {
    "example": (make_example(1.0, 2.0), make_example(1.0, 2.5)),
    "step": (make_monotone_step(1.0, 4.0), make_monotone_step(1.0, 4.0).shifted(-1.0)),
    "well": (
        make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]),
        make_piecewise_constant([-1.0, 1.0], [4.0, 2.0, 4.0]),
    ),
}


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.7])
@pytest.mark.parametrize("pair", list(ORDERED_PAIRS))
def test_raising_the_potential_lowers_the_pinned_minimizer(pair, a):
    """Comparison principle: V_low <= V_high gives u_a(V_low) >= u_a(V_high) everywhere."""
    low, high = ORDERED_PAIRS[pair]
    w = max(default_window(low)[1], default_window(high)[1])
    grid = np.linspace(-w, w, 801)
    assert np.all(low.evaluate(grid) <= high.evaluate(grid))
    log_u = [
        extremal_function(*solve_log_solution(pot, -w, w), a).log_value(grid)
        for pot in (low, high)
    ]
    assert np.min(log_u[0] - log_u[1]) >= -1e-12


def test_gluing_fails_inside_the_interval(example_pair):
    """Between the two pins the minimizers genuinely differ."""
    _, plus, minus = example_pair
    u_a = extremal_function(plus, minus, -1.5)
    u_b = extremal_function(plus, minus, 1.5)
    x = 0.0
    lhs = u_a(x)
    rhs = math.exp(u_b.log_value(x) - u_b.log_value(-1.5))
    assert abs(lhs - rhs) > 1e-3


def test_square_well_high_contrast():
    """Contrast 1e4: m(V) = 2 s0 (s0 tanh s0 + s1) / (s0 + s1 tanh s0), a* = 0."""
    v0, v1 = 1.0, 1e4
    report = minimize(make_piecewise_constant([-1.0, 1.0], [v1, v0, v1]))
    s0, s1 = math.sqrt(v0), math.sqrt(v1)
    m_exact = 2.0 * s0 * (s0 * math.tanh(s0) + s1) / (s0 + s1 * math.tanh(s0))
    assert abs(report.m_value - m_exact) < 1e-9
    assert report.attainment == "attained"
    assert abs(report.a_star) <= 1e-6


@pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-6])
def test_example_accuracy_at_each_tolerance(tol):
    # The window keeps |x| <= 20 one decay inset (12/sqrt(v0)) from its edges,
    # so the seeding transient does not count against the integrator.
    pot = make_example(cf.A, cf.B)
    plus, minus = solve_log_solution(pot, -32.0, 32.0, tol)
    xs = np.linspace(-20.0, 20.0, 4001)
    bound = max(tol, 1e-12)
    assert np.max(np.abs(plus.ell_prime_at(xs) - cf.ell_plus_prime_exact(xs))) <= bound
    assert np.max(np.abs(minus.ell_prime_at(xs) - cf.ell_minus_prime_exact(xs))) <= bound


@pytest.mark.parametrize("width", [1e-2, 1e-3])
def test_sharp_step_converged(width):
    """A ramp far narrower than the initial mesh is resolved by refinement."""
    pot = make_monotone_step(1.0, 100.0, width=width)
    xs = np.concatenate((np.linspace(-24.0, 24.0, 2001), np.linspace(-0.05, 0.05, 2001)))
    for coarse, fine in zip(
        solve_log_solution(pot, *WINDOW, tol=1e-10), solve_log_solution(pot, *WINDOW, tol=1e-12)
    ):
        assert np.max(np.abs(coarse.ell_prime_at(xs) - fine.ell_prime_at(xs))) < 1e-9


def _loop_sweep(r0, a, q, s, d):
    rs = [r0]
    for a_k, q_k, s_k, d_k in zip(a.tolist(), q.tolist(), s.tolist(), d.tolist()):
        rs.append((s_k + d_k * rs[-1]) / (a_k + q_k * rs[-1]))
    return np.array(rs)


@pytest.mark.parametrize("side", ["-", "+"])
@pytest.mark.parametrize(
    "cells",
    [fundamental._SWEEP_LEAF, fundamental._SWEEP_LEAF + 1, 2 * fundamental._SWEEP_LEAF + 1, 10_000],
)
def test_composed_sweep_matches_the_loop(cells, side):
    """Bitwise the loop up to the cutoff, within 64 ulps above it, across a run of theta = 20."""
    rng = np.random.default_rng(cells)
    v = rng.uniform(0.5, 5.0, size=(3, cells))
    h = rng.uniform(1e-3, 0.05, size=cells) / np.sqrt(v[1])
    run = slice(cells // 3, cells // 3 + 64)
    v[:, run] = 2.0
    h[run] = 20.0 / math.sqrt(2.0)
    cm1, P, Q, R = fundamental._magnus(v, h)
    if side == "-":
        args = (math.sqrt(v[1, 0]), 1.0 + cm1 + P, Q, R, 1.0 + cm1 - P)
    else:
        a, d = (1.0 + cm1 - P)[::-1], (1.0 + cm1 + P)[::-1]
        args = (-math.sqrt(v[1, -1]), a, -Q[::-1], -R[::-1], d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = fundamental._sweep(*args)
    ref = _loop_sweep(*args)
    if cells <= fundamental._SWEEP_LEAF:
        assert r.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(r - ref) / np.abs(ref)) <= 64 * np.finfo(float).eps


def test_magnus_step_is_sixth_order():
    """One cell's error in r falls like h^7 (a fourth-order step gives h^5)."""
    pot = make_example(cf.A, cf.B)
    x0 = 0.3
    hs = np.array([0.4, 0.2, 0.1])
    cm1, P, Q, R = _cell_maps(pot, np.full(hs.size, x0), hs)
    r0 = cf.ell_plus_prime_exact(x0)
    r1 = (R + (1.0 + cm1 - P) * r0) / (1.0 + cm1 + P + Q * r0)
    err = np.abs(r1 - cf.ell_plus_prime_exact(x0 + hs))
    assert np.all(err[:-1] / err[1:] > 2.0**6.5)


def test_mesh_cap_and_non_finite_potential_refused():
    with pytest.raises(SolverError, match="cells"):
        solve_log_solution(make_piecewise_constant([-1.0, 1.0], [1e6, 1.0, 1e6]), *WINDOW)
    base = make_constant(1.0)
    holey = type(base)(
        evaluate=lambda x: np.where(np.asarray(x) > 3.0, np.nan, 1.0),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    with pytest.raises(SolverError, match="non-finite"):
        solve_log_solution(holey, *WINDOW)


def test_infinite_potential_refused():
    holey = Potential(
        evaluate=lambda x: np.where(np.asarray(x) > 3.0, np.inf, 1.0),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    with pytest.raises(SolverError, match="non-finite"):
        solve_log_solution(holey, *WINDOW)


def test_constant_far_above_its_bound_refused_in_the_first_round():
    """V = 1e12 declared as [1, 1]: a flat run that would need more cells is not merged."""
    pot, points = counting(
        Potential(lambda x: np.full_like(np.asarray(x, dtype=float), 1e12), 1.0, 1.0)
    )
    with pytest.raises(SolverError):
        solve_log_solution(pot, *WINDOW)
    # h0 = 0.05 on [-25, 25]: 1000 initial cells, 9 samples each, no bisection.
    assert sum(points) <= 9 * 1000


def test_mesh_samples_are_read_in_blocks():
    """V is sampled at most _SAMPLE_BLOCK points per call, and every block is checked."""
    sizes = []

    def evaluate(x):
        sizes.append(np.size(x))
        # Only the second block reads a NaN.
        return np.full_like(np.asarray(x, dtype=float), np.nan if len(sizes) == 2 else 1.0)

    with pytest.raises(SolverError, match="non-finite"):
        solve_log_solution(Potential(evaluate, 1.0, 1.0), *WINDOW)
    # The first round: 1000 initial cells, 9 samples each, and no later round.
    assert sum(sizes) == 9 * 1000
    assert max(sizes) == fundamental._SAMPLE_BLOCK < 9 * 1000


def test_dense_reads_refuse_a_non_finite_potential_as_the_solve_does():
    """A NaN sliver between the solve's Gauss nodes is refused by the reads that sample it."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.where((0.3137 < x) & (x < 0.3147), np.nan, 1.0 + 0.5 * np.exp(-x * x))

    sides = solve_log_solution(Potential(evaluate, 1.0, 1.5), *WINDOW)
    xs = np.linspace(0.1137, 0.5137, 4001)
    for side in sides:
        with pytest.raises(SolverError, match="non-finite"):
            side._dense(xs)
        refused = 0
        for x in xs.tolist():
            try:
                r, l = side._dense(x)
            except SolverError:
                refused += 1
            else:
                assert math.isfinite(r) and math.isfinite(l)
        assert refused > 0


def test_a_point_read_whose_step_crosses_negative_v_is_refused():
    """V = -50 on a sliver between the solve's Gauss nodes: the solve never sees it, and
    a one-pin read whose partial step samples it is refused, naming x and V(x); an
    array read of the same points is refused alike."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.where((0.3137 < x) & (x < 0.3147), -50.0, 1.0 + 0.5 * np.exp(-x * x))

    sides = solve_log_solution(Potential(evaluate, 1.0, 1.5), *WINDOW)
    xs = np.linspace(0.30, 0.33, 301)
    message = r"V\(0\.31[34]\d*\) = -50 is below its declared lower bound 1"
    for side in sides:
        refused = 0
        for x in xs.tolist():
            try:
                r, l = side._dense(x)
            except SolverError as exc:
                assert re.search(message, str(exc)), exc
                refused += 1
            else:
                assert math.isfinite(r) and math.isfinite(l)
        assert refused > 0
        with pytest.raises(SolverError, match=message):
            side._dense(xs)


def test_reads_of_v_at_the_pin_refuse_a_non_finite_v(example_pair):
    """V NaN at exactly one pin, finite at every Gauss node: each read of V there raises."""
    pot, plus, minus = example_pair
    pin = 0.5
    curve = build_fcurve(plus, minus)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == pin, math.nan, pot.evaluate(x))

    bad = dataclasses.replace(pot, evaluate=evaluate)
    plus, minus = (dataclasses.replace(side, potential=bad) for side in (plus, minus))
    curve = dataclasses.replace(curve, potential=bad, phi_plus=plus, phi_minus=minus)
    reads = [
        lambda: curve.curvature_at(pin),
        lambda: curve.curvature_at(np.array([0.25, pin])),
        lambda: plus.ell_second_at(pin),
        lambda: minus.ell_second_at(pin),
        lambda: plus.ell_second_at(np.array([pin, 0.25])),
    ]
    for read in reads:
        with pytest.raises(SolverError, match="non-finite"):
            read()
    # The sides themselves read finite numbers at the pin.
    assert math.isfinite(curve.value_at(pin)) and math.isfinite(curve.curvature_at(0.25))


def test_finite_potential_above_its_bound_named_without_warnings():
    """Finite samples whose cell maps overflow are named as a dishonest upper bound."""
    far_above = Potential(
        evaluate=lambda x: np.full_like(np.asarray(x, dtype=float), 1e12),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    infinite = Potential(
        evaluate=lambda x: np.where(np.asarray(x) > 3.0, np.inf, 1.0),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="exceeds its declared upper bound 1"):
            solve_log_solution(far_above, *WINDOW)
        with pytest.raises(SolverError, match="non-finite"):
            solve_log_solution(infinite, *WINDOW)


def test_piecewise_constant_mesh_crosses_each_piece_in_few_cells():
    """The same mesh from the declared pieces and, without them, from samples of V."""
    declared = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
    for pot in (declared, dataclasses.replace(declared, piecewise_constant=False)):
        for sol in solve_log_solution(pot, -30.0, 30.0):
            mesh = sol._mesh
            assert {-1.0, 0.0, 1.0} <= set(mesh.tolist())
            assert np.array_equal(mesh, -mesh[::-1])
            assert mesh.size < 50
            h = np.diff(mesh)
            assert np.all(h * np.sqrt(pot.evaluate(mesh[:-1] + 0.5 * h)) <= 20.0)


def test_smooth_potential_keeps_the_initial_spacing():
    pot = make_example(1.0, 2.0)
    h0 = 0.05 / math.sqrt(pot.upper_bound)
    for sol in solve_log_solution(pot, *WINDOW):
        assert np.max(np.diff(sol._mesh)) <= h0 * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "pot",
    [
        make_example(1.0, 2.0),
        make_monotone_step(1.0, 300.0, width=0.2),
        make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]),
        dataclasses.replace(
            make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]), piecewise_constant=False
        ),
    ],
    ids=["example", "logistic-step", "pwc-well", "pwc-well-sampled"],
)
def test_both_sides_refine_to_the_same_mesh(pot, monkeypatch):
    """One refinement per pair: both sides share its mesh."""
    calls = spy(monkeypatch, (fundamental,), "_refine", lambda *args: 1)
    report = minimize(pot)
    extremal(report)
    assert len(calls) == 1
    assert report.phi_plus._mesh is report.phi_minus._mesh


def test_declared_pieces_are_read_at_the_segment_midpoints_only():
    """A piecewise-constant V of contrast 302 (five pieces, six segments on its window):
    V is read once per segment and at the two seeds, not at every initial cell."""
    pot = make_piecewise_constant(
        [-3.7755802158614706, -2.656024391697904, -1.049925191047997, 3.8060110803688323],
        [9.973667544907764, 0.7152951714500524, 216.08678005579335, 2.511426080821351,
         5.66518514493727],
    )
    window = default_window(pot)
    segments = len(fundamental._segment_edges(pot, *window)) - 1

    def points_and_mesh(p):
        counted, sizes = counting(p)
        plus, _ = solve_log_solution(counted, *window)
        return sum(sizes), plus._mesh.size

    points, nodes = points_and_mesh(pot)
    assert segments == 6 and points <= segments + 2 and nodes == 15
    assert points_and_mesh(dataclasses.replace(pot, piecewise_constant=False)) == (156_458, 15)


@pytest.mark.parametrize(
    "base",
    [make_constant(2.0), make_piecewise_constant([-6, -5, 5, 6], [4, 1, 4, 1, 4])],
    ids=["constant", "double_well"],
)
def test_declared_pieces_are_read_without_sampling_v(base):
    """Off-mesh reads step each partial cell at its declared piece: no V is sampled but
    at a pin, and every read is bitwise the read of a twin pair that samples V."""
    points = []
    recorded = dataclasses.replace(
        base, evaluate=lambda x: points.append(np.array(x)) or base.evaluate(x)
    )
    pot, sizes = counting(recorded)
    plus, minus = solve_log_solution(pot, *default_window(pot))
    sampled = dataclasses.replace(base, piecewise_constant=False)
    twin = [
        LogSolution(s.side, s.window, s.tol, sampled, s._mesh, s._r, s._l) for s in (plus, minus)
    ]
    mesh = plus._mesh
    pins = np.concatenate(([-6.0, -5.5, -5.0, -0.7, 0.0, 0.3, 5.0, 5.25, 6.0], mesh[abs(mesh) < 7]))

    def reads(p, m):
        curve, green, u = build_fcurve(p, m), build_green(p, m), extremal_function(p, m, 0.3)
        out = []
        for x in (pins, *pins.tolist()):
            out += [curve.value_at(x), curve.slope_at(x), u(x)]
            out += [green.value(x, 0.3), green.value(0.3, x)]
            out += [side.phi_at(x) for side in (p, m)] + [side.ell_at(x) for side in (p, m)]
        return [np.asarray(v).tobytes() for v in out], curve

    sizes.clear()
    declared, curve = reads(plus, minus)
    assert sizes == []
    expected, twin_curve = reads(*twin)
    assert declared == expected
    for a in pins.tolist():
        sizes.clear(), points.clear()
        assert curve.curvature_at(a).hex() == twin_curve.curvature_at(a).hex()
        assert sizes == [1] and points[0].tolist() == [a]


def test_the_solve_reads_each_piece_from_v():
    """The barrier's V under the well's declaration solves as the barrier, bit for bit:
    the declaration says only that V is constant between its breakpoints."""
    barrier = make_piecewise_constant([-1.0, 1.0], [1.0, 4.0, 1.0])
    pot = dataclasses.replace(
        make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]),
        evaluate=barrier.evaluate,
        tail_limits=(1.0, 1.0),
    )
    exact = cf.pwc_exact([-1.0, 1.0], [1.0, 4.0, 1.0])
    report, twin = minimize(pot), minimize(barrier)
    assert abs(report.m_value - exact.m) <= 1e-10 * exact.m
    assert (report.attainment, report.a_star) == (exact.attainment, exact.a_star)
    assert (report.m_value.hex(), report.a_star) == (twin.m_value.hex(), twin.a_star)
    for ours, theirs in ((report.phi_plus, twin.phi_plus), (report.phi_minus, twin.phi_minus)):
        for name in ("_mesh", "_r", "_l"):
            assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()


def test_declared_pieces_that_v_contradicts_at_a_midpoint_are_refused():
    well = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
    # A NaN at the midpoint of [0, 1] is no constant piece.
    holed = dataclasses.replace(
        well, evaluate=lambda x: np.where(np.asarray(x) == 0.5, np.nan, well.evaluate(x))
    )
    with pytest.raises(SolverError, match=r"non-finite value, V\(0.5\) = nan"):
        solve_log_solution(holed, *WINDOW)


def test_undeclared_bump_blocks_the_merge():
    lo, hi = 0.3137, 0.3337
    declared = make_piecewise_constant([lo, hi], [1.0, 3.0, 1.0])
    bump = Potential(evaluate=declared.evaluate, lower_bound=1.0, upper_bound=3.0)
    h0 = 0.05 / math.sqrt(3.0)
    mesh = solve_log_solution(bump, *WINDOW)[0]._mesh
    crossing = (mesh[1:] > lo) & (mesh[:-1] < hi)
    assert np.all(np.diff(mesh)[crossing] <= h0 * (1.0 + 1e-12))
    assert abs(minimize(bump).m_value - minimize(declared).m_value) <= 1e-8


def _narrow_well(center: float, w: float) -> Potential:
    """V = 100 - 99 exp(-(x - center)^2 / (2 w^2)), declared [1, 100]."""
    return Potential(
        evaluate=lambda x: 100.0 - 99.0 * np.exp(-((np.asarray(x) - center) ** 2) / (2 * w * w)),
        lower_bound=1.0,
        upper_bound=100.0,
    )


def test_narrow_deep_well_keeps_its_minimum():
    """A well narrower than every initial cell is found, although V = 100 around it."""
    report = minimize(_narrow_well(0.3137, 1e-4))
    assert report.m_value == pytest.approx(19.975223916161923, rel=1e-12)
    assert report.attainment == "attained"


def test_a_curve_no_node_decides_is_flat_only_where_the_declaration_says_so():
    """F lies in [2 sqrt(v0), 2 sqrt(v1)]: a well of width 1e-5 that no node sees is
    refused under bounds [1, 100], dilated or not, and pieces of one value make F flat
    whatever the bounds.  The declared range of F is held to the floor of F, which
    dilates like F, not to the floor of F', which dilates like F sqrt(v1)."""
    report = minimize(_narrow_well(0.3137, 1e-5))
    assert report.m_value == pytest.approx(19.99751883465477, rel=1e-12)
    assert report.attainment == "attained"
    with pytest.raises(SolverError, match=r"noise floor 2e-06 .* bounds \[1, 100\]"):
        minimize(_narrow_well(1.2345, 1e-5))
    with pytest.raises(SolverError, match="do not make F flat"):
        minimize(dilated(_narrow_well(1.2345, 1e-5), 1e-3), tol=1e-6)
    loose = dataclasses.replace(make_constant(2.0), lower_bound=1.0, upper_bound=4.0)
    report = minimize(loose)
    assert (report.attainment, report.m_value) == ("flat", 2.0 * math.sqrt(2.0))


@pytest.mark.parametrize("v, tol", [(1.0, 1e-10), (0.01, 1e-10), (1.0, 1e-12)])
def test_a_table_of_equal_samples_declares_one_value_and_is_flat(v, tol):
    """The spline of equal samples is that value bit for bit, so its bounds are exact
    and prove F flat at any v and tol."""
    table = potential_from_spec({"kind": "table", "x": [-2, -1, 0, 1, 2], "v": [v] * 5})
    assert table.lower_bound == table.upper_bound == v
    assert minimize(table, tol=tol).attainment == "flat"


@pytest.mark.parametrize("pins", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_nan_pins_refused(example_pair, pins):
    _, plus, minus = example_pair
    curve = build_fcurve(plus, minus)
    green = build_green(plus, minus)
    u = extremal_function(plus, minus, 0.0)
    reads = [
        lambda: curve.value_at(pins),
        lambda: curve.slope_at(pins),
        lambda: plus.phi_at(pins),
        lambda: minus.ell_prime_at(pins),
        lambda: green.value(pins, 0.0),
        lambda: green.value(0.0, pins),
        lambda: u(pins),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="outside"):
            read()


# One family of each kind, all solved on WINDOW (v0 >= 1 keeps the decay margin).
DENSE_FAMILIES = {
    "example": lambda: make_example(1.0, 2.0),
    "logistic": lambda: make_monotone_step(1.0, 30.0, width=0.5, center=0.3),
    "piecewise": lambda: make_piecewise_constant([-1.0, 0.5, 2.0], [4.0, 1.0, 9.0, 2.0]),
    "constant": lambda: make_constant(3.0),
    "table": lambda: potential_from_spec(
        {"kind": "table", "x": np.linspace(-3.0, 3.0, 13).tolist(),
         "v": (2.0 + np.sin(np.linspace(-3.0, 3.0, 13))).tolist()}
    ),
}


@pytest.fixture(scope="module")
def dense_sides():
    sides = {}
    for name, make in DENSE_FAMILIES.items():
        pot = make()
        sides[name, "+"], sides[name, "-"] = solve_log_solution(pot, *WINDOW)
    return sides


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("family", sorted(DENSE_FAMILIES))
@settings(max_examples=25, deadline=None, database=None)
@given(
    free=st.lists(st.floats(*WINDOW), max_size=20),
    nodes=st.lists(st.tuples(st.integers(0, 2**31), st.sampled_from([-1, 0, 1])), max_size=10),
)
def test_one_point_reads_match_array_reads_bitwise(dense_sides, family, side, free, nodes):
    """A scalar read takes the float path and returns element i of the array read, bit for bit."""
    sol = dense_sides[family, side]
    mesh = sol._mesh
    # Mesh nodes and their floating-point neighbours, clipped to the window.
    at_nodes = [np.nextafter(mesh[i % mesh.size], math.inf * d) if d else mesh[i % mesh.size]
                for i, d in nodes]
    xs = np.clip(
        np.array([*WINDOW, 0.0, -0.0, *sol.potential.breakpoints, *free, *at_nodes]), *WINDOW
    )
    r, l = sol._dense(xs)
    for i, x in enumerate(xs.tolist()):
        r_i, l_i = sol._dense(x)
        assert type(r_i) is type(l_i) is float
        assert np.float64(r_i).tobytes() == r[i].tobytes()
        assert np.float64(l_i).tobytes() == l[i].tobytes()
    eps = 1e-12 * (1.0 + 2.0 * WINDOW[1])
    for x in (WINDOW[0] - 2.0 * eps, WINDOW[1] + 2.0 * eps):
        with pytest.raises(ValueError) as one:
            sol._dense(x)
        with pytest.raises(ValueError) as many:
            sol._dense(np.array([0.0, x]))
        assert str(one.value) == str(many.value)


# One spec of each kind; each pair is solved on its default window.
FLOAT_PATH_SPECS = {
    "example": {"kind": "example", "A": 1, "B": 2},
    "step": {"kind": "step", "v0": 1, "v1": 4},
    "pwc": {"kind": "piecewise_constant", "edges": [-1, 1], "values": [1, 5, 1]},
    "table": {"kind": "table", "x": np.linspace(-3.0, 3.0, 13).tolist(),
              "v": (2.0 + np.sin(np.linspace(-3.0, 3.0, 13))).tolist()},
    "constant": {"kind": "constant", "v": 2},
}


@pytest.fixture(scope="module")
def float_path_readers():
    readers = {}
    for name, spec in FLOAT_PATH_SPECS.items():
        pot = potential_from_spec(spec)
        plus, minus = solve_log_solution(pot, *default_window(pot))
        curve = build_fcurve(plus, minus)
        readers[name] = (
            curve, build_green(plus, minus), extremal_function(plus, minus, 0.5), plus, minus
        )
    return readers


def _assert_float_is_element(one, many, i):
    assert type(one) is float
    assert np.float64(one).tobytes() == many[i].tobytes()


@pytest.mark.parametrize("family", sorted(FLOAT_PATH_SPECS))
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_every_one_pin_reader_returns_a_float_equal_to_its_array_element(
    float_path_readers, family, data
):
    """Each reader at one pin gives a Python float, bitwise element i of the array read.

    A pin may come as a Python float, an np.float64 (an element of
    ``np.linspace``) or a 0-d array; all three give the same bits.
    """
    curve, green, u, plus, minus = float_path_readers[family]
    pins = st.floats(*curve.window)
    xs = data.draw(st.lists(pins, min_size=1, max_size=12))
    xs = np.array([*xs, 0.0, u.center, *curve.potential.breakpoints])
    # The last pins sit on the diagonal x = y, where the rate switches sides.
    ys = np.array(data.draw(st.lists(pins, min_size=xs.size, max_size=xs.size)))
    ys[-3:] = xs[-3:]
    pin_readers = [curve.value_at, curve.slope_at, curve.curvature_at, curve.log_phi_sum,
                   lambda a: curve.product_criterion("+", a),
                   lambda a: curve.product_criterion("-", a),
                   u, u.log_value, u.derivative]
    for side in (plus, minus):
        pin_readers += [side.ell_at, side.ell_prime_at, side.ell_second_at]
    pin_types = (float, np.float64, np.array)
    for read in pin_readers:
        many = read(xs)
        for i, x in enumerate(xs.tolist()):
            for pin in pin_types:
                _assert_float_is_element(read(pin(x)), many, i)
    for read in (green.value, green.log_value, green.section_derivative):
        many = read(xs, ys)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            for pin in pin_types:
                _assert_float_is_element(read(pin(x), pin(y)), many, i)
    # phi_at takes math.exp for one pin (the scan artifacts' rounding) and
    # np.exp for an array, which may round the other way by one ulp.
    for side in (plus, minus):
        many, logs = side.phi_at(xs), side.ell_at(xs)
        for i, x in enumerate(xs.tolist()):
            one = side.phi_at(x)
            assert type(one) is float and one == math.exp(logs[i])
            assert abs(one - many[i]) <= np.spacing(many[i])
            for pin in pin_types[1:]:
                other = side.phi_at(pin(x))
                assert type(other) is float and other.hex() == one.hex()


@pytest.mark.parametrize("family", ["example", "pwc", "table"])
def test_pair_reads_reads_each_side_once_at_its_own_points(float_path_readers, family, monkeypatch):
    """Two points: one ``_dense_one`` call, floats and a bool, each bitwise its array element.

    An array x with a point y: each side's ``_dense`` receives only the x on
    its own side of y, and y is read once, by one ``_dense_one`` call.
    """
    curve, _, _, plus, minus = float_path_readers[family]
    y = 0.5
    xs = np.array([*curve.window, -1.3, 0.0, y, np.nextafter(y, -1.0), np.nextafter(y, 1.0), 2.2])
    many, left_many = _pair_reads(plus, minus, xs, np.full_like(xs, y), True)
    arrays = spy(
        monkeypatch, (LogSolution,), "_dense",
        lambda self, x: (self.side, np.array(x, dtype=float).tolist()),
    )
    one_pin = spy(
        monkeypatch, (fundamental,), "_dense_one",
        lambda reads, pin=None: ([(sol.side, x) for sol, x in reads], pin),
    )
    for i, x in enumerate(xs.tolist()):
        arrays.clear()
        one_pin.clear()
        reads, left = _pair_reads(plus, minus, x, y, True)
        assert type(left) is bool and left == left_many[i]
        assert arrays == []
        assert one_pin == [([("-", min(x, y)), ("+", max(x, y))], x)]
        for one, col in zip(reads, many):
            _assert_float_is_element(one, col, i)
    arrays.clear()
    one_pin.clear()
    at_point, left = _pair_reads(plus, minus, xs, y)
    assert left.tolist() == left_many.tolist()
    assert sorted(arrays) == [("+", xs[xs >= y].tolist()), ("-", xs[xs < y].tolist())]
    assert one_pin == [([("-", y), ("+", y)], None)]
    for one, col in zip(at_point[:4], many[:4]):
        assert one.tobytes() == col.tobytes()


def test_scalar_reads_take_the_float_path(monkeypatch):
    """With the array path's cell maps disabled, every scalar read still returns."""
    report = minimize(make_example(1.0, 2.0))
    u = extremal(report)
    green = build_green(report.phi_plus, report.phi_minus)

    def refuse(*args):
        raise AssertionError("array path taken for a scalar read")

    monkeypatch.setattr(fundamental, "_cell_maps", refuse)
    a = report.a_star
    assert report.curve.value_at(a) == pytest.approx(report.m_value, rel=1e-12)
    assert math.isfinite(report.phi_plus.phi_at(0.3))
    assert math.isfinite(green.value(0.3, -0.2))
    assert u(a) == 1.0
    with pytest.raises(AssertionError, match="array path"):
        report.phi_plus.phi_at(np.array([0.3]))


def _envelope_by_extremal_reads(plus, minus) -> dict:
    """check_envelope_bounds' violations with each u_a read by its own ``_reads`` pass."""
    pot = plus.potential
    v0, v1 = pot.lower_bound, pot.upper_bound
    s0, s1 = math.sqrt(v0), math.sqrt(v1)
    lo, hi = fundamental._curve_window(pot, plus.window)
    r = min(abs(lo), hi)
    worst = {}

    def record(name, violation):
        v = float(np.max(violation)) if np.size(violation) else 0.0
        worst[name] = max(worst.get(name, 0.0), v)

    x = fundamental._sample_grid(plus)
    _, lp = plus._dense(x)
    record("phi_plus_upper", lp - (0.5 * math.log(v1 / v0) - np.minimum(s0 * x, s1 * x)))
    record("phi_plus_lower", (0.5 * math.log(v0 / v1) - np.maximum(s0 * x, s1 * x)) - lp)
    _, lm = minus._dense(x)
    record("phi_minus_upper", lm - (0.5 * math.log(v1 / v0) + np.maximum(s0 * x, s1 * x)))
    record("phi_minus_lower", (0.5 * math.log(v0 / v1) + np.minimum(s0 * x, s1 * x)) - lm)
    for a in (-0.5 * r, 0.0, 0.5 * r):
        xs = x[np.abs(x - a) > 1e-9]
        logu, rate = extremal_function(plus, minus, a)._reads(xs)
        d = np.abs(xs - a)
        record("pinned_upper", logu - (-s0 * d))
        record("pinned_lower", (-s1 * d) - logu)
        if np.any(np.sign(a - xs) * rate <= 0.0):
            record("pinned_slope_sign", 1.0)
        logd = logu + np.log(np.abs(rate))
        record("pinned_slope_upper", logd - (math.log(v1 / s0) - s0 * d))
        record("pinned_slope_lower", (math.log(v0 / s1) - s1 * d) - logd)
    return worst


ENVELOPE_SPECS = {
    **FLOAT_PATH_SPECS,
    "well-1e4": {"kind": "piecewise_constant", "edges": [-1, 1], "values": [1e4, 1, 1e4]},
}


@pytest.mark.parametrize("family", list(ENVELOPE_SPECS))
def test_envelope_check_reads_each_side_once(family, monkeypatch):
    """Two array reads give the violations of one ``_reads`` pass per center, bit for bit."""
    pot = potential_from_spec(ENVELOPE_SPECS[family])
    plus, minus = solve_log_solution(pot, *default_window(pot))
    expected = _envelope_by_extremal_reads(plus, minus)
    arrays = spy(
        monkeypatch, (LogSolution,), "_dense",
        lambda self, x: [] if fundamental._is_point(x) else [self.side],
    )
    report = check_envelope_bounds(plus, minus)
    assert report.violations == expected
    assert sorted(side for call in arrays for side in call) == ["+", "-"]


def test_envelope_check_reads_its_three_centers_in_one_call(monkeypatch):
    """Both sides at the three centers in one ``_dense_one`` call, V once at 18 nodes."""
    pot, evaluated = counting(make_example(cf.A, cf.B))
    plus, minus = solve_log_solution(pot, *default_window(pot))
    one_pin = spy(
        monkeypatch, (fundamental,), "_dense_one",
        lambda reads, pin=None: [solution.side for solution, _ in reads],
    )

    def built(self):
        raise AssertionError("the envelope check built an ExtremalFunction")

    monkeypatch.setattr(fundamental.ExtremalFunction, "__post_init__", built)
    evaluated.clear()
    assert check_envelope_bounds(plus, minus).passed
    assert one_pin == [["+", "-"] * 3]
    grid = fundamental._sample_grid(plus)
    assert evaluated[-1] == 18 and sum(evaluated[:-1]) == 2 * 3 * grid.size


# The first refinement round runs in blocks of _SAMPLE_BLOCK // 3 initial cells.
# Besides the dense families: a sharp step, whose first round bisects cells, and
# a deep well, whose flat runs cross many blocks.
BLOCK_FAMILIES = {
    **DENSE_FAMILIES,
    "logistic-1-300": lambda: make_monotone_step(1.0, 300.0, width=0.2),
    "well-1e4": lambda: make_piecewise_constant([-1.0, 1.0], [1e4, 1.0, 1e4]),
}


def _undeclared(make):
    return lambda: dataclasses.replace(make(), piecewise_constant=False)


# Declared pieces skip the sampled first round; their undeclared twins keep it under test.
BLOCK_FAMILIES |= {
    f"{n}-sampled": _undeclared(BLOCK_FAMILIES[n]) for n in ("piecewise", "constant", "well-1e4")
}


@pytest.mark.parametrize("family", list(BLOCK_FAMILIES))
def test_first_round_blocks_leave_every_bit(family, monkeypatch):
    """Blocks of four cells, of the default size and over the whole mesh give one mesh, r and l."""
    pot = BLOCK_FAMILIES[family]()
    solved = []
    for block in (12, fundamental._SAMPLE_BLOCK, 1 << 40):
        monkeypatch.setattr(fundamental, "_SAMPLE_BLOCK", block)
        solved.append(solve_log_solution(pot, *WINDOW))
    for pair in solved[1:]:
        for side, first in zip(pair, solved[0]):
            for name in ("_mesh", "_r", "_l"):
                assert getattr(side, name).tobytes() == getattr(first, name).tobytes()


def _assert_solved_as_undeclared(pot):
    """Declared pieces give the mesh, r and l that sampling V gives, bit for bit."""
    window = default_window(pot)
    sampled = solve_log_solution(dataclasses.replace(pot, piecewise_constant=False), *window)
    for side, twin in zip(solve_log_solution(pot, *window), sampled):
        for name in ("_mesh", "_r", "_l"):
            assert getattr(side, name).tobytes() == getattr(twin, name).tobytes()


DECLARED_FAMILIES = {
    "constant-1e-4": lambda: make_constant(1e-4),
    "constant-1": lambda: make_constant(1.0),
    "constant-4e4": lambda: make_constant(4e4),
    **{name: BLOCK_FAMILIES[name] for name in ("piecewise", "constant", "well-1e4")},
}


@pytest.mark.parametrize("family", list(DECLARED_FAMILIES))
def test_declared_pieces_lay_the_mesh_that_sampling_refines(family):
    _assert_solved_as_undeclared(DECLARED_FAMILIES[family]())


def test_declared_random_steps_lay_the_mesh_that_sampling_refines():
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        _assert_solved_as_undeclared(random_piecewise_constant(rng))


def test_declared_pieces_take_no_step_doubling(monkeypatch):
    """One-cell segments get their piece's exact map; an oversized mesh is refused unread."""
    doubled = spy(monkeypatch, (fundamental,), "_double", lambda pot, lo, *rest: lo.size)
    for pot in (
        make_piecewise_constant([0.3137, 0.3147], [1.0, 4.0, 1.0]),
        make_piecewise_constant([0.3137, 0.3147], [4.0, 1.0, 4.0]),
        make_constant(2.0),
    ):
        solve_log_solution(pot, *default_window(pot))
    assert doubled == []
    wall, evaluated = counting(make_piecewise_constant([-1.0, 1.0], [1e6, 1.0, 1e6]))
    with pytest.raises(SolverError, match="cells"):
        solve_log_solution(wall, *WINDOW)
    assert evaluated == [] and doubled == []


def test_a_non_finite_sample_is_named_before_an_earlier_block_overflows(monkeypatch):
    """Every block is sampled before any map is built, so a NaN right of x = 10 is
    refused as non-finite although the maps left of x = -10 overflow first."""
    monkeypatch.setattr(fundamental, "_SAMPLE_BLOCK", 12)

    def potential(nan: bool) -> Potential:
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < -10.0, 1e300, np.where((x > 10.0) & nan, np.nan, 1.0))

        return Potential(evaluate, 1.0, 1.0)

    with pytest.raises(SolverError, match="exceeds its declared upper bound"):
        solve_log_solution(potential(nan=False), *WINDOW)
    with pytest.raises(SolverError, match="non-finite"):
        solve_log_solution(potential(nan=True), *WINDOW)
