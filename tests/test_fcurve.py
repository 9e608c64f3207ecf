import math
from types import SimpleNamespace

import numpy as np
import pytest

import _closed_forms as cf
from sobolev1d import (
    Potential,
    build_green,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
)
from sobolev1d import fundamental
from sobolev1d.fcurve import (
    CONDITION_TOL,
    DIFFERENCE_STEP,
    _polish_root,
    build_fcurve,
    check_minimality_equivalence,
    find_critical_points,
)
from sobolev1d.fundamental import (
    LogSolution,
    SolverError,
    _pair_reads,
    extremal_function,
    solve_log_solution,
)
from sobolev1d.minimizer import default_window
from sobolev1d.window import _segment_edges
from conftest import counting, gaussian_well_table, spy

WINDOW = (-25.0, 25.0)


@pytest.fixture(scope="module")
def example_curve():
    pot = make_example(cf.A, cf.B)
    plus, minus = solve_log_solution(pot, *WINDOW)
    return pot, build_fcurve(plus, minus)


def test_values_against_closed_form(example_curve):
    _, curve = example_curve
    assert curve.value_at(0.0) == pytest.approx(cf.F_AT_0, abs=1e-10)
    assert curve.slope_at(0.0) == pytest.approx(cf.DF_AT_0, abs=1e-9)
    assert curve.wronskian == pytest.approx(cf.W_EXACT, abs=1e-10)
    xs = np.linspace(-8, 8, 401)
    assert np.max(np.abs(curve.value_at(xs) - cf.f_exact(xs))) < 1e-9
    assert np.all(curve.value_at(curve.grid) > 0.0)


def test_wronskian_constancy(example_curve):
    _, curve = example_curve
    assert curve.wronskian_drift() < 1e-8


def test_wronskian_drift_reads_each_side_once_on_the_grid(example_curve, monkeypatch):
    """The drift reads each side once, at the grid, and equals the formula on separate reads."""
    _, curve = example_curve
    log_w = (
        np.log(curve.value_at(curve.grid))
        + curve.phi_plus.ell_at(curve.grid)
        + curve.phi_minus.ell_at(curve.grid)
    )
    expected = float(np.max(np.abs(np.expm1(log_w - math.log(curve.wronskian)))))
    sides = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: (self.side, np.size(x)))
    assert curve.wronskian_drift() == expected
    assert sorted(sides) == [("+", curve.grid.size), ("-", curve.grid.size)]


def test_slope_identity_both_products(example_curve):
    """F' = -F^2 (P+ + 1) = -F^2 (P- - 1) where P_s = 2 r_s / F."""
    _, curve = example_curve
    xs = np.linspace(-6, 6, 301)
    f = curve.value_at(xs)
    lhs = curve.slope_at(xs)
    scale = np.maximum(1.0, np.abs(lhs))
    rhs_plus = -f * f * (curve.product_criterion("+", xs) + 1.0)
    rhs_minus = -f * f * (curve.product_criterion("-", xs) - 1.0)
    assert np.max(np.abs(lhs - rhs_plus) / scale) < 1e-8
    assert np.max(np.abs(lhs - rhs_minus) / scale) < 1e-8


def test_curvature_identity_cross_terms(example_curve):
    """F'' = -2F' l-' - 2F l+'' and its mirror image both reproduce F''."""
    pot, curve = example_curve
    xs = np.linspace(-6, 6, 301)
    f = curve.value_at(xs)
    df = curve.slope_at(xs)
    d2f = curve.curvature_at(xs)
    pairs = (
        (curve.phi_minus, curve.phi_plus),
        (curve.phi_plus, curve.phi_minus),
    )
    for rate_sol, curv_sol in pairs:
        rhs = -2.0 * df * rate_sol.ell_prime_at(xs) - 2.0 * f * curv_sol.ell_second_at(xs)
        assert np.max(np.abs(d2f - rhs) / np.maximum(1.0, np.abs(d2f))) < 1e-6


def test_derivatives_match_finite_differences(example_curve):
    _, curve = example_curve
    xs = np.linspace(-4, 4, 33)
    gaps_slope = []
    gaps_curv = []
    for h in (0.02, 0.01, 0.005):
        fd1 = (curve.value_at(xs + h) - curve.value_at(xs - h)) / (2 * h)
        fd2 = (
            curve.value_at(xs + h) - 2 * curve.value_at(xs) + curve.value_at(xs - h)
        ) / h**2
        gaps_slope.append(np.max(np.abs(fd1 - curve.slope_at(xs))))
        gaps_curv.append(np.max(np.abs(fd2 - curve.curvature_at(xs))))
    # second-order convergence: each halving divides the gap by about 4
    for gaps in (gaps_slope, gaps_curv):
        assert gaps[1] < gaps[0] / 3.0
        assert gaps[2] < gaps[1] / 3.0


def test_critical_points_example(example_curve):
    pot, curve = example_curve
    scan = find_critical_points(curve)
    assert not scan.flat
    assert len(scan.points) == 1
    assert len(scan.rejected) == 1
    best = scan.points[0]
    assert best.location == pytest.approx(cf.A1_EXACT, abs=1e-9)
    assert best.value == pytest.approx(cf.M_EXACT, abs=1e-9)
    assert best.curvature > 0.0
    worst = scan.rejected[0]
    assert worst.location == pytest.approx(cf.A2_EXACT, abs=1e-6)
    assert worst.curvature < 0.0
    assert curve.phi_plus.ell_second_at(worst.location) > 0.0  # phi_+ is not log-concave there


def test_flat_curve_constant():
    pot = make_constant(2.25)
    plus, minus = solve_log_solution(pot, *WINDOW)
    curve = build_fcurve(plus, minus)
    assert np.max(np.abs(curve.value_at(curve.grid) - 3.0)) < 1e-10
    scan = find_critical_points(curve)
    assert scan.flat
    assert len(scan.points) == 1  # representative point only
    assert scan.points[0].value == pytest.approx(3.0, abs=1e-10)


def test_monotone_step_has_no_roots():
    pot = make_monotone_step(1.0, 4.0)
    plus, minus = solve_log_solution(pot, *WINDOW)
    curve = build_fcurve(plus, minus)
    scan = find_critical_points(curve)
    assert not scan.flat
    assert scan.points == [] and scan.rejected == []
    assert np.all(np.diff(curve.value_at(curve.grid)) > 0.0)


def test_product_criterion_closed_form(example_curve):
    _, curve = example_curve
    xs = np.linspace(-5, 5, 201)
    plus = curve.product_criterion("+", xs)
    minus = curve.product_criterion("-", xs)
    assert np.max(np.abs(plus - cf.plus_product_exact(xs))) < 1e-8
    assert np.max(np.abs(minus - cf.minus_product_exact(xs))) < 1e-8
    with pytest.raises(ValueError):
        curve.product_criterion("x", 0.0)


def test_equivalence_example(example_curve):
    """F' and F'' match the differences of F across the example, both roots included."""
    pot, curve = example_curve
    samples = np.concatenate(
        [np.linspace(-6, 6, 120), [cf.A1_EXACT, 0.0, cf.A2_EXACT]]
    )
    report = check_minimality_equivalence(curve, samples)
    assert report.locations.tolist() == samples.tolist()  # no window edge or breakpoint near
    assert report.n_disagree == 0, report.locations[report.curvature_gap > CONDITION_TOL]
    assert np.max(report.slope_gap) < 1e-9 and np.max(report.curvature_gap) < 1e-7


def test_equivalence_flags_a2_as_non_minimum(example_curve):
    """At a2 the differences of F confirm F'' < 0, by far more than the check's tolerance."""
    pot, curve = example_curve
    report = check_minimality_equivalence(curve, [cf.A2_EXACT])
    assert report.n_disagree == 0
    f, d2f = curve.value_at(cf.A2_EXACT), curve.curvature_at(cf.A2_EXACT)
    assert d2f < -1e3 * CONDITION_TOL * f * pot.upper_bound


def _sine_potential():
    """2 + sin 3x: many equal wells and no declared tail limits."""
    return Potential(
        evaluate=lambda x: 2.0 + np.sin(3.0 * np.asarray(x, dtype=float)),
        lower_bound=1.0,
        upper_bound=3.0,
        label="2 + sin 3x",
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_example(1.0, 2.0),
        lambda: make_piecewise_constant([-6.0, -5.0, 5.0, 6.0], [4.0, 1.0, 4.0, 1.0, 4.0]),
        _sine_potential,
    ],
    ids=["example", "double-well", "sine"],
)
def test_critical_points_read_as_the_equivalence_check_and_the_pin_readers(make):
    """The check passes at every root; each point's reads are the one-pin reads."""
    report = minimize(make())
    curve = report.curve
    points = report.critical_points + report.rejected_candidates
    assert len(points) >= 2
    eq = check_minimality_equivalence(curve, [p.location for p in points])
    assert eq.locations.tolist() == [p.location for p in points]
    assert eq.n_disagree == 0
    for p in points:
        a = p.location
        assert p.value.hex() == curve.value_at(a).hex()
        assert p.curvature.hex() == curve.curvature_at(a).hex()
        assert p.slope_residual.hex() == abs(curve.slope_at(a)).hex()


def test_curve_grid_holds_zero_and_breakpoints():
    pot = make_piecewise_constant([-6.0, -5.0, 5.0, 6.0], [4.0, 1.0, 4.0, 1.0, 4.0])
    # On the first window no uniform sample lands on 0 or on a breakpoint; on the
    # second the lattice falls on all five, and each is held once.
    for window in ((-24.9, 25.3), (-25.0, 25.0)):
        plus, minus = solve_log_solution(pot, *window)
        curve = build_fcurve(plus, minus)
        lo, hi = curve.window
        assert curve.grid[0] >= lo and curve.grid[-1] <= hi
        for x in (0.0, *pot.breakpoints):
            assert x in curve.grid
        spacing = 0.025 / math.sqrt(pot.lower_bound)
        assert np.max(np.diff(curve.grid)) <= spacing * (1.0 + 1e-9)
        # No two points closer than the grid's 1e-12 of the window, none lost.
        tol = 1e-12 * (window[1] - window[0])
        assert np.min(np.diff(curve.grid)) > tol
        for x in _segment_edges(pot, *window):
            if lo <= x <= hi:
                assert np.min(np.abs(curve.grid - x)) <= tol


def test_out_of_window_queries_raise(example_curve):
    _, curve = example_curve
    with pytest.raises(ValueError):
        curve.value_at(WINDOW[1])  # outside the inset curve window


class _ArctanSlope:
    """F' = atan(x - root): plain Newton diverges from |x - root| > 1.4."""

    potential = SimpleNamespace(upper_bound=1.0)

    def __init__(self, root, flat=False):
        self.root, self.flat = root, flat

    def slope_at(self, x):
        return math.atan(x - self.root)

    def curvature_at(self, x):
        return 0.0 if self.flat else 1.0 / (1.0 + (x - self.root) ** 2)

    def _reads(self, x):
        return SimpleNamespace(slope=self.slope_at(x), curvature=self.curvature_at(x))


@pytest.mark.parametrize("flat", [False, True])
def test_root_polish_falls_back_to_bisection(flat):
    curve = _ArctanSlope(0.3, flat)
    root = _polish_root(curve, -20.0, 40.0, curve.slope_at(-20.0))
    assert abs(root - 0.3) <= 1e-12


def test_root_polish_refuses_a_bracket_it_cannot_halve_to_the_root_tolerance():
    """With F'' = 0 every step bisects, and [-1e20, 1e20] needs more than 100 halvings."""
    curve = _ArctanSlope(0.3, flat=True)
    with pytest.raises(SolverError, match="root polish of F' did not converge in"):
        _polish_root(curve, -1e20, 1e20, curve.slope_at(-1e20))


def _scalar_rows(curve, samples):
    """The check's two gaps at each sample from its own one-pin reads."""
    v1 = curve.potential.upper_bound
    h = DIFFERENCE_STEP / math.sqrt(v1)
    rows = []
    for a in map(float, samples):
        fm2, fm1, fp1, fp2 = (curve.value_at(a + o) for o in (-2.0 * h, -h, h, 2.0 * h))
        f = curve.value_at(a)
        d1 = (fm2 - fp2 + 8.0 * (fp1 - fm1)) / (12.0 * h)
        d2 = (16.0 * (fm1 + fp1) - (fm2 + fp2) - 30.0 * f) / (12.0 * h * h)
        rows.append(
            (
                a,
                abs(curve.slope_at(a) - d1) / (f * math.sqrt(v1)),
                abs(curve.curvature_at(a) - d2) / (f * v1),
            )
        )
    return rows


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_example(1.0, 2.0),
        lambda: make_constant(1.0),
        # Flat tails: F' and F'' sit near roundoff over most samples.
        lambda: make_monotone_step(1.0, 4.0),
        gaussian_well_table,
        # example(1, 2) dilated by 1e4: the gaps' scales v1 and sqrt(v1) are below 1.
        lambda: make_example(1e4, 2e-4),
    ],
    ids=["example", "constant", "step", "gaussian-table", "small-example"],
)
def test_equivalence_matches_scalar_reads(make):
    curve = minimize(make()).curve
    step = max(1, curve.grid.size // 200)
    samples = curve.grid[::step]
    report = check_minimality_equivalence(curve)
    h = DIFFERENCE_STEP / math.sqrt(curve.potential.upper_bound)
    lo, hi = curve.window
    kept = [
        a
        for a in samples.tolist()
        if lo + 2.0 * h <= a <= hi - 2.0 * h
        and all(abs(a - b) > 2.0 * h for b in curve.potential.breakpoints)
    ]
    columns = (report.locations, report.slope_gap, report.curvature_gap)
    got = list(zip(*(c.tolist() for c in columns)))
    assert got == _scalar_rows(curve, kept)
    assert report.n_disagree == 0


def test_one_dense_read_per_side(example_curve, monkeypatch):
    _, curve = example_curve
    u = extremal_function(curve.phi_plus, curve.phi_minus, cf.A1_EXACT)
    green = build_green(curve.phi_plus, curve.phi_minus)
    sides = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: self.side)
    one_pin = spy(
        monkeypatch, (fundamental,), "_dense_one",
        lambda reads, pin=None: [solution.side for solution, _ in reads],
    )
    xs = np.linspace(-6.0, 6.0, 209)
    reads = [lambda n=n: check_minimality_equivalence(curve, xs[:n]) for n in (1, 7, 209)]
    reads += [
        lambda: u.log_value(xs),
        lambda: u.derivative(xs),
        lambda: green.value(xs[:, None], xs[None, :]),
        lambda: green.section_derivative(xs, 0.5),
    ]
    for read in reads:
        sides.clear()
        read()
        assert sorted(sides) == ["+", "-"]
    # Roots are polished and classified one pin at a time by the one-pin pair
    # read: no array read, one float read per side and pin.
    sides.clear()
    one_pin.clear()
    find_critical_points(curve)
    assert sides == []
    pins = [side for call in one_pin for side in call]
    assert pins and pins.count("+") == pins.count("-")


def test_extremal_reads_each_side_only_at_its_own_points(example_curve, monkeypatch):
    """u reads phi_minus left of a and phi_plus from a on: each point once, same bits."""
    _, curve = example_curve
    plus, minus = curve.phi_plus, curve.phi_minus
    u = extremal_function(plus, minus, cf.A1_EXACT)
    xs = np.linspace(-6.0, 6.0, 209)
    (_, _, lp, lm, _), left = _pair_reads(plus, minus, xs, u.center)
    both = np.where(left, lm - minus.ell_at(u.center), lp - plus.ell_at(u.center))
    points = spy(monkeypatch, (LogSolution,), "_dense", lambda self, x: np.size(x))
    assert u.log_value(xs).tobytes() == both.tobytes()
    assert sum(points) == xs.size
    for x in (-3.0, u.center, 3.0):
        points.clear()
        u(x)
        assert points == [1]


@pytest.mark.parametrize("y", [-0.7, 0.0, cf.A1_EXACT])
def test_pair_reads_at_a_point_match_the_broadcast_read(example_curve, y):
    """For a point y each side reads only its own x and y once; every element keeps its bits."""
    _, curve = example_curve
    plus, minus = curve.phi_plus, curve.phi_minus
    xs = np.array([-6.0, -1.0, y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf), 0.0, 3.0])
    at_point, left = _pair_reads(plus, minus, xs, y)
    broadcast, left_b = _pair_reads(plus, minus, xs, np.full_like(xs, y))
    assert left.tolist() == left_b.tolist()
    for one, many in zip(at_point[:4], broadcast[:4]):
        assert one.shape == xs.shape
        assert one.tobytes() == many.tobytes()
    grid = xs.reshape(7, 1)
    assert _pair_reads(plus, minus, grid, y)[0].r_plus.shape == grid.shape


def test_only_the_curvature_reads_v_at_the_pin():
    """One-pin readers evaluate V once: at both sides' Gauss nodes, and the pin for F''."""
    pot, calls = counting(make_example(cf.A, cf.B))
    curve = build_fcurve(*solve_log_solution(pot, *WINDOW))
    reads = [
        curve.value_at,
        curve.slope_at,
        curve.log_phi_sum,
        lambda a: curve.product_criterion("+", a),
        lambda a: curve.product_criterion("-", a),
    ]
    for read in reads:
        calls.clear()
        read(0.3137)
        assert calls == [6]
    calls.clear()
    curve.curvature_at(0.3137)
    assert calls == [7]
    for side in (curve.phi_plus, curve.phi_minus):
        calls.clear()
        side.ell_second_at(0.3137)
        assert calls == [4]


def test_the_curve_samples_v_nowhere():
    """The curve takes F and F' at the nodes from the stored rates: V is not sampled."""
    pot, calls = counting(make_example(cf.A, cf.B))
    plus, minus = solve_log_solution(pot, *default_window(pot))
    calls.clear()
    build_fcurve(plus, minus)
    assert calls == []
