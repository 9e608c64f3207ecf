import bisect
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _closed_forms as cf
from sobolev1d import (
    build_green,
    extremal,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
    potential_from_spec,
    rayleigh_quotient,
)
from sobolev1d import minimizer
from sobolev1d.minimizer import classify_attainment, default_window
from sobolev1d.cli import canonical_json
from conftest import dilated, poschl_teller, shifted


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
    assert report.to_json_dict()["flat"]
    u = extremal(report)
    xs = np.linspace(*report.window, 2001)
    assert np.max(np.abs(u(xs) - np.exp(-math.sqrt(v) * np.abs(xs)))) < 1e-8


@pytest.mark.parametrize("v", [1e-4, 2.0, 4e4])
def test_a_constant_is_the_one_piece_step(v):
    """make_constant(v) declares what the step with one piece declares, and minimize
    reads both to the last bit: m, a*, the verdict and every node read."""
    constant, step = make_constant(v), make_piecewise_constant((), (v,))
    declared = ("lower_bound", "upper_bound", "breakpoints", "tail_limits", "piecewise_constant")
    assert [getattr(constant, k) for k in declared] == [getattr(step, k) for k in declared]
    assert constant.label == f"constant {v:g}"
    ours, theirs = minimize(constant), minimize(step)
    assert ours.m_value.hex() == theirs.m_value.hex()
    assert (ours.a_star, ours.attainment) == (theirs.a_star, theirs.attainment)
    assert ours.curve.nodes.tobytes() == theirs.curve.nodes.tobytes()
    for mine, other in zip(ours.curve.node_reads, theirs.curve.node_reads):
        assert (mine is None) == (other is None)
        assert mine is None or np.asarray(mine).tobytes() == np.asarray(other).tobytes()


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


@pytest.mark.parametrize(
    "k, lam", [(2.0, 1.0), (3.0, 2.0), (1.7, 1.2), (2.0, 1.5615)], ids=str
)
def test_poschl_teller_well_matches_its_closed_form(k, lam):
    """m for every lam and F for lam = 1; (2, 1.5615) has contrast v1/v0 = 1.84e4."""
    report = minimize(poschl_teller(k, lam))
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
    report = minimize(poschl_teller(k, lam))
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


@pytest.mark.parametrize("k2, lam", [(6.0006, 2), (2.0002, 1)], ids=str)
def test_poschl_teller_pair_at_contrast_1e4_in_log_space(k2, lam):
    """Contrast v1/v0 = 1e4 on the default windows (+-1021, +-1768), where phi overflows.

    Each bound is about five times the error measured when the test was written:
    l+- 4.5e-13, log G 9.1e-13, log u 2.3e-13 (absolute, ~2 ulp of |l| ~ 1e3),
    F' 1.5e-13 of its largest value, m 7.3e-15 relative, |a*| 1.3e-16.
    """
    k = math.sqrt(k2)
    report = minimize(poschl_teller(k, lam))
    m = cf.poschl_teller_m(k, lam)
    assert abs(report.m_value - m) <= 4e-14 * m
    assert report.attainment == "attained"
    assert abs(report.a_star) <= 7e-16
    plus, minus, curve = report.phi_plus, report.phi_minus, report.curve
    pins = np.linspace(*curve.window, 801)
    exact = np.vectorize

    for side, sol in (("+", plus), ("-", minus)):
        log_phi = exact(cf.poschl_teller_log_phi)(pins, k, lam, side)
        assert np.max(np.abs(sol.ell_at(pins) - log_phi)) <= 2.5e-12

    lattice = np.linspace(*curve.window, 41)
    x, y = lattice[:, None], lattice[None, :]
    log_g = exact(cf.poschl_teller_log_green)(x, y, k, lam)
    assert np.max(np.abs(build_green(plus, minus).log_value(x, y) - log_g)) <= 5e-12

    u = extremal(report)
    log_u = exact(cf.poschl_teller_log_extremal)(pins, u.center, k, lam)
    assert np.max(np.abs(u.log_value(pins) - log_u)) <= 1.2e-12

    slope = exact(cf.poschl_teller_slope)(pins, k, lam)
    assert np.max(np.abs(curve.slope_at(pins) - slope)) <= 7.5e-13 * np.max(np.abs(slope))


def test_a_window_that_cuts_a_breakpoint_out_is_refused():
    """The window must reach 13/sqrt(v0) past every breakpoint; at exactly that reach it solves."""
    edges, values = [2.0, 4.0], [100.0, 50.0, 100.0]
    pot = make_piecewise_constant(edges, values)
    with pytest.raises(ValueError, match=r"breakpoint 2 needs the window to contain"):
        minimize(pot, window=(-3.6, 3.6))
    x_max = 4.0 + 13.0 / math.sqrt(50.0)
    with pytest.raises(ValueError, match=r"breakpoint 4 needs"):
        minimize(pot, window=(-3.0, math.nextafter(x_max, 0.0)))
    exact = cf.pwc_exact(edges, values)
    report = minimize(pot, window=(-3.0, x_max))
    assert abs(report.m_value - exact.m) <= 1e-10 * exact.m
    assert report.attainment == exact.attainment == "attained"
    assert exact.f(report.a_star) <= exact.m * (1.0 + 1e-10)


# Barriers whose tanh-tanh maximum of F at 0 has |F''| under 1.2e-5: a
# rejected root that sits close to the acceptance rule's slack.
_TANH_TANH_AT_0 = [
    ([-5.5, -4.5, 4.5, 5.5], [3, 1, 3, 1, 3]),
    ([-4.75, -3.75, 3.75, 4.75], [4, 1, 4, 1, 4]),
]


def _pwc_cases():
    """Seven fixed step potentials, two that once hid their minimum, 40 seeded random ones,
    the two _TANH_TANH_AT_0 barriers, and one with a trivial edge."""
    cases = [
        ([-1, 1], [1, 5, 1]),
        ([-6, -5, 5, 6], [4, 1, 4, 1, 4]),
        ([-1, 1], [100, 1, 100]),
        ([0], [1, 4]),
        ([0], [3, 1]),
        ([-1, 1], [1e4, 1, 1e4]),
        ([-1, 1], [4, 1, 4]),
        # F' stays under the noise floor on both sides of the minimum at 0.
        ([-8, 8], [4, 1, 4]),
        # The well lies beyond +-25/sqrt(v0) less the decay inset.
        ([2, 4], [100, 50, 100]),
    ]
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 8)
        edges = sorted(rng.uniform(-4.0, 4.0) for _ in range(n))
        cases.append((edges, [rng.uniform(1.0, 400.0) for _ in range(n + 1)]))
    # The trivial edge 8.627 splits the V = 2 piece, whose minimum F rounds to the tail.
    return cases + _TANH_TANH_AT_0 + [([-26.577, -12.444, 8.627, 28.846], [2, 9, 2, 2, 5])]


def _assert_the_candidates_are_the_exact_minima(report, exact, edges):
    """One candidate per coth-coth midpoint in the curve window, in order, in its piece, F to 1e-10."""
    lo, hi = report.curve.window
    minima = [a for a in exact.minima if lo <= a <= hi]
    assert len(report.critical_points) == len(minima)
    for p, a in zip(report.critical_points, minima):
        assert bisect.bisect(edges, p.location) == bisect.bisect(edges, a)
        assert abs(p.value - exact.f(a)) <= 1e-10 * exact.f(a)


@pytest.mark.parametrize("edges, values", _pwc_cases())
def test_piecewise_constant_matches_the_exact_reference(edges, values):
    exact = cf.pwc_exact(edges, values)
    pot = make_piecewise_constant(edges, values)
    report = minimize(pot)
    assert abs(report.m_value - exact.m) <= 1e-10 * exact.m
    if report.attainment == "undetermined":
        # Only where the exact best interior value is within the decision band of the tail.
        tail = 2.0 * math.sqrt(min(values[0], values[-1]))
        assert abs(min(map(exact.f, exact.minima)) - tail) <= minimizer.CLASSIFICATION_TOL
    else:
        assert report.attainment == exact.attainment
    assert (report.a_star is None) == (exact.a_star is None)
    if report.a_star is not None:
        # Wide wells leave F flat to 1e-15 over several decay lengths: compare F, not a*.
        assert exact.f(report.a_star) <= exact.m * (1.0 + 1e-10)
    curve = report.curve
    exact_f = np.array([exact.f(a) for a in curve.grid.tolist()])
    assert np.max(np.abs(curve.value_at(curve.grid) / exact_f - 1.0)) <= 1e-10
    _assert_the_candidates_are_the_exact_minima(report, exact, pot.breakpoints)
    # Each rejected root is a tanh-tanh maximum; a top flatter than the
    # curvature slack may go unreported, which leaves m and a* as they are.
    doc = report.to_json_dict()
    flags = ("balanced_slope", "plus_side_product", "minus_side_product")
    for p, row in zip(report.rejected_candidates, doc["rejected_candidates"]):
        assert any(abs(p.location - b) <= 1e-6 for b in exact.maxima)
        assert [row[k] for k in flags] == [False, False, False]
    for row in doc["critical_points"]:
        assert [row[k] for k in flags] == [True, True, True]
    if (edges, values) in _TANH_TANH_AT_0:
        assert [p.location for p in report.rejected_candidates] == [0.0]
        assert report.rejected_candidates[0].curvature < 0.0
        assert exact.maxima == [pytest.approx(0.0, abs=1e-12)]


def test_the_double_well_rejects_its_flat_topped_maximum_at_0():
    """The tanh-tanh top at 0 has |F'| under the noise floor at every node near it, and
    F'' = -7.7e-8, below the curvature slack: it is bracketed by the nodes +-5 and rejected."""
    edges, values = [-6.0, -5.0, 5.0, 6.0], [4.0, 1.0, 4.0, 1.0, 4.0]
    report = minimize(make_piecewise_constant(edges, values))
    (top,) = report.rejected_candidates
    assert top.location == 0.0 and top.value == 3.999999995174893
    assert top.curvature == pytest.approx(-7.7e-8, rel=0.01)
    assert cf.pwc_exact(edges, values).maxima == [pytest.approx(0.0, abs=1e-12)]


def _pwc_edges_and_values(n_edges: int):
    # Edges at least 1e-9 apart, so that a shift by up to 3 keeps them distinct.
    edges = st.lists(st.floats(-4.0, 4.0), min_size=n_edges, max_size=n_edges).map(sorted)
    edges = edges.filter(lambda e: all(b - a >= 1e-9 for a, b in zip(e, e[1:])))
    values = st.lists(st.floats(1.0, 400.0), min_size=n_edges + 1, max_size=n_edges + 1)
    return st.tuples(edges, values)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    piecewise=st.integers(1, 6).flatmap(_pwc_edges_and_values),
    shift=st.floats(-3.0, 3.0),
)
def test_random_piecewise_constant_is_sharp_exact_and_translation_invariant(piecewise, shift):
    edges, values = piecewise
    pot = make_piecewise_constant(edges, values)
    exact = cf.pwc_exact(edges, values)
    report = minimize(pot)
    m = report.m_value
    assert 2.0 * math.sqrt(min(values)) * (1.0 - 1e-12) <= m
    assert m <= 2.0 * math.sqrt(max(values)) * (1.0 + 1e-12)
    assert abs(m - exact.m) <= 1e-10 * exact.m
    # pwc_exact tells attained from empty only; V with one value is flat.
    assert report.attainment == ("flat" if min(values) == max(values) else exact.attainment)
    if report.attainment != "flat":
        _assert_the_candidates_are_the_exact_minima(report, exact, pot.breakpoints)
    moved = minimize(shifted(pot, shift))
    assert abs(moved.m_value - m) <= 1e-9 * m
    if moved.a_star is not None:
        # Near-ties can move a*: compare F there, not a* itself.
        assert exact.f(moved.a_star - shift) <= m * (1.0 + 1e-10)


# The tabulated Gaussian wells of the benchmark: the grid -8:0.25:8.
TABLE_GRID = [-8.0 + 0.25 * i for i in range(65)]
SMOOTH = {"v0": st.floats(0.5, 4.0), "width": st.floats(0.05, 3.0), "center": st.floats(-3.0, 3.0)}


def _assert_bounded_with_a_constant_wronskian(report):
    """2 sqrt(v0) <= m <= 2 sqrt(v1), and F phi_+ phi_- = W at 199 pins off the curve grid."""
    curve = report.curve
    v0, v1 = curve.potential.lower_bound, curve.potential.upper_bound
    assert 2.0 * math.sqrt(v0) <= report.m_value <= 2.0 * math.sqrt(v1)
    lo, hi = curve.window
    pins = np.linspace(lo, hi, 201)[1:-1] + 1e-3
    log_w = np.log(curve.value_at(pins)) + curve.log_phi_sum(pins) - math.log(curve.wronskian)
    assert np.max(np.abs(np.expm1(log_w))) <= 1e-10


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(contrast=st.floats(1.5, 300.0), **SMOOTH)
def test_random_logistic_step_is_empty_at_its_lower_tail(v0, contrast, width, center):
    report = minimize(make_monotone_step(v0, v0 * contrast, width=width, center=center))
    assert report.m_value == 2.0 * math.sqrt(v0)
    assert report.attainment == "empty"
    _assert_bounded_with_a_constant_wronskian(report)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(contrast=st.floats(1.5, 50.0), shift=st.floats(-3.0, 3.0), **SMOOTH)
def test_random_gaussian_well_table_is_attained_and_translation_invariant(
    v0, contrast, width, center, shift
):
    v1 = v0 * contrast
    v = [v1 - (v1 - v0) * math.exp(-0.5 * ((x - center) / width) ** 2) for x in TABLE_GRID]
    pot = potential_from_spec({"kind": "table", "x": TABLE_GRID, "v": v})
    report = minimize(pot)
    assert report.attainment == "attained"
    _assert_bounded_with_a_constant_wronskian(report)
    moved = minimize(shifted(pot, shift))
    assert abs(moved.m_value - report.m_value) <= 1e-10 * report.m_value
    assert abs(moved.a_star - shift - report.a_star) <= 1e-8


def _solved_bits(pot) -> list:
    """Mesh, r and l of both sides, m, a* and every critical point, exactly."""
    report = minimize(pot)
    sides = (report.phi_plus, report.phi_minus)
    arrays = [getattr(s, name).tobytes() for s in sides for name in ("_mesh", "_r", "_l")]
    return arrays + [repr((report.m_value, report.a_star, report.attainment)),
                     repr(report.critical_points + report.rejected_candidates)]


def _assert_declared_pieces_leave_every_bit(pot) -> None:
    """The declared pieces skip the first round's samples, not a bit of the result."""
    assert pot.piecewise_constant
    assert _solved_bits(pot) == _solved_bits(dataclasses.replace(pot, piecewise_constant=False))


@pytest.mark.parametrize("edges, values", _pwc_cases())
def test_declared_pieces_leave_every_bit(edges, values):
    _assert_declared_pieces_leave_every_bit(make_piecewise_constant(edges, values))


@pytest.mark.parametrize("edges, values", _pwc_cases())
def test_a_step_declares_its_shape(edges, values):
    """The flag, and breakpoints exactly where the value jumps; V at each piece's midpoint
    is its merged value; a shift, a replace and a dilation keep the flag."""
    pot = make_piecewise_constant(edges, values)
    jumps = [k for k in range(len(edges)) if values[k] != values[k + 1]]
    assert pot.piecewise_constant
    assert pot.breakpoints == tuple(float(edges[k]) for k in jumps)
    b = pot.breakpoints
    mids = [b[0] - 1.0, *(0.5 * (x + y) for x, y in zip(b, b[1:])), b[-1] + 1.0] if b else [0.0]
    merged = [values[0], *(values[k + 1] for k in jumps)]
    assert pot.evaluate(np.array(mids)).tolist() == [float(v) for v in merged]
    for kept in (shifted(pot, 0.5), dataclasses.replace(pot, label="kept"), dilated(pot, -2.0)):
        assert kept.piecewise_constant


def test_declared_pieces_of_constant_shifted_and_one_cell_pieces_leave_every_bit():
    _assert_declared_pieces_leave_every_bit(make_constant(2.7))
    well = make_piecewise_constant([-1.0, 0.5, 2.0], [4.0, 1.0, 9.0, 2.0])
    _assert_declared_pieces_leave_every_bit(shifted(well, 0.3137))
    _assert_declared_pieces_leave_every_bit(shifted(well, -2.0))
    # Segments [-1, -0.999] and [0, 5e-4] are shorter than one initial cell
    # (h0 = 0.05/3): they are not merged, and step doubling checks them.
    short = make_piecewise_constant([-1.0, -0.999, 5e-4], [4.0, 9.0, 1.0, 2.0])
    _assert_declared_pieces_leave_every_bit(short)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    piecewise=st.integers(1, 6).flatmap(_pwc_edges_and_values),
    shift=st.floats(-3.0, 3.0),
)
def test_random_declared_pieces_leave_every_bit(piecewise, shift):
    """Draws of the translation-invariance test's strategy, declared and undeclared."""
    pot = make_piecewise_constant(*piecewise)
    _assert_declared_pieces_leave_every_bit(pot)
    _assert_declared_pieces_leave_every_bit(shifted(pot, shift))


def test_translation_equivariance(example_report):
    moved = minimize(shifted(make_example(cf.A, cf.B), 3.0))
    assert abs(moved.m_value - example_report.m_value) < 1e-9
    assert abs(moved.a_star - (example_report.a_star + 3.0)) < 1e-7


def test_explicit_window(example_report):
    report = minimize(make_example(cf.A, cf.B), window=(-30.0, 30.0))
    assert abs(report.m_value - example_report.m_value) < 1e-9
    assert report.window == (-30.0, 30.0)


def test_default_window_scales():
    assert default_window(make_constant(1.0)) == (-25.0, 25.0)
    assert default_window(make_constant(0.25)) == (-50.0, 50.0)


def test_classify_attainment_paths():
    assert classify_attainment(4.0, 3.0, False) == ("attained", 1.0)
    assert classify_attainment(2.0, None, False)[0] == "empty"
    assert classify_attainment(2.0, 2.5, False)[0] == "empty"
    assert classify_attainment(2.0, 2.0 + 1e-12, False)[0] == "undetermined"
    assert classify_attainment(2.0, 2.0, True)[0] == "flat"
    # The band is relative to m: a margin of 1e-6 m decides at any scale,
    # and one of 5e-11 m does not.
    assert classify_attainment(2e-8, 2e-8 * (1.0 - 1e-6), False)[0] == "attained"
    assert classify_attainment(2e3, 2e3 - 1e-7, False)[0] == "undetermined"


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


def test_trial_quotient_kinked_exponential():
    """e^{-|x|} on V = 1: 2 int e^{-2|x|} = 2, with the kink at 0 split off."""
    q = cf.trial_quotient(
        lambda x: np.exp(-np.abs(x)),
        lambda x: -np.sign(x) * np.exp(-np.abs(x)),
        make_constant(1.0),
        (-30.0, 30.0),
        kinks=[0.0],
    )
    assert abs(q - 2.0) < 1e-9


def test_trial_quotient_gaussian():
    """e^{-x^2} on V = 1: int (4 x^2 + 1) e^{-2 x^2} = 2 sqrt(pi/2)."""
    q = cf.trial_quotient(
        lambda x: np.exp(-x * x),
        lambda x: -2.0 * x * np.exp(-x * x),
        make_constant(1.0),
        (-12.0, 12.0),
    )
    assert abs(q - 2.0 * math.sqrt(math.pi / 2.0)) < 1e-9


def test_rayleigh_quotient_of_extremal_matches_m(example_report):
    u = extremal(example_report)
    q = rayleigh_quotient(u, make_example(cf.A, cf.B))
    assert abs(q - example_report.m_value) < 1e-7


def test_rayleigh_quotient_refuses_a_bare_callable():
    with pytest.raises(TypeError, match=r"extremal\(\).*quadrature\.composite_gauss_legendre"):
        rayleigh_quotient(lambda x: np.exp(-np.abs(x)), make_constant(1.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_example(cf.A, cf.B),
        lambda: make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0]),
    ],
    ids=["example", "pwc-well"],
)
def test_rayleigh_quotient_reads_the_extremal_once_per_node_with_the_same_bits(
    make, monkeypatch
):
    """Reading (log u, u'/u) once per node gives the bits of u' and u read apart."""
    pot = make()
    u = extremal(minimize(pot))
    reads = []
    quadrature = minimizer.composite_gauss_legendre

    def recorded(fun, *args, **kwargs):
        return quadrature(lambda x: reads.append((x, fun(x))) or reads[-1][1], *args, **kwargs)

    monkeypatch.setattr(minimizer, "composite_gauss_legendre", recorded)
    rayleigh_quotient(u, pot)
    [(x, integrand)] = reads
    d, uu = u.derivative(x), u(x)
    assert integrand.tobytes() == (d * d + pot.evaluate(x) * uu * uu).tobytes()


@pytest.mark.parametrize("tails", [(0.25, 4.0), (math.nan, 4.0)], ids=["below-v0", "nan"])
def test_tail_limits_outside_the_declared_bounds_are_refused(tails):
    """2 sqrt(v0) bounds every candidate, so a tail below v0 would report a wrong m."""
    with pytest.raises(ValueError, match="declared tail limits"):
        dataclasses.replace(make_monotone_step(1.0, 4.0), tail_limits=tails)
