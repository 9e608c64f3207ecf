import numpy as np
import pytest

import _closed_forms as cf
from conftest import spy
from sobolev1d import (
    Potential,
    SolverError,
    make_constant,
    make_example,
    make_monotone_step,
    make_piecewise_constant,
    minimize,
)
from sobolev1d.oracle import DiscreteRayleighProblem, _pivots, discrete_minimize


def _stationarity_matrix(problem: DiscreteRayleighProblem) -> np.ndarray:
    """A, dense: (2 u_i - u_{i-1} - u_{i+1})/h^2 + V_i u_i at the interior nodes."""
    h2 = problem.spacing**2
    n = problem.nodes.size - 2
    return np.diag(2.0 / h2 + problem.v_samples[1:-1]) - (np.eye(n, k=1) + np.eye(n, k=-1)) / h2


def _pinned_profiles(problem: DiscreteRayleighProblem) -> np.ndarray:
    """Row k - 1 is the profile pinned at node k, u = A^{-1} e_k / (A^{-1})_kk, zero at the ends.

    The brute-force reference, from the dense inverse: no code shared with the oracle's sweeps.
    """
    inv = np.linalg.inv(_stationarity_matrix(problem))
    profiles = np.zeros((inv.shape[0], problem.nodes.size))
    profiles[:, 1:-1] = inv / np.diag(inv)[:, None]
    return profiles


def test_problem_construction():
    problem = DiscreteRayleighProblem.from_potential(make_constant(1.0), 30.0, 0.01)
    assert problem.nodes.size == 6001
    assert problem.nodes[0] == -30.0 and problem.nodes[-1] == 30.0
    assert problem.nodes.size - 2 == 5999
    assert np.all(problem.v_samples == 1.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        DiscreteRayleighProblem.from_potential(make_constant(1.0), 30.0, 0.007)
    with pytest.raises(ValueError):
        DiscreteRayleighProblem.from_potential(make_constant(1.0), 0.1, 0.01)


def test_problem_refuses_a_negative_half_width():
    with pytest.raises(ValueError, match="must be positive"):
        DiscreteRayleighProblem.from_potential(make_example(1.0, 2.0), -1.0, 0.1)


def test_first_step_refuses_a_profile_over_its_pin(monkeypatch):
    """Pivots below 1/h^2 grow the back-substituted profile away from its pin: refused.

    Exact positive pivots cannot do that at the argmin, so the pivots are patched.
    """
    from sobolev1d import oracle

    problem = DiscreteRayleighProblem.from_potential(make_constant(1.0), 10.0, 0.1)
    h2 = problem.spacing**2
    diag = np.full(problem.nodes.size - 2, 2.0 / h2 + 1.0)
    half = np.full(diag.size, 0.5 / h2)
    monkeypatch.setattr(oracle, "_pivots", lambda problem: (diag, half, half))
    with pytest.raises(SolverError, match="exceeds 1 in modulus"):
        discrete_minimize(problem)


def test_first_step_pins_and_bounds():
    problem = DiscreteRayleighProblem.from_potential(make_constant(1.0), 30.0, 0.05)
    energy, j = discrete_minimize(problem)
    u = _pinned_profiles(problem)[j - 1]
    assert u[j] == 1.0
    assert np.max(np.abs(u)) <= 1.0 + 1e-9
    assert u[0] == 0.0 and u[-1] == 0.0
    assert energy == pytest.approx(problem.energy(u), rel=1e-12)
    assert energy == pytest.approx(2.0, abs=5e-3)
    # the discrete profile tracks e^{-|x - x_j|}
    exact = np.exp(-np.abs(problem.nodes - problem.nodes[j]))
    assert np.max(np.abs(u - exact)) < 5e-3


def test_energy_matches_direct_sum():
    problem = DiscreteRayleighProblem.from_potential(make_constant(2.0), 30.0, 0.05)
    energy, j = discrete_minimize(problem)
    u = _pinned_profiles(problem)[j - 1]
    h = problem.spacing
    direct = np.sum(np.diff(u) ** 2) / h + h * np.sum(problem.v_samples * u * u)
    assert energy == pytest.approx(direct, rel=1e-12)


def test_constant_minimum():
    problem = DiscreteRayleighProblem.from_potential(make_constant(1.0), 30.0, 0.01)
    m_disc, j = discrete_minimize(problem)
    assert abs(m_disc - 2.0) < 5e-3
    assert 0 < j < problem.nodes.size - 1


def test_example_minimum_location():
    pot = make_example(cf.A, cf.B)
    problem = DiscreteRayleighProblem.from_potential(pot, 30.0, 0.005)
    m_disc, j = discrete_minimize(problem)
    assert abs(m_disc - cf.M_EXACT) < 1e-2
    assert abs(problem.nodes[j] - cf.A1_EXACT) <= 2 * problem.spacing + 1e-12


def test_second_order_convergence():
    pot = make_example(cf.A, cf.B)
    gaps = []
    for h in (0.02, 0.01, 0.005):
        problem = DiscreteRayleighProblem.from_potential(pot, 30.0, h)
        m_disc, _ = discrete_minimize(problem)
        gaps.append(m_disc - cf.M_EXACT)
    assert all(g > 0.0 for g in gaps)  # discrete minimum overshoots
    assert gaps[1] < gaps[0] / 2.5
    assert gaps[2] < gaps[1] / 2.5


def test_non_attainment_signature():
    """When the infimum escapes to -infinity in a, wider meshes chase it."""
    pot = make_monotone_step(1.0, 4.0)
    narrow = DiscreteRayleighProblem.from_potential(pot, 30.0, 0.01)
    wide = DiscreteRayleighProblem.from_potential(pot, 60.0, 0.01)
    m_narrow, j_narrow = discrete_minimize(narrow)
    m_wide, j_wide = discrete_minimize(wide)
    assert wide.nodes[j_wide] < narrow.nodes[j_narrow]
    assert m_wide < m_narrow
    assert m_wide > 2.0  # still above the analytic infimum
    report = minimize(pot)
    assert m_wide - report.m_value < 0.05


def test_oracle_brackets_analytic_value(rng):
    from conftest import random_piecewise_constant

    pot = random_piecewise_constant(rng)
    report = minimize(pot)
    problem = DiscreteRayleighProblem.from_potential(pot, 30.0, 0.005)
    m_disc, _ = discrete_minimize(problem)
    assert abs(m_disc - report.m_value) < 1e-2


@pytest.mark.parametrize(
    "pot",
    [make_example(1.0, 2.0), make_piecewise_constant([-6, -5, 5, 6], [4, 1, 4, 1, 4])],
)
def test_pivot_energies_match_brute_force(pot):
    problem = DiscreteRayleighProblem.from_potential(pot, 10.0, 0.05)
    h = problem.spacing
    diag, left, right = _pivots(problem)
    swept = h * (left + right - diag)
    # Dense reference: the pinned energy is h / (A^{-1})_kk, the energy of its profile.
    a = _stationarity_matrix(problem)
    assert np.allclose(swept, h / np.diag(np.linalg.inv(a)), rtol=1e-12, atol=0.0)
    brute = [problem.energy(u) for u in _pinned_profiles(problem)]
    assert np.allclose(brute, swept, rtol=1e-12, atol=0.0)
    m_disc, best = discrete_minimize(problem)
    assert m_disc == pytest.approx(min(brute), rel=1e-12)
    assert brute[best - 1] <= min(brute) * (1.0 + 1e-12)


def test_minimize_sweeps_once(monkeypatch):
    """One elimination sweep pair serves both the argmin and the winner's profile."""
    from sobolev1d import oracle

    calls = spy(monkeypatch, (oracle,), "_pivots", lambda problem: problem)
    problem = DiscreteRayleighProblem.from_potential(make_example(1.0, 2.0), 10.0, 0.05)
    energy, node = discrete_minimize(problem)
    assert len(calls) == 1
    assert energy == pytest.approx(problem.energy(_pinned_profiles(problem)[node - 1]), rel=1e-12)


@pytest.mark.parametrize(
    "tail, error", [(np.nan, SolverError), (np.inf, SolverError), (-5e4, SolverError)]
)
def test_bad_tail_refused(tail, error):
    pot = Potential(
        evaluate=lambda x: np.where(np.abs(np.asarray(x)) > 27.0, tail, 1.0),
        lower_bound=1.0,
        upper_bound=1.0,
    )
    with pytest.raises(error):
        problem = DiscreteRayleighProblem.from_potential(pot, 30.0, 0.005)
        discrete_minimize(problem)
