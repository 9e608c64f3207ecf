"""Brute-force finite-difference oracle for the pinned minimization.

Independent of the log-space machinery: on a uniform Dirichlet mesh over
[-L, L] the pinned problem becomes minimizing the discrete energy

    E(u) = sum (u_{i+1} - u_i)^2 / h  +  h sum V_i u_i^2

over mesh functions with u(a_node) = 1 and u(+-L) = 0.  With A the
stationarity matrix (2 u_i - u_{i-1} - u_{i+1})/h^2 + V_i u_i at the
interior nodes, E(u) = h u^T A u, so the pinned minimizer is the column
A^{-1} e_k rescaled to 1 at the pin and its energy is h / (A^{-1})_kk.  For
the tridiagonal A that is h (d_k + e_k - a_k), with a the diagonal and d, e
the elimination pivots swept from the left and from the right: the discrete
twin of F = r_- - r_+.  Two O(n) sweeps therefore give the energy at every
pin, and ``discrete_minimize`` returns their exact argmin over the mesh.
Convergence to the continuum values is O(h^2) for smooth potentials, plus a
boundary truncation error exponentially small in L.  That makes the mesh
answer a genuinely independent check of the analytic pipeline.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .mesh import SolverError
from .potential import Potential

__all__ = ["DiscreteRayleighProblem", "discrete_minimize"]

_MIN_NODES = 51


@dataclass
class DiscreteRayleighProblem:
    """Uniform Dirichlet mesh with potential samples at the nodes."""

    spacing: float
    nodes: np.ndarray
    v_samples: np.ndarray

    @classmethod
    def from_potential(
        cls, potential: Potential, half_width: float, spacing: float
    ) -> "DiscreteRayleighProblem":
        """V at the nodes of [-L, L], L = half_width, whose spacing must divide 2L.

        The caller sizes the mesh: ``verify`` spreads a fixed cell count over its window.
        A spacing h whose h^4 or 1/h^4 leaves the float range (checked as a
        product, which does not raise) raises SolverError before V is read.
        """
        if not (half_width > 0 and spacing > 0):
            raise ValueError("half_width and spacing must be positive")
        h = float(spacing)
        h4 = h * h * h * h
        if not (0.0 < h4 < math.inf and 1.0 / h4 < math.inf):
            raise SolverError(
                f"oracle mesh spacing h = {h:g} puts h^4 = {h4:g} outside the float range"
            )
        n = int(round(2.0 * half_width / spacing))
        if abs(n * spacing - 2.0 * half_width) > 1e-9 * half_width:
            raise ValueError(
                f"spacing {spacing:g} does not divide the interval 2*{half_width:g}"
            )
        if n + 1 < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {n + 1}")
        nodes = -half_width + spacing * np.arange(n + 1)
        v = np.asarray(potential.evaluate(nodes), dtype=float)
        if not np.all(np.isfinite(v)):
            bad = nodes[~np.isfinite(v)][0]
            raise SolverError(f"potential is non-finite at mesh node x = {bad:g}")
        return cls(float(spacing), nodes, v)

    def energy(self, u: np.ndarray) -> float:
        """The discrete energy of a mesh function (boundary values included)."""
        h = self.spacing
        return float(np.sum(np.diff(u) ** 2) / h + h * np.sum(self.v_samples * u * u))


def _sweep(diag: memoryview, coupling: float) -> np.ndarray:
    # Pivots p_i = diag_i - coupling / p_{i-1} of Gaussian elimination
    # (p_0 = inf, so p_1 = diag_1), in float arithmetic on the items of a
    # memoryview, kept as C doubles: no list of Python floats as long as the mesh.
    pivots = array("d")
    p = math.inf
    for a in diag:
        p = a - coupling / p
        if not p > 0.0:
            raise SolverError(
                "mesh stationarity matrix is not positive definite "
                "(the potential is too negative for this mesh)"
            )
        pivots.append(p)
    return np.frombuffer(pivots)


def _pivots(problem: DiscreteRayleighProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal a and the left and right elimination pivots d, e of A.

    All pivots positive is exactly positive definiteness of A; a pivot <= 0
    raises SolverError.
    """
    h2 = problem.spacing**2
    diag = 2.0 / h2 + problem.v_samples[1:-1]
    coupling = 1.0 / h2**2
    return diag, _sweep(memoryview(diag), coupling), _sweep(memoryview(diag[::-1]), coupling)[::-1]


def discrete_minimize(problem: DiscreteRayleighProblem) -> tuple[float, int]:
    """Smallest pinned discrete energy over every interior node: (energy, node index).

    The node is the first one attaining the minimum of h (d + e - a), and the
    energy is that of its pinned profile, the Thomas back-substitution for a
    unit right-hand side at the pin: u_i = u_{i+1} / (h^2 d_i) left of it and
    u_i = u_{i-1} / (h^2 e_i) right of it.  At that node k, (A^{-1})_kk is the
    largest diagonal entry of A^{-1}, so |(A^{-1})_ik| <= sqrt((A^{-1})_ii
    (A^{-1})_kk) <= (A^{-1})_kk and the exact profile never exceeds 1.  The
    check that it does not guards the pivots and the back-substitution, as
    _check_pair's W > 0 guards the pair: a profile over 1 raises SolverError.
    """
    diag, left, right = _pivots(problem)
    k = int(np.argmin(left + right - diag))
    h2 = problem.spacing**2
    u = np.zeros(problem.nodes.size)
    u[k + 1] = 1.0
    u[1 : k + 1] = np.cumprod(1.0 / (h2 * left[:k][::-1]))[::-1]
    u[k + 2 : -1] = np.cumprod(1.0 / (h2 * right[k + 1 :]))
    if np.max(np.abs(u)) > 1.0 + 1e-9:
        raise SolverError("pinned mesh minimizer exceeds 1 in modulus")
    return problem.energy(u), k + 1
