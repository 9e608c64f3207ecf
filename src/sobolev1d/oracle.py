"""Brute-force finite-difference oracle for the pinned minimization.

Independent of the log-space machinery: on a uniform Dirichlet mesh over
[-L, L] the pinned problem becomes minimizing the discrete energy

    E(u) = sum (u_{i+1} - u_i)^2 / h  +  h sum V_i u_i^2

over mesh functions with u(a_node) = 1 and u(+-L) = 0.  Stationarity gives
one positive-definite tridiagonal system per pin (the same matrix for every
pin, factorized once), and the minimizing pin is found by scanning nodes.
Convergence to the continuum values is O(h^2) for smooth potentials, plus a
boundary truncation error exponentially small in L.  That makes the mesh
answer a genuinely independent check of the analytic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fundamental import SolverError
from .potential import Potential

__all__ = [
    "DiscreteRayleighProblem",
    "discrete_first_step",
    "discrete_minimize",
]

_MIN_NODES = 51


@dataclass
class DiscreteRayleighProblem:
    """Uniform Dirichlet mesh with potential samples at the nodes."""

    half_width: float
    spacing: float
    nodes: np.ndarray
    v_samples: np.ndarray
    _factor: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_potential(
        cls, potential: Potential, half_width: float = 30.0, spacing: float = 0.005
    ) -> "DiscreteRayleighProblem":
        if not (half_width > 0 and spacing > 0):
            raise ValueError("half_width and spacing must be positive")
        n = int(round(2.0 * half_width / spacing))
        if abs(n * spacing - 2.0 * half_width) > 1e-9 * half_width:
            raise ValueError(
                f"spacing {spacing:g} does not divide the interval 2*{half_width:g}"
            )
        if n + 1 < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {n + 1}")
        nodes = -half_width + spacing * np.arange(n + 1)
        v = np.asarray(potential.evaluate(nodes), dtype=float)
        return cls(
            half_width=float(half_width),
            spacing=float(spacing),
            nodes=nodes,
            v_samples=v,
        )

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 2

    def _cholesky(self) -> np.ndarray:
        # Stationarity system: (2 u_j - u_{j-1} - u_{j+1})/h^2 + V_j u_j = 0
        # at interior nodes, in upper banded form.
        if self._factor is None:
            from scipy.linalg import cholesky_banded

            h = self.spacing
            m = self.n_interior
            ab = np.zeros((2, m))
            ab[1] = 2.0 / h**2 + self.v_samples[1:-1]
            ab[0, 1:] = -1.0 / h**2
            self._factor = cholesky_banded(ab)
        return self._factor

    def energy(self, u: np.ndarray) -> float:
        """The discrete energy of a mesh function (boundary values included)."""
        h = self.spacing
        return float(np.sum(np.diff(u) ** 2) / h + h * np.sum(self.v_samples * u * u))


def _interior_index(problem: DiscreteRayleighProblem, a_node: int) -> int:
    n = problem.nodes.size
    if not (0 <= a_node < n):
        raise IndexError(f"node index {a_node} out of range 0..{n - 1}")
    if a_node in (0, n - 1):
        raise IndexError("pin must be an interior node, not a boundary node")
    return a_node - 1


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # scipy.linalg is imported on first use: it is slow to import and only
    # the oracle needs it.
    from scipy.linalg import cho_solve_banded

    return cho_solve_banded((factor, False), rhs)


def discrete_first_step(
    problem: DiscreteRayleighProblem, a_node: int
) -> tuple[np.ndarray, float]:
    """Minimize the discrete energy with u[a_node] = 1; returns (u, energy).

    The solution is checked a posteriori to attain its maximum at the pin
    (the continuum constraint max|u| = u(a) must be inactive); violation
    signals a mesh too coarse for the potential and raises SolverError.
    """
    k = _interior_index(problem, a_node)
    factor = problem._cholesky()
    rhs = np.zeros(problem.n_interior)
    rhs[k] = 1.0
    w = _cho_solve(factor, rhs)
    u = np.zeros(problem.nodes.size)
    u[1:-1] = w / w[k]
    energy = problem.energy(u)
    if np.max(np.abs(u)) > 1.0 + 1e-9:
        raise SolverError(
            "pinned mesh minimizer exceeds 1 in modulus; mesh too coarse"
        )
    return u, energy


def _batch_energies(problem: DiscreteRayleighProblem, pins: np.ndarray) -> np.ndarray:
    """Energies of the pinned minimizers for many pins (interior indices)."""
    factor = problem._cholesky()
    h = problem.spacing
    m = problem.n_interior
    energies = np.empty(pins.size)
    for start in range(0, pins.size, 256):
        chunk = pins[start : start + 256]
        rhs = np.zeros((m, chunk.size))
        rhs[chunk - 1, np.arange(chunk.size)] = 1.0
        w = _cho_solve(factor, rhs)
        w = w / w[chunk - 1, np.arange(chunk.size)]
        u = np.zeros((problem.nodes.size, chunk.size))
        u[1:-1] = w
        energies[start : start + 256] = (
            np.sum(np.diff(u, axis=0) ** 2, axis=0) / h
            + h * np.sum(problem.v_samples[:, None] * u * u, axis=0)
        )
    return energies


def discrete_minimize(
    problem: DiscreteRayleighProblem,
    *,
    stride: int | None = None,
) -> tuple[float, int]:
    """Scan pins for the smallest discrete energy; returns (energy, node index).

    Coarse-to-fine: every stride-th interior node first (stride defaults to
    ~0.1 length units), then every node within one stride of the coarse
    winner.  The energy varies on the scale of the decay length, so the
    coarse pass cannot skip over a genuine minimum basin.
    """
    n = problem.nodes.size
    if stride is None:
        stride = max(1, int(round(0.1 / problem.spacing)))
    coarse = np.unique(np.concatenate([np.arange(1, n - 1, stride), [1, n - 2]]))
    energies = _batch_energies(problem, coarse)
    k = int(coarse[np.argmin(energies)])
    lo, hi = max(1, k - stride), min(n - 2, k + stride)
    fine = np.arange(lo, hi + 1)
    fine_energies = _batch_energies(problem, fine)
    j = int(np.argmin(fine_energies))
    best_node = int(fine[j])
    # A posteriori constraint check on the winner.
    _, energy = discrete_first_step(problem, best_node)
    return energy, best_node
