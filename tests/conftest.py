import dataclasses

import numpy as np
import pytest

from sobolev1d import Potential, make_piecewise_constant, potential_from_spec


def random_piecewise_constant(rng: np.random.Generator, n_pieces: int | None = None) -> Potential:
    """Random step potential with values in [0.5, 5] and well-separated jumps."""
    n = int(n_pieces) if n_pieces is not None else int(rng.integers(2, 6))
    while True:
        edges = np.sort(rng.uniform(-6.0, 6.0, size=n - 1))
        if n == 2 or np.min(np.diff(edges)) > 0.2:
            break
    values = rng.uniform(0.5, 5.0, size=n)
    return make_piecewise_constant(edges, values)


def poschl_teller(k: float, lam: float) -> Potential:
    """V = k^2 - lam (lam + 1) sech^2 x, with sech^2 written without cosh, which overflows."""
    c = lam * (lam + 1.0)

    def evaluate(x):
        e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
        return k * k - c * 4.0 * e / ((1.0 + e) * (1.0 + e))

    return Potential(
        evaluate=evaluate,
        lower_bound=k * k - c,
        upper_bound=k * k,
        tail_limits=(k * k, k * k),
        label=f"poschl-teller k={k:g} lambda={lam:g}",
    )


def gaussian_well_table() -> Potential:
    """4 - 3 exp(-x^2/2) sampled every 0.25 on [-10, 10], as a spline table."""
    x = np.arange(-40, 41) * 0.25
    v = 4.0 - 3.0 * np.exp(-0.5 * x * x)
    return potential_from_spec({"kind": "table", "x": x.tolist(), "v": v.tolist()})


def shifted(potential: Potential, offset: float) -> Potential:
    """The translated potential x -> V(x - offset), its breakpoints moved with it.

    m is unchanged and a* moves by offset.
    """
    base = potential.evaluate
    return dataclasses.replace(
        potential,
        evaluate=lambda x: base(np.asarray(x, dtype=float) - offset),
        breakpoints=tuple(b + offset for b in potential.breakpoints),
        label=f"{potential.label} shifted by {offset:g}",
    )


def dilated(potential: Potential, s: float) -> Potential:
    """V_s(x) = V(x/s)/s^2, with every declaration scaled to match; s = -1 reflects V.

    m(V_s) = m(V)/|s|, a*(V_s) = s a*(V) and the verdict is the same.
    """
    base, scale = potential.evaluate, 1.0 / (s * s)
    order = slice(None, None, 1 if s > 0 else -1)
    return dataclasses.replace(
        potential,
        evaluate=lambda x: np.asarray(base(np.asarray(x, dtype=float) / s)) * scale,
        lower_bound=potential.lower_bound * scale,
        upper_bound=potential.upper_bound * scale,
        breakpoints=tuple(b * s for b in potential.breakpoints[order]),
        tail_limits=potential.tail_limits and tuple(t * scale for t in potential.tail_limits[order]),
        label=f"{potential.label} dilated by {s:g}",
    )


def spy(monkeypatch, owners, name, record) -> list:
    """Wrap the callable ``name`` once and install that one wrapper on every owner.

    ``owners`` are the modules or classes that look ``name`` up, for example
    ``(minimizer, cli)`` for ``solve_log_solution``.  Each call appends
    ``record(*args, **kwargs)`` to the returned list and then runs the original.
    """
    original = getattr(owners[0], name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def counting(potential: Potential) -> tuple[Potential, list]:
    """``potential`` with the size of every ``evaluate`` call appended to ``sizes``."""
    sizes = []

    def evaluate(x):
        sizes.append(np.size(x))
        return potential.evaluate(x)

    return dataclasses.replace(potential, evaluate=evaluate), sizes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
