"""Bounded positive potentials on the real line.

Everything downstream works with essentially bounded potentials
0 < v0 <= V(x) <= v1 < inf.  A :class:`Potential` bundles the evaluation
callable with the declared bounds, the locations where V or V' may jump,
(when known) the limits of V at -inf and +inf, and whether V is constant
between its breakpoints.  The declared data is trusted by the integrators:
:class:`Potential` refuses a non-positive or non-finite bound, and each
constructor checks only what it alone can.

Builtin families:

* ``make_constant(v)``            -- V == v, the step with one piece
* ``make_piecewise_constant(...)``-- step potentials with declared jumps
* ``make_monotone_step(...)``     -- smooth logistic ramp from v0 to v1
* ``make_example(A, B)``          -- the rational-times-exponential family
  V(x) = B^2 + 2Bx/(x^2+A^2) + (2x^2-A^2)/(x^2+A^2)^2 on the domain
  A*B > (1+sqrt(5))/2, for which the decaying solutions are known in
  closed form (useful as a regression target), with its exact range declared.

Sampled data enters through ``potential_from_log_derivative`` (build V from
samples of log phi' and log phi'' via V = l'' + (l')^2) and through the JSON
spec loader ``potential_from_spec``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Potential",
    "make_constant",
    "make_piecewise_constant",
    "make_monotone_step",
    "make_example",
    "potential_from_log_derivative",
    "potential_from_spec",
]

# The domain of make_example: A*B above the golden ratio, where the term-wise
# lower bound (A^2 B^2 - A B - 1)/A^2 of V is positive.  The bounds it declares
# are the exact range of V.
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class Potential:
    """A bounded potential 0 < lower_bound <= V <= upper_bound < inf.

    Attributes:
        evaluate: vectorized callable, float or ndarray in, same shape out.
        lower_bound: declared essential infimum v0 (> 0, finite).
        upper_bound: declared essential supremum v1 (>= v0, finite).
        breakpoints: sorted finite locations where V or V' may jump; integrators
            split their meshes here, and difference stencils stay clear of
            them.  Empty for potentials that are smooth everywhere.
        tail_limits: (limit at -inf, limit at +inf) when the potential has
            genuine limits, else None; both must lie within the bounds.
        label: short human-readable description used in reports.
        piecewise_constant: True when V is constant between consecutive
            breakpoints.  The side solve trusts the declaration: it reads V
            once at the midpoint of each mesh segment and lays that value's
            exact cells across the segment, sampling V nowhere else inside
            it.  Off-mesh reads trust it too: a partial cell steps at its
            cell's value, and V is read only at a pin that needs it.  A V
            that varies between its breakpoints gives a wrong m unless
            ``sobolev1d verify`` is run, whose bounds check compares V at
            every mesh-oracle node with V at the midpoint of its piece.
    """

    evaluate: Callable[[np.ndarray | float], np.ndarray | float]
    lower_bound: float
    upper_bound: float
    breakpoints: tuple[float, ...] = ()
    tail_limits: tuple[float, float] | None = None
    label: str = "potential"
    piecewise_constant: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower_bound) and math.isfinite(self.upper_bound)):
            raise ValueError(
                f"declared bounds must be finite, got [{self.lower_bound}, {self.upper_bound}]"
            )
        if not (self.lower_bound > 0.0):
            raise ValueError(f"lower bound must be positive, got {self.lower_bound}")
        if not (self.upper_bound >= self.lower_bound):
            raise ValueError(
                f"upper bound {self.upper_bound} below lower bound {self.lower_bound}"
            )
        if not all(math.isfinite(b) for b in self.breakpoints):
            raise ValueError(f"breakpoints must be finite, got {self.breakpoints}")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        tails = self.tail_limits or ()
        if not all(self.lower_bound <= t <= self.upper_bound for t in tails):
            raise ValueError(f"declared tail limits {tails} must lie within the declared bounds")

    @property
    def continuous(self) -> bool:
        """False when V or V' may jump, i.e. when it has breakpoints."""
        return not self.breakpoints

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        return self.evaluate(x)

    def shifted(self, offset: float) -> "Potential":
        """The translated potential x -> V(x - offset)."""
        base = self.evaluate
        return replace(
            self,
            evaluate=lambda x: base(np.asarray(x, dtype=float) - offset),
            breakpoints=tuple(b + offset for b in self.breakpoints),
            label=f"{self.label} shifted by {offset:g}",
        )


def make_constant(v: float) -> Potential:
    """The constant potential V == v, v > 0: the step with one piece and no edges."""
    return replace(make_piecewise_constant((), (v,)), label=f"constant {float(v):g}")


def make_piecewise_constant(edges: Sequence[float], values: Sequence[float]) -> Potential:
    """A right-continuous step potential.

    ``values[k]`` is taken on ``[edges[k-1], edges[k])`` (first piece extends
    to -inf, last to +inf), so ``len(values) == len(edges) + 1``.
    """
    edges_arr = np.asarray(edges, dtype=float)
    vals = np.asarray(values, dtype=float)
    if edges_arr.ndim != 1 or vals.ndim != 1 or vals.size != edges_arr.size + 1:
        raise ValueError("need len(values) == len(edges) + 1")
    if not np.all(np.isfinite(edges_arr)):
        raise ValueError(f"edges must be finite, got {edges_arr.tolist()}")
    if edges_arr.size and np.any(np.diff(edges_arr) <= 0):
        raise ValueError("edges must be strictly increasing")

    def evaluate(x):
        idx = np.searchsorted(edges_arr, np.asarray(x, dtype=float), side="right")
        return vals[idx]

    jump = vals[:-1] != vals[1:]
    return Potential(
        evaluate=evaluate,
        lower_bound=float(vals.min()),
        upper_bound=float(vals.max()),
        breakpoints=tuple(edges_arr[jump].tolist()),
        tail_limits=(float(vals[0]), float(vals[-1])),
        label=f"piecewise constant ({vals.size} pieces)",
        piecewise_constant=True,
    )


def make_monotone_step(v0: float, v1: float, width: float = 1.0, center: float = 0.0) -> Potential:
    """A smooth nondecreasing ramp from v0 at -inf to v1 at +inf.

    Logistic profile V(x) = v0 + (v1 - v0) * sigma((x - center)/width); the
    tails are reached exponentially fast, |V(x) - v0| <= (v1-v0) e^{x/width}
    for x << center.  v0 == v1 degenerates to the constant potential.
    """
    if not (width > 0.0):
        raise ValueError(f"transition width must be positive, got {width}")
    if not (math.isfinite(width) and math.isfinite(center)):
        raise ValueError(f"width and center must be finite, got width={width}, center={center}")
    v0, v1, width, center = float(v0), float(v1), float(width), float(center)

    def evaluate(x):
        t = (np.asarray(x, dtype=float) - center) / width
        # The logistic sigmoid 1/(1 + e^-t), without overflow for large |t|.
        return v0 + (v1 - v0) * np.exp(-np.logaddexp(0.0, -t))

    return Potential(
        evaluate=evaluate,
        lower_bound=v0,
        upper_bound=v1,
        tail_limits=(v0, v1),
        label=f"monotone step {v0:g} -> {v1:g} (width {width:g})",
    )


def make_example(A: float, B: float) -> Potential:
    """The closed-form family V(x) = B^2 + 2Bx/(x^2+A^2) + (2x^2-A^2)/(x^2+A^2)^2.

    The family's domain is A*B > (1 + sqrt(5))/2, where the term-wise lower
    bound (A^2 B^2 - A B - 1)/A^2 is positive (V stays positive somewhat
    below it too).  The declared bounds are the exact range of V: with
    t = x/A and p = A*B, V = B^2 + g(t)/A^2, and g' vanishes only at the
    roots of N(t) = p t^4 + 2t^3 - 4t - p, one in (-1, 0) (the minimum of V)
    and one in (1, 2) (the maximum).  Both are found by bisection, and the
    two values widened by 1e-9 times the maximum.  Both tails tend to B^2.
    """
    a, b = float(A), float(B)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"need A > 0 and B > 0, got A={a}, B={b}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need finite A and B, got A={a}, B={b}")
    if not (a * b > _GOLDEN):
        raise ValueError(
            f"need A*B > (1+sqrt(5))/2 ~ {_GOLDEN:.6f}, the family's domain, "
            f"got A*B = {a * b:.6f}"
        )
    a2 = a * a

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        q = x * x + a2
        return b * b + 2.0 * b * x / q + (2.0 * x * x - a2) / (q * q)

    p = a * b

    def n(t):
        return ((p * t + 2.0) * t * t - 4.0) * t - p

    vmin, vmax = (float(evaluate(a * _bisect(n, lo, lo + 1.0))) for lo in (-1.0, 1.0))
    # Every term of V is at most vmax in size, so is its rounding error.  An
    # infinite vmax stays unwidened (inf - inf would be NaN) for Potential to refuse.
    margin = 1e-9 * vmax if math.isfinite(vmax) else 0.0
    return Potential(
        evaluate=evaluate,
        lower_bound=vmin - margin,
        upper_bound=vmax + margin,
        tail_limits=(b * b, b * b),
        label=f"example(A={a:g}, B={b:g})",
    )


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign, to the last bit."""
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if (f(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def _not_a_knot(grid: np.ndarray, samples: np.ndarray):
    """Coefficients (c0, c1, c2, c3) of the not-a-knot cubic interpolant, one per interval.

    On [grid[k], grid[k+1]] the interpolant is c0 + c1 u + c2 u^2 + c3 u^3
    with u = x - grid[k].  The knot slopes solve the tridiagonal not-a-knot
    system (de Boor, A Practical Guide to Splines, ch. IV) in the form scipy's
    CubicSpline uses, by one Thomas sweep; the grid has at least 4 points.
    """
    dx = np.diff(grid)
    slope = np.diff(samples) / dx
    d0, d1 = grid[2] - grid[0], grid[-1] - grid[-3]
    # Row i reads lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i].
    lower = np.concatenate(([0.0], dx[1:], [d1])).tolist()
    diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1], [0.0])).tolist()
    rhs = np.concatenate((
        [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1],
    )).tolist()
    for i in range(1, len(diag)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    # Back substitution turns rhs into the knot slopes s, in place.
    rhs[-1] /= diag[-1]
    for i in range(len(rhs) - 2, -1, -1):
        rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
    s = np.asarray(rhs)
    # Hermite form of each interval from its end values and end slopes.
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return samples[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx


def _critical_points(grid: np.ndarray, coeffs) -> np.ndarray:
    """The points of [grid[0], grid[-1]] where the piecewise cubic's derivative vanishes.

    The derivative on each interval is the quadratic a u^2 + b u + c, whose
    roots are q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac))/2.  A
    linear derivative (a = 0) keeps its one root as c/q = -c/b.  Its other
    root, both roots of a constant derivative and a root past the float range
    come out infinite or NaN; they are dropped with the complex roots and the
    roots outside the interval.  An overflowing b^2 - 4ac hides them: ValueError.
    """
    _, c, half_b, third_a = coeffs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b = 3.0 * third_a, 2.0 * half_b
        disc = b * b - 4.0 * a * c
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        u = np.concatenate((q / a, c / q))
    if not np.all(np.isfinite(disc)):
        raise ValueError("the spline's slopes overflow: its extremes cannot be found")
    h = np.tile(np.diff(grid), 2)
    inside = (u >= 0.0) & (u <= h)
    return np.tile(grid[:-1], 2)[inside] + u[inside]


def _spline_potential(grid, samples, label: str) -> Potential:
    """Not-a-knot cubic interpolant of positive samples, held at the end samples outside the grid.

    The grid must be 1-D and strictly increasing with at least 4 points, and
    hold one sample per point.  The interpolant is the one scipy's
    CubicSpline builds, in numpy alone.  The declared bounds are the exact
    range of the interpolant: the extremes over the samples and the
    spline's interior critical points, widened by a relative 1e-9.  Equal
    samples give zero coefficients past the constant, so that spline reads
    the sample bit for bit everywhere and its bounds are not widened.  The
    grid ends are declared as breakpoints: V' jumps there to the zero slope
    of the held end samples.
    """
    grid = np.asarray(grid, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if grid.ndim != 1 or grid.size < 4 or np.any(np.diff(grid) <= 0):
        raise ValueError("table grid must be 1-D, strictly increasing, with >= 4 points")
    if samples.shape != grid.shape:
        raise ValueError("table samples must match the grid in length")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(samples))):
        raise ValueError("table grid and samples must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # _critical_points refuses what overflows
        coeffs = _not_a_knot(grid, samples)
    lo, hi = float(grid[0]), float(grid[-1])
    left, right = float(samples[0]), float(samples[-1])
    # One more interval from hi on, on which the cubic is the constant right
    # sample, so that points at or past hi read it exactly, as u = 0 at lo does.
    c0, c1, c2, c3 = (np.append(c, end) for c, end in zip(coeffs, (right, 0.0, 0.0, 0.0)))
    inner = grid[1:]

    def evaluate(x):
        # np.clip and np.searchsorted give the same numbers, but cost a few
        # microseconds more per call on the small arrays of one-pin reads.
        xc = np.minimum(np.maximum(np.asarray(x, dtype=float), lo), hi)
        k = inner.searchsorted(xc, side="right")
        u = xc - grid[k]
        out = c3[k]
        out *= u
        out += c2[k]
        out *= u
        out += c1[k]
        out *= u
        out += c0[k]
        return out

    # The spline can over/undershoot between nodes, only at roots of its derivative.
    vals = np.concatenate((samples, evaluate(_critical_points(grid, coeffs))))
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmin <= 0.0:
        raise ValueError(
            f"interpolated potential dips to {vmin:.6g} <= 0; not admissible"
        )
    margin = 0.0 if vmin == vmax else 1e-9 * vmax
    return Potential(
        evaluate=evaluate,
        lower_bound=vmin - margin,
        upper_bound=vmax + margin,
        breakpoints=(lo, hi),
        tail_limits=(left, right),
        label=label,
    )


def potential_from_log_derivative(
    grid: Sequence[float],
    ell_prime: Sequence[float],
    ell_double_prime: Sequence[float],
) -> Potential:
    """Reconstruct V = l'' + (l')^2 from samples of a decaying solution's log.

    If phi = exp(l) solves -phi'' + V phi = 0 then V = l'' + (l')^2, so
    samples of l' and l'' on a common grid determine V up to interpolation
    error.  The samples must produce a strictly positive potential.
    """
    lp = np.asarray(ell_prime, dtype=float)
    lpp = np.asarray(ell_double_prime, dtype=float)
    if lp.shape != lpp.shape:
        raise ValueError("ell_prime and ell_double_prime must match in length")
    return _spline_potential(grid, lpp + lp * lp, label="from log-derivative samples")


# The entries each kind of spec reads, besides "kind"; any other is refused.
_SPEC_ENTRIES = {
    "constant": ("v",),
    "example": ("A", "B"),
    "step": ("v0", "v1", "width", "center"),
    "piecewise_constant": ("edges", "values"),
    "table": ("x", "v", "ell_prime", "ell_double_prime", "lower_bound", "upper_bound"),
}


def potential_from_spec(spec: dict) -> Potential:
    """Build a potential from a JSON-style dict.

    Recognized kinds::

        {"kind": "constant", "v": 4.0}
        {"kind": "example", "A": 1.0, "B": 2.0}
        {"kind": "step", "v0": 1.0, "v1": 4.0, "width": 1.0, "center": 0.0}
        {"kind": "table", "x": [...], "v": [...]}
        {"kind": "table", "x": [...], "ell_prime": [...], "ell_double_prime": [...]}
        {"kind": "piecewise_constant", "edges": [...], "values": [...]}

    ``width``/``center`` take ``make_monotone_step``'s defaults.  A table
    spec may override the declared bounds with explicit "lower_bound"/
    "upper_bound" entries.  An optional entry that is absent or null takes
    its default.  An entry its kind does not read, or a table with both "v"
    and the log-derivative samples, raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"potential spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    entries = _SPEC_ENTRIES.get(kind) if isinstance(kind, str) else None
    if entries is None:
        raise ValueError(f"unknown potential kind: {kind!r}")
    for key in spec:
        if key != "kind" and key not in entries:
            raise ValueError(f"potential spec of kind {kind!r} has no entry {key!r}")
    if kind == "constant":
        return make_constant(_num(spec, "v"))
    if kind == "example":
        return make_example(_num(spec, "A"), _num(spec, "B"))
    if kind == "step":
        v0, v1 = _num(spec, "v0"), _num(spec, "v1")
        shape = {key: _num(spec, key) for key in ("width", "center") if spec.get(key) is not None}
        return make_monotone_step(v0, v1, **shape)
    if kind == "piecewise_constant":
        return make_piecewise_constant(_arr(spec, "edges"), _arr(spec, "values"))
    # The one kind left is "table".
    x = _arr(spec, "x")
    if "v" in spec:
        if "ell_prime" in spec or "ell_double_prime" in spec:
            raise ValueError(
                "potential spec of kind 'table' takes 'v' or 'ell_prime' and "
                "'ell_double_prime', not both"
            )
        pot = _spline_potential(x, _arr(spec, "v"), label="tabulated potential")
    else:
        pot = potential_from_log_derivative(
            x, _arr(spec, "ell_prime"), _arr(spec, "ell_double_prime")
        )
    lo, hi = _num(spec, "lower_bound", pot.lower_bound), _num(spec, "upper_bound", pot.upper_bound)
    # End samples outside explicit bounds are no tail limits: the solve refuses V there.
    tails = pot.tail_limits if all(lo <= t <= hi for t in pot.tail_limits) else None
    return replace(pot, lower_bound=lo, upper_bound=hi, tail_limits=tails)


def _real(value, what: str) -> float:
    """value as a float if it is a real number (a numpy float too), never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"potential spec entry {what} is not a number")
    return float(value)


def _num(spec: dict, key: str, default: float | None = None) -> float:
    """spec[key] as a float; an entry with a default may be absent or null."""
    if default is not None and spec.get(key) is None:
        return default
    if key not in spec:
        raise ValueError(f"potential spec of kind {spec.get('kind')!r} needs {key!r}")
    return _real(spec[key], repr(key))


def _arr(spec: dict, key: str) -> list[float]:
    if key not in spec:
        raise ValueError(f"potential spec of kind {spec.get('kind')!r} needs {key!r}")
    val = spec[key]
    if not isinstance(val, (list, tuple)):
        raise ValueError(f"potential spec entry {key!r} must be an array")
    return [_real(v, f"{key!r}[{i}]") for i, v in enumerate(val)]
