"""Closed-form reference values for three exactly solvable families.

The example family is V = ell'' + (ell')^2 for ell = log(A e^{-Bx}/sqrt(x^2+A^2)),
which makes phi_+ available in closed form; phi_- follows from reduction of
order.  The Poeschl-Teller well V = k^2 - lam (lam + 1) sech^2 x has a* = 0
and m in closed form for every lam (Poeschl & Teller 1933); for lam = 1 and
2, phi_+ and phi_-, W, G, u_a, F' and F'' are closed forms too.  Every
piecewise-constant V is solved exactly by ``pwc_exact``.
Everything here is evaluated independently of the package (plain numpy
expressions, the standard library and mpmath) so the tests have a fixed
external reference.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, NamedTuple

import mpmath
import numpy as np

A = 1.0
B = 2.0

# Frozen values for (A, B) = (1, 2).
M_EXACT = 3.029857499854668  # 2B(1 - 1/sqrt(1 + 4 A^2 B^2))
A1_EXACT = -0.780776406404415  # (1 - sqrt(1 + 4 A^2 B^2)) / (2B)
A2_EXACT = (1.0 + math.sqrt(17.0)) / 4.0
V_AT_0 = 3.0
F_AT_0 = 32.0 / 9.0
DF_AT_0 = 128.0 / 81.0
W_EXACT = 32.0 / 9.0
R_PLUS_AT_0 = -2.0
R_MINUS_AT_0 = 14.0 / 9.0
PHI_PLUS_AT_1 = math.exp(-2.0) / math.sqrt(2.0)
PHI_MINUS_AT_1 = 13.0 * math.exp(2.0) / (9.0 * math.sqrt(2.0))


def _example_range() -> tuple[float, float]:
    """min and max of V for (A, B) = (1, 2), by mpmath at 30 digits.

    V = 4 + 4x/(1+x^2) + (2x^2-1)/(1+x^2)^2 has V' = 0 only at the two real
    roots of x^4 + x^3 - 2x - 1, its minimum and maximum.
    """
    with mpmath.workdps(30):
        roots = [t for t in mpmath.polyroots([1, 1, 0, -2, -1]) if mpmath.im(t) == 0]
        values = [4 + 4 * t / (1 + t * t) + (2 * t * t - 1) / (1 + t * t) ** 2 for t in roots]
        return float(min(values)), float(max(values))


LOWER_BOUND, UPPER_BOUND = _example_range()  # 2.077779664670823, 6.285610316579002
TAIL_VALUE = 4.0


def _s(x, a=A):
    x = np.asarray(x, dtype=float)
    return x * x + a * a


def _q(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    return 2.0 * b * b * x * x - 2.0 * b * x + 2.0 * a * a * b * b + 1.0


def v_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    s = _s(x, a)
    return b * b + 2.0 * b * x / s + (2.0 * x * x - a * a) / (s * s)


def phi_plus_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    return a * np.exp(-b * x) / np.sqrt(_s(x, a))


def ell_plus_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    return math.log(a) - b * x - 0.5 * np.log(_s(x, a))


def ell_plus_prime_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    return -b - x / _s(x, a)


def ell_plus_second_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    s = _s(x, a)
    return (x * x - a * a) / (s * s)


def phi_minus_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    norm = 2.0 * a * a * b * b + 1.0
    return a * _q(x, a, b) * np.exp(b * x) / (norm * np.sqrt(_s(x, a)))


def ell_minus_prime_exact(x, a=A, b=B):
    x = np.asarray(x, dtype=float)
    return b + (4.0 * b * b * x - 2.0 * b) / _q(x, a, b) - x / _s(x, a)


def wronskian_exact(a=A, b=B):
    return 4.0 * a * a * b**3 / (2.0 * a * a * b * b + 1.0)


def f_exact(x, a=A, b=B):
    """F(a) = W / (phi_+ phi_-) = 4 B^3 (x^2 + A^2) / Q(x)."""
    x = np.asarray(x, dtype=float)
    return 4.0 * b**3 * _s(x, a) / _q(x, a, b)


def plus_product_exact(x, a=A, b=B):
    """2 r_+ phi_+ phi_- / W; equals -1 exactly at interior minimizers."""
    x = np.asarray(x, dtype=float)
    s = _s(x, a)
    return -(b * s + x) * _q(x, a, b) / (2.0 * b**3 * s * s)


def minus_product_exact(x, a=A, b=B):
    """2 r_- phi_+ phi_- / W = 2 r_- / F; equals +1 at interior minimizers."""
    return 2.0 * ell_minus_prime_exact(x, a, b) / f_exact(x, a, b)


def poschl_teller_m(k, lam):
    """m = 4 G((k+lam+2)/2) G((k-lam+1)/2) / (G((k+lam+1)/2) G((k-lam)/2)), G = Gamma."""
    g = math.lgamma
    return 4.0 * math.exp(
        g((k + lam + 2.0) / 2.0) + g((k - lam + 1.0) / 2.0)
        - g((k + lam + 1.0) / 2.0) - g((k - lam) / 2.0)
    )


def poschl_teller_f_lambda_1(a, k):
    """F(a) = 2k(k^2 - 1)/(k^2 - tanh^2 a) of the lam = 1 well, phi_+ = e^{-kx}(k + tanh x)."""
    t = np.tanh(np.asarray(a, dtype=float))
    return 2.0 * k * (k * k - 1.0) / (k * k - t * t)


# Poeschl-Teller wells with lam = 1 and 2 (lam = 2 needs k^2 > 6 for V > 0):
# phi_+ = e^{-kx} P(tanh x)/P(0) and phi_-(x) = phi_+(-x), with P(t) = k + t
# and P(t) = k^2 - 1 + 3kt + 3t^2; checked against the equation with sympy.
# Everything below is scalar and uses the standard library only.


def _poschl_teller_p(t, k, lam):
    """P(t)/P(0), so that phi_+(0) = phi_-(0) = 1."""
    if lam == 1:
        return (k + t) / k
    if lam == 2:
        return (k * k - 1.0 + 3.0 * k * t + 3.0 * t * t) / (k * k - 1.0)
    raise ValueError(f"closed-form sides only for lam = 1 and 2, got {lam}")


def poschl_teller_log_phi(x, k, lam, side):
    """log phi_side(x), normalized to vanish at 0."""
    s = 1.0 if side == "+" else -1.0
    return -s * k * x + math.log(_poschl_teller_p(s * math.tanh(x), k, lam))


def poschl_teller_wronskian(k, lam):
    """W = 2(k^2 - 1)/k for lam = 1 and 2k(k^2 - 4)/(k^2 - 1) for lam = 2."""
    if lam == 1:
        return 2.0 * (k * k - 1.0) / k
    return 2.0 * k * (k * k - 4.0) / (k * k - 1.0)


def poschl_teller_log_green(x, y, k, lam):
    """log G(x, y) = log phi_-(min(x, y)) + log phi_+(max(x, y)) - log W."""
    lo, hi = min(x, y), max(x, y)
    return (
        poschl_teller_log_phi(lo, k, lam, "-")
        + poschl_teller_log_phi(hi, k, lam, "+")
        - math.log(poschl_teller_wronskian(k, lam))
    )


def poschl_teller_log_extremal(x, a, k, lam):
    """log u_a(x) = log G(x, a) - log G(a, a)."""
    return poschl_teller_log_green(x, a, k, lam) - poschl_teller_log_green(a, a, k, lam)


def poschl_teller_slope(a, k, lam):
    """F'(a), with t = tanh a and 1 - t^2 = sech^2 a (written without cosh, which overflows)."""
    e = math.exp(-2.0 * abs(a))
    t, sech2 = math.tanh(a), 4.0 * e / ((1.0 + e) * (1.0 + e))
    if lam == 1:
        return 4.0 * k * (k * k - 1.0) * t * sech2 / (k * k - t * t) ** 2
    q = (k * k - 1.0 + 3.0 * t * t) ** 2 - 9.0 * k * k * t * t  # P(t) P(-t) (k^2 - 1)^2
    c = 12.0 * k * (k * k - 4.0) * (k * k - 1.0)
    return c * t * sech2 * (k * k + 2.0 - 6.0 * t * t) / (q * q)


def poschl_teller_curvature(a, k, lam):
    """F''(a), with t = tanh a and 1 - t^2 = sech^2 a, as in ``poschl_teller_slope``."""
    e = math.exp(-2.0 * abs(a))
    t, sech2 = math.tanh(a), 4.0 * e / ((1.0 + e) * (1.0 + e))
    tt, kk = t * t, k * k
    if lam == 1:
        inner = (1.0 - 3.0 * tt) * (kk - tt) + 4.0 * tt * sech2
        return 4.0 * k * (kk - 1.0) * sech2 * inner / (kk - tt) ** 3
    q = (kk - 1.0 + 3.0 * tt) ** 2 - 9.0 * kk * tt
    n = (
        3.0 * kk**3 * tt - kk**3 - 27.0 * kk**2 * tt**2 + 9.0 * kk**2 * tt
        - 27.0 * kk * tt**3 + 153.0 * kk * tt**2 - 81.0 * kk * tt + 3.0 * kk
        + 162.0 * tt**4 - 324.0 * tt**3 + 144.0 * tt**2 - 12.0 * tt - 2.0
    )
    return -12.0 * k * (kk - 4.0) * (kk - 1.0) * sech2 * n / q**3


class PwcExact(NamedTuple):
    """Exact m, a* (None unless attained), attainment, F and the local minima and maxima of F
    inside pieces."""

    m: float
    a_star: float | None
    attainment: str
    f: Callable[[float], float]
    maxima: list[float]
    minima: list[float]


def pwc_exact(edges, values) -> PwcExact:
    """Exact answer for V = values[j] on [edges[j-1], edges[j]).

    F = r_- - r_+, and on a piece V = k^2 the flow r' = k^2 - r^2 over a
    length s is the Moebius map r -> k (r + k t)/(k + r t), t = tanh(k s).
    r_- starts at +k on the first piece and rho = -r_+ at +k on the last, so
    both are pure exponentials there (|r| = k, a fixed point of the map).
    Inside a piece each side is k tanh or k coth of k times the distance to
    its centre; F' vanishes only where both have one kind, at the midpoint of
    the two centres: a maximum for tanh-tanh, a minimum for coth-coth.  So
    inf F is the least of F at the edges, at the coth-coth midpoints inside
    their piece, and the tail value 2 sqrt(min V(+-inf)); those coth-coth
    midpoints are ``minima`` and the tanh-tanh midpoints inside their piece
    are ``maxima``.  Equal neighbouring values merge first, as in
    ``make_piecewise_constant``, so no trivial edge splits a piece; a V left
    with one value has F equal to its tail value everywhere.
    """
    merged, vs = [], [values[0]]
    for e, v in zip(edges, values[1:]):
        if v != vs[-1]:
            merged.append(float(e))
            vs.append(v)
    edges, ks, n = merged, [math.sqrt(v) for v in vs], len(merged)
    if n == 0:
        return PwcExact(2.0 * ks[0], None, "empty", lambda a: 2.0 * ks[0], [], [])

    def flow(k, r, s):
        t = math.tanh(k * s)
        return k * (r + k * t) / (k + r * t)

    def reach(k, r):
        # Distance from an edge to its side's centre: r is k coth (r > k) or k tanh of k times it.
        return math.atanh(min(r, k) / max(r, k)) / k

    # r_- at each edge, swept from the left; rho = -r_+ at each edge, from the right.
    left = [ks[0]]
    for j in range(1, n):
        left.append(flow(ks[j], left[-1], edges[j] - edges[j - 1]))
    right = [ks[n]]
    for j in range(n - 1, 0, -1):
        right.append(flow(ks[j], right[-1], edges[j] - edges[j - 1]))
    right.reverse()

    def f(a):
        j = bisect.bisect_right(edges, a)
        r_minus = ks[0] if j == 0 else flow(ks[j], left[j - 1], a - edges[j - 1])
        rho = ks[n] if j == n else flow(ks[j], right[j], edges[j] - a)
        return r_minus + rho

    tail = 2.0 * min(ks[0], ks[n])
    candidates, maxima, minima = [(f(e), e) for e in edges], [], []
    for j in range(1, n):
        k, lo, hi, r_lo, rho_hi = ks[j], edges[j - 1], edges[j], left[j - 1], right[j]
        if (r_lo - k) * (rho_hi - k) <= 0.0:
            continue  # one side tanh, the other coth (or exponential): no root of F'
        mid = 0.5 * (lo - reach(k, r_lo) + hi + reach(k, rho_hi))
        if lo < mid < hi:
            if r_lo > k:
                candidates.append((f(mid), mid))
                minima.append(mid)
            else:
                maxima.append(mid)
    best, a_star = min(candidates)
    if best < tail:
        return PwcExact(best, a_star, "attained", f, maxima, minima)
    return PwcExact(tail, None, "empty", f, maxima, minima)
