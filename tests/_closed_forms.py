"""Closed-form reference values for two exactly solvable families.

The example family is V = ell'' + (ell')^2 for ell = log(A e^{-Bx}/sqrt(x^2+A^2)),
which makes phi_+ available in closed form; phi_- follows from reduction of
order.  The Poeschl-Teller well V = k^2 - lam (lam + 1) sech^2 x has a* = 0
and m in closed form for every lam (Poeschl & Teller 1933); for lam = 1 and
2, phi_+ and phi_-, W, G, u_a, F' and F'' are closed forms too.
Everything here is evaluated independently of the package (plain numpy
expressions and the standard library) so the tests have a fixed external
reference.
"""

from __future__ import annotations

import math

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
LOWER_BOUND = 1.0
UPPER_BOUND = 8.0
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
