"""Closed-form reference values for two exactly solvable families.

The example family is V = ell'' + (ell')^2 for ell = log(A e^{-Bx}/sqrt(x^2+A^2)),
which makes phi_+ available in closed form; phi_- follows from reduction of
order.  The Poeschl-Teller well V = k^2 - lam (lam + 1) sech^2 x has a* = 0
and m in closed form for every lam (Poeschl & Teller 1933), and F in closed
form for lam = 1.  Everything here is evaluated independently of the package
(plain numpy expressions and the standard library) so the tests have a fixed
external reference.
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
