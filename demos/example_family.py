"""The rational potential family with a closed-form minimum.

V_{A,B}(x) = B^2 + 2Bx/(x^2 + A^2) + (2x^2 - A^2)/(x^2 + A^2)^2 is built so
that phi_+ = A e^{-Bx}/sqrt(x^2 + A^2) is known exactly, and with it the
whole minimization: m = 2B(1 - 1/sqrt(1 + 4A^2B^2)) attained at
a* = (1 - sqrt(1 + 4A^2B^2))/(2B).  The second root of F' is a local
maximum and must be rejected by the curvature test.

Run from the repository root:  python3 demos/example_family.py
"""

import math

import numpy as np

from sobolev1d import extremal, make_example, minimize, rayleigh_quotient

A, B = 1.0, 2.0
pot = make_example(A, B)
print(f"potential: {pot.label}")
print(f"  declared bounds [{pot.lower_bound:g}, {pot.upper_bound:g}], "
      f"tail value {pot.tail_limits[0]:g}")

report = minimize(pot)
s = math.sqrt(1.0 + 4.0 * A * A * B * B)
m_exact = 2.0 * B * (1.0 - 1.0 / s)
a_exact = (1.0 - s) / (2.0 * B)

print(f"\nm        = {report.m_value:.15f}")
print(f"m exact  = {m_exact:.15f}   difference {report.m_value - m_exact:+.2e}")
print(f"a*       = {report.a_star:.15f}")
print(f"a* exact = {a_exact:.15f}   difference {report.a_star - a_exact:+.2e}")
print(f"best constant = {report.best_constant:.15f}")
print(f"attainment    = {report.attainment} "
      f"(tail estimate {report.tail_infimum:g}, margin {report.margin:.6f})")

print("\ncritical points of F:")
for p in report.critical_points:
    print(f"  accepted a = {p.location:+.12f}  F = {p.value:.12f}  "
          f"F'' = {p.curvature:+.6f}  <- local minimum")
for p in report.rejected_candidates:
    print(f"  rejected a = {p.location:+.12f}  F = {p.value:.12f}  "
          f"F'' = {p.curvature:+.6f}  <- local maximum")

u = extremal(report)
q = rayleigh_quotient(u, pot)
print(f"\nRayleigh quotient of the extremal: {q:.12f} (m + {q - report.m_value:.2e})")

# a mistuned pin is strictly worse
xs = np.linspace(-1.5, 0.5, 5)
print("\npinned energies F(a) nearby:")
for a in xs:
    print(f"  F({a:+.2f}) = {report.curve.value_at(a):.9f}")
