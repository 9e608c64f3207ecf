"""Structure theorems as runtime checks.

Every solve is wrapped in falsifiable inequalities: the decaying solutions
and pinned minimizers are squeezed between exponentials with the declared
rates sqrt(v0) and sqrt(v1), raising the potential pointwise lowers the
pinned minimizer pointwise, and minimizers pinned at different points agree
up to scaling outside the interval between the pins.  The bounds suite on
random step potentials exercises all of it, on the pair of decaying
solutions that ``minimize`` solved (one ``solve_log_solution`` call, one
mesh for both sides), and checks 2 sqrt(v0) <= m <= 2 sqrt(v1).

Run from the repository root:  python3 demos/envelopes_and_comparison.py
"""

import math

import numpy as np

from sobolev1d import make_constant, make_example, make_piecewise_constant, minimize
from sobolev1d.fundamental import (
    check_comparison,
    check_envelope_bounds,
    check_gluing,
    check_riccati_residual,
    solve_log_solution,
)

rng = np.random.default_rng(7)

print("random step potentials: envelope + bound checks")
for k in range(5):
    n = int(rng.integers(2, 6))
    edges = np.sort(rng.uniform(-5.0, 5.0, size=n - 1))
    values = rng.uniform(0.5, 5.0, size=n)
    pot = make_piecewise_constant(edges, values)
    report = minimize(pot)
    plus, minus = report.phi_plus, report.phi_minus

    res = check_riccati_residual(plus)
    env = check_envelope_bounds(plus, minus)
    v0, v1 = pot.lower_bound, pot.upper_bound
    inside = 2 * math.sqrt(v0) - 1e-8 <= report.m_value <= 2 * math.sqrt(v1) + 1e-8
    print(f"  #{k}: {n} pieces, v in [{v0:.2f}, {v1:.2f}]  "
          f"residual {res.max_residual:.1e}, envelopes {env.passed}, "
          f"m = {report.m_value:.6f} within bounds: {inside}")

print("\ncomparison principle: V = 1 below the rational example potential")
report = check_comparison(make_constant(1.0), make_example(1.0, 2.0), a=0.5)
print(f"  precondition ok: {report.precondition_ok}")
print(f"  min log margin (u_low above u_high): {report.min_log_margin:+.3e}")
print(f"  passed: {report.passed}")

print("\ngluing: pinned minimizers coincide up to scale outside [a, b]")
pot = make_example(1.0, 2.0)
plus, minus = solve_log_solution(pot, -25.0, 25.0)
glue = check_gluing(plus, minus, -0.8, 0.9)
print(f"  left residual  {glue.max_residual_left:.2e}")
print(f"  right residual {glue.max_residual_right:.2e}")
print(f"  passed: {glue.passed}")
