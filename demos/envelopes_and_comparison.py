"""Structure theorems as runtime checks.

Every solve is wrapped in falsifiable inequalities: the decaying solutions
and pinned minimizers are squeezed between exponentials with the declared
rates sqrt(v0) and sqrt(v1), and raising the potential pointwise lowers the
pinned minimizer pointwise.  The bounds suite on random step potentials
exercises the envelopes on the pair of decaying solutions that ``minimize``
solved (one ``solve_log_solution`` call, one mesh for both sides), and
checks 2 sqrt(v0) <= m <= 2 sqrt(v1).  The comparison principle is checked
here, not in the library: u_a = G(., a)/G(a, a) is built for V = 1 and for
the example potential above it, on the wider of their default windows, and
log u_a(V = 1) - log u_a(example) must stay above -1e-6 at 801 points.

Run from the repository root:  python3 demos/envelopes_and_comparison.py
"""

import math

import numpy as np

from sobolev1d import make_constant, make_example, make_piecewise_constant, minimize
from sobolev1d.fundamental import (
    check_envelope_bounds,
    check_riccati_residual,
    extremal_function,
    solve_log_solution,
)
from sobolev1d.minimizer import default_window

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
low, high = make_constant(1.0), make_example(1.0, 2.0)
w = max(default_window(low)[1], default_window(high)[1])
grid = np.linspace(-w, w, 801)
v_low, v_high = low.evaluate(grid), high.evaluate(grid)
precondition_ok = np.max(v_low - v_high) <= 1e-12 * max(1.0, np.max(np.abs(v_high)))
low_u, high_u = (
    extremal_function(*solve_log_solution(p, -w, w), 0.5).log_value(grid) for p in (low, high)
)
margin = float(np.min(low_u - high_u))
print(f"  precondition ok: {precondition_ok}")
print(f"  min log margin (u_low above u_high): {margin:+.3e}")
print(f"  passed: {precondition_ok and margin >= -1e-6}")
