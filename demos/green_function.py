"""The Green function of -d^2/dx^2 + V from the two decaying solutions.

G(x, y) = phi_-(min) phi_+(max) / W inverts the operator: for any smooth
compactly supported v, the weak identity int (G_y' v' + V G_y v) = v(y)
holds, and the diagonal recovers the pinned energy via G(y, y) = 1/F(y).
Both are demonstrated below for a square-well step potential, plus the
kernel's symmetry and its unit derivative jump across the diagonal.  One
``solve_log_solution`` call returns both decaying solutions, on one mesh.

Run from the repository root:  python3 demos/green_function.py
"""

import numpy as np

from sobolev1d import build_green, make_piecewise_constant
from sobolev1d.fcurve import build_fcurve
from sobolev1d.fundamental import solve_log_solution
from sobolev1d.green import gaussian_test, residual_check

pot = make_piecewise_constant([-1.0, 1.0], [4.0, 1.0, 4.0])
plus, minus = solve_log_solution(pot, -25.0, 25.0)
green = build_green(plus, minus)
curve = build_fcurve(plus, minus)

print(f"potential: {pot.label}")
print(f"Wronskian = {green.wronskian:.12f}\n")

print("kernel values G(x, y):")
ys = (-2.0, 0.0, 2.0)
xs = np.linspace(-3.0, 3.0, 7)
print("      x\\y " + "".join(f"{y:>12.1f}" for y in ys))
for x in xs:
    row = "".join(f"{green.value(x, y):12.6f}" for y in ys)
    print(f"  {x:+7.2f} {row}")

print("\nsymmetry: max |G(x,y) - G(y,x)| =",
      f"{np.max(np.abs(green.value(xs, 1.3) - green.value(1.3, xs))):.2e}")

jump = green.section_derivative(0.5 + 1e-13, 0.5) - green.section_derivative(
    0.5 - 1e-13, 0.5
)
print(f"derivative jump across the diagonal: {jump:+.12f} (should be -1)")

print("\ndiagonal inverts the pinned energy, G(y,y) F(y) = 1:")
for y in (-1.5, 0.0, 1.5):
    print(f"  y = {y:+.1f}: {green.value(y, y) * curve.value_at(y):.12f}")

tests = [gaussian_test(c, 0.9) for c in (-1.0, 0.0, 1.4)]
report = residual_check(green, 0.3, tests)
print("\nweak identity residuals (three Gaussian test functions):")
for r in report.residuals:
    print(f"  {r:.2e}")
print("passed:", report.passed)
