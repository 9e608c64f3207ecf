"""Cross-checking the analytic minimizer against a brute-force mesh.

The direct route discretizes the quadratic form on a uniform Dirichlet mesh,
gets the pinned energy at every interior node from two elimination sweeps of
the tridiagonal stationarity matrix, and takes the smallest.  It shares no
code path with the Riccati-based solver, so agreement is meaningful
evidence.  The gap
shrinks at second order in the mesh spacing; for a potential whose infimum
is not attained, widening the mesh keeps lowering the discrete minimum and
drags the argmin toward the cheap tail, which is the numerical signature of
non-attainment.

Run from the repository root:  python3 demos/mesh_crosscheck.py
"""

from sobolev1d import make_example, make_monotone_step, minimize
from sobolev1d.oracle import DiscreteRayleighProblem, discrete_minimize

pot = make_example(1.0, 2.0)
report = minimize(pot)
print(f"analytic: m = {report.m_value:.12f} at a* = {report.a_star:.9f}\n")

print("  spacing h      discrete m         gap        argmin node")
prev = None
for h in (0.02, 0.01, 0.005, 0.0025):
    problem = DiscreteRayleighProblem.from_potential(pot, 30.0, h)
    m_disc, j = discrete_minimize(problem)
    gap = m_disc - report.m_value
    ratio = "" if prev is None else f"   (ratio {prev / gap:4.1f})"
    print(f"  {h:9.4f}  {m_disc:.12f}  {gap:10.2e}  x = {problem.nodes[j]:+.4f}{ratio}")
    prev = gap

print("\nnon-attained case (monotone step, infimum only in the limit a -> -inf):")
step = make_monotone_step(1.0, 4.0)
analytic = minimize(step)
print(f"analytic: m = {analytic.m_value:.9f}, attainment = {analytic.attainment}")
for half_width in (30.0, 60.0):
    problem = DiscreteRayleighProblem.from_potential(step, half_width, 0.01)
    m_disc, j = discrete_minimize(problem)
    print(f"  mesh on [-{half_width:g}, {half_width:g}]: "
          f"m = {m_disc:.9f}, argmin x = {problem.nodes[j]:+.2f}")
print("wider mesh, lower discrete minimum, argmin further left: no minimizer.")
