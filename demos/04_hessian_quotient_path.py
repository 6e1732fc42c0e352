# Quotient continuity path with an unknown constant
# ==================================================
#
# The target equation asks a degree-1 wedge density to be a constant multiple
# of a degree-2 one; the multiple c is pinned by the background class.  The
# path interpolates from a pure Hessian member at t=0 to the quotient at t=1,
# carrying the constant c_t as an unknown.  Integrating the equation predicts
# c_t >= t*c, with equality of c_1 and the class constant at the endpoint.

import numpy as np

import conesolve as cs
from conesolve.torus import hessian_perturbation

grid = cs.PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
alpha = np.eye(2)

_, pert = hessian_perturbation(grid, amplitude=0.1, seed=21)
chi = cs.MatrixField(grid, 2.0 * np.eye(2) + pert.values)

c_class = cs.compute_c(chi, alpha, l=1, k=2)
print(f"class constant c = {c_class}  (unperturbed background gives 1/2 exactly)")

# pointwise certification of the trivial comparison function
eigs = np.linalg.eigvalsh(cs.endomorphism_field(alpha, chi).values).reshape(-1, 2)
certified = all(cs.quotient_cone_condition(ev, k=2, l=1, c=c_class) for ev in eigs)
print(f"pointwise cone condition for u=0: {certified}")

problem = cs.TorusProblem(grid, cs.HessianQuotientNeg(2, 1, 2), alpha, chi,
                          path=cs.PathKind.QUOTIENT)
report = cs.run_continuity(problem, cs.uniform_schedule(11))

print()
print("   t        c_t       t*c (floor)   residual   iters")
for s in report.steps:
    print(f" {s['t']:.2f}  {s['c']:+.9f}  {s['t'] * c_class:+.9f}  "
          f"{s['residual_norm']:.2e}   {s['newton_iterations']}")

print()
print(f"endpoint: |c_1 - c| = {abs(report.final.c - c_class):.2e}")
