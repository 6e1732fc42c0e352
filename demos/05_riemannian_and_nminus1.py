# Two more continuity paths: a real torus and the T-composed log-det operator
# ===========================================================================
#
# Real mode: F(A[u]) = c_t + (1-t) h0 deforms away the inhomogeneity, ending
# at a constant right-hand side; evaluating the equation at extrema of u
# forces t*min(h0) <= c_t <= t*max(h0) along the way.
#
# Complex mode: replacing eigenvalues lambda_k by averages of the others
# yields the operator behind the (n-1)-type log-det equation; the background
# transform (tr eta) alpha - (n-1) eta makes it a standard solve.

import numpy as np

import conesolve as cs
from conesolve.torus import hessian_perturbation

# --- real torus, m = 3 -----------------------------------------------------
grid = cs.PeriodicGrid.make("real", 3, 16, 1.0)
_, pert = hessian_perturbation(grid, amplitude=0.3, seed=41)
chi = cs.MatrixField(grid, 2.0 * np.eye(3) + pert.values)
problem = cs.TorusProblem(grid, cs.LogSigmaK(3, 2), np.eye(3), chi,
                          path=cs.PathKind.RIEMANNIAN)
report = cs.run_continuity(problem, cs.uniform_schedule(11))
h0 = problem.background_value
print(f"real m=3 path, h0 range [{h0.min():.4f}, {h0.max():.4f}]")
print("   t        c_t        in [t*min, t*max]?")
for s in report.steps:
    inside = s["t"] * h0.min() - 1e-8 <= s["c"] <= s["t"] * h0.max() + 1e-8
    print(f" {s['t']:.2f}  {s['c']:+.9f}   {inside}")

# --- T-composed operator, n = 2 --------------------------------------------
grid2 = cs.PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
_, pert2 = hessian_perturbation(grid2, amplitude=1.0, seed=31)
eta = cs.MatrixField(grid2, np.eye(2) + 0.1 * pert2.values)
chi2 = cs.nminus1_background(eta, np.eye(2))
op = cs.ComposedWithT(2, cs.MongeAmpere(2))
h = cs.random_band_limited(grid2, 0.2, seed=32)
problem2 = cs.TorusProblem(grid2, op, np.eye(2), chi2, h, path=cs.PathKind.HESSIAN)
report2 = cs.run_continuity(problem2, cs.uniform_schedule(11))
final = report2.final
print()
print(f"T-composed log-det path: residual {final.residual_norm:.2e}, "
      f"constant c = {final.c:+.6f}")

# cross-check: re-integrate the solved equation to recover the constant
endo = cs.endomorphism_field(np.eye(2), chi2, final.u)
lam = np.linalg.eigvalsh(endo.values)
c_again = float((np.asarray(op.value(lam, check=False)) - h.values).mean())
print(f"re-integrated constant: {c_again:+.6f} (drift {abs(c_again - final.c):.1e})")
