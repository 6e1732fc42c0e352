# Subsolution geometry: bounded level-set intersections and the dichotomy
# ========================================================================
#
# A comparison tuple mu works at level sigma when (mu + positive orthant)
# meets {f = sigma} in a bounded set.  For quotient-type operators that is a
# real constraint; this script certifies a grid of comparison data, then
# samples the far reaches of a level set to estimate the dichotomy constant
# kappa and validates it on held-out samples.

import numpy as np

import conesolve as cs

# pointwise criterion for the quotient operator
hq = cs.HessianQuotientNeg(2, 1, 2)
print("quotient operator, mu = (1, 1):")
for sigma in (-0.4, -0.6):
    ok = cs.is_subsolution_point(hq, [1.0, 1.0], sigma)
    print(f"  level {sigma:+.2f}: bounded = {ok}   (limit is -0.5)")

# certify a whole field of comparison eigenvalues at once
ma = cs.MongeAmpere(2)
b_eigs = np.ones((64, 2))
levels = 0.3 * np.sin(np.linspace(0.0, 2 * np.pi, 64))
cert = cs.certify_field(ma, b_eigs, levels, delta_grid=[0.45, 0.3, 0.1],
                        kappa_samples=2000)
print()
print("certificate for the identity background under the log-det operator:")
print(cert.to_json())

# dichotomy: far out on the level set, either the gradient pairing with mu
# is large, or every gradient component is
print()
print("dichotomy branches for mu=(2,2) on {sum log = 0}:")
for lam in ([100.0, 0.01], [1.0, 1.0]):
    branch = cs.dichotomy_check(ma, [2.0, 2.0], 0.0, lam, kappa=0.3)
    print(f"  lambda = {lam}: {branch.value}")

kappa = cs.estimate_kappa(ma, [2.0, 2.0], 0.0, radius=10.0, samples=10_000)
held_out = cs.sample_level_set(ma, 0.0, 10_000, np.random.default_rng(2),
                               min_radius=10.0)
from conesolve.subsolution import dichotomy_margins

margins = dichotomy_margins(ma, np.array([2.0, 2.0]), held_out)
print()
print(f"empirical kappa = {kappa} from 10^4 samples;"
      f" held-out min margin = {margins.min():.3f} -> violations:"
      f" {int((margins <= kappa).sum())}")
