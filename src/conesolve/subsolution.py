"""Pointwise subsolution certificates via boundedness of level-set intersections.

A comparison tuple mu admits the subsolution property at level sigma when the
set (mu + Gamma_n) intersected with {f = sigma} is bounded.  Boundedness is
decided exactly through the one-eigenvalue-to-infinity limit: the set is
bounded iff every (n-1)-subtuple of mu lies in the projection of the cone and
f at infinity exceeds sigma there.  ``SymmetricOperator.subtuple_limits``
tabulates both per dropped entry; verdicts and witnesses read that one table.

The quantitative side is the dichotomy: for level-set points lambda far from
the origin, either the gradient pairing sum_i f_i (mu_i - lambda_i) exceeds
kappa * sum_i f_i, or every component f_i does.  The constant kappa exists by
compactness but has no formula; ``estimate_kappa`` reports an empirical floor
from level-set sampling of one fixed stream and never claims a certified value.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .cones import GammaCone, without_each
from .eigencalc import require_hermitian
from .operators import (
    HessianQuotientNeg,
    NumericError,
    SymmetricOperator,
    row_norms,
    sample_level_set,
)
from .rules import require

LEVEL_SET_TOL = 1e-8

#: the rule of each certify setting, for ``rules.require``: (predicate, phrase)
CERTIFY_RULES = {
    "delta_grid": (lambda deltas: len(deltas) > 0 and all(0.0 < d < math.inf for d in deltas),
                   "must list finite deltas > 0"),
    "kappa_samples": (lambda count: count >= 0, "must be >= 0"),
}


class DichotomyBranch(enum.Enum):
    GRADIENT_PAIRING = "gradient_pairing"
    ALL_LARGE = "all_large"
    VIOLATION = "violation"


def is_subsolution_point(op: SymmetricOperator, mu, sigma_level: float) -> bool:
    """Whether (mu + Gamma_n) meets {f = sigma} in a bounded set.

    Raises the projection's ``ConeViolation`` when a subtuple of mu lies
    outside the projection of the cone, before comparing any limit.
    """
    inside, limits = op.subtuple_limits(mu)
    if not inside.all():
        raise op.cone.projection().violation(without_each(mu)[np.argmin(inside)])
    return bool(np.all(limits > sigma_level))


def dichotomy_check(op: SymmetricOperator, mu, sigma_level: float, lam,
                    kappa: float) -> DichotomyBranch:
    """Evaluate both dichotomy inequalities at a level-set point lam.

    The gradient-pairing branch is preferred when both hold.  Raises if lam
    is not on the level set {f = sigma} to within 1e-8.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    value = op.value(lam)
    if abs(value - sigma_level) >= LEVEL_SET_TOL:
        raise ValueError(
            f"lambda is not on the level set: |f - sigma| = {abs(value - sigma_level):.3e}"
        )
    g = op.gradient(lam, check=False)
    trace = g.sum()
    if float(g @ (mu - lam)) > kappa * trace:
        return DichotomyBranch.GRADIENT_PAIRING
    if float(g.min()) > kappa * trace:
        return DichotomyBranch.ALL_LARGE
    return DichotomyBranch.VIOLATION


def dichotomy_margins(op: SymmetricOperator, mu: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """max of the two branch ratios per sample; dichotomy holds at kappa < margin."""
    g = op.gradient(lam, check=False)
    trace = g.sum(axis=-1)
    pairing = np.einsum("...i,...i->...", g, mu - lam) / trace
    smallest = g.min(axis=-1) / trace
    return np.maximum(pairing, smallest)


def estimate_kappa(op: SymmetricOperator, mu, sigma_level, radius: float, samples: int) -> float:
    """Empirical dichotomy constant from level-set sampling.

    Samples points on {f = sigma} with |lambda| > radius from the fixed
    stream ``default_rng(0)`` and returns the largest power of two at or below
    half the smallest observed branch margin, a held-out safety notch: the
    value is a sampled floor, not a certified constant.  ``mu`` may hold rows
    and ``sigma_level`` one level per row: one ``sample_level_set`` draw then
    serves every level, and the floor is over all of them.
    """
    mu = np.asarray(mu, dtype=float)
    lam = sample_level_set(op, sigma_level, samples, np.random.default_rng(0),
                           min_radius=radius)
    margins = dichotomy_margins(op, mu[..., None, :], lam)
    m_min = float(margins.min())
    if m_min <= 0:
        raise NumericError(
            f"dichotomy margin {m_min:.3e} is not positive at radius {radius:.3g}; "
            "(mu, sigma, radius) do not satisfy the boundedness premise"
        )
    return 2.0 ** math.floor(math.log2(m_min / 2.0))


def schur_horn_pairing(f_diag, b) -> bool:
    """Check sum_i F_i B_ii >= sum_i F_i mu_i for ascending F and descending mu.

    The diagonal of a Hermitian matrix lies in the permutohedron of its
    eigenvalues, and pairing an ascending weight vector against the descending
    eigenvalues minimizes the sum, so the inequality always holds; it is
    exposed as a property check of that mechanism.
    """
    f_diag = np.asarray(f_diag, dtype=float)
    if np.any(np.diff(f_diag) < 0):
        raise ValueError("f_diag must be sorted ascending")
    b = require_hermitian(b)
    mu = np.linalg.eigvalsh(b)[::-1]
    lhs = float(f_diag @ np.real(np.diag(b)))
    rhs = float(f_diag @ mu)
    return lhs >= rhs - 1e-12 * (1.0 + abs(rhs))


def quotient_cone_condition(chi_eigs, k: int, l: int, c: float) -> bool:
    """Pointwise admissibility of the quotient continuity path at t = 1.

    For every (n-1)-subtuple mu' of the background eigenvalues the limit of
    the quotient operator, -(sigma_{l-1}(mu')/C(n,l)) / (sigma_{k-1}(mu')/C(n,k)),
    must exceed -c: chi_eigs is a subsolution point of the quotient at level
    -c.  The condition is monotone in c.  With l = 0 there is no quotient term
    and the condition always holds on the k-positive cone.
    """
    chi_eigs = np.asarray(chi_eigs, dtype=float)
    n = chi_eigs.shape[-1]
    if not 0 <= l < k <= n:
        raise ValueError(f"need 0 <= l < k <= n, got l={l}, k={k}")
    cone = GammaCone(n, k)
    if not cone.contains(chi_eigs):
        raise cone.violation(chi_eigs)
    if l == 0:
        return True
    return is_subsolution_point(HessianQuotientNeg(n, l, k), chi_eigs, -c)


@dataclass(frozen=True)
class SubsolutionCertificate:
    """Outcome of certifying the trivial comparison function over a grid.

    When certified: for every checked point, the shifted eigenvalue tuple
    mu = lambda(B(x)) - 2*delta*ones keeps the level-set intersection at
    level h(x) bounded, and R is the largest |mu + t e_i| over the points and
    axes at the exact coordinate-ray crossings of the level.  kappa is the
    sampled dichotomy floor at the tightest grid points.  When refuted, the
    witness names the deltas skipped for leaving the natural domain, then
    either an unbounded point or, if no delta was admissible, the first point
    outside it with the violated constraint of its subtuple.
    """

    delta: float
    radius: float
    kappa: float
    sigma_range: tuple[float, float]
    verdict: str  # "certified" | "refuted"
    kappa_samples: int = 0
    witness: dict | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        def clean(x):
            return None if (isinstance(x, float) and math.isnan(x)) else x

        return {
            "delta": self.delta,
            "R": clean(self.radius),
            "kappa": clean(self.kappa),
            "kappa_samples": self.kappa_samples,
            "sigma_range": list(self.sigma_range),
            "verdict": self.verdict,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def certify_field(op: SymmetricOperator, eigenvalue_field, rhs_field, delta_grid,
                  kappa_samples: int = 2000) -> SubsolutionCertificate:
    """Certify the comparison data over a grid, at the largest workable delta.

    ``eigenvalue_field`` holds lambda(B(x)) per point, shape (npts, n);
    ``rhs_field`` the level h(x) per point.  For each candidate delta
    (largest first) the shifted tuples lambda(B) - 2*delta*ones must keep the
    level-set intersection bounded at every point; deltas that push any point
    out of the natural domain are skipped.  The radius R comes from the
    coordinate rays' crossings of the level sets.
    """
    mu_all = np.asarray(eigenvalue_field, dtype=float)
    sigmas = np.asarray(rhs_field, dtype=float).ravel()
    if mu_all.ndim != 2 or mu_all.shape[0] != sigmas.shape[0]:
        raise ValueError("eigenvalue field must be (npts, n) matching rhs_field")
    deltas = sorted(set(float(d) for d in delta_grid), reverse=True)
    require(CERTIFY_RULES, "delta_grid", deltas, shown=list(delta_grid))
    require(CERTIFY_RULES, "kappa_samples", kappa_samples)
    sigma_range = (float(sigmas.min()), float(sigmas.max()))

    last_failure: dict | None = None
    skipped: list[float] = []
    for delta in deltas:
        mu = mu_all - 2.0 * delta
        inside, limits = op.subtuple_limits(mu)
        if not inside.all():  # this delta exits the natural domain somewhere
            skipped.append(delta)
            point, i = (int(x) for x in np.argwhere(~inside)[0])
            violation = op.cone.projection().violation(without_each(mu[point])[i])
            domain_failure = {"point": point, "delta": delta, "subtuple": i, "violation": {
                "index": violation.index, "sigma": violation.value}}
            continue
        bounded = limits > sigmas[:, None]
        if bounded.all():
            radius = coordinate_ray_radius(op, mu, sigmas)
            kappa = _kappa_at_tightest(op, mu, sigmas, radius, kappa_samples)
            return SubsolutionCertificate(
                delta=delta, radius=radius, kappa=kappa, sigma_range=sigma_range,
                verdict="certified", kappa_samples=kappa_samples,
            )
        point, i = (int(x) for x in np.argwhere(~bounded)[0])
        last_failure = {"point": point, "delta": delta, "subtuple": i,
                        "sigma": float(sigmas[point])}
    return SubsolutionCertificate(
        delta=deltas[-1], radius=math.nan, kappa=math.nan, sigma_range=sigma_range,
        verdict="refuted", witness={"skipped_deltas": skipped, **(last_failure or domain_failure)},
    )


def coordinate_ray_radius(op: SymmetricOperator, mu: np.ndarray, sigmas: np.ndarray) -> float:
    """max over points and axes of |mu + t* e_i| at the level crossing t*.

    t* is the operator's closed-form ``coordinate_crossings``, every axis from
    one call: the least t >= 0 past which mu + t e_i is in the cone and above
    the level.  Raises ``NumericError`` if some ray never crosses.
    """
    crossings = op.coordinate_crossings(mu, sigmas)
    radius = 0.0
    for i in range(mu.shape[1]):
        pts = mu.copy()
        pts[:, i] += crossings[:, i]
        radius = max(radius, float(row_norms(pts).max()))
    return radius


def _kappa_at_tightest(op: SymmetricOperator, mu: np.ndarray, sigmas: np.ndarray,
                       radius: float, kappa_samples: int) -> float:
    """Empirical kappa at the tightest few grid points (min-margin, sigma
    extremes), from one level-set draw for all of them."""
    if kappa_samples <= 0 or op.n == 1:
        # no samples asked for, or one-dimensional level sets: single points,
        # where the far-field dichotomy is vacuous and no constant is needed
        return math.nan
    margins = np.asarray(op.cone.margin(mu))
    picks = sorted({int(np.argmin(margins)), int(np.argmin(sigmas)), int(np.argmax(sigmas))})
    return estimate_kappa(op, mu[picks], sigmas[picks], radius, kappa_samples)
