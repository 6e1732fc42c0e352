"""Symmetric cones in eigenvalue space and the elementary symmetric polynomials.

The admissibility cones used throughout are the k-positive cones

    Gamma_k = { lam in R^n : sigma_1(lam) > 0, ..., sigma_k(lam) > 0 },

together with preimages of such cones under the averaging map

    T(lam)_k = (sum_{i != k} lam_i) / (n - 1).

All membership tests are strict (the cones are open); a separate ``margin``
accessor returns the smallest sigma value so callers can damp toward the
boundary without a fudge factor baked into membership.

Every function accepts batched input: ``lam`` may have shape ``(..., n)`` and
results broadcast over the leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConeViolation(ValueError):
    """Raised when an eigenvalue tuple is outside the required cone.

    ``index`` is the 1-based order j of the first violated sigma_j > 0
    constraint, ``value`` the offending sigma value.
    """

    def __init__(self, index: int, value: float, lam=None):
        self.index = index
        self.value = value
        self.lam = None if lam is None else np.asarray(lam)
        super().__init__(f"sigma_{index} = {value:.6g} is not > 0")


def sigma(k: int, lam) -> np.ndarray | float:
    """Elementary symmetric polynomial sigma_k of the last axis of ``lam``.

    Uses the stable O(n*k) recurrence
        e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m * e_{k-1}(x_1..x_{m-1})
    rather than subset enumeration.  sigma_0 = 1 by convention.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    out = sigma_all(lam, k)[..., k]
    return out if out.ndim else float(out)


def sigma_all(lam, kmax: int | None = None) -> np.ndarray:
    """All sigma_0..sigma_kmax of ``lam``, stacked on a trailing axis."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if kmax is None:
        kmax = n
    e = np.zeros(lam.shape[:-1] + (kmax + 1,))
    e[..., 0] = 1.0
    for m in range(n):
        top = min(m + 1, kmax)
        for j in range(top, 0, -1):
            e[..., j] += lam[..., m] * e[..., j - 1]
    return e


def without_each(lam) -> np.ndarray:
    """Every tuple ``lam`` with one entry dropped: shape ``(..., n, n - 1)``,
    row i holding the entries other than i in their order."""
    lam = np.asarray(lam, dtype=float)
    cols = np.arange(lam.shape[-1] - 1)
    return lam[..., cols + (cols >= np.arange(lam.shape[-1])[:, None])]


def t_map(lam) -> np.ndarray:
    """The averaging map T(lam)_k = (sum_{i != k} lam_i) / (n - 1), summing the
    other entries directly: sigma_1(lam) - lam_k cancels where lam_k dominates."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if n < 2:
        raise ValueError("t_map requires dimension n >= 2")
    return without_each(lam).sum(axis=-1) / (n - 1)


@dataclass(frozen=True)
class GammaCone:
    """The cone Gamma_k in dimension n: sigma_1, ..., sigma_k all > 0.

    k = 0 imposes no constraint: Gamma_0 is all of R^n, the projection of
    Gamma_1.
    """

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    def contains(self, lam) -> np.ndarray | bool:
        lam = np.asarray(lam, dtype=float)
        e = sigma_all(lam, self.k)
        ok = np.all(e[..., 1:] > 0.0, axis=-1)
        return ok if ok.ndim else bool(ok)

    def margin(self, lam) -> np.ndarray | float:
        """min_{j<=k} sigma_j(lam); positive iff lam is strictly inside."""
        lam = np.asarray(lam, dtype=float)
        e = sigma_all(lam, self.k)
        m = e[..., 1:].min(axis=-1, initial=np.inf)
        return m if m.ndim else float(m)

    def violation(self, lam) -> ConeViolation:
        """The first violated constraint at a single point outside the cone."""
        lam = np.asarray(lam, dtype=float)
        e = sigma_all(lam, self.k)
        for j in range(1, self.k + 1):
            if not e[j] > 0.0:
                return ConeViolation(j, float(e[j]), lam)
        raise ValueError("point is inside the cone")

    def projection(self) -> GammaCone:
        """The projection of the cone along one axis onto R^{n-1}.

        sigma_j(mu', t) = sigma_j(mu') + t * sigma_{j-1}(mu'), so (mu', t) lies
        in Gamma_k for some (then every larger) t iff mu' lies in Gamma_{k-1}.
        """
        return GammaCone(self.n - 1, max(self.k - 1, 0))


@dataclass(frozen=True)
class PreimageCone:
    """Preimage T^{-1}(inner) of a cone Gamma_k under the averaging map T."""

    inner: GammaCone

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def k(self) -> int:
        return self.inner.k

    def contains(self, lam):
        return self.inner.contains(t_map(lam))

    def margin(self, lam):
        return self.inner.margin(t_map(lam))

    def violation(self, lam) -> ConeViolation:
        return self.inner.violation(t_map(np.asarray(lam, dtype=float)))

    def projection(self) -> GammaCone:
        """The projection along one axis: R^{n-1} for k < n, else Gamma_1.

        T(mu', R) = T(mu', 0) + R/(n-1) * (1, ..., 1, 0), so in R each
        sigma_j(T(mu', R)) with j < n has leading coefficient
        C(n-1, j)/(n-1)^j > 0, and sigma_n has sum(mu')/(n-1)^n times R^{n-1}.
        """
        return GammaCone(self.n - 1, 1 if self.k == self.n else 0)


Cone = GammaCone | PreimageCone


def in_gamma_tilde(cone: Cone, mu) -> np.ndarray | bool:
    """Whether mu + t*e_i lies in ``cone`` for large t, for every axis i.

    This is the natural domain on which boundedness of the level-set
    intersection (mu + Gamma_n) for f = const can be decided.  By symmetry of
    the cone it holds iff mu with any one entry dropped lies in the projection.
    """
    ok = np.all(cone.projection().contains(without_each(mu)), axis=-1)
    return ok if ok.ndim else bool(ok)
