"""Catalog of concave symmetric eigenvalue operators f on cones.

Each operator is a smooth symmetric function f on an open symmetric cone
Gamma containing the positive orthant, with

  * strictly positive partial derivatives f_i on the cone,
  * concavity (negative semidefinite Hessian),
  * f(t*lam) eventually exceeding any level below sup f along every ray.

The catalog:

  ``MongeAmpere``          f = sum_i log(lam_i)                 on Gamma_n
  ``LogSigmaK(k)``         f = log sigma_k                      on Gamma_k
  ``HessianQuotientNeg``   f = -(sigma_l/C(n,l))/(sigma_k/C(n,k))  on Gamma_k
  ``InverseSigmaK(k)``     f = (sigma_n/sigma_k)^(1/(n-k))      on Gamma_n
  ``BlendedQuotient``      t*quotient + (1-t)*(-C(n,k)/sigma_k) on Gamma_k
  ``ComposedWithT``        f(lam) = f_inner(T(lam))             on T^{-1}(cone)

Values, gradients and Hessians accept batched ``lam`` of shape ``(..., n)``.
The one-eigenvalue-to-infinity limit ``limit_at_infinity`` is the closed form
per kind; it is an extended real (+inf is a legal return), since finiteness of
the limit is a global property of the operator, not of the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .cones import (
    Cone,
    GammaCone,
    PreimageCone,
    sigma_all,
    sigma_without,
    t_map,
)


class NumericError(RuntimeError):
    """Bracketing or sampling failed to reach the requested target."""


def _check_batch(cone: Cone, lam: np.ndarray) -> None:
    ok = cone.contains(lam)
    if not np.all(ok):
        bad = lam if lam.ndim == 1 else lam[np.argwhere(~np.asarray(ok))[0][0]]
        raise cone.violation(bad)


def _sigma_grad(lam: np.ndarray, j: int) -> np.ndarray:
    """d sigma_j / d lam_i = sigma_{j-1} of the other components."""
    n = lam.shape[-1]
    g = np.empty(lam.shape)
    for i in range(n):
        g[..., i] = sigma_without(j - 1, lam, i)
    return g


def _sigma_hess(lam: np.ndarray, j: int) -> np.ndarray:
    """d^2 sigma_j / d lam_i d lam_l: sigma_{j-2} without both, zero diagonal."""
    n = lam.shape[-1]
    h = np.zeros(lam.shape + (n,))
    if j < 2:
        return h
    for i in range(n):
        reduced = np.delete(lam, i, axis=-1)
        for l in range(i + 1, n):
            val = sigma_without(j - 2, reduced, l - 1)
            h[..., i, l] = val
            h[..., l, i] = val
    return h


@dataclass(frozen=True)
class SymmetricOperator:
    """Base class: common plumbing for the concrete kinds below."""

    n: int

    #: does f(mu', R) -> +inf as R -> inf (global per kind)?
    limit_infinite = False
    sup_boundary = -math.inf
    sup_interior = math.inf

    @property
    def cone(self) -> Cone:
        raise NotImplementedError

    def value(self, lam, check: bool = True):
        lam = np.asarray(lam, dtype=float)
        if check:
            _check_batch(self.cone, lam)
        v = self._value(lam)
        return v if np.ndim(v) else float(v)

    def gradient(self, lam, check: bool = True) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if check:
            _check_batch(self.cone, lam)
        return self._gradient(lam)

    def hessian(self, lam, check: bool = True) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if check:
            _check_batch(self.cone, lam)
        return self._hessian(lam)

    def trace_gradient(self, lam, check: bool = True):
        """sum_i f_i(lam), the trace of the linearized coefficient matrix."""
        return self.gradient(lam, check=check).sum(axis=-1)

    def limit_at_infinity(self, mu_prime):
        """lim of f as one extra eigenvalue tends to +inf, at mu' in R^{n-1}."""
        mu_prime = np.asarray(mu_prime, dtype=float)
        if mu_prime.shape[-1] != self.n - 1:
            raise ValueError(f"mu' must have {self.n - 1} components")
        _check_batch(self.cone.projection(), mu_prime)
        if self.limit_infinite:
            shape = mu_prime.shape[:-1]
            return math.inf if not shape else np.full(shape, math.inf)
        v = self._limit(mu_prime)
        return v if np.ndim(v) else float(v)

    def _value(self, lam):
        raise NotImplementedError

    def _gradient(self, lam):
        raise NotImplementedError

    def _hessian(self, lam):
        raise NotImplementedError

    def _limit(self, mu_prime):
        raise NotImplementedError


@dataclass(frozen=True)
class MongeAmpere(SymmetricOperator):
    """f = sum_i log(lam_i) on the positive orthant."""

    limit_infinite = True

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.n)

    def _value(self, lam):
        return np.log(lam).sum(axis=-1)

    def _gradient(self, lam):
        return 1.0 / lam

    def _hessian(self, lam):
        n = self.n
        h = np.zeros(lam.shape + (n,))
        idx = np.arange(n)
        h[..., idx, idx] = -1.0 / lam**2
        return h


@dataclass(frozen=True)
class LogSigmaK(SymmetricOperator):
    """f = log sigma_k on the k-positive cone."""

    k: int = 1
    limit_infinite = True

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.k)

    def _value(self, lam):
        return np.log(sigma_all(lam, self.k)[..., self.k])

    def _gradient(self, lam):
        s = sigma_all(lam, self.k)[..., self.k]
        return _sigma_grad(lam, self.k) / s[..., None]

    def _hessian(self, lam):
        s = sigma_all(lam, self.k)[..., self.k][..., None, None]
        g = _sigma_grad(lam, self.k)
        h2 = _sigma_hess(lam, self.k)
        return h2 / s - g[..., :, None] * g[..., None, :] / s**2


def _binom(n: int, j: int) -> float:
    return float(math.comb(n, j))


@dataclass(frozen=True)
class HessianQuotientNeg(SymmetricOperator):
    """f = -(sigma_l/C(n,l)) / (sigma_k/C(n,k)) on Gamma_k, for 1 <= l < k."""

    l: int = 1
    k: int = 2

    sup_interior = 0.0

    def __post_init__(self):
        if not 1 <= self.l < self.k <= self.n:
            raise ValueError(f"need 1 <= l < k <= n, got l={self.l}, k={self.k}")

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.k)

    @property
    def _ratio(self) -> float:
        return _binom(self.n, self.k) / _binom(self.n, self.l)

    def _value(self, lam):
        e = sigma_all(lam, self.k)
        return -self._ratio * e[..., self.l] / e[..., self.k]

    def _gradient(self, lam):
        e = sigma_all(lam, self.k)
        a, b = e[..., self.l, None], e[..., self.k, None]
        ag, bg = _sigma_grad(lam, self.l), _sigma_grad(lam, self.k)
        return -self._ratio * (ag * b - a * bg) / b**2

    def _hessian(self, lam):
        e = sigma_all(lam, self.k)
        a, b = e[..., self.l, None, None], e[..., self.k, None, None]
        ag, bg = _sigma_grad(lam, self.l), _sigma_grad(lam, self.k)
        ah, bh = _sigma_hess(lam, self.l), _sigma_hess(lam, self.k)
        cross = ag[..., :, None] * bg[..., None, :] + ag[..., None, :] * bg[..., :, None]
        bb = bg[..., :, None] * bg[..., None, :]
        return -self._ratio * (ah / b - cross / b**2 - a * bh / b**2 + 2 * a * bb / b**3)

    def _limit(self, mu_prime):
        el = sigma_all(mu_prime, max(self.l - 1, 0))[..., self.l - 1]
        ek = sigma_all(mu_prime, self.k - 1)[..., self.k - 1]
        return -(el / _binom(self.n, self.l)) / (ek / _binom(self.n, self.k))


@dataclass(frozen=True)
class InverseSigmaK(SymmetricOperator):
    """f = (sigma_n / sigma_k)^(1/(n-k)) on the positive orthant."""

    k: int = 1

    sup_boundary = 0.0

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k}")

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.n)

    def _parts(self, lam):
        e = sigma_all(lam, self.n)
        return e[..., self.n], e[..., self.k]

    def _value(self, lam):
        an, ak = self._parts(lam)
        return (an / ak) ** (1.0 / (self.n - self.k))

    def _log_parts(self, lam):
        m = self.n - self.k
        an, ak = self._parts(lam)
        ang, akg = _sigma_grad(lam, self.n), _sigma_grad(lam, self.k)
        wg = (ang / an[..., None] - akg / ak[..., None]) / m
        anh, akh = _sigma_hess(lam, self.n), _sigma_hess(lam, self.k)
        def outer(g):
            return g[..., :, None] * g[..., None, :]
        wh = (
            (anh / an[..., None, None] - outer(ang) / an[..., None, None] ** 2)
            - (akh / ak[..., None, None] - outer(akg) / ak[..., None, None] ** 2)
        ) / m
        return wg, wh

    def _gradient(self, lam):
        f = self._value(lam)
        wg, _ = self._log_parts(lam)
        return f[..., None] * wg

    def _hessian(self, lam):
        f = self._value(lam)
        wg, wh = self._log_parts(lam)
        return f[..., None, None] * (wg[..., :, None] * wg[..., None, :] + wh)

    def _limit(self, mu_prime):
        en = sigma_all(mu_prime, self.n - 1)[..., self.n - 1]
        ek = sigma_all(mu_prime, self.k - 1)[..., self.k - 1]
        return (en / ek) ** (1.0 / (self.n - self.k))


@dataclass(frozen=True)
class BlendedQuotient(SymmetricOperator):
    """Interpolant t*f_quotient + (1-t)*(-C(n,k)/sigma_k) on Gamma_k.

    At t=1 this is ``HessianQuotientNeg(l, k)``; at t=0 it is the pure
    k-Hessian member written with the same normalization, so one cone and one
    set of derivative formulas serve the whole interpolation family.
    """

    l: int = 1
    k: int = 2
    t: float = 1.0

    sup_interior = 0.0

    def __post_init__(self):
        if not 1 <= self.l < self.k <= self.n:
            raise ValueError(f"need 1 <= l < k <= n, got l={self.l}, k={self.k}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"need 0 <= t <= 1, got {self.t}")

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.k)

    @property
    def _quot(self) -> HessianQuotientNeg:
        return HessianQuotientNeg(self.n, self.l, self.k)

    def _value(self, lam):
        b = sigma_all(lam, self.k)[..., self.k]
        return self.t * self._quot._value(lam) - (1 - self.t) * _binom(self.n, self.k) / b

    def _gradient(self, lam):
        b = sigma_all(lam, self.k)[..., self.k, None]
        bg = _sigma_grad(lam, self.k)
        hess0 = _binom(self.n, self.k) * bg / b**2
        return self.t * self._quot._gradient(lam) + (1 - self.t) * hess0

    def _hessian(self, lam):
        b = sigma_all(lam, self.k)[..., self.k, None, None]
        bg = _sigma_grad(lam, self.k)
        bh = _sigma_hess(lam, self.k)
        bb = bg[..., :, None] * bg[..., None, :]
        hess0 = _binom(self.n, self.k) * (bh / b**2 - 2 * bb / b**3)
        return self.t * self._quot._hessian(lam) + (1 - self.t) * hess0

    def _limit(self, mu_prime):
        # the pure-Hessian part decays like 1/sigma_k -> 0
        return self.t * self._quot._limit(mu_prime)


@dataclass(frozen=True)
class ComposedWithT(SymmetricOperator):
    """f(lam) = f_inner(T(lam)) with T(lam)_k = (sum_{i != k} lam_i)/(n-1)."""

    inner: SymmetricOperator = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.inner is None or self.inner.n != self.n:
            raise ValueError("inner operator must share the dimension n")
        if self.n < 2:
            raise ValueError("composition with T requires n >= 2")
        if isinstance(self.inner, ComposedWithT):
            raise ValueError("the inner operator cannot itself be composed with T")

    @property
    def limit_infinite(self):  # type: ignore[override]
        # sigma_n / sigma_k of T(mu', R) grows like R^(n-1-k)
        return self.inner.limit_infinite or (
            isinstance(self.inner, InverseSigmaK) and self.inner.k < self.n - 1)

    @property
    def sup_boundary(self):  # type: ignore[override]
        return self.inner.sup_boundary

    @property
    def sup_interior(self):  # type: ignore[override]
        return self.inner.sup_interior

    @property
    def cone(self) -> Cone:
        return PreimageCone(self.inner.cone)

    def _value(self, lam):
        return self.inner._value(t_map(lam))

    def _gradient(self, lam):
        g = self.inner._gradient(t_map(lam))
        return t_map(g)  # J is symmetric and acts as T on vectors

    def _hessian(self, lam):
        n = self.n
        j = (np.ones((n, n)) - np.eye(n)) / (n - 1)
        h = self.inner._hessian(t_map(lam))
        return np.einsum("pi,...pq,ql->...il", j, h, j)

    def _limit(self, mu_prime):
        # T maps (mu', R) to v + (R/(n-1)) * (1,...,1,0); the finite limit is
        # evaluated along that ray with Richardson extrapolation in 1/R.
        mu_prime = np.asarray(mu_prime, dtype=float)
        v = t_map(np.concatenate([mu_prime, np.zeros(mu_prime.shape[:-1] + (1,))], axis=-1))
        d = np.ones(self.n)
        d[-1] = 0.0
        scale = 1.0 + np.abs(mu_prime).max()
        s1, s2 = 1e8 * scale, 1e10 * scale
        f1 = self.inner._value(v + s1 / (self.n - 1) * d)
        f2 = self.inner._value(v + s2 / (self.n - 1) * d)
        return (s2 * f2 - s1 * f1) / (s2 - s1)


_KIND_NAMES = {
    "monge_ampere": MongeAmpere,
    "log_sigma_k": LogSigmaK,
    "hessian_quotient": HessianQuotientNeg,
    "inverse_sigma_k": InverseSigmaK,
    "composed_with_T": ComposedWithT,
}


def operator_from_name(name: str, n: int, k: int | None = None, l: int | None = None,
                       inner: str | None = None, inner_k: int | None = None) -> SymmetricOperator:
    """Build a catalog operator from its config-file name."""
    if name not in _KIND_NAMES:
        raise ValueError(f"unknown operator kind {name!r}; known: {sorted(_KIND_NAMES)}")
    if name == "monge_ampere":
        return MongeAmpere(n)
    if name == "log_sigma_k":
        if k is None:
            raise ValueError("log_sigma_k requires k")
        return LogSigmaK(n, k)
    if name == "hessian_quotient":
        if k is None or l is None:
            raise ValueError("hessian_quotient requires k and l")
        return HessianQuotientNeg(n, l, k)
    if name == "inverse_sigma_k":
        if k is None:
            raise ValueError("inverse_sigma_k requires k")
        return InverseSigmaK(n, k)
    if inner is None:
        raise ValueError("composed_with_T requires an inner operator name")
    return ComposedWithT(n, operator_from_name(inner, n, k=inner_k if inner_k else k, l=l))


@dataclass(frozen=True)
class LevelSetConstants:
    """Structural constants of the level set {f = sigma}.

    ``N`` solves f(N * ones) = sigma; by symmetry and convexity of the
    superlevel set, N * ones is its closest point to the origin, and the
    whole cone translated by N * ones lies strictly above the level.
    ``tau`` is an empirical lower bound for sum_i f_i over ``samples``
    sampled level-set points, not a certified constant.
    """

    sigma: float
    N: float
    tau: float
    samples: int


def level_set_constants(op: SymmetricOperator, sigma_level: float, samples: int = 512,
                        seed: int = 0) -> LevelSetConstants:
    if not op.sup_boundary < sigma_level < op.sup_interior:
        raise ValueError(
            f"sigma must lie in ({op.sup_boundary}, {op.sup_interior}), got {sigma_level}"
        )
    ones = np.ones(op.n)

    def g(t):
        return op.value(t * ones, check=False) - sigma_level

    lo = hi = 1.0
    for _ in range(200):
        if g(hi) > 0:
            break
        hi *= 2.0
    else:
        raise NumericError("could not bracket f(N*1) = sigma from above")
    for _ in range(200):
        if g(lo) < 0:
            break
        lo /= 2.0
    else:
        raise NumericError("could not bracket f(N*1) = sigma from below")
    big_n = brentq(g, lo, hi, xtol=1e-14, rtol=1e-14)

    pts = sample_level_set(op, sigma_level, samples, rng=np.random.default_rng(seed))
    tau = float(op.trace_gradient(pts).min())
    return LevelSetConstants(float(sigma_level), float(big_n), tau, samples)


def sample_level_set(op: SymmetricOperator, sigma_level: float, count: int,
                     rng: np.random.Generator, min_radius: float = 0.0,
                     max_rounds: int = 60) -> np.ndarray:
    """Sample ``count`` points on the level set {f = sigma} with |lam| > min_radius.

    Rays from the origin through directions inside the cone cross the level
    set exactly once in value terms: f -> below sigma near the vertex and
    above sigma far out.  Directions mix a positively-spread family (hits the
    far ends of the level set) and rejected Gaussians (hits the cone's
    non-orthant sectors).  Bisection is vectorized across the batch.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    if not op.sup_boundary < sigma_level < op.sup_interior:
        raise ValueError("sigma outside the attainable range")
    n = op.n
    cone = op.cone
    collected: list[np.ndarray] = []
    have = 0
    tried = accepted = 0
    for _ in range(max_rounds):
        rate = accepted / tried if tried else 0.25
        m = int(min(max(1.5 * (count - have) / max(rate, 0.02), 256), 400_000))
        half = m // 2
        beta = rng.uniform(0.0, 5.0, size=(half, 1))
        d_pos = 10.0 ** (-beta * rng.uniform(0.0, 1.0, size=(half, n)))
        d_gauss = rng.standard_normal((m - half, n))
        keep = np.asarray(cone.contains(d_gauss), dtype=bool)
        dirs = np.concatenate([d_pos, d_gauss[keep]], axis=0)
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        lam = _rays_to_level(op, dirs, sigma_level)
        if lam.size:
            lam = lam[np.linalg.norm(lam, axis=-1) > min_radius]
        tried += m
        if lam.size:
            accepted += lam.shape[0]
            collected.append(lam)
            have += lam.shape[0]
        if have >= count:
            break
    else:
        raise NumericError(
            f"level-set sampling got {have}/{count} points at radius > {min_radius}"
        )
    return np.concatenate(collected, axis=0)[:count]


def _rays_to_level(op: SymmetricOperator, dirs: np.ndarray, sigma_level: float,
                   iters: int = 60) -> np.ndarray:
    """Bisect t on each ray t * d so that f(t*d) = sigma.  Drops failed rays."""
    m = dirs.shape[0]
    t_hi = np.ones(m)
    val = op.value(dirs, check=False)
    val = np.atleast_1d(val)
    for _ in range(120):
        below = val <= sigma_level
        if not below.any():
            break
        t_hi[below] *= 2.0
        val[below] = np.atleast_1d(op.value(t_hi[below, None] * dirs[below], check=False))
        if t_hi.max() > 1e30:
            break
    t_lo = t_hi / 2.0
    val = np.atleast_1d(op.value(t_lo[:, None] * dirs, check=False))
    for _ in range(200):
        above = val >= sigma_level
        if not above.any():
            break
        t_lo[above] /= 2.0
        val[above] = np.atleast_1d(op.value(t_lo[above, None] * dirs[above], check=False))
        if t_lo.min() < 1e-30:
            break
    good = (np.atleast_1d(op.value(t_lo[:, None] * dirs, check=False)) < sigma_level) & (
        np.atleast_1d(op.value(t_hi[:, None] * dirs, check=False)) > sigma_level
    )
    dirs, t_lo, t_hi = dirs[good], t_lo[good], t_hi[good]
    for _ in range(iters):
        t_mid = 0.5 * (t_lo + t_hi)
        above = np.atleast_1d(op.value(t_mid[:, None] * dirs, check=False)) > sigma_level
        t_hi = np.where(above, t_mid, t_hi)
        t_lo = np.where(above, t_lo, t_mid)
    return 0.5 * (t_lo + t_hi)[:, None] * dirs
