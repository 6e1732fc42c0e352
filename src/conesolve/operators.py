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

Level crossings are closed forms too.  Along a ray t*d from the origin each
kind scales, f(t d) = f(d) + h log t or t^h f(d) (``ray_crossing``).  Along a
line x + t w every sigma_j is a polynomial in t, and each kind states f > sigma
as one linear combination of the sigma_j being positive (``_level_weights``),
so a coordinate ray meets the level at the largest root of a polynomial of
degree at most n - 1 (``coordinate_crossing``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    Cone,
    GammaCone,
    PreimageCone,
    sigma_all,
    sigma_without,
    t_map,
)


class NumericError(RuntimeError):
    """A level crossing or the sampling did not reach the requested target."""


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


def _line_sigmas(x: np.ndarray, w: np.ndarray, kmax: int) -> np.ndarray:
    """Coefficients in t, constant first, of sigma_0..sigma_kmax(x + t w).

    The ``sigma_all`` recurrence run on the linear entries x_m + t w_m; shape
    ``x.shape[:-1] + (kmax + 1, kmax + 1)``, and the constant terms are
    ``sigma_all(x, kmax)``.
    """
    e = np.zeros(x.shape[:-1] + (kmax + 1, kmax + 1))
    e[..., 0, 0] = 1.0
    for m in range(x.shape[-1]):
        for j in range(min(m + 1, kmax), 0, -1):
            e[..., j, :] += x[..., m, None] * e[..., j - 1, :]
            e[..., j, 1:] += w[m] * e[..., j - 1, :-1]
    return e


def _top_root(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(largest real root, positive for large t) of sum_d c[..., d] t^d.

    The root is -inf where there is none.  Degree at most two: a line with
    one zero direction entry meets sigma_j in degree <= n - 1, and n <= 3.
    """
    if np.any(c[..., 3:]):
        raise ValueError("a level crossing of degree above two has no closed form here")
    c0, c1 = c[..., 0], c[..., 1]
    c2 = c[..., 2] if c.shape[-1] > 2 else np.zeros_like(c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
        quadratic = np.where(disc >= 0, np.fmax(q / c2, c0 / q), -np.inf)
        root = np.where(c2 != 0, quadratic, np.where(c1 != 0, -c0 / c1, -np.inf))
    lead = np.where(c2 != 0, c2, np.where(c1 != 0, c1, c0))
    return root, lead > 0


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

    def ray_crossing(self, dirs, sigma_level) -> np.ndarray:
        """The t > 0 with f(t d) = sigma, per direction d (the rows of ``dirs``)
        inside the cone."""
        degree, logarithmic = self._scaling
        f = np.asarray(self._value(np.asarray(dirs, dtype=float)))
        with np.errstate(all="ignore"):
            if logarithmic:  # f(t d) = f(d) + degree * log t
                return np.exp((sigma_level - f) / degree)
            return (sigma_level / f) ** (1.0 / degree)  # f(t d) = t^degree f(d)

    def coordinate_crossing(self, mu, axis: int, sigma_level) -> np.ndarray:
        """The least t >= 0 past which mu + t e_axis lies in the cone and above
        the level, per row of ``mu``; ``sigma_level`` is a scalar or per row.

        Raises ``NumericError`` if some ray never gets there.
        """
        mu = np.asarray(mu, dtype=float)
        return self._line_crossing(mu, np.eye(self.n)[axis], sigma_level)

    def _line_crossing(self, x, w, sigma_level) -> np.ndarray:
        # On the cone f > sigma iff the residual sum_j w_j sigma_j is positive.
        # A line that ends up in the cone (every sigma_j, j <= k, positive for
        # large t) enters it where sigma_k last vanishes; the residual is <= 0
        # there, as f falls to sup_boundary, and f increases beyond, so the
        # crossing is the residual's last root.
        k = self.cone.k
        weights = self._level_weights(sigma_level)
        e = _line_sigmas(x, w, max(k, *weights))
        residual = sum(np.asarray(c)[..., None] * e[..., j, :] for j, c in weights.items())
        root, above = _top_root(residual)
        inside = [_top_root(e[..., j, :])[1] for j in range(1, k + 1)]
        if not (np.all(inside) and np.all(above)):
            raise NumericError(f"a coordinate ray of {self!r} never crosses the level set")
        return np.maximum(root, 0.0)

    @property
    def _scaling(self) -> tuple[float, bool]:
        """(h, logarithmic): f(t d) = f(d) + h log t if logarithmic, else t^h f(d)."""
        raise NotImplementedError

    def _level_weights(self, sigma_level) -> dict:
        """{j: w_j} with f > sigma on the cone iff sum_j w_j sigma_j > 0."""
        raise NotImplementedError

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

    @property
    def _scaling(self):
        return self.n, True

    def _level_weights(self, sigma_level):
        return {0: -np.exp(sigma_level), self.n: 1.0}


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

    @property
    def _scaling(self):
        return self.k, True

    def _level_weights(self, sigma_level):
        return {0: -np.exp(sigma_level), self.k: 1.0}


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

    def _limit_under_t(self, total):
        # sigma_l/sigma_k of T(mu', R) has degrees l and min(k, n-1) in R; they
        # agree only for (l, k) = (n-1, n), with leading coefficients in the
        # ratio (n-1)/sum(mu')
        if self.l == self.n - 1:
            return -(self.n - 1) / (self.n * total)
        return np.zeros_like(total)

    @property
    def _scaling(self):
        return self.l - self.k, False

    def _level_weights(self, sigma_level):
        return {self.l: -self._ratio, self.k: -np.asarray(sigma_level)}


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

    def _limit_under_t(self, total):
        # finite only for k = n-1: sigma_n/sigma_{n-1} of T(mu', R) tends to
        # the last entry of T(mu', 0), sum(mu')/(n-1)
        return total / (self.n - 1)

    @property
    def _scaling(self):
        return 1.0, False

    def _level_weights(self, sigma_level):
        # f > sigma iff sigma_n > sigma^(n-k) sigma_k; f > 0 >= sigma always
        level = np.maximum(sigma_level, 0.0)
        return {self.k: -level ** (self.n - self.k), self.n: 1.0}


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

    def _limit_under_t(self, total):
        return self.t * self._quot._limit_under_t(total)

    @property
    def _scaling(self):
        return self._crossing_quotient._scaling

    def _level_weights(self, sigma_level):
        return self._crossing_quotient._level_weights(sigma_level)

    @property
    def _crossing_quotient(self) -> HessianQuotientNeg:
        # below t = 1, f(s d) mixes the degrees l-k and -k; nothing samples
        # the blend's level sets there
        if self.t != 1.0:
            raise ValueError(f"{self!r} has no closed-form level crossing for t < 1")
        return self._quot


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
        # T(mu', R) = T(mu', 0) + R/(n-1) (1, ..., 1, 0): in R, sigma_j has
        # leading coefficient C(n-1, j)/(n-1)^j for j < n and sum(mu')/(n-1)^n
        # at degree n-1 for j = n, so the limit is a ratio of those
        return self.inner._limit_under_t(np.sum(mu_prime, axis=-1))

    @property
    def _scaling(self):
        return self.inner._scaling  # T is linear

    def coordinate_crossing(self, mu, axis: int, sigma_level) -> np.ndarray:
        # T(mu + t e_i) = T(mu) + t (1 - e_i)/(n-1): a line for the inner operator
        mu = np.asarray(mu, dtype=float)
        return self.inner._line_crossing(t_map(mu), t_map(np.eye(self.n)[axis]), sigma_level)


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
    big_n = float(op.ray_crossing(np.ones((1, op.n)), sigma_level)[0])
    if not 0.0 < big_n < math.inf:
        raise NumericError(f"f(N * 1) = {sigma_level} has no finite solution N, got {big_n}")

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
    non-orthant sectors).  Each ray meets the level at the operator's
    closed-form ``ray_crossing``.
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


#: the crossings t of unit rays that are sampled; rays crossing the level
#: outside (2^-100, 2^100), or nowhere, are dropped
_RAY_REACH = (2.0**-100, 2.0**100)


def _rays_to_level(op: SymmetricOperator, dirs: np.ndarray, sigma_level: float) -> np.ndarray:
    """The points t * d on {f = sigma}, for the rays crossing within reach."""
    t = op.ray_crossing(dirs, sigma_level)
    keep = (t > _RAY_REACH[0]) & (t < _RAY_REACH[1])
    return t[keep, None] * dirs[keep]
