"""Catalog of concave symmetric eigenvalue operators f on cones.

Each operator is a smooth symmetric function f on an open symmetric cone
Gamma containing the positive orthant, with strictly positive partial
derivatives, a negative semidefinite Hessian, and f(t*lam) eventually
exceeding any level below sup f along every ray.  Each kind states f once, as
a short sum of ``terms`` c*log(sigma_j) or c*prod_j sigma_j^(a_j) in the
elementary symmetric polynomials of lam:

  ``MongeAmpere``          log sigma_n                                   on Gamma_n
  ``LogSigmaK(k)``         log sigma_k                                   on Gamma_k
  ``HessianQuotientNeg``   -(C(n,k)/C(n,l)) sigma_l sigma_k^-1            on Gamma_k
  ``InverseSigmaK(k)``     sigma_n^(1/(n-k)) sigma_k^(-1/(n-k))           on Gamma_n
  ``BlendedQuotient``      t*(quotient term) - (1-t) C(n,k) sigma_k^-1    on Gamma_k
  ``ComposedWithT``        the inner kind's terms in the sigma_j of T(lam)

One calculus on ``SymmetricOperator`` derives the rest from the terms: value,
gradient and Hessian by the chain rule over the sigma_j (batched over
``lam`` of shape ``(..., n)``); the scaling along rays from the origin; and
the limit as one eigenvalue tends to +inf.  Along that escaping line sigma_j
grows like lead_j R^(d_j): a log term or a positive degree sum_j a_j d_j
sends f to +inf, a negative degree tends to 0 and degree 0 to
c prod_j lead_j^(a_j).  The limit is an extended real, since finiteness is a
global property of the operator, not of the argument.

Level crossings are closed forms.  Along a ray t*d from the origin each kind
scales, f(t d) = f(d) + h log t or t^h f(d) (``ray_crossing``).  Along a line
x + t w every sigma_j is a polynomial in t, and each kind states f > sigma as
one linear combination of the sigma_j being positive (``_level_weights``), so
a coordinate ray meets the level at the largest root of a polynomial of
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
    t_map,
    without_each,
)


class NumericError(RuntimeError):
    """A level crossing or the sampling did not reach the requested target."""


def _check_batch(cone: Cone, lam: np.ndarray) -> None:
    ok = cone.contains(lam)
    if not np.all(ok):
        bad = lam if lam.ndim == 1 else lam[np.argwhere(~np.asarray(ok))[0][0]]
        raise cone.violation(bad)


def _sigma_jets(lam: np.ndarray, js, second: bool):
    """sigma_0..sigma_max(js) of lam; for each j in ``js`` the gradient of
    sigma_j, shape ``(..., n)``; and if ``second`` its Hessian, ``(..., n, n)``.

    d sigma_j / d lam_i is sigma_{j-1} without entry i, and
    d^2 sigma_j / d lam_i d lam_m is sigma_{j-2} without both (zero for i = m).
    """
    n, kmax = lam.shape[-1], max(js)
    without = without_each(lam)
    de = sigma_all(without, kmax - 1)
    d2e = {j: np.zeros(lam.shape + (n,)) for j in js} if second else {}
    if second and kmax >= 2:
        # row i, entry p of the pairs drops entry i of lam, then entry p of the
        # rest: the off-diagonal (i, m) in row-major order
        pairs = sigma_all(without_each(without), kmax - 2)
        pairs = pairs.reshape(lam.shape[:-1] + (n * (n - 1), kmax - 1))
        for j in js - {1}:
            d2e[j][..., ~np.eye(n, dtype=bool)] = pairs[..., j - 2]
    return sigma_all(lam, kmax), {j: de[..., j - 1] for j in js}, d2e


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


@dataclass(frozen=True)
class Term:
    """c * log sigma_j if ``log`` (``powers`` is then the one pair (j, 1)), else
    c * prod_j sigma_j^a_j over the pairs (j, a_j) of ``powers``."""

    c: float
    powers: tuple[tuple[int, float], ...]
    log: bool = False

    def at(self, s: np.ndarray) -> np.ndarray:
        """The term with s[..., j] in place of sigma_j."""
        if self.log:
            ((j, _),) = self.powers
            return self.c * np.log(s[..., j])
        return self.c * math.prod(s[..., j] ** a for j, a in self.powers)

    def partials(self, s: np.ndarray) -> dict:
        """{j: d(term)/d sigma_j} with s[..., j] in place of sigma_j."""
        if self.log:
            ((j, _),) = self.powers
            return {j: self.c / s[..., j]}
        value = self.at(s)
        return {j: a * value / s[..., j] for j, a in self.powers}

    def degree(self, degrees) -> float:
        """sum_j a_j d_j: the degree of the product when sigma_j has degree d_j."""
        return sum(a * degrees[j] for j, a in self.powers)


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
    """Base class: the calculus every kind derives from its ``terms``."""

    n: int

    sup_boundary = -math.inf
    sup_interior = math.inf

    @property
    def cone(self) -> Cone:
        raise NotImplementedError

    @property
    def terms(self) -> tuple[Term, ...]:
        """f as a sum of terms in the sigma_j of its argument."""
        raise NotImplementedError

    def _checked(self, lam, check: bool) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if check:
            _check_batch(self.cone, lam)
        return lam

    def value(self, lam, check: bool = True):
        v = self._value(self._checked(lam, check))
        return v if np.ndim(v) else float(v)

    def gradient(self, lam, check: bool = True) -> np.ndarray:
        return self._gradient(self._checked(lam, check))

    def hessian(self, lam, check: bool = True) -> np.ndarray:
        return self._hessian(self._checked(lam, check))

    @property
    def limit_infinite(self) -> bool:
        """Does f(mu', R) -> +inf as R -> inf (global per kind)?"""
        degrees = self._escape_degrees
        return any(term.log or term.degree(degrees) > 0 for term in self.terms)

    def limit_at_infinity(self, mu_prime):
        """lim of f as one extra eigenvalue tends to +inf, at mu' in R^{n-1}."""
        mu_prime = np.asarray(mu_prime, dtype=float)
        if mu_prime.shape[-1] != self.n - 1:
            raise ValueError(f"mu' must have {self.n - 1} components")
        _check_batch(self.cone.projection(), mu_prime)
        return self._limit_at_infinity(mu_prime)

    def _limit_at_infinity(self, mu_prime: np.ndarray):
        """``limit_at_infinity`` at rows the caller knows lie in the projection."""
        shape = mu_prime.shape[:-1]
        if self.limit_infinite:
            return math.inf if not shape else np.full(shape, math.inf)
        # every term has degree <= 0: those of degree 0 keep their leading terms
        lead, degrees = self._escape_leads(mu_prime), self._escape_degrees
        v = sum((term.at(lead) for term in self.terms if term.degree(degrees) == 0),
                np.zeros(shape))
        return v if np.ndim(v) else float(v)

    @property
    def _escape_degrees(self) -> tuple:
        """Degree in R of sigma_0, ..., sigma_n along the line (mu', R)."""
        return (0,) + (1,) * self.n

    def _escape_leads(self, mu_prime: np.ndarray) -> np.ndarray:
        """Leading coefficients in R of sigma_j(mu', R) = sigma_j(mu') + R
        sigma_{j-1}(mu'), j = 0..top, each positive on the projection."""
        lead = np.ones(mu_prime.shape[:-1] + (self._top + 1,))
        lead[..., 1:] = sigma_all(mu_prime, self._top - 1)
        return lead

    @property
    def _top(self) -> int:
        return max(j for term in self.terms for j, _ in term.powers)

    @property
    def sigma_order(self) -> int:
        """The highest sigma_j the terms and the cone margin read."""
        return max(self.cone.k, self._top)

    def sigma_value(self, e: np.ndarray):
        """f with e[..., j] in place of sigma_j (of T(lam) under ComposedWithT)."""
        return sum(term.at(e) for term in self.terms)

    def sigma_partials(self, e: np.ndarray) -> dict:
        """{j: df/d sigma_j} at e, read as in ``sigma_value``.  Both the
        gradient in lam and the matrix derivative of F(A) read this one
        statement of the first derivative."""
        partials: dict = {}
        for term in self.terms:
            for j, p in term.partials(e).items():
                partials[j] = partials[j] + p if j in partials else p
        return partials

    def matrix_argument(self, a):
        """The matrix whose spectrum the terms read: A itself (``ComposedWithT``
        reads T(A)).  Self-adjoint under the trace pairing, so it also pulls a
        derivative in the argument back to A."""
        return a

    def _value(self, lam):
        return self.sigma_value(sigma_all(lam, self._top))

    def _gradient(self, lam):
        return self._derivatives(lam, second=False)[0]

    def _hessian(self, lam):
        return self._derivatives(lam, second=True)[1]

    def _derivatives(self, lam, second: bool):
        # The gradient is sum_j (df/d sigma_j) grad sigma_j.  With l_j = grad
        # sigma_j / sigma_j, the Hessian of a term c log sigma_j or a monomial P
        # is c (or P) times sum_j a_j H_j / sigma_j + sum_{j,i} w_ji l_j l_i^T,
        # w_ji = -a_j [j = i] (+ a_j a_i for a monomial), each pair {j, i} added
        # once, symmetrized
        js = {j for term in self.terms for j, _ in term.powers}
        e, de, d2e = _sigma_jets(lam, js, second)
        grad = sum(p[..., None] * de[j] for j, p in self.sigma_partials(e).items())
        if not second:
            return grad, None
        dlog = {j: de[j] / e[..., j, None] for j in js}
        hess = 0.0
        for term in self.terms:
            factor = np.asarray(term.c if term.log else term.at(e))[..., None]
            d2 = 0.0
            for x, (j, a) in enumerate(term.powers):
                d2 = (d2 + a * d2e[j] / e[..., j, None, None]
                      + ((0 if term.log else a * a) - a) * _outer(dlog[j], dlog[j]))
                for i, b in term.powers[x + 1:]:
                    d2 = d2 + a * b * (_outer(dlog[j], dlog[i]) + _outer(dlog[i], dlog[j]))
            hess = hess + factor[..., None] * d2
        return grad, hess

    @property
    def _scaling(self) -> tuple[float, bool]:
        """(h, logarithmic): f(t d) = f(d) + h log t if logarithmic, else t^h f(d).

        sigma_j(t d) = t^j sigma_j(d): a log term adds c j to h, a monomial
        has degree sum_j j a_j.
        """
        ray = range(self._top + 1)
        logs = [term.c * term.degree(ray) for term in self.terms if term.log]
        degrees = {term.degree(ray) for term in self.terms if not term.log}
        if not degrees:
            return sum(logs), True
        if len(degrees) == 1 and not logs:
            return degrees.pop(), False
        raise ValueError(f"{self!r} has no closed-form level crossing: its terms"
                         " scale with different degrees along rays")

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

    def _level_weights(self, sigma_level) -> dict:
        """{j: w_j} with f > sigma on the cone iff sum_j w_j sigma_j > 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class MongeAmpere(SymmetricOperator):
    """f = log sigma_n = sum_i log(lam_i) on the positive orthant."""

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.n)

    @property
    def terms(self):
        return (Term(1.0, ((self.n, 1),), log=True),)

    def _level_weights(self, sigma_level):
        return {0: -np.exp(sigma_level), self.n: 1.0}


@dataclass(frozen=True)
class LogSigmaK(SymmetricOperator):
    """f = log sigma_k on the k-positive cone."""

    k: int = 1

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}")

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.k)

    @property
    def terms(self):
        return (Term(1.0, ((self.k, 1),), log=True),)

    def _level_weights(self, sigma_level):
        return {0: -np.exp(sigma_level), self.k: 1.0}


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
        return math.comb(self.n, self.k) / math.comb(self.n, self.l)

    @property
    def terms(self):
        return (Term(-self._ratio, ((self.l, 1), (self.k, -1))),)

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

    @property
    def terms(self):
        m = self.n - self.k
        return (Term(1.0, ((self.n, 1 / m), (self.k, -1 / m))),)

    def _level_weights(self, sigma_level):
        # f > sigma iff sigma_n > sigma^(n-k) sigma_k; f > 0 >= sigma always
        level = np.maximum(sigma_level, 0.0)
        return {self.k: -level ** (self.n - self.k), self.n: 1.0}


@dataclass(frozen=True)
class BlendedQuotient(SymmetricOperator):
    """Interpolant t*f_quotient + (1-t)*(-C(n,k)/sigma_k) on Gamma_k.

    At t=1 this is ``HessianQuotientNeg(l, k)``; at t=0 it is the pure
    k-Hessian member written with the same normalization, so one cone serves
    the whole interpolation family.
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
    def terms(self):
        (q,) = HessianQuotientNeg(self.n, self.l, self.k).terms
        if self.t == 1.0:
            return (q,)
        return (Term(self.t * q.c, q.powers),
                Term(-(1 - self.t) * math.comb(self.n, self.k), ((self.k, -1),)))

    def _level_weights(self, sigma_level):
        # below t = 1 the terms mix the ray degrees l-k and -k; nothing samples
        # the blend's level sets there
        if self.t != 1.0:
            raise ValueError(f"{self!r} has no closed-form level crossing for t < 1")
        return HessianQuotientNeg(self.n, self.l, self.k)._level_weights(sigma_level)


@dataclass(frozen=True)
class ComposedWithT(SymmetricOperator):
    """f(lam) = f_inner(T(lam)) with T(lam)_k = (sum_{i != k} lam_i)/(n-1).

    The terms are the inner kind's, read in the sigma_j of T(lam); T is
    linear, so the ray scaling is the inner kind's too.
    """

    inner: SymmetricOperator = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.inner is None or self.inner.n != self.n:
            raise ValueError("inner operator must share the dimension n")
        if self.n < 2:
            raise ValueError("composition with T requires n >= 2")
        if isinstance(self.inner, ComposedWithT):
            raise ValueError("the inner operator cannot itself be composed with T")

    @property
    def sup_boundary(self):  # type: ignore[override]
        return self.inner.sup_boundary

    @property
    def sup_interior(self):  # type: ignore[override]
        return self.inner.sup_interior

    @property
    def cone(self) -> Cone:
        return PreimageCone(self.inner.cone)

    @property
    def terms(self):
        return self.inner.terms

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

    def matrix_argument(self, a):
        # T(A) = (tr A I - A)/(n-1): A's eigenvectors, eigenvalues T(lam)
        a = np.asarray(a)
        return (np.einsum("...ii->...", a)[..., None, None] * np.eye(self.n) - a) / (self.n - 1)

    @property
    def _escape_degrees(self):
        # T(mu', R) = T(mu', 0) + R/(n-1) (1, ..., 1, 0): degree j for j < n, n-1 for n
        return tuple(range(self.n)) + (self.n - 1,)

    def _escape_leads(self, mu_prime):
        # leading coefficients C(n-1, j)/(n-1)^j for j < n, sum(mu')/(n-1)^n for j = n
        n, shape = self.n, mu_prime.shape[:-1]
        lead = [np.full(shape, math.comb(n - 1, j) / (n - 1) ** j) for j in range(n)]
        return np.stack(lead + [mu_prime.sum(axis=-1) / (n - 1) ** n], axis=-1)

    def coordinate_crossing(self, mu, axis: int, sigma_level) -> np.ndarray:
        # T(mu + t e_i) = T(mu) + t (1 - e_i)/(n-1): a line for the inner operator
        mu = np.asarray(mu, dtype=float)
        return self.inner._line_crossing(t_map(mu), t_map(np.eye(self.n)[axis]), sigma_level)


#: the catalog's kinds by config-file name
OPERATOR_KINDS = {
    "monge_ampere": MongeAmpere,
    "log_sigma_k": LogSigmaK,
    "hessian_quotient": HessianQuotientNeg,
    "inverse_sigma_k": InverseSigmaK,
    "composed_with_T": ComposedWithT,
}


def operator_from_name(name: str, n: int, k: int | None = None, l: int | None = None,
                       inner: str | None = None) -> SymmetricOperator:
    """Build a catalog operator from its config-file name."""
    if name not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {name!r}; known: {sorted(OPERATOR_KINDS)}")
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
    return ComposedWithT(n, operator_from_name(inner, n, k=k, l=l))


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
    tau = float(op.gradient(pts).sum(axis=-1).min())
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
    tried = accepted = 0
    for _ in range(max_rounds):
        rate = accepted / tried if tried else 0.25
        m = int(min(max(1.5 * (count - accepted) / max(rate, 0.02), 256), 400_000))
        half = m // 2
        beta = rng.uniform(0.0, 5.0, size=(half, 1))
        d_pos = 10.0 ** (-beta * rng.uniform(0.0, 1.0, size=(half, n)))
        d_gauss = rng.standard_normal((m - half, n))
        keep = np.asarray(cone.contains(d_gauss), dtype=bool)
        dirs = np.concatenate([d_pos, d_gauss[keep]], axis=0)
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        lam = _rays_to_level(op, dirs, sigma_level)
        collected.append(lam[np.linalg.norm(lam, axis=-1) > min_radius])
        tried += m
        accepted += collected[-1].shape[0]
        if accepted >= count:
            break
    else:
        raise NumericError(
            f"level-set sampling got {accepted}/{count} points at radius > {min_radius}"
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
