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

One calculus on ``SymmetricOperator`` derives the rest from the terms (the
README states it in full): value, gradient and Hessian by the chain rule over
the sigma_j, batched over ``lam`` of shape ``(..., n)``; the limit as one
eigenvalue tends to +inf, from each sigma_j's leading coefficient and degree
along the escaping line (``limit_at_infinity``), an extended real; and level
crossings in closed form, along rays from the origin by each kind's scaling
(``ray_crossing``) and along coordinate rays as the root of an affine
residual (``coordinate_crossings``; of degree up to n - 1 under T).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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


def _summed(dicts) -> dict:
    """The key-wise sum of dicts of arrays."""
    out: dict = {}
    for d in dicts:
        for key, p in d.items():
            out[key] = out[key] + p if key in out else p
    return out


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

    def second_partials(self, s: np.ndarray) -> dict:
        """{(j, l): d^2(term)/d sigma_j d sigma_l}, one key j <= l per unordered
        pair, read as in ``partials``: -c/sigma_j^2 for a log term; a_j (a_l -
        [j = l]) v/(sigma_j sigma_l) for a monomial v."""
        if self.log:
            ((j, _),) = self.powers
            return {(j, j): -self.c / s[..., j] ** 2}
        value = self.at(s)
        return {(min(j, l), max(j, l)): a * (b - (j == l)) * value / (s[..., j] * s[..., l])
                for x, (j, a) in enumerate(self.powers) for l, b in self.powers[x:]}

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
        return self._derivatives(self._checked(lam, check), second=False)[0]

    def hessian(self, lam, check: bool = True) -> np.ndarray:
        return self._derivatives(self._checked(lam, check), second=True)[1]

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

    def subtuple_limits(self, mu) -> tuple[np.ndarray, np.ndarray]:
        """(inside, limits), each shaped like ``mu`` ``(..., n)``: at [..., i],
        whether mu without entry i lies in the projection of the cone, and the
        limit of f there as entry i tends to +inf (-inf outside)."""
        sub = without_each(mu)
        inside = np.asarray(self.cone.projection().contains(sub))
        limits = np.full(inside.shape, -np.inf)
        limits[inside] = self._limit_at_infinity(sub[inside])  # membership checked above
        return inside, limits

    @property
    def _escape_degrees(self) -> tuple:
        """Degree in R of sigma_0, ..., sigma_n of the argument along the line
        (mu', R): min(j, the nonzero entries of the direction argument(e_n))."""
        slope = np.count_nonzero(self.argument(np.eye(self.n)[-1]))
        return tuple(min(j, slope) for j in range(self.n + 1))

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
        """f with e[..., j] in place of sigma_j (of ``argument(lam)``)."""
        return sum(term.at(e) for term in self.terms)

    def sigma_partials(self, e: np.ndarray) -> dict:
        """{j: df/d sigma_j} at e, read as in ``sigma_value``.  Both the
        gradient in lam and the matrix derivative of F(A) read this one
        statement of the first derivative."""
        return _summed(term.partials(e) for term in self.terms)

    def sigma_second_partials(self, e: np.ndarray) -> dict:
        """{(j, l): d^2 f/d sigma_j d sigma_l} at e, one key j <= l per
        unordered pair, read as in ``sigma_value``.  The Hessian in lam and the
        second form of F(A) read this one statement of the second derivative."""
        return _summed(term.second_partials(e) for term in self.terms)

    def argument(self, lam):
        """The tuple whose sigma_j the terms read, from lam: lam itself
        (``ComposedWithT`` reads T(lam)).  The tuple twin of ``matrix_argument``:
        linear and symmetric, so it also pulls a gradient back to lam."""
        return lam

    def matrix_argument(self, x):
        """The rows (``eigencalc.Packing``) of the matrix whose spectrum the terms
        read, from A's rows ``x``: A itself (``ComposedWithT`` reads T(A)).  Self-
        adjoint under the trace pairing, so it also pulls a derivative back to A."""
        return x

    def _value(self, lam):
        return self.sigma_value(sigma_all(self.argument(lam), self._top))

    def _derivatives(self, lam, second: bool):
        # At argument(lam) the gradient is sum_j f_j grad sigma_j, the Hessian
        # sum_j f_j Hess sigma_j + sum_jl f_jl grad sigma_j grad sigma_l^T, each
        # pair {j, l} added once, symmetrized, so that it is exactly symmetric;
        # both are pulled back to lam through the argument's matrix J
        js = {j for term in self.terms for j, _ in term.powers}
        e, de, d2e = _sigma_jets(self.argument(lam), js, second)
        partials = self.sigma_partials(e)
        grad = self.argument(sum(p[..., None] * de[j] for j, p in partials.items()))
        if not second:
            return grad, None
        hess = sum(p[..., None, None] * d2e[j] for j, p in partials.items())
        for (j, l), p in self.sigma_second_partials(e).items():
            pair = de[j][..., :, None] * de[l][..., None, :]
            hess = hess + p[..., None, None] * (pair if j == l else pair + np.swapaxes(pair, -1, -2))
        jac = self.argument(np.eye(self.n))
        return grad, np.einsum("pi,...pq,ql->...il", jac, hess, jac)

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
        return self._ray_scale(np.asarray(self._value(np.asarray(dirs, dtype=float))),
                               sigma_level)

    def _ray_scale(self, f, sigma_level) -> np.ndarray:
        """``ray_crossing`` from the values f = f(d) on the rays."""
        degree, logarithmic = self._scaling
        with np.errstate(all="ignore"):
            if logarithmic:  # f(t d) = f(d) + degree * log t
                return np.exp((sigma_level - f) / degree)
            return (sigma_level / f) ** (1.0 / degree)  # f(t d) = t^degree f(d)

    def coordinate_crossings(self, mu, sigma_level) -> np.ndarray:
        """The least t >= 0 past which mu + t e_i lies in the cone and above
        the level, per row of ``mu`` and axis i: shaped like ``mu``;
        ``sigma_level`` is a scalar or per row.

        sigma_j(mu + t e_i) = sigma_j(mu) + t sigma_{j-1}(mu without i), so the
        residual of ``_line_crossing`` is c0 + t c1 along every axis, and it
        and each sigma_j, j <= k, end up positive iff their leading coefficient
        is.  Raises ``NumericError`` if some ray never gets there.
        """
        mu = np.asarray(mu, dtype=float)
        weights = self._level_weights(sigma_level)
        kmax = max(self.cone.k, *weights)
        e = sigma_all(mu, kmax)[..., None, :]
        slopes = sigma_all(without_each(mu), kmax - 1)
        c0 = sum(np.asarray(c)[..., None] * e[..., j] for j, c in weights.items())
        c1 = sum(np.asarray(c)[..., None] * slopes[..., j - 1] for j, c in weights.items() if j)
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(c1 != 0, -c0 / c1, -np.inf)
        above = np.where(c1 != 0, c1, c0) > 0
        inside = [np.where(slopes[..., j - 1] != 0, slopes[..., j - 1], e[..., j]) > 0
                  for j in range(1, self.cone.k + 1)]
        if not (np.all(inside) and np.all(above)):
            raise NumericError(f"a coordinate ray of {self!r} never crosses the level set")
        return np.maximum(root, 0.0)

    def _line_crossing(self, x, w, sigma_level) -> np.ndarray:
        # The crossing along the line x + t w, for ComposedWithT's lines.
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
        """{j: w_j} with f > sigma on the cone iff sum_j w_j sigma_j > 0: for
        f = log sigma_j, sigma_j - e^sigma.  Kinds of other terms state their own."""
        (term,) = self.terms
        if term != Term(1.0, term.powers, log=True):
            raise NotImplementedError(f"{self!r} states no level-set rule")
        return {0: -np.exp(sigma_level), term.powers[0][0]: 1.0}


@dataclass(frozen=True)
class MongeAmpere(SymmetricOperator):
    """f = log sigma_n = sum_i log(lam_i) on the positive orthant."""

    @property
    def cone(self) -> Cone:
        return GammaCone(self.n, self.n)

    @property
    def terms(self):
        return (Term(1.0, ((self.n, 1),), log=True),)


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

    def argument(self, lam):
        return t_map(lam)

    def matrix_argument(self, x):
        # T(A) = (tr A I - A)/(n-1): A's eigenvectors, eigenvalues T(lam); the
        # first n rows are the diagonal
        out = -x / (self.n - 1)
        out[:self.n] += x[:self.n].sum(axis=0) / (self.n - 1)
        return out

    def _escape_leads(self, mu_prime):
        # the top coefficients of the T-line T(mu', 0) + R T(e_n), as a
        # coordinate crossing reads it
        top, mu = self._top, np.concatenate([mu_prime, np.zeros_like(mu_prime[..., :1])], axis=-1)
        e = _line_sigmas(self.argument(mu), self.argument(np.eye(self.n)[-1]), top)
        return e[..., np.arange(top + 1), list(self._escape_degrees[:top + 1])]

    def coordinate_crossings(self, mu, sigma_level) -> np.ndarray:
        # T(mu + t e_i) = T(mu) + t T(e_i): a line for the inner operator
        x = self.argument(np.asarray(mu, dtype=float))
        return np.stack([self.inner._line_crossing(x, w, sigma_level)
                         for w in self.argument(np.eye(self.n))], axis=-1)


#: the catalog's kinds by config-file name, each with the parameters it
#: requires: the one statement of them, which the config reads too
OPERATOR_KINDS = {
    "monge_ampere": (MongeAmpere, ()),
    "log_sigma_k": (LogSigmaK, ("k",)),
    "hessian_quotient": (HessianQuotientNeg, ("k", "l")),
    "inverse_sigma_k": (InverseSigmaK, ("k",)),
    "composed_with_T": (ComposedWithT, ("inner",)),
}


def operator_from_name(name: str, n: int, k: int | None = None, l: int | None = None,
                       inner: str | None = None) -> SymmetricOperator:
    """Build a catalog operator from its config-file name; ``inner`` names the
    kind composed with T, which reads ``k`` and ``l`` as its own."""
    if name not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {name!r}; known: {sorted(OPERATOR_KINDS)}")
    kind, required = OPERATOR_KINDS[name]
    given = {"k": k, "l": l, "inner": inner}
    if any(given[param] is None for param in required):
        raise ValueError(f"{name} requires {' and '.join(required)}")
    if "inner" in required:
        given["inner"] = operator_from_name(inner, n, k=k, l=l)
    return kind(n, **{param: given[param] for param in required})


@dataclass(frozen=True)
class LevelSetConstants:
    """Structural constants of the level set {f = sigma}.

    ``N`` solves f(N * ones) = sigma; by symmetry and convexity of the
    superlevel set, N * ones is its closest point to the origin, and the
    whole cone translated by N * ones lies strictly above the level.
    ``tau`` is an empirical lower bound for sum_i f_i over ``samples``
    points drawn from ``default_rng(0)``, not a certified constant.
    """

    sigma: float
    N: float
    tau: float
    samples: int


def level_set_constants(op: SymmetricOperator, sigma_level: float,
                        samples: int = 512) -> LevelSetConstants:
    if not op.sup_boundary < sigma_level < op.sup_interior:
        raise ValueError(
            f"sigma must lie in ({op.sup_boundary}, {op.sup_interior}), got {sigma_level}"
        )
    big_n = float(op.ray_crossing(np.ones((1, op.n)), sigma_level)[0])
    if not 0.0 < big_n < math.inf:
        raise NumericError(f"f(N * 1) = {sigma_level} has no finite solution N, got {big_n}")

    pts = sample_level_set(op, sigma_level, samples, rng=np.random.default_rng(0))
    tau = float(op.gradient(pts).sum(axis=-1).min())
    return LevelSetConstants(float(sigma_level), float(big_n), tau, samples)


#: batches of rays ``sample_level_set`` draws before it gives up
MAX_SAMPLING_ROUNDS = 60
#: rows in the first slice of a round's positive half, each later slice twice
#: the one before: a few slices per round, each paying f's fixed cost per
#: call once, whose temporaries stay below those of the whole round
_FIRST_SLICE = 4096


def sample_level_set(op: SymmetricOperator, sigma_level, count: int,
                     rng: np.random.Generator, min_radius: float = 0.0) -> np.ndarray:
    """Sample ``count`` points on the level set {f = sigma} with |lam| > min_radius.

    Rays from the origin through directions inside the cone cross the level
    set exactly once in value terms: f -> below sigma near the vertex and
    above sigma far out.  Directions mix a positively-spread family (hits the
    far ends of the level set) and rejected Gaussians (hits the cone's
    non-orthant sectors).  Each ray meets the level at the operator's
    closed-form ``ray_crossing``, and only the points that can lie past
    ``min_radius`` are formed and measured (``_rays_to_level``).

    ``sigma_level`` is a scalar, giving shape ``(count, n)``, or a sequence of
    levels, giving ``(levels, count, n)``: one stream of directions serves
    them all, and the draw goes on until every level has ``count`` points,
    for at most ``MAX_SAMPLING_ROUNDS`` rounds; then it raises
    ``NumericError``.  A level listed twice is sampled once, and gets the same
    points.

    Each round's directions come in blocks, in draw order (``_directions``):
    f is evaluated once per block, for the levels still short, and the draw
    stops at the first block after which every level is full.  The kept
    points are those of evaluating every round whole and cutting each level
    at ``count``, bit for bit: each point depends on its own row only, the
    kept points are each level's first ``count`` in draw order, and nothing
    reads the generator after the last round, so the draws it skips change
    none of them.  A round that does not fill every level is evaluated
    whole, so the next round's size is unchanged.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    levels, listed = np.unique(np.asarray(sigma_level, dtype=float), return_inverse=True)
    if not levels.size:
        raise ValueError("no level to sample")
    if not np.all((op.sup_boundary < levels) & (levels < op.sup_interior)):
        raise ValueError("sigma outside the attainable range")
    collected: list[list[np.ndarray]] = [[] for _ in levels]
    accepted = [0] * len(levels)
    tried = 0
    for _ in range(MAX_SAMPLING_ROUNDS):
        # sized for the level that is furthest from done, at its own rate
        need = max(1.5 * (count - got) / max(got / tried if tried else 0.25, 0.02)
                   for got in accepted)
        m = int(min(max(need, 256), 400_000))
        for dirs in _directions(op.cone, m, rng):
            short = [i for i, got in enumerate(accepted) if got < count]
            for i, lam in zip(short, _rays_to_level(op, dirs, levels[short], min_radius)):
                collected[i].append(lam)
                accepted[i] += lam.shape[0]
            if min(accepted) >= count:
                break
        if min(accepted) >= count:
            break
        tried += m
    else:
        raise NumericError(
            f"level-set sampling got {min(accepted)}/{count} points at radius > {min_radius}"
        )
    out = np.stack([np.concatenate(points, axis=0)[:count] for points in collected])
    return out[listed.reshape(np.shape(sigma_level))]


def _directions(cone: Cone, m: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Unit directions inside the cone from m draws, in blocks of rows: half
    positively spread, half Gaussian, of which those outside the cone are
    rejected.  The positive half comes in slices of doubling size, then the
    Gaussian half whole; its normals are drawn only when the caller asks for
    it.  Every row is made and normalized on its own, so a slice holds the
    bits the same rows have in the whole round."""
    half, n = m // 2, cone.n
    beta = rng.uniform(0.0, 5.0, size=(half, 1))
    exponents = rng.uniform(0.0, 1.0, size=(half, n))
    start, size = 0, _FIRST_SLICE
    while start < half:
        stop = min(start + size, half)
        d_pos = 10.0 ** (-beta[start:stop] * exponents[start:stop])
        d_pos /= row_norms(d_pos)[:, None]
        yield d_pos
        start, size = stop, 2 * size
    d_gauss = rng.standard_normal((m - half, n))
    d_gauss = d_gauss[np.asarray(cone.contains(d_gauss), dtype=bool)]
    if len(d_gauss):
        d_gauss /= row_norms(d_gauss)[:, None]
        yield d_gauss


def row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row (last axis) of a real array: its squared
    columns summed in order.  That is the order in which
    ``np.linalg.norm(x, axis=-1)`` sums rows of fewer than 8 entries, so the
    bits are its own, without its temporary of x's size."""
    total = np.square(x[..., 0])
    for j in range(1, x.shape[-1]):
        total += np.square(x[..., j])
    return np.sqrt(total, out=total)


#: the crossings t of unit rays that are sampled; rays crossing the level
#: outside (2^-100, 2^100), or nowhere, are dropped
_RAY_REACH = (2.0**-100, 2.0**100)


def _rays_to_level(op: SymmetricOperator, dirs: np.ndarray, levels,
                   min_radius: float = 0.0) -> Iterator[np.ndarray]:
    """For each sigma in ``levels`` in turn, the points t * d on {f = sigma}
    of the rays ``dirs`` that cross it within reach, at |t * d| > min_radius.
    f is evaluated on the rays once, for all the levels; one level's points
    are made at a time, so the caller can keep each before the next is formed.
    ``sample_level_set`` passes one block of a round's rays at a time, and
    only the levels still short of their count: a full level's later points
    are never kept, so they are not made.

    The crossing scales t are screened first, by the reach window and by
    t * (1 + 1e-12) > min_radius, and t * d is formed only on the rays that
    pass; the exact test ``row_norms(t * d) > min_radius`` runs on those.  The
    screen drops no point the exact test keeps: ``_directions`` makes unit
    rows to a few ulps, so row_norms(t * d) <= t * (1 + (n + 4) eps), which
    is below t * (1 + 1e-12).
    """
    values = np.asarray(op._value(dirs))
    for level in levels:
        t = op._ray_scale(values, level)
        keep = (t > _RAY_REACH[0]) & (t < _RAY_REACH[1]) & (t * (1.0 + 1e-12) > min_radius)
        points = t[keep, None] * dirs[keep]
        yield points[row_norms(points) > min_radius]
