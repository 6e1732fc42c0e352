"""Operators on Hermitian/symmetric endomorphisms, F(A) = f(lambda(A)).

F needs no eigenvalues.  Every catalog kind states f in the sigma_j of the
spectrum, and those are read straight from the matrix by the
Faddeev-LeVerrier recursion (``matrix_sigmas``), which also gives each
derivative P_{j-1} = d sigma_j / dA.  So the cone margin, F and the matrix of
dF, sum_j (df/d sigma_j) P_{j-1}, come from one table (``SigmaTable``), and
d2F[H, H] from one forward-mode sweep of the same recursion in the direction
H (``second_form``), exact at eigenvalue collisions.  The Newton path and the
public ``evaluate``, ``first_derivative`` and ``second_form`` read this one
calculus; the eigenframe form with its divided differences is the test
suite's oracle.

``eigenvalues`` is the spectrum where one is read: in closed form for n <= 2,
by ``eigvalsh`` above.  ``eigen_decompose`` and ``frame_product`` are the
eigenframe that the self-test and the test suite's oracles read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import ConeViolation
from .operators import SymmetricOperator


class EigenSystem(NamedTuple):
    """Sorted-descending eigenvalues with an orthonormal column frame."""

    values: np.ndarray  # (..., n), descending
    frame: np.ndarray   # (..., n, n), columns are eigenvectors


def hermitian_defect(a) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max())


#: the largest Hermitian defect accepted, relative to 1 + max |a_ij|
HERMITIAN_TOL = 1e-12


def require_hermitian(a) -> np.ndarray:
    a = np.asarray(a)
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    defect = hermitian_defect(a)
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {HERMITIAN_TOL:.0e}"
                         " * scale")
    return a


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices ``a``, shape (..., n, n),
    as ``np.linalg.eigvalsh``, which reads the lower triangle.

    n = 1 is the real diagonal; n = 2 is (a + d)/2 -+ hypot((a - d)/2, |b|)
    for the diagonal a, d and the lower entry b, exact at a multiple of I.
    Above n = 2 this is ``eigvalsh``: the trigonometric form of the cubic is
    ill-conditioned at the clustered spectra a perturbed background makes.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    if n == 1:
        return np.real(a[..., 0, :]).astype(float)
    if n > 2:
        return np.linalg.eigvalsh(a)
    p, d = np.real(a[..., 0, 0]), np.real(a[..., 1, 1])
    half = 0.5 * (p + d)
    radius = np.hypot(0.5 * (p - d), np.abs(a[..., 1, 0]))
    return np.stack([half - radius, half + radius], axis=-1)


def eigen_decompose(a) -> EigenSystem:
    """Eigenvalues (descending) and orthonormal frame of a Hermitian matrix.

    Accepts stacked input of shape (..., n, n).  The decomposition is
    deterministic for identical input; eigenvector phases are canonicalized so
    the largest-magnitude component of each column is real and positive.
    """
    a = require_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    vals = vals[..., ::-1]
    vecs = vecs[..., :, ::-1]
    # canonicalize phases
    idx = np.argmax(np.abs(vecs), axis=-2)
    lead = np.take_along_axis(vecs, idx[..., None, :], axis=-2)[..., 0, :]
    phase = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    vecs = vecs / phase[..., None, :]
    return EigenSystem(np.ascontiguousarray(vals), np.ascontiguousarray(vecs))


def matrix_sigmas(a, kmax: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """sigma_0..sigma_kmax (kmax >= 1) of the spectrum of each Hermitian matrix
    in ``a``, shape (..., n, n), stacked on a trailing axis; and the matrices
    P_0..P_{kmax-1}, P_{j-1} = d sigma_j / dA: d sigma_j(A)[H] = <P_{j-1}, H>.

    The Faddeev-LeVerrier (Newton identity) recursion

        P_0 = I,   sigma_j = tr(A P_{j-1}) / j,   P_j = sigma_j I - A P_{j-1}

    takes one batched matrix product for each P_j with j >= 2, none below.
    P_0 is the unbatched identity.
    """
    a = np.asarray(a)
    eye = np.eye(a.shape[-1])
    e = np.ones(a.shape[:-2] + (kmax + 1,))
    derivatives = [eye]
    e[..., 1] = np.real(np.einsum("...ii->...", a))
    for j in range(2, kmax + 1):
        product = a if j == 2 else a @ derivatives[-1]
        derivatives.append(e[..., j - 1, None, None] * eye - product)
        e[..., j] = np.real(np.einsum("...ij,...ji->...", a, derivatives[-1])) / j
    return e, derivatives


@dataclass(frozen=True)
class SigmaTable:
    """The sigma_j an operator reads at matrices A, without eigenvalues.

    ``sigmas`` holds sigma_0..sigma_K of the spectrum of the operator's
    argument X (A, or T(A) under ``ComposedWithT``), K = ``op.sigma_order``;
    ``derivatives`` holds P_0..P_{K-1}, P_{j-1} = d sigma_j / dX.
    """

    op: SymmetricOperator
    sigmas: np.ndarray
    derivatives: list

    @classmethod
    def at(cls, op: SymmetricOperator, a) -> "SigmaTable":
        return cls(op, *matrix_sigmas(op.matrix_argument(a), op.sigma_order))

    def margin(self) -> np.ndarray:
        """The cone margin of lambda(A): min_{j<=k} sigma_j of the argument,
        for a Gamma cone and its preimage under T alike."""
        return self.sigmas[..., 1:self.op.cone.k + 1].min(axis=-1)

    def value(self) -> np.ndarray:
        """F(A); meaningful only where the margin is positive."""
        return np.asarray(self.op.sigma_value(self.sigmas))

    def derivative(self) -> np.ndarray:
        """The matrix D of dF at A, as ``first_derivative``: sum_j (df/d
        sigma_j) P_{j-1}, pulled back through the self-adjoint argument map."""
        partials = self.op.sigma_partials(self.sigmas)
        d = sum(p[..., None, None] * self.derivatives[j - 1] for j, p in partials.items())
        return self.op.matrix_argument(d)


def _admissible_table(op: SymmetricOperator, a) -> SigmaTable:
    """The sigma table at Hermitian A; raises ``ConeViolation`` naming the
    first sigma_j <= 0 of the argument at the first inadmissible matrix."""
    table = SigmaTable.at(op, require_hermitian(a))
    margins = np.reshape(table.margin(), -1)
    bad = np.flatnonzero(~(margins > 0.0))
    if bad.size:
        sigmas = np.reshape(table.sigmas, (-1, table.sigmas.shape[-1]))[bad[0]]
        j = 1 + int(np.argmin(sigmas[1:op.cone.k + 1] > 0.0))
        err = ConeViolation(j, float(sigmas[j]))
        err.args = (f"{err.args[0]}; margin {margins[bad[0]]:.6g}",)
        raise err
    return table


def evaluate(op: SymmetricOperator, a):
    """F(A) = f(eigenvalues of A); basis invariant."""
    v = _admissible_table(op, a).value()
    return v if v.ndim else float(v)


def frame_product(frame, weights) -> np.ndarray:
    """U diag(w) U* for eigenframes U (..., n, n) and weights w (..., n)."""
    return np.einsum("...ip,...p,...jp->...ij", frame, weights, np.conj(frame))


def first_derivative(op: SymmetricOperator, a) -> np.ndarray:
    """The matrix of dF at A.

    Contracting against a Hermitian direction H gives dF(A)[H] as the real
    trace pairing sum_ij D_ij conj(H_ij).  Positive definite on admissible A.
    """
    return _admissible_table(op, a).derivative()


def contract(d, h) -> float | np.ndarray:
    """Real trace pairing <D, H> = sum_ij D_ij conj(H_ij) of Hermitian matrices."""
    out = np.einsum("...ij,...ij->...", d, np.conj(h))
    out = np.real(out)
    return out if out.ndim else float(out)


def second_form(op: SymmetricOperator, a, h):
    """The quadratic form d2F(A)[H, H]; <= 0 by concavity of F.

    One forward-mode sweep of the ``matrix_sigmas`` recursion at the argument
    X in the direction H_X (T(A) and T(H) under ``ComposedWithT``):

        sigma_j' = <P_{j-1}, H_X>,  P_0' = 0,  P_j' = sigma_j' I - H_X P_{j-1} - X P_{j-1}',
        sigma_j'' = <P_{j-1}', H_X>,
        d2F[H, H] = sum_jl f_jl sigma_j' sigma_l' + sum_j f_j sigma_j''.
    """
    table = _admissible_table(op, a)
    x = op.matrix_argument(np.asarray(a))
    hx = op.matrix_argument(require_hermitian(h))
    eye = np.eye(x.shape[-1])
    d1, d2 = {}, {}  # sigma_j', sigma_j''
    dp = np.zeros_like(hx)  # P_{j-1}'
    for j, p in enumerate(table.derivatives, start=1):
        d1[j] = np.real(np.einsum("...ij,...ji->...", p, hx))
        d2[j] = np.real(np.einsum("...ij,...ji->...", dp, hx))
        dp = d1[j][..., None, None] * eye - hx @ p - x @ dp
    out = sum(f * d2[j] for j, f in op.sigma_partials(table.sigmas).items())
    for (j, l), f in op.sigma_second_partials(table.sigmas).items():
        out = out + (1 if j == l else 2) * f * d1[j] * d1[l]
    return out if np.ndim(out) else float(out)
