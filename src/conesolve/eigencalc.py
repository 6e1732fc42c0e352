"""Operators on Hermitian/symmetric endomorphisms via eigenvalue calculus.

For F(A) = f(lambda(A)) with f smooth and symmetric, at an eigendecomposition
A = U diag(lam) U* the derivatives in matrix directions are

    dF(A)[H]   = sum_i f_i * Htilde_ii,
    d2F(A)[H]  = sum_ij f_ij Htilde_ii Htilde_jj
                 + sum_{p != q} (f_p - f_q)/(lam_p - lam_q) |Htilde_pq|^2,

with Htilde = U* H U.  The divided difference extends continuously across
eigenvalue collisions; near a collision the analytic limit f_pp - f_pq is used
instead of the catastrophically cancelling quotient.  These formulas hold at
non-simple spectra because F itself is smooth on matrix space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import SymmetricOperator

#: relative spectral-gap threshold below which the divided difference
#: switches to its analytic limit
DEGENERATE_GAP = 1e-8


class EigenSystem(NamedTuple):
    """Sorted-descending eigenvalues with an orthonormal column frame."""

    values: np.ndarray  # (..., n), descending
    frame: np.ndarray   # (..., n, n), columns are eigenvectors


def hermitian_defect(a) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max())


def require_hermitian(a, tol: float = 1e-12) -> np.ndarray:
    a = np.asarray(a)
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    defect = hermitian_defect(a)
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.0e} * scale")
    return a


def eigen_decompose(a, tol: float = 1e-12) -> EigenSystem:
    """Eigenvalues (descending) and orthonormal frame of a Hermitian matrix.

    Accepts stacked input of shape (..., n, n).  The decomposition is
    deterministic for identical input; eigenvector phases are canonicalized so
    the largest-magnitude component of each column is real and positive.
    """
    a = require_hermitian(a, tol)
    vals, vecs = np.linalg.eigh(a)
    vals = vals[..., ::-1]
    vecs = vecs[..., :, ::-1]
    # canonicalize phases
    idx = np.argmax(np.abs(vecs), axis=-2)
    lead = np.take_along_axis(vecs, idx[..., None, :], axis=-2)[..., 0, :]
    phase = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    vecs = vecs / phase[..., None, :]
    return EigenSystem(np.ascontiguousarray(vals), np.ascontiguousarray(vecs))


def _admissible_eigenvalues(op: SymmetricOperator, a) -> EigenSystem:
    eig = eigen_decompose(a)
    ok = op.cone.contains(eig.values)
    if not np.all(ok):
        lam = eig.values if eig.values.ndim == 1 else eig.values[np.argwhere(~np.asarray(ok))[0][0]]
        err = op.cone.violation(lam)
        err.args = (f"{err.args[0]}; margin {op.cone.margin(lam):.6g}",)
        raise err
    return eig


def evaluate(op: SymmetricOperator, a):
    """F(A) = f(eigenvalues of A); basis invariant."""
    eig = _admissible_eigenvalues(op, a)
    return op.value(eig.values, check=False)


def frame_product(frame, weights) -> np.ndarray:
    """U diag(w) U* for eigenframes U (..., n, n) and weights w (..., n)."""
    return np.einsum("...ip,...p,...jp->...ij", frame, weights, np.conj(frame))


def first_derivative(op: SymmetricOperator, a) -> np.ndarray:
    """The matrix of dF at A, reconstructed in the original basis.

    Contracting against a Hermitian direction H gives dF(A)[H] as the real
    trace pairing sum_ij D_ij conj(H_ij).  Positive definite on admissible A.
    """
    eig = _admissible_eigenvalues(op, a)
    return frame_product(eig.frame, op.gradient(eig.values, check=False))


def contract(d, h) -> float | np.ndarray:
    """Real trace pairing <D, H> = sum_ij D_ij conj(H_ij) of Hermitian matrices."""
    out = np.einsum("...ij,...ij->...", d, np.conj(h))
    out = np.real(out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class SecondDerivativeForm:
    """Pieces of the second derivative of F at a fixed admissible A.

    ``diag_block`` is the Hessian f_ij at the sorted eigenvalues;
    ``offdiag_weights`` holds (f_p - f_q)/(lam_p - lam_q), the analytic limit
    being substituted on nearly coincident pairs.  For concave symmetric f the
    off-diagonal weights are <= 0.
    """

    diag_block: np.ndarray
    offdiag_weights: np.ndarray


def second_derivative_form(op: SymmetricOperator, lam) -> SecondDerivativeForm:
    lam = np.asarray(lam, dtype=float)
    g = op.gradient(lam, check=False)
    h = op.hessian(lam, check=False)
    dl = lam[..., :, None] - lam[..., None, :]
    df = g[..., :, None] - g[..., None, :]
    near = np.abs(dl) < DEGENERATE_GAP * (1.0 + np.abs(lam[..., :, None]))
    safe = np.where(near, 1.0, dl)
    quotient = df / safe
    # analytic limit of the divided difference as lam_q -> lam_p
    diag_h = np.einsum("...ii->...i", h)
    limit = diag_h[..., :, None] - h
    w = np.where(near, limit, quotient)
    n = lam.shape[-1]
    w = w * (1.0 - np.eye(n))
    return SecondDerivativeForm(h, w)


def second_form(op: SymmetricOperator, a, h):
    """The quadratic form d2F(A)[H, H]; <= 0 by concavity of F."""
    eig = _admissible_eigenvalues(op, a)
    h = require_hermitian(h)
    u = eig.frame
    ht = np.einsum("...pi,...pq,...qj->...ij", np.conj(u), h, u)
    form = second_derivative_form(op, eig.values)
    d = np.real(np.einsum("...ii->...i", ht))
    term1 = np.einsum("...i,...ij,...j->...", d, form.diag_block, d)
    term2 = np.einsum("...pq,...pq->...", form.offdiag_weights, np.abs(ht) ** 2)
    out = term1 + term2
    return out if np.ndim(out) else float(out)


def spectrum_separator(a, gap: float) -> np.ndarray:
    """Subtract a small eigenframe ladder so the spectrum becomes simple.

    Builds diag(0, b_2, ..., b_n) in the eigenframe with
    0 < b_2 < ... < b_n < 2 b_2 <= gap, leaving the top eigenvalue unchanged;
    the ladder is rescaled deterministically until all eigenvalues of the
    result are pairwise distinct.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    eig = eigen_decompose(a)
    n = eig.values.shape[-1]
    if eig.values.ndim != 1:
        raise ValueError("spectrum_separator expects a single matrix")
    if n == 1:
        return np.asarray(a).copy()
    j = np.arange(1, n)
    ladder = 0.5 * gap * (1.0 + (j - 1) / (2.0 * (n - 1)))
    tol = 1e-13 * (1.0 + float(np.abs(eig.values).max()))
    scale = 1.0
    for _ in range(200):
        new_vals = eig.values.copy()
        new_vals[1:] -= scale * ladder
        gaps = np.abs(new_vals[:, None] - new_vals[None, :])[np.triu_indices(n, 1)]
        if gaps.min() > tol:
            break
        scale *= 0.9
    else:
        raise ValueError("could not separate the spectrum")
    b = np.zeros(n)
    b[1:] = scale * ladder
    return np.asarray(a) - frame_product(eig.frame, b)
