"""Operators on Hermitian/symmetric endomorphisms, F(A) = f(lambda(A)).

F needs no eigenvalues.  A is held as real rows, entries first (``Packing``),
and every catalog kind states f in the sigma_j of the spectrum, which one
Faddeev-LeVerrier recursion on the rows (``packed_sigmas``) reads with each
P_{j-1} = d sigma_j / dA: the cone margin, F and dF come from one table
(``SigmaTable``), d2F[H, H] from one forward-mode sweep (``second_form``).
The dense ``evaluate``, ``first_derivative`` and ``second_form`` pack their
input.  ``packed_eigenvalues`` is the spectrum of rows where one is read:
closed form for n <= 2, cyclic Jacobi on the rows above, within 16 eps
max |lambda| of ``eigvalsh`` and chosen over the trigonometric cubic, which
loses digits at near-double roots.  ``eigenvalues`` is the same of dense
matrices; ``eigen_decompose`` is the eigenframe of the self-test and oracles.
Only this module reads the row format: a reader takes its caller's ``Packing``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cones import ConeViolation
from .operators import NumericError, SymmetricOperator


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
    """Ascending eigenvalues of Hermitian matrices ``a``, shape (..., n, n):
    ``packed_eigenvalues`` of their rows (the upper triangle)."""
    a = np.asarray(a)
    layout = packing(a.shape[-1], np.iscomplexobj(a))
    return packed_eigenvalues(layout.pack(a), layout)


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


@dataclass(frozen=True)
class Packing:
    """Hermitian (real symmetric) n x n matrices (..., n, n) as real rows
    (rows, ...), entries first: the n diagonals, the real parts of the upper
    entries (i < j, row by row) and, if ``hermitian``, their imaginary parts."""

    n: int
    hermitian: bool

    @functools.cached_property
    def upper(self) -> tuple[tuple[int, int], ...]:
        """The entries (i, j), i <= j, of the real-part rows, in order."""
        pairs = ((i, j) for i in range(self.n) for j in range(i + 1, self.n))
        return tuple((i, i) for i in range(self.n)) + tuple(pairs)

    def checked(self, x) -> np.ndarray:
        """``x`` as this layout's rows; a ValueError unless it is real with the
        layout's row count, as a dense (..., n, n) field or other rows are not."""
        x, count = np.asarray(x), self.n**2 if self.hermitian else len(self.upper)
        if x.shape[:1] != (count,) or np.iscomplexobj(x):
            raise ValueError(f"{self} reads {count} real rows, not an array of shape {x.shape}")
        return x

    def pack(self, a: np.ndarray) -> np.ndarray:
        if np.shape(a)[-2:] != (self.n, self.n):
            raise ValueError(f"{self} packs n x n matrices, not an array of shape {np.shape(a)}")
        imag = [np.imag(a[..., i, j]) for i, j in self.upper[self.n:] if self.hermitian]
        return np.stack([np.real(a[..., i, j]) for i, j in self.upper] + imag)

    def _entry(self, x, i: int, j: int):
        """(Re X_ij, Im X_ij) from the rows x."""
        r = self.upper.index((min(i, j), max(i, j)))
        if r < self.n or not self.hermitian:
            return x[r], 0.0
        imag = x[r + len(self.upper) - self.n]
        return x[r], (imag if i < j else -imag)

    def unpack(self, x) -> np.ndarray:
        x = self.checked(x)
        out = np.zeros(x.shape[1:] + (self.n, self.n), complex if self.hermitian else float)
        for i, j in itertools.product(range(self.n), repeat=2):
            real, imag = self._entry(x, i, j)
            out.real[..., i, j] = real
            if self.hermitian:
                out.imag[..., i, j] = imag
        return out

    def product(self, x, y) -> np.ndarray:
        """The rows of XY, from its upper entries and the real part of its
        diagonal: XY's own where XY, or the sum it enters, is Hermitian."""
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for r, (i, j) in enumerate(self.upper):
            for k in range(self.n):
                (a, b), (c, d) = self._entry(x, i, k), self._entry(y, k, j)
                out[r] += a * c - b * d
                if self.hermitian and i < j:
                    out[r + len(self.upper) - self.n] += a * d + b * c
        return out

    def pairing(self, x, y) -> np.ndarray:
        """tr(XY) = sum_r g_r x_r y_r of Hermitian X and Y, g_r = 1 on the
        diagonal rows and 2 on the rest."""
        n, dot = self.n, "r...,r...->..."
        diagonal = np.einsum(dot, x[:n], y[:n])
        return diagonal + 2.0 * np.einsum(dot, x[n:], y[n:]) if n > 1 else diagonal

    def pairings(self, basis, x) -> np.ndarray:
        """w_e = tr(B_e X) for the columns B_e of the (rows, E) ``basis``:
        M^T (g x) by ``combine``, so <X, sum_e c_e B_e> = sum_e w_e c_e."""
        g = np.where(np.arange(len(basis)) < self.n, 1.0, 2.0)
        return combine((basis * g[:, None]).T, x)


@functools.lru_cache(maxsize=None)
def packing(n: int, hermitian: bool) -> Packing:
    """The layout of n x n matrices; a 1 x 1 Hermitian matrix is real."""
    return Packing(n, hermitian and n > 1)


def pack(a) -> np.ndarray:
    """The rows of matrices ``a`` (..., n, n): Hermitian packing iff a is complex."""
    return packing(a.shape[-1], np.iscomplexobj(a)).pack(a)


def packed_eigenvalues(x, layout: Packing) -> np.ndarray:
    """Ascending eigenvalues (..., n) of the n x n Hermitian matrices whose
    rows are ``x`` (rows, ...) in ``layout``.

    n = 1 is the diagonal; n = 2 is (a + d)/2 -+ hypot((a - d)/2, |b|) for the
    diagonal a, d and the off-diagonal entry b, exact at a multiple of I.  The
    n = 2 form works in place, so that a whole field's spectrum leaves few
    temporaries on the heap.

    Above n = 2 this is cyclic Jacobi on the rows (``_jacobi_spectrum``): it
    agrees with ``np.linalg.eigvalsh`` to within 16 eps max |lambda| per
    matrix, at clustered, graded and singular spectra alike.  Jacobi is as
    accurate as QR on symmetric matrices (Demmel & Veselic 1992), where the
    trigonometric form of the cubic loses digits at the near-double roots a
    perturbed background makes (Kopp 2008).  A finite matrix it cannot
    diagonalize in ``MAX_JACOBI_SWEEPS`` sweeps raises ``NumericError``; a
    matrix with a non-finite entry gets NaN eigenvalues.
    """
    x, n = layout.checked(x), layout.n
    if n > 2:
        return _jacobi_spectrum(x, layout)
    if n == 1:
        return np.stack([x[0]], axis=-1)
    if layout.hermitian:  # |b| as np.abs reads the entry; np.hypot of its parts can differ
        b = np.empty(x.shape[1:], dtype=complex)
        b.real, b.imag = x[2], x[3]
    else:
        b = x[2]
    half, radius = np.add(x[0], x[1]), np.subtract(x[0], x[1])
    half *= 0.5
    radius *= 0.5
    np.hypot(radius, np.abs(b), out=radius)
    out = np.empty(half.shape + (2,))
    np.subtract(half, radius, out=out[..., 0])
    np.add(half, radius, out=out[..., 1])
    return out


#: the Jacobi sweeps after which a matrix whose off-diagonal entries are not
#: all negligible is reported unconverged; 3 x 3 fields take 4 or 5
MAX_JACOBI_SWEEPS = 20


def _jacobi_spectrum(x: np.ndarray, layout: Packing) -> np.ndarray:
    """Cyclic Jacobi on the rows ``x``, one matrix at a time in effect.

    Each matrix is scaled by the power of two 2^-e that brings its largest
    entry into [1/2, 1), which is exact and keeps every step clear of overflow
    and underflow.  The sweeps hold the diagonal rows and the upper entries
    (complex iff the layout is Hermitian) and rotate the pairs (p, q) in row
    order.  A rotation runs only on the matrices whose |a_pq| exceeds eps
    times their own largest entry, by ufunc ``where=``, so a skipped rotation
    leaves a matrix's entries exactly as they were and its spectrum does not
    depend on the batch it comes in.  The entries left off the diagonal are
    each at most eps max |a_ij| <= eps max |lambda|.
    """
    n, pairs = layout.n, layout.upper[layout.n:]
    flat = np.reshape(x, (len(x), -1))
    scale = np.abs(flat).max(axis=0)
    _, exponent = np.frexp(scale)  # 0 at a zero or non-finite matrix
    diag = np.ldexp(flat[:n], -exponent)
    if layout.hermitian:
        off = np.empty((len(pairs), flat.shape[1]), dtype=complex)
        off.real = np.ldexp(flat[n:n + len(pairs)], -exponent)
        off.imag = np.ldexp(flat[n + len(pairs):], -exponent)
    else:
        off = np.ldexp(flat[n:], -exponent)
    floor = np.finfo(float).eps * np.ldexp(scale, -exponent)  # NaN or inf: no rotation
    slot = {pair: r for r, pair in enumerate(pairs)}
    with np.errstate(all="ignore"):  # the lanes a rotation skips may divide by 0
        for _ in range(MAX_JACOBI_SWEEPS):
            rotated = False
            for p, q in pairs:
                size = np.abs(off[slot[p, q]])
                on = size > floor
                if on.any():
                    _rotate(diag, off, slot, p, q, size, on, layout.hermitian)
                    rotated = True
            if not rotated:
                break
        else:
            left = np.count_nonzero((np.abs(off) > floor).any(axis=0))
            if left:
                raise NumericError(f"Jacobi left {left} of {len(scale)} {n} x {n} matrices"
                                   f" undiagonalized after {MAX_JACOBI_SWEEPS} sweeps")
    out = np.ldexp(diag.T, exponent[:, None])
    out.sort(axis=-1, kind="stable")
    out[~np.isfinite(scale)] = np.nan
    return out.reshape(x.shape[1:] + (n,))


def _rotate(diag, off, slot, p: int, q: int, size, on, hermitian: bool) -> None:
    """One Jacobi rotation at (p, q), in place, of the matrices ``on`` marks.

    With a_pq = |a_pq| w, the frame E = diag(1, .., conj(w) at q, .., 1) makes
    the pivot real, and the real rotation R of Numerical Recipes' t, c, s
    zeros it: A' = R^T E^* A E R.  Rows p and q of A' at k != p, q are
    c x - s w y and s x + c w y, for x = A_pk and y = A_qk.  The stored upper
    entry of (p, k) is conj(A_pk) where k < p.
    """
    if hermitian:
        phase, pivot = off[slot[p, q]] / size, size
    else:
        pivot = off[slot[p, q]]
    # |theta| < 4n/eps and |t| <= 1 on the scaled entries, so no square overflows
    theta = (diag[q] - diag[p]) / pivot  # twice Numerical Recipes' theta
    t = np.copysign(2.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 4.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    t *= pivot
    np.subtract(diag[p], t, out=diag[p], where=on)
    np.add(diag[q], t, out=diag[q], where=on)
    np.copyto(off[slot[p, q]], 0.0, where=on)
    for k in range(len(diag)):
        if k in (p, q):
            continue
        i, j = slot[min(p, k), max(p, k)], slot[min(q, k), max(q, k)]
        x, y = off[i], off[j]
        if hermitian:
            x = np.conj(x) if k < p else x
            y = phase * (np.conj(y) if k < q else y)
        new_x, new_y = c * x - s * y, s * x + c * y
        np.copyto(off[i], np.conj(new_x) if hermitian and k < p else new_x, where=on)
        np.copyto(off[j], np.conj(new_y) if hermitian and k < q else new_y, where=on)


def sup_operator_norm(x, layout: Packing) -> float:
    """max |H|_2 over the Hermitian matrices whose rows are ``x`` (rows, ...) in
    ``layout``.  Every column norm |H e_j| is <= |H|_2 <= |H|_F, so only
    matrices with |H|_F^2 = sum_j |H e_j|^2 at least the largest column norm of
    all (less a rounding slack) can attain it.  The column norms are sums of
    the squared rows, and ``eigvalsh`` runs on the kept matrices alone,
    unpacked; it works per matrix, so the result is the full eigensolve's bit
    for bit."""
    n, upper, rows = layout.n, len(layout.upper), np.reshape(layout.checked(x), (len(x), -1))
    squares = rows**2
    columns = squares[:n].copy()  # |H e_j|^2: the diagonal, then each |H_ij|^2, i < j
    for r, (i, j) in enumerate(layout.upper[n:], n):
        entry = squares[r] + squares[r + upper - n] if layout.hermitian else squares[r]
        columns[i] += entry
        columns[j] += entry
    keep = columns.sum(axis=0) >= (1.0 - 1e-12) * columns.max()
    del squares, columns
    return float(np.abs(np.linalg.eigvalsh(layout.unpack(rows[:, keep]))).max())


def combine(matrix: np.ndarray, x: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
    """Rows sum_j matrix[i, j] x[j] (+ base[i]), in the dtype of matrix and x:
    elementwise sums over the nonzero entries in j order, whose bits and time
    do not depend on BLAS threads."""
    shape, dtype = (len(matrix),) + x.shape[1:], np.result_type(matrix, x)
    out = np.zeros(shape, dtype) if base is None else np.array(base)
    for i, j in zip(*np.nonzero(matrix)):
        out[i] += x[j] if matrix[i, j] == 1.0 else matrix[i, j] * x[j]
    return out


def packed_sigmas(x, layout: Packing, kmax: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """sigma_0..sigma_kmax (kmax >= 1) of each n x n Hermitian matrix whose rows
    are ``x`` (rows, ...) in ``layout``, stacked on a leading axis, and the rows
    of P_{j-1} = d sigma_j / dA, by the Faddeev-LeVerrier recursion P_0 = I,
    sigma_j = tr(A P_{j-1}) / j, P_j = sigma_j I - A P_{j-1}.  Every P_j is a
    polynomial in A, so it packs as A does; P_0 is the unbatched identity."""
    x, n = layout.checked(x), layout.n
    eye = np.zeros((len(x),) + (1,) * (x.ndim - 1))
    eye[:n] = 1.0
    e = np.ones((kmax + 1,) + x.shape[1:])
    derivatives = [eye]
    e[1] = x[:n].sum(axis=0)
    for j in range(2, kmax + 1):
        p = -(x if j == 2 else layout.product(x, derivatives[-1]))
        p[:n] += e[j - 1]
        derivatives.append(p)
        e[j] = layout.pairing(x, p) / j
    return e, derivatives


@dataclass(frozen=True)
class SigmaTable:
    """The sigma_j an operator reads at matrices A, without eigenvalues.

    ``sigmas`` holds sigma_0..sigma_K of the spectrum of the operator's
    argument X (A, or T(A) under ``ComposedWithT``), K = ``op.sigma_order``,
    shape (K + 1, ...); ``derivatives`` holds the rows of P_0..P_{K-1},
    P_{j-1} = d sigma_j / dX.
    """

    op: SymmetricOperator
    sigmas: np.ndarray
    derivatives: list

    @classmethod
    def at(cls, op: SymmetricOperator, x, layout: Packing) -> "SigmaTable":
        """The table at the matrices whose rows are ``x`` in ``layout``."""
        return cls(op, *packed_sigmas(op.matrix_argument(x), layout, op.sigma_order))

    def margin(self) -> np.ndarray:
        """The cone margin of lambda(A): min_{j<=k} sigma_j of the argument,
        for a Gamma cone and its preimage under T alike."""
        return self.sigmas[1:self.op.cone.k + 1].min(axis=0)

    def value(self) -> np.ndarray:
        """F(A); meaningful only where the margin is positive."""
        return np.asarray(self.op.sigma_value(np.moveaxis(self.sigmas, 0, -1)))

    def derivative(self) -> np.ndarray:
        """The rows of the matrix D of dF at A, as ``first_derivative``: sum_j
        (df/d sigma_j) P_{j-1}, pulled back through the self-adjoint argument map."""
        partials = self.op.sigma_partials(np.moveaxis(self.sigmas, 0, -1))
        return self.op.matrix_argument(sum(p * self.derivatives[j - 1]
                                           for j, p in partials.items()))


def _admissible_table(op: SymmetricOperator, x, layout: Packing) -> SigmaTable:
    """The sigma table at the rows ``x`` in ``layout``; raises ``ConeViolation``
    naming the first sigma_j <= 0 of the argument at the first inadmissible matrix."""
    table = SigmaTable.at(op, x, layout)
    margins = np.reshape(table.margin(), -1)
    bad = np.flatnonzero(~(margins > 0.0))
    if bad.size:
        sigmas = np.reshape(table.sigmas, (len(table.sigmas), -1))[:, bad[0]]
        j = 1 + int(np.argmin(sigmas[1:op.cone.k + 1] > 0.0))
        err = ConeViolation(j, float(sigmas[j]))
        err.args = (f"{err.args[0]}; margin {margins[bad[0]]:.6g}",)
        raise err
    return table


def evaluate(op: SymmetricOperator, a):
    """F(A) = f(eigenvalues of A); basis invariant."""
    a = require_hermitian(a)
    layout = packing(op.n, np.iscomplexobj(a))
    v = _admissible_table(op, layout.pack(a), layout).value()
    return v if v.ndim else float(v)


def first_derivative(op: SymmetricOperator, a) -> np.ndarray:
    """The matrix of dF at A.

    Contracting against a Hermitian direction H gives dF(A)[H] as the real
    trace pairing sum_ij D_ij conj(H_ij).  Positive definite on admissible A.
    """
    a = require_hermitian(a)
    layout = packing(op.n, np.iscomplexobj(a))
    return layout.unpack(_admissible_table(op, layout.pack(a), layout).derivative())


def contract(d, h) -> float | np.ndarray:
    """Real trace pairing <D, H> = sum_ij D_ij conj(H_ij) of Hermitian matrices."""
    out = np.einsum("...ij,...ij->...", d, np.conj(h))
    out = np.real(out)
    return out if out.ndim else float(out)


def second_form(op: SymmetricOperator, a, h):
    """The quadratic form d2F(A)[H, H]; <= 0 by concavity of F.

    One forward-mode sweep of the ``packed_sigmas`` recursion at the argument
    X in the direction H_X (T(A) and T(H) under ``ComposedWithT``):

        sigma_j' = <P_{j-1}, H_X>,  P_0' = 0,  P_j' = sigma_j' I - H_X P_{j-1} - X P_{j-1}',
        sigma_j'' = <P_{j-1}', H_X>,
        d2F[H, H] = sum_jl f_jl sigma_j' sigma_l' + sum_j f_j sigma_j''.

    H_X P_{j-1} + X P_{j-1}' is Hermitian: its rows are the products' rows summed.
    """
    a, h = require_hermitian(a), require_hermitian(h)
    layout = packing(op.n, np.iscomplexobj(a) or np.iscomplexobj(h))
    rows, hx = layout.pack(a), op.matrix_argument(layout.pack(h))
    table, x = _admissible_table(op, rows, layout), op.matrix_argument(rows)
    d1, d2 = {}, {}  # sigma_j', sigma_j''
    dp = np.zeros_like(hx)  # P_{j-1}'
    for j, p in enumerate(table.derivatives, start=1):
        d1[j] = layout.pairing(p, hx)
        d2[j] = layout.pairing(dp, hx)
        dp = -(layout.product(hx, p) + layout.product(x, dp))
        dp[:op.n] += d1[j]
    out = sum(f * d2[j] for j, f in op.sigma_partials(np.moveaxis(table.sigmas, 0, -1)).items())
    for (j, l), f in op.sigma_second_partials(np.moveaxis(table.sigmas, 0, -1)).items():
        out = out + (1 if j == l else 2) * f * d1[j] * d1[l]
    return out if np.ndim(out) else float(out)
