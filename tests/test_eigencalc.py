import zlib
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conesolve import (
    ComposedWithT,
    ConeViolation,
    HessianQuotientNeg,
    InverseSigmaK,
    LogSigmaK,
    MongeAmpere,
    contract,
    eigen_decompose,
    eigenvalues,
    evaluate,
    first_derivative,
    second_form,
)
from conesolve.eigencalc import pack, packed_eigenvalues, packed_sigmas, packing, sup_operator_norm
from oracles import second_derivative_form, second_difference
from test_crossings import _pushed
from test_term_calculus import KINDS


def rand_hermitian(rng, n, complex_=True):
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def rand_admissible(rng, op, complex_=True):
    n = op.n
    while True:
        a = 0.25 * rand_hermitian(rng, n, complex_) + np.diag(rng.uniform(1.0, 3.0, n))
        a = (a + a.conj().T) / 2
        lam = np.linalg.eigvalsh(a)
        if op.cone.contains(lam) and op.cone.margin(lam) > 0.1:
            return a


def test_eigen_decompose_hand_cases():
    vals, frame = eigen_decompose(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(vals, [3, 2, 1])
    assert np.abs(np.abs(frame) - np.eye(3)[:, ::-1]).max() < 1e-14

    vals, _ = eigen_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3, 1], atol=1e-14)

    vals, _ = eigen_decompose(np.array([[0, 1j], [-1j, 0]]))
    np.testing.assert_allclose(vals, [1, -1], atol=1e-14)


def test_eigen_decompose_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rand_hermitian(rng, n)
        vals, frame = eigen_decompose(a)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(a @ frame, frame * vals[None, :], atol=1e-10)
        np.testing.assert_allclose(frame.conj().T @ frame, np.eye(n), atol=1e-12)
        again = eigen_decompose(a.copy())
        assert np.array_equal(again.values, vals)
        assert np.array_equal(again.frame, frame)


def _exact_spectrum(a) -> np.ndarray:
    """The ascending spectrum of each stored 1x1 or 2x2 Hermitian matrix, read
    from its diagonal and lower entry as eigvalsh reads it, in 60 digits."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for m in a:
            p = Decimal(float(np.real(m[0, 0])))
            if m.shape[-1] == 1:
                out.append([p])
                continue
            d, b = Decimal(float(np.real(m[1, 1]))), m[1, 0]
            half = (p + d) / 2
            radius = (((p - d) / 2) ** 2 + Decimal(float(np.real(b))) ** 2
                      + Decimal(float(np.imag(b))) ** 2).sqrt()
            out.append([half - radius, half + radius])
    return np.array(out, dtype=float)


def _spectrum_cases(complex_: bool) -> np.ndarray:
    """2x2 matrices U diag(lam) U*, rotated and (if complex) phased, for
    spectra that are multiples of 1, diagonal, double, split by 1e-4 and
    1e-8, and with one eigenvalue near 0."""
    rng = np.random.default_rng(11)
    spectra = [(1.0, 1.0), (-2.5, -2.5), (1.0, 1.0 + 1e-4), (-1.0, -1.0 + 1e-8),
               (3.0, 3.0 * (1 + 1e-8)), (1e-13, 1.0), (-1.0, 1e-17), (-4.0, 0.5)]
    mats = []
    for lam in spectra:
        for angle in [0.0, np.pi / 2, *rng.uniform(0.0, np.pi, 6)]:
            c, s = np.cos(angle), np.sin(angle)
            phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) if complex_ else 1.0
            u = np.array([[c, -s * phase], [s * np.conj(phase), c]])
            m = u @ np.diag(lam) @ np.conj(u).T
            mats.append((m + np.conj(m).T) / 2)
    return np.array(mats)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_small_spectra_are_closed_forms(complex_, scale):
    dtype = complex if complex_ else float
    # exactly c I gives c twice, bit for bit, in dimension 1 and 2
    for c in [1.0, -3.7, 0.0, 2.0**-60]:
        for n in (1, 2):
            got = eigenvalues((c * scale * np.eye(n, dtype=dtype))[None])
            assert got.tobytes() == np.full((1, n), c * scale).tobytes()
    ones = scale * np.array([[[-2.5]], [[7.0]]], dtype=dtype)
    assert eigenvalues(ones).tobytes() == np.linalg.eigvalsh(ones).tobytes()
    a = scale * _spectrum_cases(complex_)
    a = np.concatenate([a, scale * np.array([np.diag([2.0, -1.0]), np.diag([0.5, 0.5 + 1e-8])],
                                            dtype=dtype)])  # b = 0
    got, exact = eigenvalues(a), _exact_spectrum(a)
    assert got.shape == exact.shape == a.shape[:-1]
    assert np.all(np.diff(got, axis=-1) >= 0)  # ascending, as eigvalsh
    eps_norm = np.finfo(float).eps * np.abs(exact).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - exact) <= 4 * eps_norm)
    # eigvalsh itself errs by up to ~5 eps |A| on complex 2x2 matrices
    assert np.all(np.abs(got - np.linalg.eigvalsh(a)) <= 8 * eps_norm)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_row_spectra_are_the_closed_forms_bit_for_bit(complex_):
    # the rows' spectrum is the dense closed form of the matrices they hold,
    # for rotated and phased spectra, c I and b = 0 alike
    dtype = complex if complex_ else float
    rng = np.random.default_rng(17)
    scalars = np.array([c * np.eye(2, dtype=dtype) for c in (1.0, -3.7, 0.0, 2.0**-60)])
    diagonal = np.array([np.diag([2.0, -1.0]), np.diag([0.5, 0.5 + 1e-8])], dtype=dtype)
    a = np.concatenate([_spectrum_cases(complex_), scalars, diagonal])
    rows, layout = pack(a), packing(2, complex_)
    assert layout.checked(rows) is rows
    got = packed_eigenvalues(rows, layout)
    assert got.tobytes() == eigenvalues(layout.unpack(rows)).tobytes()
    assert got[len(a) - 6:len(a) - 2].tobytes() == np.repeat(
        [1.0, -3.7, 0.0, 2.0**-60], 2).reshape(4, 2).tobytes()
    assert np.allclose(got[-2:], [[-1.0, 2.0], [0.5, 0.5 + 1e-8]], rtol=4e-16, atol=0.0)
    ones, single = rng.standard_normal((1, 5, 3)), packing(1, False)
    assert packed_eigenvalues(ones, single).tobytes() == eigenvalues(single.unpack(ones)).tobytes()
    assert packed_eigenvalues(ones, single).tobytes() \
        == np.linalg.eigvalsh(single.unpack(ones)).tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_row_readers_refuse_a_dense_field_and_the_other_layout(n, complex_):
    # a reader reads the layout it is handed: a dense (..., n, n) field, or the
    # rows of the other layout, is a ValueError, not a misread
    a = np.array([rand_hermitian(np.random.default_rng(i), n, complex_) for i in range(8)])
    layout, other = packing(n, complex_), packing(n, not complex_)
    readers = [lambda x: packed_sigmas(x, layout, n), lambda x: packed_eigenvalues(x, layout),
               lambda x: sup_operator_norm(x, layout), layout.unpack]
    for x in (a, np.real(a), other.pack(a)):
        for read in readers:
            with pytest.raises(ValueError, match="rows"):
                read(x)


def test_pack_refuses_matrices_of_another_size():
    # the layout packs its own n x n matrices: a 3 x 3 field is not read as
    # the rows of its upper-left 2 x 2 blocks, nor a 2 x 2 field as 3 x 3 rows
    cases = [(packing(2, False), np.arange(45.0).reshape(5, 3, 3)),
             (packing(3, True), np.ones((5, 2, 2), dtype=complex)),
             (packing(2, False), np.ones((5, 2, 3))), (packing(2, False), np.ones(4))]
    for layout, a in cases:
        with pytest.raises(ValueError, match="n x n matrices"):
            layout.pack(a)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_spectra_above_two_are_the_row_spectra(n, complex_):
    a = np.array([rand_hermitian(np.random.default_rng(i), n, complex_) for i in range(20)])
    layout = packing(n, complex_)
    got, expected = eigenvalues(a), np.linalg.eigvalsh(a)
    assert got.tobytes() == packed_eigenvalues(pack(a), layout).tobytes()
    eps_norm = np.finfo(float).eps * np.abs(expected).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - expected) <= 16 * eps_norm)


def _jacobi_cases(complex_: bool) -> np.ndarray:
    """3 x 3 matrices Q diag(lam) Q*, Q random orthogonal (unitary if
    complex), for random spectra, c I, a double root, gaps of 1e-8 and 1e-4,
    a graded and two singular spectra."""
    rng = np.random.default_rng(23)
    spectra = [*rng.standard_normal((40, 3)), (2.5, 2.5, 2.5), (1.0, 1.0, -2.0),
               (1.0, 1.0 + 1e-8, 3.0), (1.0, 1.0 + 1e-4, 3.0), (1e-6, 1.0, 1e6),
               (0.0, 1.0, 2.0), (0.0, 0.0, -1.0)]
    mats = []
    for lam in spectra:
        for _ in range(4):
            z = rng.standard_normal((3, 3)) + (1j * rng.standard_normal((3, 3)) if complex_ else 0)
            q, _ = np.linalg.qr(z)
            m = (q * np.asarray(lam)) @ q.conj().T
            mats.append((m + m.conj().T) / 2)
    return np.array(mats)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_jacobi_spectra_agree_with_eigvalsh(complex_, scale):
    a = scale * _jacobi_cases(complex_)
    rows, layout = pack(a), packing(3, complex_)
    assert layout.checked(rows) is rows
    got, expected = packed_eigenvalues(rows, layout), np.linalg.eigvalsh(a)
    assert got.shape == expected.shape
    assert np.all(np.diff(got, axis=-1) >= 0)  # ascending, as eigvalsh
    eps_norm = np.finfo(float).eps * np.abs(expected).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - expected) <= 16 * eps_norm)
    # a 4 x 4 field takes the same sweeps
    big = scale * np.array([rand_hermitian(np.random.default_rng(i), 4, complex_)
                            for i in range(40)])
    got, expected = packed_eigenvalues(pack(big), packing(4, complex_)), np.linalg.eigvalsh(big)
    eps_norm = np.finfo(float).eps * np.abs(expected).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - expected) <= 16 * eps_norm)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_jacobi_returns_a_diagonal_matrix_bit_for_bit(complex_):
    values = np.array([[3.0, -0.0, 0.0], [1.0, 2.0, -5.0], [2.0**-60, -7.5, 2.0**60],
                       [4.0, 4.0, 4.0], [0.0, 0.0, 0.0]])
    a = np.zeros(values.shape + (3,), dtype=complex if complex_ else float)
    a[:, [0, 1, 2], [0, 1, 2]] = values
    got = packed_eigenvalues(pack(a), packing(3, complex_))
    assert got.tobytes() == np.sort(values, axis=-1, kind="stable").tobytes()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_jacobi_spectrum_does_not_depend_on_the_batch(complex_):
    rows, layout = pack(_jacobi_cases(complex_)), packing(3, complex_)
    batch = packed_eigenvalues(rows, layout)
    for i in range(rows.shape[1]):
        assert packed_eigenvalues(rows[:, i:i + 1], layout)[0].tobytes() == batch[i].tobytes()
    assert packed_eigenvalues(rows[:, ::-1], layout).tobytes() == batch[::-1].tobytes()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "hermitian"])
def test_jacobi_gives_nan_at_a_non_finite_matrix_only(complex_):
    rows, layout = pack(_jacobi_cases(complex_)), packing(3, complex_)
    clean = packed_eigenvalues(rows, layout)
    rows[0, 5], rows[4, 9], rows[-1, 11] = np.nan, np.inf, -np.inf
    got = packed_eigenvalues(rows, layout)
    bad = np.isin(np.arange(len(got)), [5, 9, 11])
    assert np.all(np.isnan(got[bad]))
    assert got[~bad].tobytes() == clean[~bad].tobytes()


def test_jacobi_raises_on_a_matrix_left_unconverged(monkeypatch):
    from conesolve import NumericError, eigencalc

    monkeypatch.setattr(eigencalc, "MAX_JACOBI_SWEEPS", 1)
    diagonal = pack(np.diag([3.0, 1.0, 2.0])[None])
    assert packed_eigenvalues(diagonal, packing(3, False)).tolist() == [[1.0, 2.0, 3.0]]
    with pytest.raises(NumericError, match="1 of 2 3 x 3 matrices"):
        packed_eigenvalues(pack(np.stack([np.diag([3.0, 1.0, 2.0]),
                                          rand_hermitian(np.random.default_rng(4), 3)])),
                           packing(3, True))


def test_eigen_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigen_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_value_hand_cases():
    ma = MongeAmpere(2)
    assert evaluate(ma, np.diag([1.0, 2.0])) == pytest.approx(np.log(2))
    assert evaluate(ma, np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(np.log(3))
    assert evaluate(LogSigmaK(3, 2), np.eye(3)) == pytest.approx(np.log(3))


def test_value_domain_error_reports_margin():
    with pytest.raises(ConeViolation) as err:
        evaluate(MongeAmpere(2), np.diag([1.0, -1.0]))
    assert "margin" in str(err.value)


def test_domain_error_names_the_sigma_of_the_argument():
    # T(diag(-0.5, -0.5, 4.5)) = diag(2, 2, -0.5): sigma_3 < 0 < sigma_1, sigma_2
    # there, while sigma_2(-0.5, -0.5, 4.5) < 0 already
    op = ComposedWithT(3, MongeAmpere(3))
    for call in (evaluate, first_derivative, lambda op, a: second_form(op, a, np.eye(3))):
        with pytest.raises(ConeViolation) as err:
            call(op, np.diag([-0.5, -0.5, 4.5]))
        assert err.value.index == 3
        assert err.value.value == pytest.approx(-2.0)
        assert "margin -2" in str(err.value)


def test_domain_error_names_the_first_inadmissible_matrix():
    # sigma(-5, 3, 3) = (1, -21, -45) and sigma(-I) = (-3, 3, -1): the second
    # matrix fails at sigma_2, the third already at sigma_1
    op = LogSigmaK(3, 2)
    q, _ = np.linalg.qr(rand_hermitian(np.random.default_rng(15), 3))
    bad = (q * np.array([-5.0, 3.0, 3.0])) @ q.conj().T
    stack = np.stack([np.eye(3), (bad + bad.conj().T) / 2, -np.eye(3)])
    with pytest.raises(ConeViolation) as err:
        evaluate(op, stack)
    assert err.value.index == 2
    assert err.value.value == pytest.approx(-21.0)
    assert "margin -21" in str(err.value)


def test_public_calculus_runs_no_eigensolve(monkeypatch):
    rng = np.random.default_rng(14)
    cases = []
    for op in KINDS:
        q, _ = np.linalg.qr(rand_hermitian(rng, op.n))
        a = (q * _pushed(op.cone, rng.uniform(-3.0, 3.0, op.n), 0.5)) @ q.conj().T
        cases.append((op, (a + a.conj().T) / 2))

    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition in the public calculus")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for op, a in cases:
        assert np.isfinite(evaluate(op, a))
        assert np.all(np.isfinite(first_derivative(op, a)))
        assert np.isfinite(second_form(op, a, np.eye(op.n)))


def test_first_derivative_hand_cases():
    ma = MongeAmpere(2)
    np.testing.assert_allclose(first_derivative(ma, np.diag([1.0, 2.0])),
                               np.diag([1.0, 0.5]), atol=1e-14)
    # repeated eigenvalues force an isotropic derivative
    np.testing.assert_allclose(first_derivative(LogSigmaK(3, 2), np.eye(3)),
                               (2 / 3) * np.eye(3), atol=1e-13)


def test_second_form_hand_cases():
    ma = MongeAmpere(2)
    i2 = np.eye(2)
    assert second_form(ma, i2, np.diag([1.0, -1.0])) == pytest.approx(-2.0)
    assert second_form(ma, i2, np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-2.0)
    assert second_form(ma, i2, np.zeros((2, 2))) == 0.0


OPS = [
    MongeAmpere(2), MongeAmpere(3), LogSigmaK(3, 2),
    HessianQuotientNeg(3, 1, 2), InverseSigmaK(3, 1),
]


@pytest.mark.parametrize("op", OPS, ids=lambda o: repr(o))
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_derivatives_match_finite_differences(op, complex_):
    rng = np.random.default_rng(zlib.crc32(f"{op!r}{complex_}".encode()))
    for _ in range(20):
        a = rand_admissible(rng, op, complex_)
        h = rand_hermitian(rng, op.n, complex_)
        f0 = evaluate(op, a)
        pairing = contract(first_derivative(op, a), h)
        # slope-2 ratio test for the first-order remainder
        e = [evaluate(op, a + t * h) - f0 - t * pairing for t in (1e-3, 1e-4)]
        slope = np.log(abs(e[0] / e[1])) / np.log(10.0)
        assert 1.8 < slope < 2.2
        form = second_form(op, a, h)
        fd2 = second_difference(lambda t: evaluate(op, a + t * h), 1e-3)
        assert abs(fd2 - form) <= 1e-5 * max(abs(form), 1e-6)


@pytest.mark.parametrize("op", OPS, ids=lambda o: repr(o))
def test_degenerate_spectra(op):
    # the sigma recursion needs no eigenvalue gaps, so at exact eigenvalue
    # collisions finite differences must still agree
    rng = np.random.default_rng(zlib.crc32(repr(op).encode()) + 7)
    for _ in range(10):
        q, _ = np.linalg.qr(rand_hermitian(rng, op.n))
        lam = rng.uniform(1.0, 3.0, op.n)
        lam[-1] = lam[0]  # exact collision
        a = (q * lam[None, :]) @ q.conj().T
        a = (a + a.conj().T) / 2
        h = rand_hermitian(rng, op.n)
        form = second_form(op, a, h)
        fd2 = second_difference(lambda t: evaluate(op, a + t * h), 1e-3)
        assert abs(fd2 - form) <= 1e-3 * max(abs(form), 1e-6)
        assert form <= 1e-9


def test_second_derivative_form_weights_nonpositive():
    rng = np.random.default_rng(11)
    op = LogSigmaK(3, 2)
    for _ in range(50):
        a = rand_admissible(rng, op)
        lam = eigen_decompose(a).values
        w = second_derivative_form(op, lam).offdiag_weights
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert w.max() <= 1e-12


def test_basis_invariance():
    rng = np.random.default_rng(12)
    op = LogSigmaK(3, 2)
    for _ in range(25):
        a = rand_admissible(rng, op)
        q, _ = np.linalg.qr(rand_hermitian(rng, 3))
        conj = q @ a @ q.conj().T
        conj = (conj + conj.conj().T) / 2
        assert evaluate(op, conj) == pytest.approx(evaluate(op, a), abs=1e-10)
        d1 = np.linalg.eigvalsh(first_derivative(op, a))
        d2 = np.linalg.eigvalsh(first_derivative(op, conj))
        np.testing.assert_allclose(d1, d2, atol=1e-10)
        assert d1.min() > 0  # ellipticity
