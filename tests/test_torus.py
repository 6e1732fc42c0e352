import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conesolve import (
    DegenerateClassError,
    MatrixField,
    PeriodicGrid,
    ScalarField,
    complex_gradient,
    complex_hessian,
    compute_c,
    derivative,
    endomorphism_field,
    export_csv,
    form_ratio,
    hessian,
    integral,
    load_field,
    nminus1_background,
    random_band_limited,
    real_hessian,
    save_field,
)
from conesolve.torus import (
    congruence,
    hessian_components,
    hessian_perturbation,
    hessian_symbols,
    hessian_weights,
    laplacian_symbol,
    metric_basis,
    metric_hessian,
    metric_root_inverse,
    sup_operator_norm,
)
from oracles import derivative_full_mesh, laplacian_symbol_full_mesh


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid.make("real", 1, 3)  # odd
    with pytest.raises(ValueError):
        PeriodicGrid.make("real", 1, 2)  # too small
    with pytest.raises(ValueError):
        PeriodicGrid.make("real", 2, 8, (1.0,))  # period count mismatch
    with pytest.raises(ValueError):
        PeriodicGrid.make("real", 2, 8, reduced=True)
    g = PeriodicGrid.make("complex", 2, 8, 1.0)
    assert g.shape == (8, 8, 8, 8) and g.axis_pair(1) == (2, 3)
    gr = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    assert gr.shape == (8, 8) and gr.axis_pair(1) == (1, None)


def test_spectral_derivative_exactness():
    g = PeriodicGrid.make("real", 1, 64, 2.0)
    x = g.coordinates()[0]
    f = ScalarField(g, np.sin(2 * np.pi * x / 2.0))
    expected = (np.pi) * np.cos(np.pi * x)
    assert np.abs(derivative(f, 0).values - expected).max() < 1e-11

    assert np.abs(derivative(ScalarField.constant(g, 4.0), 0).values).max() == 0.0

    g2 = PeriodicGrid.make("real", 2, 32, 1.0)
    x, y = g2.coordinates()
    f2 = ScalarField(g2, np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    d2 = derivative(f2, (0, 1))
    expected2 = (2 * np.pi) ** 2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    assert np.abs(d2.values - expected2).max() < 1e-11


def test_derivative_zero_mean():
    g = PeriodicGrid.make("real", 2, 16, 1.0)
    f = random_band_limited(g, 1.0, seed=0, max_harmonic=3)
    for ax in range(2):
        assert abs(integral(derivative(f, ax))) < 1e-13


def test_complex_hessian_quarter_convention():
    g = PeriodicGrid.make("complex", 1, 32, 1.0)
    x, _ = g.coordinates()
    u = ScalarField(g, np.cos(2 * np.pi * x))
    h = complex_hessian(u)
    expected = -np.pi**2 * np.cos(2 * np.pi * x)
    assert np.abs(h.values[..., 0, 0] - expected).max() < 1e-11

    assert np.abs(complex_hessian(ScalarField.zeros(g)).values).max() == 0.0


def test_complex_hessian_hermitian():
    g = PeriodicGrid.make("complex", 2, 12, 1.0)
    u = random_band_limited(g, 1.0, seed=1, max_harmonic=2)
    h = complex_hessian(u)
    assert h.hermitian_defect() < 1e-12
    assert np.abs(h.values.imag).max() > 0  # genuinely complex off-diagonal

    gr = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    hr = complex_hessian(random_band_limited(gr, 1.0, seed=2))
    assert hr.hermitian_defect() < 1e-12


def test_real_hessian_symmetry():
    g = PeriodicGrid.make("real", 3, 8, 1.0)
    u = random_band_limited(g, 1.0, seed=3)
    h = real_hessian(u)
    assert np.abs(h.values - np.swapaxes(h.values, -1, -2)).max() < 1e-12
    with pytest.raises(ValueError):
        complex_hessian(u)


def _per_entry_hessian(u):
    """The Hessian composed entry by entry from the full-mesh derivative oracle."""
    g = u.grid

    def d2(a, b):
        return np.zeros(g.shape) if a is None or b is None else derivative_full_mesh(u, (a, b))

    if g.mode == "real":
        out = np.zeros(g.shape + (g.n, g.n))
        for i in range(g.n):
            for j in range(g.n):
                out[..., i, j] = d2(i, j)
        return out
    out = np.zeros(g.shape + (g.n, g.n), dtype=complex)
    for i in range(g.n):
        xi, yi = g.axis_pair(i)
        for j in range(g.n):
            xj, yj = g.axis_pair(j)
            out[..., i, j] = 0.25 * (d2(xi, xj) + d2(yi, yj) + 1j * (d2(xi, yj) - d2(yi, xj)))
    return out


@pytest.mark.parametrize("points", [8, 10])  # N/2 even and odd
@pytest.mark.parametrize("mode,n,reduced", [
    ("real", 1, False), ("real", 2, False), ("real", 3, False),
    ("complex", 1, True), ("complex", 2, True), ("complex", 3, True),
    ("complex", 1, False), ("complex", 2, False),
])
def test_hessian_matches_per_entry_derivatives(mode, n, reduced, points):
    # random normal values carry energy up to and including the Nyquist modes
    rng = np.random.default_rng(points + 10 * n)
    axes = n if mode == "real" or reduced else 2 * n
    g = PeriodicGrid.make(mode, n, points, tuple(rng.uniform(0.5, 2.0, axes)), reduced)
    u = ScalarField(g, rng.normal(size=g.shape))
    h = hessian(u).values
    ref = _per_entry_hessian(u)
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("points", [8, 10])  # N/2 even and odd
@pytest.mark.parametrize("mode,n,reduced", [
    ("real", 1, False), ("real", 3, False), ("complex", 2, True), ("complex", 1, False),
])
def test_derivative_matches_full_mesh_oracle(mode, n, reduced, points):
    # orders 1 to 3 along every multiset of stored axes; random normal values
    # carry energy at the Nyquist modes, where odd orders differ from even ones
    rng = np.random.default_rng(points + 7 * n)
    axes = n if mode == "real" or reduced else 2 * n
    g = PeriodicGrid.make(mode, n, points, tuple(rng.uniform(0.5, 2.0, axes)), reduced)
    u = ScalarField(g, rng.normal(size=g.shape))
    for order in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(range(axes), order):
            ref = derivative_full_mesh(u, combo)
            got = derivative(u, combo).values
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), combo
    assert np.array_equal(derivative(u, 0).values, derivative(u, (0,)).values)


@pytest.mark.parametrize("mode,n,reduced", [
    ("real", 3, False), ("complex", 3, True), ("complex", 2, False),
])
def test_hessian_units(mode, n, reduced):
    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    table = hessian_symbols(g)
    units = table.units
    assert units.shape == (len(table.components), n, n)
    assert not units.flags.writeable
    with pytest.raises(ValueError):
        units[0, 0, 0] = 2.0
    assert np.array_equal(units, np.conj(np.swapaxes(units, -1, -2)))
    # the Hessian is sum_e c_e U_e, and the U_e are orthogonal: |U_e|^2 is 1
    # on the diagonal, 2 off it
    u = random_band_limited(g, 1.0, seed=11)
    comps = hessian_components(u.values, g)
    assert np.array_equal(hessian(u).values,
                          sum(c[..., None, None] * unit for c, unit in zip(comps, units)))
    gram = np.diag([1.0 if i == j else 2.0 for i, j, _ in table.components])
    assert np.array_equal(hessian_weights(units, units), gram)


@pytest.mark.parametrize("mode,n,reduced", [
    ("real", 3, False), ("complex", 2, True), ("complex", 2, False),
])
def test_metric_basis_is_the_congruent_unit_basis(mode, n, reduced):
    rng = np.random.default_rng(n + reduced)
    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    a = rng.standard_normal((n, n))
    if mode == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    alpha = a @ np.conj(a).T + n * np.eye(n)
    linv = metric_root_inverse(alpha, n)
    basis = metric_basis(g, alpha)
    units = hessian_symbols(g).units
    assert np.allclose(basis, linv @ units @ np.conj(linv).T, rtol=0, atol=1e-15)
    u = random_band_limited(g, 1.0, seed=12)
    ref = congruence(linv, hessian(u).values)
    assert np.abs(metric_hessian(u, alpha).values - ref).max() <= 1e-14 * np.abs(ref).max()
    # weights against B_e pair D with L^-1 H L^-*: those of L^-* D L^-1 against U_e
    d = rng.standard_normal(g.shape + (n, n))
    d = d + np.swapaxes(d, -1, -2)
    pulled = congruence(np.conj(linv).T, d)
    assert np.allclose(hessian_weights(d, basis), hessian_weights(pulled, units),
                       rtol=0, atol=1e-14 * np.abs(d).max())


@pytest.mark.parametrize("mode,n,reduced,count", [
    ("real", 3, False, 6), ("complex", 3, True, 6), ("complex", 2, False, 4),
])
def test_hessian_symbol_table(mode, n, reduced, count):
    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    table = hessian_symbols(g)
    assert len(table.components) == count
    assert table.symbols.shape == (count,) + g.shape[:-1] + (5,)
    # one table per grid: an equal grid built anew gets the same object
    assert hessian_symbols(PeriodicGrid.make(mode, n, 8, 1.0, reduced)) is table
    assert not table.symbols.flags.writeable
    with pytest.raises(ValueError):
        table.symbols[0] = 0.0

    # the components, scattered by Hermitian symmetry, are the Hessian
    u = random_band_limited(g, 1.0, seed=7)
    h = hessian(u).values
    for (i, j, imaginary), d2 in zip(table.components, hessian_components(u.values, g)):
        part = h.imag if imaginary else h.real
        assert np.array_equal(part[..., i, j], d2)
        assert np.array_equal(part[..., j, i], -d2 if imaginary else d2)


def _touches_nyquist(grid):
    """Half-spectrum mask of the indices with a Nyquist wavenumber on some axis."""
    ng = grid.points_per_axis
    idx = np.indices(grid.shape[:-1] + (ng // 2 + 1,))
    return np.any(idx == ng // 2, axis=0)


@pytest.mark.parametrize("mode,n,reduced", [
    ("real", 3, False), ("complex", 2, True), ("complex", 2, False),
])
def test_laplacian_symbol_matches_full_mesh_oracle(mode, n, reduced):
    rng = np.random.default_rng(n + 3 * reduced)
    axes = n if mode == "real" or reduced else 2 * n
    g = PeriodicGrid.make(mode, n, 8, tuple(rng.uniform(0.5, 2.0, axes)), reduced)
    half = g.points_per_axis // 2 + 1

    def oracle(alpha):
        return laplacian_symbol_full_mesh(g, alpha)[..., :half]

    # identity: bit for bit; another diagonal metric: to rounding
    assert np.array_equal(laplacian_symbol(g, np.eye(n)), oracle(np.eye(n)))
    diag = np.diag(rng.uniform(0.5, 2.0, n))
    ref = oracle(diag)
    assert np.all(np.abs(laplacian_symbol(g, diag) - ref) <= 4e-16 * np.abs(ref))

    # off-diagonal entries: the mixed symbols follow the Hessian's Nyquist rule,
    # so the two differ, but only at indices touching a Nyquist mode
    a = rng.standard_normal((n, n))
    if mode == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    alpha = a @ np.conj(a).T + n * np.eye(n)
    sym, ref = laplacian_symbol(g, alpha), oracle(alpha)
    close = np.abs(sym - ref) <= 1e-14 * np.abs(ref).max()
    nyquist = _touches_nyquist(g)
    assert np.all(close[~nyquist])
    assert not np.all(close[nyquist])
    assert np.all(sym.flat[1:] < 0) and sym.flat[0] == 0.0


def _sup_by_full_eigensolve(h):
    return float(np.abs(np.linalg.eigvalsh(h)).max())


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sup_operator_norm_is_the_full_eigensolve(monkeypatch, complex_, n):
    rng = np.random.default_rng(n + 5 * complex_)
    h = rng.standard_normal((6, 7, n, n))
    if complex_:
        h = h + 1j * rng.standard_normal((6, 7, n, n))
    h = h + np.conj(np.swapaxes(h, -1, -2))
    assert sup_operator_norm(h) == _sup_by_full_eigensolve(h)

    # a field with one dominant matrix: eigvalsh sees that matrix alone
    h[2, 3] *= 10.0 * np.sqrt(n)
    seen, eigvalsh = [], np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        seen.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert sup_operator_norm(h) == _sup_by_full_eigensolve(h)
    assert seen[0] == 1


def test_sup_operator_norm_equal_frobenius_and_zero_fields():
    # every matrix has Frobenius norm 1, so every one is a candidate
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3)))
    lam = rng.standard_normal((40, 3))
    lam /= np.linalg.norm(lam, axis=-1, keepdims=True)
    h = np.einsum("pij,pj,pkj->pik", q, lam, np.conj(q))
    assert sup_operator_norm(h) == _sup_by_full_eigensolve(h)
    # scalar matrices attain |H|_F / sqrt(n) exactly
    scalar = np.einsum("p,ij->pij", rng.uniform(0.5, 1.0, 40), np.eye(3))
    scalar[7] = np.eye(3)
    assert sup_operator_norm(scalar) == _sup_by_full_eigensolve(scalar) == 1.0
    assert sup_operator_norm(np.zeros((4, 4, 2, 2))) == 0.0


def test_integral_values():
    g = PeriodicGrid.make("real", 1, 64, 1.0)
    x = g.coordinates()[0]
    assert integral(ScalarField(g, np.sin(2 * np.pi * x) ** 2)) == pytest.approx(0.5)
    assert integral(ScalarField.constant(g, 1.0)) == pytest.approx(g.volume)
    assert integral(ScalarField(g, np.sin(2 * np.pi * x))) == pytest.approx(0.0, abs=1e-15)


def test_endomorphism_field():
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    chi = MatrixField.constant(g, np.eye(2))
    endo = endomorphism_field(np.eye(2), chi)
    assert np.abs(endo.values - np.eye(2)).max() == 0.0

    # real mode with scaled identity background
    g3 = PeriodicGrid.make("real", 3, 8, 1.0)
    chi3 = MatrixField.constant(g3, 2.0 * np.eye(3))
    endo3 = endomorphism_field(np.eye(3), chi3, ScalarField.zeros(g3))
    assert np.abs(endo3.values - 2.0 * np.eye(3)).max() < 1e-14

    # n=1 complex: matches the quarter-Laplacian directly
    g1 = PeriodicGrid.make("complex", 1, 32, 1.0)
    x, _ = g1.coordinates()
    u = ScalarField(g1, np.cos(2 * np.pi * x))
    endo1 = endomorphism_field(np.eye(1), MatrixField.constant(g1, np.zeros((1, 1))), u)
    expected = -np.pi**2 * np.cos(2 * np.pi * x)
    assert np.abs(endo1.values[..., 0, 0] - expected).max() < 1e-11

    with pytest.raises(ValueError):
        endomorphism_field(-np.eye(2), chi)


def test_endomorphism_self_adjoint_general_metric():
    rng = np.random.default_rng(4)
    g = PeriodicGrid.make("complex", 2, 12, 1.0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alpha = a @ a.conj().T + 2 * np.eye(2)
    u = random_band_limited(g, 0.5, seed=5)
    chi = MatrixField.constant(g, 2 * alpha)
    endo = endomorphism_field(alpha, chi, u)
    assert endo.hermitian_defect() < 1e-10
    # eigenvalues agree with alpha^{-1}(chi + hess u)
    raw = np.linalg.inv(alpha) @ (chi.values + complex_hessian(u).values)
    lam1 = np.sort(np.linalg.eigvalsh(endo.values), axis=-1)
    lam2 = np.sort(np.linalg.eigvals(raw).real, axis=-1)
    assert np.abs(lam1 - lam2).max() < 1e-10


def test_form_ratio_values_and_oracle():
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    chi = MatrixField.constant(g, 2 * np.eye(2))
    assert np.abs(form_ratio(chi, np.eye(2), 0).values - 1.0).max() == 0.0
    assert np.abs(form_ratio(chi, np.eye(2), 1).values - 2.0).max() < 1e-14
    assert np.abs(form_ratio(chi, np.eye(2), 2).values - 4.0).max() < 1e-14
    with pytest.raises(ValueError):
        form_ratio(chi, np.eye(2), 3)

    # oracle: sigma_j from the characteristic polynomial det(s I + a^{-1} m)
    rng = np.random.default_rng(6)
    for n in (2, 3):
        gg = PeriodicGrid.make("complex", n, 4, 1.0, reduced=True)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        alpha = a @ a.conj().T + n * np.eye(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2
        roots = np.linalg.eigvals(np.linalg.solve(alpha, m))
        coeffs = np.polynomial.polynomial.polyfromroots(-roots).real
        for j in range(n + 1):
            got = form_ratio(MatrixField.constant(gg, m), alpha, j).values.flat[0]
            assert got == pytest.approx(coeffs[n - j] / math.comb(n, j), rel=1e-10)


def test_compute_c_values_and_invariance():
    g = PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
    chi = MatrixField.constant(g, 2 * np.eye(2))
    assert compute_c(chi, np.eye(2), 1, 2) == pytest.approx(0.5)
    assert compute_c(MatrixField.constant(g, np.eye(2)), np.eye(2), 1, 2) == pytest.approx(1.0)

    # cohomological invariance under chi -> chi + hessian(phi)
    for seed in range(5):
        phi, pert = hessian_perturbation(g, 0.5, seed)
        shifted = MatrixField(g, chi.values + pert.values)
        assert abs(compute_c(shifted, np.eye(2), 1, 2) - 0.5) < 1e-12

    with pytest.raises(DegenerateClassError):
        compute_c(MatrixField.constant(g, np.diag([1.0, -1.0])), np.eye(2), 1, 2)


def test_nminus1_background():
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    eta = MatrixField.constant(g, np.eye(2))
    chi = nminus1_background(eta, np.eye(2))
    assert np.abs(chi.values - np.eye(2)).max() < 1e-14

    eta2 = MatrixField.constant(g, np.diag([1.0, 2.0]))
    chi2 = nminus1_background(eta2, np.eye(2))
    assert np.abs(chi2.values - np.diag([2.0, 1.0])).max() < 1e-14

    g3 = PeriodicGrid.make("complex", 3, 4, 1.0, reduced=True)
    eta3 = MatrixField.constant(g3, np.eye(3))
    assert np.abs(nminus1_background(eta3, np.eye(3)).values - np.eye(3)).max() < 1e-14

    # T of the background eigenvalues recovers the eta eigenvalues
    from conesolve import t_map
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2 + 3 * np.eye(3)
    chi3 = nminus1_background(MatrixField.constant(g3, m), np.eye(3))
    lam_chi = np.linalg.eigvalsh(chi3.values.reshape(-1, 3, 3)[0])
    lam_eta = np.linalg.eigvalsh(m)
    assert np.abs(np.sort(t_map(lam_chi)) - np.sort(lam_eta)).max() < 1e-12

    g1 = PeriodicGrid.make("complex", 1, 8, 1.0, reduced=True)
    with pytest.raises(ValueError):
        nminus1_background(MatrixField.constant(g1, np.eye(1)), np.eye(1))


def test_complex_gradient():
    g = PeriodicGrid.make("complex", 1, 64, 1.0)
    x, y = g.coordinates()
    u = ScalarField(g, np.cos(2 * np.pi * x))
    w = complex_gradient(u)
    expected = -np.pi * np.sin(2 * np.pi * x)  # (d_x - i d_y)/2 of cos
    assert np.abs(w[..., 0] - expected).max() < 1e-11


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(["real", "complex"]), matrix=st.booleans(),
       n=st.integers(1, 2))
def test_field_io_round_trip_is_bit_exact(data, mode, matrix, n):
    reduced = mode == "complex" and data.draw(st.booleans())
    periods = data.draw(st.floats(0.1, 10.0))
    g = PeriodicGrid.make(mode, n, 4, periods, reduced=reduced)
    # every float a field can hold: signed zeros, subnormals, and for
    # matrix fields infinities; complex entries from their (real, imag) bits
    complex_ = matrix and mode == "complex"
    shape = g.shape + ((n, n) if matrix else ()) + ((2,) if complex_ else ())
    values = data.draw(arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=matrix)))
    field = (MatrixField(g, values.view(np.complex128)[..., 0] if complex_ else values)
             if matrix else ScalarField(g, values))
    with tempfile.TemporaryDirectory() as tmp:
        save_field(field, Path(tmp) / "f")
        back = load_field(Path(tmp) / "f")
    assert type(back) is type(field)
    assert back.grid == g
    assert back.values.dtype == field.values.dtype
    assert back.values.shape == field.values.shape
    assert back.values.tobytes() == field.values.tobytes()


def test_field_io_roundtrip(tmp_path):
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    u = random_band_limited(g, 1.0, seed=8)
    save_field(u, tmp_path / "u")
    back = load_field(tmp_path / "u")
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert np.array_equal(back.values, u.values)

    h = complex_hessian(random_band_limited(PeriodicGrid.make("complex", 2, 8, 1.0), 1.0, 9))
    save_field(h, tmp_path / "h")
    backm = load_field(tmp_path / "h")
    assert np.array_equal(backm.values, h.values)

    export_csv(u, tmp_path / "u.csv", fixed={1: 0})
    lines = (tmp_path / "u.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,value" and len(lines) == 9
