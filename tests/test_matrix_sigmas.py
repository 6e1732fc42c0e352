"""The sigma table read straight from matrices (``eigencalc.matrix_sigmas``,
``SigmaTable``) against the eigenframe reference, for every kind a config can
build at n = 1..3 and the blended quotient at t in {0, 0.5, 1}, on real
symmetric and complex Hermitian matrices: distinct spectra, one repeated
eigenvalue and c*I, down to 1e-6 from the cone boundary.

sigma_j and P_{j-1} = d sigma_j / dA are checked against the sigma_j of
``eigvalsh`` and the eigenframe derivative of sigma_j; the margin, F and the
matrix D of dF against ``op.cone.margin``, ``op.value`` and
``first_derivative``.  Each tolerance is RTOL times the matching power of
||A||: ||A||^j for sigma_j (and the margin), ||A||^(j-1) for P_{j-1}.  F and D
are first order in the sigma_j of the operator's argument, so theirs also
carry its condition number, max_j ||A||^j / sigma_j.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesolve import (
    AdmissibilityError,
    BlendedQuotient,
    ComposedWithT,
    MatrixField,
    PathKind,
    PeriodicGrid,
    ScalarField,
    TorusProblem,
)
from conesolve.cones import sigma_all, t_map, without_each
from conesolve.eigencalc import SigmaTable, first_derivative, frame_product, matrix_sigmas
from conesolve.solver import evaluate_pointwise
from test_crossings import _config_kinds, _pushed

KINDS = _config_kinds(1) + _config_kinds(2) + _config_kinds(3) + [
    BlendedQuotient(n, l, k, t) for n in (2, 3) for k in range(2, n + 1)
    for l in range(1, k) for t in (0.0, 0.5, 1.0)]
RTOL = 1e-13
entries = st.floats(-3.0, 3.0).map(lambda x: round(x, 6))
#: offsets into the cone from its boundary along (1, ..., 1)
gaps = st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 4.0])
spectra = st.sampled_from(["distinct", "repeated", "scalar"])


def _spectrum(data, cone, n, gap):
    v = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    kind = data.draw(spectra)
    if kind == "repeated":
        v[-1] = v[0]
    elif kind == "scalar":
        v[:] = v[0]
    return _pushed(cone, v, gap)


def _hermitian(data, lam, complex_):
    """U diag(lam) U* for a random unitary (orthogonal if not ``complex_``) U."""
    n = lam.shape[-1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(z)[0]
    a = (q * lam) @ np.conj(q).T
    return 0.5 * (a + np.conj(a).T)


def _argument_sigmas(op, lam):
    """sigma_0..sigma_K of the spectrum the operator's terms read."""
    return sigma_all(t_map(lam) if isinstance(op, ComposedWithT) else lam, op.sigma_order)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS), complex_=st.booleans())
def test_sigma_table_matches_the_eigenframe(data, op, complex_):
    n = op.n
    count = data.draw(st.integers(1, 4))
    a = np.stack([_hermitian(data, _spectrum(data, op.cone, n, data.draw(gaps)), complex_)
                  for _ in range(count)])
    lam, frame = np.linalg.eigh(a)
    norm = np.abs(lam).max(axis=-1)
    powers = norm[:, None] ** np.arange(n + 1)

    sig, derivs = matrix_sigmas(a, n)
    assert np.all(np.abs(sig - sigma_all(lam)) <= RTOL * powers)
    minors = sigma_all(without_each(lam), n - 1)  # eigenvalues of P_{j-1}
    for j in range(1, n + 1):
        err = np.abs(derivs[j - 1] - frame_product(frame, minors[..., j - 1])).max(axis=(-1, -2))
        assert np.all(err <= RTOL * powers[:, j - 1])

    table = SigmaTable.at(op, a)
    k = op.cone.k
    margin = table.margin()
    assert np.all(np.abs(margin - op.cone.margin(lam)) <= RTOL * powers[:, 1:k + 1].max(axis=-1))
    assert np.all(margin > 0)

    ref = _argument_sigmas(op, lam)
    read = sorted({j for term in op.terms for j, _ in term.powers} | set(range(1, k + 1)))
    cond = np.max([powers[:, j] / ref[:, j] for j in read], axis=0)
    f_ref = op.value(lam)
    assert np.all(np.abs(table.value() - f_ref) <= RTOL * cond * (np.abs(f_ref) + 1.0))

    # D is sum_j (df/d sigma_j) P_{j-1}: its natural scale is that sum in norms
    d_scale = sum(np.abs(p) * powers[:, j - 1] for j, p in op.sigma_partials(ref).items())
    err = np.abs(table.derivative() - first_derivative(op, a)).max(axis=(-1, -2))
    assert np.all(err <= RTOL * cond * d_scale)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS), complex_=st.booleans())
def test_inadmissible_iterate_names_the_eigenvalue_worst_point(data, op, complex_):
    n = op.n
    grid = PeriodicGrid.make("complex" if complex_ else "real", n, 4, 1.0, reduced=complex_)
    good = _hermitian(data, _spectrum(data, op.cone, n, data.draw(gaps)), complex_)
    bad = _hermitian(data, _spectrum(data, op.cone, n, -data.draw(st.sampled_from(
        [1e-3, 0.1, 1.0]))), complex_)
    worst = tuple(data.draw(st.integers(0, 3)) for _ in grid.shape)
    chi = MatrixField.constant(grid, good)
    chi.values[worst] = bad
    problem = TorusProblem(grid, op, np.eye(n), chi, ScalarField.zeros(grid), path=PathKind.FIXED)

    margins = op.cone.margin(np.linalg.eigvalsh(chi.values))
    assert np.unravel_index(np.argmin(margins), grid.shape) == worst
    with pytest.raises(AdmissibilityError) as err:
        evaluate_pointwise(problem, None, 1.0).require_admissible()
    assert err.value.worst_index == worst
    assert err.value.margin == pytest.approx(margins[worst], rel=1e-12, abs=1e-12)
