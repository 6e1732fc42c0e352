"""The public calculus of F(A) = f(lambda(A)), read from the sigma recursion
(``evaluate``, ``first_derivative`` and the forward-mode sweep of
``second_form``), against the eigenframe oracle in ``oracles``: every kind of
``test_term_calculus.KINDS``, real symmetric and complex Hermitian stacks,
with distinct spectra, one repeated eigenvalue (a unitary conjugate of
diag(lam_1, lam_1, lam_3)) and exactly c*I, down to 1e-6 from the cone
boundary.

The recursion errs like the sigma_j it reads: RTOL times their condition
number max_j ||A||^j / sigma_j, on the natural scale of each quantity, the
sum of its terms in norms.  The oracle's divided differences
(f_p - f_q)/(lam_p - lam_q) lose eps (|f_p| + |f_q|) / |lam_p - lam_q| more to
cancellation at close but distinct eigenvalues; that is added to the bound of
d2F.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conesolve import evaluate, first_derivative, second_form
from oracles import (
    DEGENERATE_GAP,
    eigenframe_first_derivative,
    eigenframe_second_form,
    eigenframe_value,
)
from test_matrix_sigmas import _argument_sigmas, _hermitian, _spectrum, gaps
from test_term_calculus import KINDS

RTOL = 1e-13
EPS = np.finfo(float).eps


def _matrix(data, op, complex_):
    lam = _spectrum(data, op.cone, op.n, data.draw(gaps))
    return lam[0] * np.eye(op.n) if np.all(lam == lam[0]) else _hermitian(data, lam, complex_)


def _direction(data, n, complex_):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((n, n))
    if complex_:
        h = h + 1j * rng.standard_normal((n, n))
    h = h + np.conj(h).T
    return h / np.abs(h).max()


def _divided_difference_slack(op, lam):
    """eps (|f_p| + |f_q|) / |lam_p - lam_q| over the pairs the oracle divides."""
    g = np.abs(op.gradient(lam))
    gap = np.abs(lam[..., :, None] - lam[..., None, :])
    divided = gap >= DEGENERATE_GAP * (1.0 + np.abs(lam[..., :, None]))
    quotient = np.where(divided, (g[..., :, None] + g[..., None, :]) / np.where(divided, gap, 1.0), 0.0)
    return EPS * quotient.max(axis=(-1, -2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS), complex_=st.booleans())
def test_sigma_calculus_matches_the_eigenframe_oracle(data, op, complex_):
    n, count = op.n, data.draw(st.integers(1, 4))
    a = np.stack([_matrix(data, op, complex_) for _ in range(count)])
    h = np.stack([_direction(data, n, complex_) for _ in range(count)])
    lam = np.linalg.eigvalsh(a)
    norm = np.abs(lam).max(axis=-1)
    powers = norm[:, None] ** np.arange(n + 1)
    ref = _argument_sigmas(op, lam)
    read = sorted({j for term in op.terms for j, _ in term.powers} | set(range(1, op.cone.k + 1)))
    cond = np.max([powers[:, j] / ref[:, j] for j in read] + [np.ones(count)], axis=0)
    f1, f2 = op.sigma_partials(ref), op.sigma_second_partials(ref)

    f = evaluate(op, a)
    f_ref = eigenframe_value(op, a)
    assert np.all(np.abs(f - f_ref) <= RTOL * cond * (np.abs(f_ref) + 1.0))

    # D is sum_j f_j P_{j-1}, of norm up to sum_j |f_j| ||A||^(j-1) (times n)
    d_scale = n * sum(np.abs(p) * powers[:, j - 1] for j, p in f1.items())
    err = np.abs(first_derivative(op, a) - eigenframe_first_derivative(op, a)).max(axis=(-1, -2))
    assert np.all(err <= RTOL * cond * d_scale)

    # sigma_j' and sigma_j'' are of the order ||A||^(j-1) |H| and ||A||^(j-2) |H|^2
    h_norm = np.linalg.norm(h, axis=(-1, -2))
    form_scale = h_norm**2 * (
        sum(np.abs(p) * powers[:, max(j - 2, 0)] for j, p in f1.items())
        + sum(np.abs(p) * powers[:, j - 1] * powers[:, l - 1] for (j, l), p in f2.items()))
    form = second_form(op, a, h)
    slack = RTOL * cond * form_scale
    oracle_slack = _divided_difference_slack(op, lam) * n * h_norm**2
    assert np.all(np.abs(form - eigenframe_second_form(op, a, h)) <= slack + oracle_slack)
    assert np.all(form <= slack)  # concave
