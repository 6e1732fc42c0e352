"""The solve path's packed rows against the dense oracle: for every kind a
config can build at n = 1..4 (``test_crossings._config_kinds``), on real,
reduced complex and full complex grids, under the identity metric and a
non-diagonal one, the sigma table a problem reads at A[u] (sigma_j, the
margin, F, the rows of D) and the ``Linearization`` weights are those of the
dense recursion ``oracles.matrix_sigmas`` on A[u] = L^-1 (chi + Hess u) L^-*,
and of ``oracles.hessian_weights`` of the dense D against the dense B_e, to 1e-13
relative to each quantity's largest entry."""

import numpy as np
import pytest

from conesolve import ComposedWithT, MatrixField, PeriodicGrid, ScalarField, TorusProblem
from conesolve.eigencalc import SigmaTable, pack
from conesolve.solver import Linearization, PointwiseEvaluation
from conesolve.torus import (
    congruence,
    hessian,
    hessian_perturbation,
    hessian_symbols,
)
from oracles import hessian_weights, matrix_sigmas, metric_root_inverse
from test_crossings import _config_kinds

RTOL = 1e-13


def _metric(n, complex_, diagonal):
    if diagonal:
        return np.eye(n)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a @ np.conj(a).T + n * np.eye(n)


def _close(x, ref):
    return np.abs(x - ref).max() <= RTOL * np.abs(ref).max()


def _dense_argument(op, a):
    """A, or T(A) = (tr A I - A)/(n - 1) under ``ComposedWithT``; T is self-adjoint."""
    if not isinstance(op, ComposedWithT):
        return a
    trace = np.real(np.einsum("...ii->...", a))
    return (trace[..., None, None] * np.eye(op.n) - a) / (op.n - 1)


@pytest.mark.parametrize("diagonal", [True, False], ids=["identity", "metric"])
@pytest.mark.parametrize("mode,reduced", [("real", False), ("complex", True), ("complex", False)],
                         ids=["real", "reduced", "full"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_rows_match_the_dense_oracle(n, mode, reduced, diagonal):
    g = PeriodicGrid.make(mode, n, 4, 1.0, reduced)
    alpha = _metric(n, mode == "complex", diagonal)
    _, pert = hessian_perturbation(g, 0.2, seed=3)
    chi = MatrixField(g, 2.0 * alpha + pert.values)
    u, _ = hessian_perturbation(g, 0.2, seed=4)
    kinds = _config_kinds(n)
    problem = TorusProblem(g, kinds[0], alpha, chi, ScalarField.zeros(g))
    # Hermitian rows where the basis (a full grid) or the metric is complex
    complex_rows = mode == "complex" and not (reduced and diagonal)
    assert problem.packing.hermitian == (n > 1 and complex_rows)
    rows = problem.endomorphism(problem.components(u))
    linv = metric_root_inverse(alpha)
    a = congruence(linv, chi.values + hessian(u).values)
    assert _close(problem.packing.unpack(rows), a)
    assert np.array_equal(pack(problem.packing.unpack(rows)), rows)
    basis = congruence(linv, hessian_symbols(g).units)
    # sigma_0..sigma_n of A and of T(A): each kind reads a prefix
    dense = {}
    for op in kinds:
        composed = isinstance(op, ComposedWithT)
        if composed not in dense:
            dense[composed] = matrix_sigmas(_dense_argument(op, a), n)
        sigmas, derivatives = dense[composed]
        sigmas = sigmas[..., :op.sigma_order + 1]
        table = SigmaTable.at(op, rows, problem.packing)
        for j in range(op.sigma_order + 1):
            assert _close(table.sigmas[j], sigmas[..., j])
        assert _close(table.margin(), sigmas[..., 1:op.cone.k + 1].min(axis=-1))
        assert _close(table.value(), op.sigma_value(sigmas))
        d = _dense_argument(op, sum(p[..., None, None] * derivatives[j - 1]
                                    for j, p in op.sigma_partials(sigmas).items()))
        assert _close(problem.packing.unpack(table.derivative()), d)
        weights = Linearization(problem, PointwiseEvaluation.of(table)).weights
        assert _close(weights, hessian_weights(d, basis))
