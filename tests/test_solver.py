import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conesolve import (
    AdmissibilityError,
    EllipticityError,
    HessianQuotientNeg,
    LogSigmaK,
    MatrixField,
    MongeAmpere,
    PathKind,
    PeriodicGrid,
    ScalarField,
    StagnationError,
    TorusProblem,
    admissibility_margin,
    endomorphism_field,
    newton_solve,
    normalize,
    random_band_limited,
    residual,
    run_continuity,
    uniform_schedule,
)
from conesolve.eigencalc import SigmaTable, contract
from conesolve.solver import Linearization, PointwiseEvaluation, evaluate_pointwise, rhs_base
from conesolve.torus import (
    compute_c,
    congruence,
    hessian,
    hessian_components,
    hessian_perturbation,
    hessian_symbols,
    spectral_hessian_components,
)
from oracles import eigenframe_first_derivative as first_derivative
from oracles import metric_root_inverse

#: metrics with off-diagonal entries, complex ones in the Hermitian case
REAL_METRIC = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.2]])
COMPLEX_METRIC = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])


def manufactured_problem(n=1, amplitude=0.5, points=32, reduced=False, seed=0):
    """log-det problem with h := F(A[u*]) for a known band-limited u*.

    ``amplitude`` is the operator norm of the Hessian of u*, so the
    admissibility margin of the manufactured solution is 1 - amplitude.
    """
    grid = PeriodicGrid.make("complex", n, points, 1.0, reduced=reduced)
    ustar, _ = hessian_perturbation(grid, amplitude, seed=seed)
    alpha = np.eye(n)
    chi = MatrixField.constant(grid, np.eye(n))
    op = MongeAmpere(n)
    endo = endomorphism_field(alpha, chi, ustar)
    lam = np.linalg.eigvalsh(endo.values)
    h = ScalarField(grid, np.asarray(op.value(lam, check=False)))
    prob = TorusProblem(grid, op, alpha, chi, h, path=PathKind.FIXED)
    return prob, ustar


def test_normalize():
    g = PeriodicGrid.make("real", 1, 16, 1.0)
    u = ScalarField.constant(g, 5.0)
    assert np.abs(normalize(u, "sup_zero").values).max() == 0.0
    x = g.coordinates()[0]
    s = ScalarField(g, np.sin(2 * np.pi * x))
    assert np.abs(normalize(s, "mean_zero").values - s.values).max() < 1e-14
    twice = normalize(normalize(s, "sup_zero"), "sup_zero")
    assert np.array_equal(twice.values, normalize(s, "sup_zero").values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(["mean_zero", "sup_zero"]),
       n=st.integers(1, 3), points=st.sampled_from([4, 6]))
def test_normalize_is_idempotent(data, mode, n, points):
    g = PeriodicGrid.make("real", n, points, 1.0)
    u = ScalarField(g, data.draw(arrays(float, g.shape, elements=st.floats(-1e6, 1e6))))
    once = normalize(u, mode)
    twice = normalize(once, mode)
    if mode == "sup_zero":  # max(u - max u) is exactly 0
        assert np.array_equal(twice.values, once.values)
    else:  # the mean of u - mean(u) is 0 up to the rounding of mean(u)
        bound = u.values.size * np.finfo(float).eps * np.abs(u.values).max()
        assert np.abs(twice.values - once.values).max() <= bound


def test_residual_anchors_at_zero():
    # each path is exactly solvable at t=0 by u=0, c=0 for backgrounds with
    # a constant form ratio
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    alpha = np.eye(2)
    chi = MatrixField.constant(g, 2 * np.eye(2))
    h = random_band_limited(g, 0.3, seed=1)
    zero = ScalarField.zeros(g)

    hess = TorusProblem(g, LogSigmaK(2, 2), alpha, chi, h, path=PathKind.HESSIAN)
    assert np.abs(residual(hess, zero, 0.0, 0.0).values).max() < 1e-14

    riem = TorusProblem(g, LogSigmaK(2, 2), alpha, chi, path=PathKind.RIEMANNIAN)
    assert np.abs(residual(riem, zero, 0.0, 0.0).values).max() < 1e-14

    quot = TorusProblem(g, HessianQuotientNeg(2, 1, 2), alpha, chi,
                        path=PathKind.QUOTIENT)
    # blended member at t=0 equals -1/S_2 = -1/4 pointwise: c = 1/4
    assert np.abs(residual(quot, zero, 0.25, 0.0).values).max() < 1e-14


def test_residual_domain_error_reports_worst_point():
    g = PeriodicGrid.make("complex", 1, 16, 1.0, reduced=True)
    prob = TorusProblem(g, MongeAmpere(1), np.eye(1),
                        MatrixField.constant(g, -np.eye(1)),
                        ScalarField.zeros(g), path=PathKind.FIXED)
    with pytest.raises(AdmissibilityError) as err:
        residual(prob, ScalarField.zeros(g), 0.0, 1.0)
    assert err.value.margin < 0 and err.value.worst_index is not None


def test_linearization_apply_consistency():
    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=2)
    g = prob.grid
    u0 = random_band_limited(g, 0.01, seed=3)
    at_u0 = Linearization(prob, evaluate_pointwise(prob, prob.components(u0), 1.0))
    v = random_band_limited(g, 1.0, seed=4)

    # constants have zero Hessian; the constant block is -dc
    const = at_u0.apply(np.fft.rfftn(ScalarField.constant(g, 3.0).values), 0.0)
    assert np.abs(const.values).max() < 1e-12
    unit_dc = at_u0.apply(np.fft.rfftn(ScalarField.zeros(g).values), 1.0)
    assert np.abs(unit_dc.values + 1.0).max() < 1e-14

    # directional-derivative ratio test at eps in {1e-4, 1e-5}
    lin = at_u0.apply(np.fft.rfftn(v.values), 0.7)
    errs = []
    for eps in (1e-4, 1e-5):
        u_eps = ScalarField(g, u0.values + eps * v.values)
        fd = (residual(prob, u_eps, 0.1 + eps * 0.7, 1.0).values
              - residual(prob, u0, 0.1, 1.0).values) / eps
        errs.append(np.abs(fd - lin.values).max())
    assert errs[1] < 0.11 * errs[0]  # first-order remainder shrinks linearly


@pytest.mark.parametrize("mode,n,alpha", [
    ("real", 3, REAL_METRIC),
    ("complex", 2, COMPLEX_METRIC),
])
def test_linearization_general_metric(mode, n, alpha):
    # a metric that is not a multiple of the identity tells L^-* D L^-1 from
    # L^-1 D L^-* and from no transform at all
    g = PeriodicGrid.make(mode, n, 8, 1.0)
    chi = MatrixField.constant(g, alpha)
    prob = TorusProblem(g, MongeAmpere(n), alpha, chi, ScalarField.zeros(g))
    u0, _ = hessian_perturbation(g, 0.3, seed=5)
    v = random_band_limited(g, 1.0, seed=6)
    c0, dc = 0.1, 0.7
    lin = Linearization(prob, evaluate_pointwise(prob, prob.components(u0), 1.0))
    out = lin.apply(np.fft.rfftn(v.values), dc).values

    eps = 1e-5
    fd = (residual(prob, ScalarField(g, u0.values + eps * v.values), c0 + eps * dc, 1.0).values
          - residual(prob, ScalarField(g, u0.values - eps * v.values), c0 - eps * dc, 1.0).values
          ) / (2 * eps)
    assert np.abs(fd - out).max() < 1e-6 * np.abs(out).max()

    # <D, L^-1 (Hess v) L^-*> - dc, with dF taken at A[u0] in the orthonormal frame
    linv = np.linalg.inv(np.linalg.cholesky(alpha))
    d = first_derivative(prob.op, endomorphism_field(alpha, chi, u0).values)
    ht = np.einsum("ab,...bc,dc->...ad", linv, hessian(v).values, np.conj(linv))
    explicit = np.real(np.einsum("...ij,...ij->...", d, np.conj(ht))) - dc
    assert np.abs(explicit - out).max() < 1e-12 * np.abs(out).max()


@pytest.mark.parametrize("mode,n,reduced,alpha", [
    ("real", 3, False, np.eye(3)),
    ("complex", 3, True, np.eye(3)),
    ("complex", 2, False, np.eye(2)),
    ("complex", 2, False, COMPLEX_METRIC),
])
def test_linearization_apply_is_the_hessian_contraction(monkeypatch, mode, n, reduced, alpha):
    import conesolve.solver as solver
    import conesolve.torus as torus

    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    chi = MatrixField.constant(g, alpha)
    prob = TorusProblem(g, LogSigmaK(n, 2), alpha, chi, ScalarField.zeros(g))
    u0, _ = hessian_perturbation(g, 0.3, seed=5)
    v = random_band_limited(g, 1.0, seed=6)
    ev = evaluate_pointwise(prob, prob.components(u0), 1.0)
    linv = metric_root_inverse(alpha)
    pulled_back = congruence(np.conj(linv).T, prob.packing.unpack(ev.table.derivative()))
    expected = contract(pulled_back, hessian(v).values) - 0.7

    # the matvec reads the Hessian's components, never the n x n field
    def refuse(*args, **kwargs):
        raise AssertionError("a Hessian field inside the matvec")

    lin = Linearization(prob, ev)
    monkeypatch.setattr(torus, "hessian", refuse)
    monkeypatch.setattr(solver, "hessian", refuse)
    out = lin.apply(np.fft.rfftn(v.values), 0.7).values
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


class _DerivativeRows:
    """A sigma table stand-in that hands out fixed rows of D."""

    def __init__(self, rows):
        self.rows = rows

    def derivative(self):
        return self.rows


@pytest.mark.parametrize("bad", [-0.5, 0.0, math.nan, math.inf])
def test_non_elliptic_linearization_names_its_worst_point(bad):
    # a linearization refuses tr D / n <= 0 or not finite rather than hand
    # GMRES a weight it cannot scale by
    g = PeriodicGrid.make("real", 2, 4, 1.0)
    prob = TorusProblem(g, MongeAmpere(2), np.eye(2), MatrixField.constant(g, np.eye(2)),
                        ScalarField.zeros(g))
    rows = np.ones((3,) + g.shape)
    rows[2] = 0.0
    rows[:2, 1, 3] = bad
    rows[:2, 2, 0] = 1e-3  # small but elliptic: not the worst point
    ev = PointwiseEvaluation(_DerivativeRows(rows), 1.0, (0, 0), None)
    with pytest.raises(EllipticityError) as err:
        Linearization(prob, ev)
    assert isinstance(err.value, AdmissibilityError)
    assert err.value.worst_index == (1, 3)
    assert "non-elliptic" in str(err.value)


def test_preconditioner_inverts_the_real_line_linearization_exactly():
    # on a real n = 1 torus dF is D v'' with D = tau pointwise, which the
    # preconditioner inverts exactly: each Krylov solve converges at its first
    # Arnoldi step, one product there and one for the true residual
    g = PeriodicGrid.make("real", 1, 32, 1.0)
    _, pert = hessian_perturbation(g, 0.2, seed=21)  # chi_perturbed(1, 0.2, 21)
    prob = TorusProblem(g, MongeAmpere(1), np.eye(1), MatrixField(g, np.eye(1) + pert.values),
                        random_band_limited(g, 0.3, seed=1), path=PathKind.FIXED)
    assert np.ptp(pert.values) > 0.1
    state = newton_solve(prob, 1.0)
    assert state.iterations >= 2
    for step in state.newton_steps:
        assert step["krylov_products"] == 2 and step["krylov_residual"] < 1e-13


def _linearized(mode, n, reduced, alpha, points=8):
    g = PeriodicGrid.make(mode, n, points, 1.0, reduced)
    _, pert = hessian_perturbation(g, 0.2, seed=16)
    prob = TorusProblem(g, LogSigmaK(n, 2), alpha, MatrixField(g, alpha + pert.values),
                        ScalarField.zeros(g))
    u0, _ = hessian_perturbation(g, 0.3, seed=5)
    return prob, Linearization(prob, evaluate_pointwise(prob, prob.components(u0), 1.0))


def _krylov_direction(prob, seed):
    """A half spectrum as the preconditioner makes them: zero mode 0."""
    zero_mode = (0,) * prob.grid.stored_axes
    symbol = prob.laplacian.copy()
    symbol[zero_mode] = 1.0
    spec = np.fft.rfftn(random_band_limited(prob.grid, 1.0, seed=seed, max_harmonic=3).values)
    spec /= symbol
    spec[zero_mode] = 0.0
    return spec


SPECTRAL_CASES = [
    ("real", 3, False, REAL_METRIC),
    ("complex", 3, True, REAL_METRIC),
    ("complex", 2, False, COMPLEX_METRIC),
    ("complex", 2, False, np.eye(2)),
]


@pytest.mark.parametrize("mode,n,reduced,alpha", SPECTRAL_CASES)
def test_spectral_matvec_matches_the_physical_apply(mode, n, reduced, alpha):
    # the Krylov solve applies dF to half spectra as the preconditioner makes
    # them; applied to the field such a spectrum transforms to, it must agree
    prob, lin = _linearized(mode, n, reduced, alpha)
    g = prob.grid
    spec = _krylov_direction(prob, seed=7)
    v = ScalarField(g, np.fft.irfftn(spec, s=g.shape, axes=range(g.stored_axes)))
    expected = lin.apply(np.fft.rfftn(v.values), 0.7).values
    out = lin.apply(spec, 0.7).values
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


#: the three solve workloads' grids: real 16^3, reduced complex 20^3, full complex 12^4
WORKLOAD_GRIDS = [("real", 3, False, 16), ("complex", 3, True, 20), ("complex", 2, False, 12)]


@pytest.mark.parametrize("mode,n,reduced,points", WORKLOAD_GRIDS)
def test_in_place_products_are_the_batched_irfftn(mode, n, reduced, points):
    # the held buffers are overwritten in place by each product: two
    # successive directions through one linearization give irfftn's bits, and
    # the field the first product returned survives the second
    prob, lin = _linearized(mode, n, reduced, np.eye(n), points)
    g = prob.grid
    symbols = hessian_symbols(g).symbols
    axes = tuple(range(1, g.stored_axes + 1))
    v = random_band_limited(g, 1.0, seed=7, max_harmonic=3)
    first = lin.apply(np.fft.rfftn(v.values), 0.7)
    kept = first.values.copy()
    expected = np.fft.irfftn(np.fft.rfftn(v.values) * symbols, s=g.shape, axes=axes)
    assert np.array_equal(lin.components.view(np.int64), expected.view(np.int64))
    buffer = lin.components
    spec = _krylov_direction(prob, seed=8)
    lin.apply(spec, -0.3)
    expected = np.fft.irfftn(spec * symbols, s=g.shape, axes=axes)
    assert lin.components is buffer
    assert np.array_equal(lin.components.view(np.int64), expected.view(np.int64))
    assert np.array_equal(first.values.view(np.int64), kept.view(np.int64))
    # the allocating form, as hessian_components takes it, has the same bits
    fresh = spectral_hessian_components(spec, g)
    assert np.array_equal(fresh.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("mode,n,reduced,points", WORKLOAD_GRIDS)
def test_a_product_allocates_less_than_one_spectrum_of_components(mode, n, reduced, points):
    # a Krylov product reuses the linearization's buffers: after a warm-up,
    # its peak traced allocation stays below one E x half-spectrum complex
    # array (216, 412 and 756 KiB on these grids), which forming spec * symbols
    # alone would take
    prob, lin = _linearized(mode, n, reduced, np.eye(n), points)
    spec = _krylov_direction(prob, seed=8)
    lin.apply(spec, 0.7)
    bound = hessian_symbols(prob.grid).symbols.size * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        lin.apply(spec, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("mode,n,reduced,alpha", SPECTRAL_CASES)
def test_newton_system_solves_the_bordered_system(mode, n, reduced, alpha):
    # the Krylov solve in spectral coordinates, checked with the physical
    # apply; the components it returns are dv's
    from conesolve.solver import _solve_newton_system

    prob, lin = _linearized(mode, n, reduced, alpha)
    g = prob.grid
    r = random_band_limited(g, 0.1, seed=8).values + 0.02
    dv, dc, comps, info, _ = _solve_newton_system(lin, r, 1e-10)
    assert info == 0
    assert abs(dv.values.mean()) < 1e-15
    bordered = np.concatenate([(lin.apply(np.fft.rfftn(dv.values), dc).values + r).ravel(),
                               [dv.values.mean()]])
    assert np.sqrt(np.sum(bordered ** 2)) <= 1.01e-10 * np.sqrt(np.sum(r ** 2))
    fresh = hessian_components(dv.values, g)
    assert np.abs(comps - fresh).max() <= 1e-13 * np.abs(fresh).max()


def test_krylov_system_has_the_residual_rows(monkeypatch):
    # the mean-zero gauge lives in the search space: the right-hand side and
    # every product have the grid's N entries, with no row for the mean
    import conesolve.solver as solver

    prob, _ = manufactured_problem(n=2, points=8, reduced=True, seed=5)
    npts = int(np.prod(prob.grid.shape))
    sizes = {"rhs": [], "products": []}
    original = solver.lgmres

    def spying(matvec, b, **kwargs):
        def counted(z):
            w = matvec(z)
            sizes["products"].append(w.shape)
            return w

        sizes["rhs"].append(b.shape)
        return original(counted, b, **kwargs)

    monkeypatch.setattr(solver, "lgmres", spying)
    state = newton_solve(prob, 1.0)
    assert len(sizes["rhs"]) == state.iterations >= 2
    assert set(sizes["rhs"]) == set(sizes["products"]) == {(npts,)}


def test_carried_components_match_a_fresh_transform(monkeypatch):
    # a line-search trial reads comp(u) + step*comp(dv) in place of
    # transforming u; after several accepted steps that is still comp(u), the
    # components a t-step hands the next one are those of the normalized u,
    # and a secant start's extrapolated components are those of its u
    import sys

    import conesolve.solver as solver

    g = PeriodicGrid.make("real", 3, 8, 1.0)
    _, pert = hessian_perturbation(g, 0.1, seed=21)
    prob = TorusProblem(g, LogSigmaK(3, 2), np.eye(3), MatrixField(g, np.eye(3) + pert.values),
                        random_band_limited(g, 0.3, seed=11), path=PathKind.HESSIAN)
    carried, handed = [], []
    original, original_solve = solver.evaluate_pointwise, solver.newton_solve

    def recording(problem, comps, t):
        if comps is not None:
            # the evaluation takes no field, and a trial forms none: rebuild
            # the trial's u + step*dv from newton_solve's frame; before the
            # first step, the evaluation is the start's, at u
            frame = sys._getframe(1).f_locals
            trial = frame["u"].values
            if "step" in frame:
                trial = trial + frame["step"] * frame["dv"].values
            carried.append((trial, comps.copy()))
        return original(problem, comps, t)

    def handing(problem, t, warm=None):
        state = original_solve(problem, t, warm)
        handed.append((normalize(state.u, "mean_zero").values, state.components.copy()))
        return state

    monkeypatch.setattr(solver, "evaluate_pointwise", recording)
    monkeypatch.setattr(solver, "newton_solve", handing)
    report = run_continuity(prob, uniform_schedule(3))
    # each accepted step reads carried components, the first of them on the
    # cold start's zero components; the cold start evaluates the held A[0],
    # a warm start the last t-step's components, and a secant start its
    # prediction
    iterations = sum(step["newton_iterations"] for step in report.steps)
    assert [step["start"] for step in report.steps] == ["cold", "warm", "secant"]
    assert iterations >= 5
    assert len(carried) == iterations + 2
    assert len(handed) == len(report.steps)
    for values, comps in carried + handed:
        fresh = hessian_components(values, g)
        assert np.abs(comps - fresh).max() <= 1e-14 * max(np.abs(fresh).max(), 1.0)


def test_manufactured_monge_ampere_n1():
    prob, ustar = manufactured_problem(n=1, points=32)
    state = newton_solve(prob, 1.0)
    assert state.residual_norm < 1e-10
    assert state.iterations <= 12
    err = state.u.values - ustar.values
    assert np.abs(err - err.mean()).max() < 1e-8
    assert abs(state.c) < 1e-10


def test_newton_zero_iterations_when_converged():
    prob, _ = manufactured_problem(n=1, points=32)
    state = newton_solve(prob, 1.0)
    again = newton_solve(prob, 1.0, warm=state)
    assert again.iterations == 0
    assert np.array_equal(again.u.values, normalize(state.u, "mean_zero").values)


def test_a_warm_start_without_components_transforms_u_once(monkeypatch):
    # a report's final state carries no components: the warm start
    # transforms its u once, through TorusProblem.components
    import conesolve.solver as solver
    from conesolve.solver import SolveReport

    prob, _ = manufactured_problem(n=1, points=32)
    report = SolveReport()
    report.record(newton_solve(prob, 1.0), prob.normalization, "cold")
    final = report.final
    assert final.components is None
    through, transforms = [], []
    original_components, original_transform = TorusProblem.components, solver.hessian_components

    def components(problem, u):
        through.append(u.values.copy())
        return original_components(problem, u)

    def transform(*args):
        transforms.append(args)
        return original_transform(*args)

    monkeypatch.setattr(TorusProblem, "components", components)
    monkeypatch.setattr(solver, "hessian_components", transform)
    again = newton_solve(prob, 1.0, warm=final)
    expected = normalize(final.u, "mean_zero").values
    assert again.iterations == 0
    assert np.array_equal(again.u.values, expected)
    assert len(transforms) == 1
    assert len(through) == 1 and np.array_equal(through[0], expected)


@pytest.mark.parametrize("setting,message", [
    ({"newton_tol": 0.0}, "newton_tol must be a finite number > 0, got 0.0"),
    ({"newton_tol": -1.0}, "newton_tol must be a finite number > 0, got -1.0"),
    ({"newton_tol": float("nan")}, "newton_tol must be a finite number > 0, got nan"),
    ({"newton_tol": float("inf")}, "newton_tol must be a finite number > 0, got inf"),
    ({"max_newton": 0}, "max_newton must be >= 1, got 0"),
])
def test_problem_checks_its_solve_settings(setting, message):
    # nan never passes r_sup < newton_tol, so every solve would stagnate, and
    # 0 would hand a zero residual to the Krylov solve
    g = PeriodicGrid.make("complex", 1, 8, 1.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        TorusProblem(g, MongeAmpere(1), np.eye(1), MatrixField.constant(g, np.eye(1)),
                     ScalarField.zeros(g), **setting)


def test_newton_inadmissible_warm_start():
    prob, _ = manufactured_problem(n=1, points=32)
    bad_chi = MatrixField.constant(prob.grid, -np.eye(1))
    bad = TorusProblem(prob.grid, prob.op, prob.alpha, bad_chi, prob.h,
                       path=PathKind.FIXED)
    with pytest.raises(AdmissibilityError):
        newton_solve(bad, 1.0)


def test_newton_evaluates_each_iterate_once(monkeypatch):
    import conesolve.solver as solver

    prob, _ = manufactured_problem(n=1, points=32)
    calls = []
    original = solver.evaluate_pointwise

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    state = newton_solve(prob, 1.0)
    # the cold start, whose A[0] also gives c, then one evaluation per full
    # Newton step
    assert state.iterations >= 3
    assert len(calls) == 1 + state.iterations


def test_continuity_evaluates_the_background_once(monkeypatch):
    # F(A[0]) does not depend on t: a real3-hessian-shaped solve (6 t-steps,
    # 11 Newton steps) evaluates A[0] once for F(A[0]), once more at the cold
    # start, then its warm start, each of its 4 secant starts and each Newton
    # step once, 18 evaluations in all (with plain warm starts, 15 Newton
    # steps and 22 evaluations)
    import conesolve.solver as solver
    from conesolve.cli import build_problem
    from conesolve.config import parse_config

    prob, _ = build_problem(parse_config(
        "[problem]\nmode = real\ndimension = 3\noperator = log_sigma_k\nk = 2\n"
        "path = hessian\n[grid]\npoints_per_axis = 16\n"
        "[background]\nchi = chi_perturbed(1, 0.1, 21)\n"
        "[rhs]\nh = random_smooth(0.3, 11)\n[solve]\nschedule = 6\n"))
    calls = []
    original = solver.evaluate_pointwise

    def counting(problem, comps, t):
        calls.append(comps is None)
        return original(problem, comps, t)

    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    report = run_continuity(prob, uniform_schedule(6))
    iterations = sum(step["newton_iterations"] for step in report.steps)
    assert report.complete and iterations == 11
    assert [step["start"] for step in report.steps] == ["cold", "warm"] + ["secant"] * 4
    assert prob.background_value is prob.background_value
    # A[0] twice, both before the first Newton step: F(A[0]) for the rhs and
    # the cold start's evaluation of the held A[0]
    assert calls[:2] == [True, True] and calls.count(True) == 2
    assert len(calls) == 1 + 1 + 1 + 4 + iterations == 18


QUOTIENT_C3_CFG = (
    "[problem]\nmode = complex\ndimension = 3\noperator = hessian_quotient\nk = 2\nl = 1\n"
    "path = quotient\n[grid]\npoints_per_axis = 20\nreduced = true\n"
    "[background]\nchi = chi_perturbed(2, 0.1, 21)\n[solve]\nschedule = 11\n")


def test_warm_starts_transform_nothing(monkeypatch):
    # a quotient-c3-shaped solve (11 t-steps): the warm start reads the last
    # t-step's components and a secant start extrapolates them, so between
    # a start's entry and its first linearization nothing is transformed,
    # and its one sigma recursion is the evaluation of its start
    import conesolve.eigencalc as eigencalc
    import conesolve.solver as solver
    from conesolve.cli import build_problem
    from conesolve.config import parse_config

    prob, _ = build_problem(parse_config(QUOTIENT_C3_CFG))
    events = []

    def spy(module, name, tag):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            events.append(tag)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    original_solve = solver.newton_solve

    def starting(problem, t, warm=None):
        events.append("start")
        return original_solve(problem, t, warm)

    spy(solver, "hessian_components", "transform")
    spy(eigencalc, "packed_sigmas", "sigmas")
    spy(solver, "Linearization", "linearize")
    monkeypatch.setattr(solver, "newton_solve", starting)
    report = run_continuity(prob, uniform_schedule(11))
    assert report.complete
    # u does not move along this path: each prediction already meets newton_tol
    assert [step["newton_iterations"] for step in report.steps][1:] == [1] + [0] * 9
    assert [step["start"] for step in report.steps] == ["cold", "warm"] + ["secant"] * 9
    starts = [i for i, e in enumerate(events) if e == "start"] + [len(events)]
    solves = [events[i + 1:j] for i, j in zip(starts, starts[1:])]
    before_linearizing = [s[:s.index("linearize")] if "linearize" in s else s for s in solves]
    assert before_linearizing[1:] == [["sigmas"]] * 10


def _small_quotient_problem():
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    _, pert = hessian_perturbation(g, 0.1, seed=10)
    return TorusProblem(g, HessianQuotientNeg(2, 1, 2), np.eye(2),
                        MatrixField(g, 2 * np.eye(2) + pert.values), path=PathKind.QUOTIENT)


def _small_hessian_problem():
    g = PeriodicGrid.make("real", 3, 8, 1.0)
    _, pert = hessian_perturbation(g, 0.1, seed=21)
    return TorusProblem(g, LogSigmaK(3, 2), np.eye(3), MatrixField(g, np.eye(3) + pert.values),
                        random_band_limited(g, 0.3, seed=11), path=PathKind.HESSIAN)


def test_a_t_bisection_retry_evaluates_from_the_carried_components(monkeypatch):
    # the warm start evaluates the carried components of t = 0, the refused
    # t-step and its retry at half the step each evaluate their secant start
    # once, extrapolated from the carried components, and nothing in the
    # solve transforms u
    import conesolve.solver as solver

    prob = _small_quotient_problem()
    original_solve, original_eval = solver.newton_solve, solver.evaluate_pointwise
    refused, evaluations, transforms = [], [], []

    def refusing(problem, t, warm=None):
        state = original_solve(problem, t, warm)
        if t == 1.0 and not refused:
            refused.append(state.iterations)
            raise StagnationError("refused", state)
        return state

    def counting(problem, comps, t):
        evaluations.append(comps is not None)
        return original_eval(problem, comps, t)

    def transforming(*args):
        transforms.append(args)
        raise AssertionError("u transformed")

    monkeypatch.setattr(solver, "newton_solve", refusing)
    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    monkeypatch.setattr(solver, "hessian_components", transforming)
    report = run_continuity(prob, uniform_schedule(3))
    assert report.complete
    assert [step["t"] for step in report.steps] == [0.0, 0.5, 0.75, 1.0]
    iterations = sum(step["newton_iterations"] for step in report.steps) + refused[0]
    assert [step["start"] for step in report.steps] == ["cold", "warm", "secant", "secant"]
    # the cold start (the held A[0]), each Newton step, the warm start at 0.5
    # and the secant starts of the refused t = 1, the retry at 0.75 and t = 1
    # again
    assert evaluations == [False] + [True] * (iterations + 4)
    assert transforms == []


def test_secant_start_extrapolates_u_c_and_the_components():
    # the prediction's components are extrapolated, not transformed: they
    # are those of the predicted u, to rounding
    from conesolve.solver import secant_start

    prob = _small_hessian_problem()
    prev = newton_solve(prob, 0.0)
    last = newton_solve(prob, 0.4, warm=prev)
    assert np.abs(last.u.values - prev.u.values).max() > 1e-4  # u moves
    predicted = secant_start(prev, last, 0.7)
    theta = (0.7 - 0.4) / (0.4 - 0.0)
    assert predicted.t == 0.7
    assert predicted.c == last.c + theta * (last.c - prev.c)
    assert np.array_equal(predicted.u.values,
                          last.u.values + theta * (last.u.values - prev.u.values))
    fresh = prob.components(predicted.u)
    assert np.abs(predicted.components - fresh).max() <= 1e-12 * np.abs(fresh).max()


def test_secant_spacing_follows_a_t_bisection(monkeypatch):
    # after t = 1 is refused, the retry at 0.75 predicts from the states at
    # 0 and 0.5 with theta = 1/2, and t = 1 then from 0.5 and 0.75
    import conesolve.solver as solver

    prob = _small_hessian_problem()
    original_solve, original_secant = solver.newton_solve, solver.secant_start
    refused, predictions = [], []

    def refusing(problem, t, warm=None):
        state = original_solve(problem, t, warm)
        if t == 1.0 and not refused:
            refused.append(t)
            raise StagnationError("refused", state)
        return state

    def predicting(prev, last, t):
        predicted = original_secant(prev, last, t)
        predictions.append((prev.t, last.t, t, prev.c, last.c, predicted.c))
        return predicted

    monkeypatch.setattr(solver, "newton_solve", refusing)
    monkeypatch.setattr(solver, "secant_start", predicting)
    report = run_continuity(prob, uniform_schedule(3))
    assert report.complete and refused == [1.0]
    assert [step["t"] for step in report.steps] == [0.0, 0.5, 0.75, 1.0]
    assert [p[:3] for p in predictions] == [(0.0, 0.5, 1.0), (0.0, 0.5, 0.75), (0.5, 0.75, 1.0)]
    for (_, _, _, c0, c1, predicted), theta in zip(predictions, (1.0, 0.5, 1.0)):
        assert predicted == c1 + theta * (c1 - c0)


def test_an_inadmissible_prediction_restarts_from_the_last_state(monkeypatch):
    # a prediction far off the cone is refused at its evaluation; the t-step
    # then starts from the last state, as a plain warm start would, to the bit
    import conesolve.solver as solver
    from conesolve.solver import SolveReport

    prob = _small_hessian_problem()
    schedule = uniform_schedule(4)
    plain, state = SolveReport(), None
    for t in schedule:
        state = newton_solve(prob, t, warm=state)
        plain.record(state, prob.normalization, "cold" if t == 0.0 else "warm")
    original_secant = solver.secant_start

    def off_the_cone(prev, last, t):
        predicted = original_secant(prev, last, t)
        return replace(predicted, u=ScalarField(prob.grid, -1e3 * predicted.u.values),
                       components=-1e3 * predicted.components)

    monkeypatch.setattr(solver, "secant_start", off_the_cone)
    report = run_continuity(prob, schedule)
    assert report.complete
    assert [step.pop("start") for step in report.steps] == (
        ["cold", "warm"] + ["secant_rejected"] * 2)
    assert report.steps == [{k: v for k, v in step.items() if k != "start"}
                            for step in plain.steps]
    assert np.array_equal(report.final.u.values, plain.final.u.values)


def test_a_prediction_is_freed_once_newton_replaces_it(monkeypatch):
    # newton_solve reads a predicted start and holds it no longer: from the
    # second Newton step of a predicted solve on, its components are gone
    import weakref

    import conesolve.solver as solver

    prob = _small_hessian_problem()
    original_secant, original_linearization = solver.secant_start, solver.Linearization
    predicted, alive = [], []

    def predicting(prev, last, t):
        start = original_secant(prev, last, t)
        predicted.append(weakref.ref(start.components))
        alive.append([])
        return start

    def linearizing(problem, ev):
        if predicted:
            alive[-1].append(predicted[-1]() is not None)
        return original_linearization(problem, ev)

    monkeypatch.setattr(solver, "secant_start", predicting)
    monkeypatch.setattr(solver, "Linearization", linearizing)
    report = run_continuity(prob, uniform_schedule(5))
    iterations = [step["newton_iterations"] for step in report.steps[2:]]
    assert [step["start"] for step in report.steps[2:]] == ["secant"] * 3
    assert min(iterations) >= 2
    assert alive == [[True] + [False] * (k - 1) for k in iterations]


def _snapshot(state):
    """Each field's object, and a copy of the values of each array it holds."""
    held = {f.name: getattr(state, f.name) for f in fields(state)}
    values = [state.u.values.copy()]
    if state.components is not None:
        values.append(state.components.copy())
    return state, held, values


def _unchanged(snapshot):
    state, held, values = snapshot
    now = [state.u.values] + ([] if state.components is None else [state.components])
    return (all(getattr(state, name) is obj for name, obj in held.items())
            and len(now) == len(values) and all(map(np.array_equal, now, values)))


def test_solves_leave_the_states_they_are_handed_unchanged(monkeypatch):
    # a state handed to newton_solve as its start, or to a t-step as the last
    # two accepted states, is read and not written: every field keeps its
    # object and every array its values
    import conesolve.solver as solver

    prob = _small_hessian_problem()
    first = newton_solve(prob, 0.0)
    handed = [_snapshot(first)]
    second = newton_solve(prob, 0.4, warm=first)
    handed.append(_snapshot(second))
    newton_solve(prob, 0.7, warm=solver.secant_start(first, second, 0.7))
    assert all(map(_unchanged, handed))

    original_step = solver._solve_step

    def stepping(problem, t, prev, last):
        handed.extend(_snapshot(s) for s in (prev, last) if s is not None)
        return original_step(problem, t, prev, last)

    monkeypatch.setattr(solver, "_solve_step", stepping)
    report = run_continuity(prob, uniform_schedule(4))
    assert [step["start"] for step in report.steps] == ["cold", "warm", "secant", "secant"]
    assert len(handed) == 2 + 1 + 2 + 2
    assert all(map(_unchanged, handed))


def test_newton_reads_the_frame_the_problem_holds(monkeypatch):
    # alpha and chi are checked and transformed once, when the problem is made
    import conesolve.solver as solver
    import conesolve.torus as torus

    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("the frame rebuilt inside newton_solve")

    for module in (solver, torus):
        for name in ("constant_metric", "endomorphism_field", "require_hermitian",
                     "laplacian_symbol"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    state = newton_solve(prob, 1.0)
    assert state.iterations >= 2 and state.residual_norm < prob.newton_tol



@pytest.mark.parametrize("mode,n,reduced,alpha", [
    ("real", 3, False, REAL_METRIC),
    ("complex", 3, True, REAL_METRIC),
    ("complex", 2, False, COMPLEX_METRIC),
])
def test_evaluation_reads_the_endomorphism_field(mode, n, reduced, alpha):
    # the held A[0] plus the held basis is A[u] bit for bit
    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    _, pert = hessian_perturbation(g, 0.2, seed=14)
    chi = MatrixField(g, alpha + pert.values)
    op = LogSigmaK(n, 2)
    prob = TorusProblem(g, op, alpha, chi, ScalarField.zeros(g))
    u, _ = hessian_perturbation(g, 0.3, seed=15)
    for w in (None, u):
        expected = SigmaTable.at(op, prob.packing.pack(endomorphism_field(alpha, chi, w).values),
                                 prob.packing)
        comps = None if w is None else prob.components(w)
        assert np.array_equal(evaluate_pointwise(prob, comps, 1.0).table.sigmas,
                              expected.sigmas)


def test_problem_frame_is_read_only():
    prob, _ = manufactured_problem(n=2, points=8)
    assert np.array_equal(prob.packing.unpack(prob.background),
                          endomorphism_field(prob.alpha, prob.chi).values)
    for held in (prob.background, prob.basis, prob.laplacian):
        with pytest.raises(ValueError, match="read-only"):
            held[(0,) * held.ndim] = 1.0


def test_problem_checks_alpha_and_chi_at_construction():
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    lower = MatrixField.constant(g, np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="chi: matrix is not Hermitian"):
        TorusProblem(g, MongeAmpere(2), np.eye(2), lower, ScalarField.zeros(g))
    chi = MatrixField.constant(g, np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        TorusProblem(g, MongeAmpere(2), np.diag([1.0, -1.0]), chi, ScalarField.zeros(g))
    field_alpha = TorusProblem(g, MongeAmpere(2), MatrixField.constant(g, 2.0 * np.eye(2)),
                               chi, ScalarField.zeros(g))
    assert np.array_equal(field_alpha.alpha, 2.0 * np.eye(2))


def test_newton_reads_no_eigenvalues(monkeypatch):
    # the cone margin, F and dF come from the sigma_j of A[u] itself
    g = PeriodicGrid.make("real", 3, 8, 1.0)
    real3 = TorusProblem(g, LogSigmaK(3, 2), np.eye(3), MatrixField.constant(g, np.eye(3)),
                         random_band_limited(g, 0.2, seed=1), path=PathKind.HESSIAN)
    complex2, _ = manufactured_problem(n=2, points=8)

    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition inside newton_solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for problem, t in ((real3, 0.5), (complex2, 1.0)):
        state = newton_solve(problem, t)
        assert state.iterations >= 2
        assert state.residual_norm < problem.newton_tol


def test_newton_krylov_nonconvergence_stagnates(monkeypatch):
    import conesolve.solver as solver

    prob, _ = manufactured_problem(n=1, points=32)
    monkeypatch.setattr(solver, "lgmres", lambda a, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(StagnationError, match="Krylov") as err:
        newton_solve(prob, 1.0)
    assert err.value.state is not None
    assert err.value.state.iterations == 0


def _spy_krylov(monkeypatch):
    """Record every Krylov solve Newton makes: its rtol, the sup and 2-norms
    of its rhs, its products and the relative residual of its last product."""
    import conesolve.solver as solver

    solves = []
    original = solver.lgmres

    def spying(matvec, b, *, rtol, **kwargs):
        solve = {"rtol": rtol, "r_sup": float(np.abs(b).max()),
                 "r_2": float(np.sqrt(np.sum(b * b))), "products": 0}
        solves.append(solve)

        def counted(z):
            solve["products"] += 1
            solve["last"] = matvec(z)
            return solve["last"]

        x, info = original(counted, b, rtol=rtol, **kwargs)
        solve["residual"] = np.linalg.norm(b - solve.pop("last")) / np.linalg.norm(b)
        return x, info

    monkeypatch.setattr(solver, "lgmres", spying)
    return solves


def test_the_last_krylov_solve_is_not_asked_past_newton_tol(monkeypatch):
    # the forcing term's floor: a solve against residual r is never asked for
    # a relative residual below 0.1 newton_tol / |r|_2, a linear residual of
    # 2-norm 0.1 newton_tol, so the last solve of a converged step does not
    # buy digits the sup-norm exit test does not read
    g = PeriodicGrid.make("real", 3, 8, 1.0)
    real3 = TorusProblem(g, LogSigmaK(3, 2), np.eye(3), MatrixField.constant(g, np.eye(3)),
                         random_band_limited(g, 0.2, seed=1), path=PathKind.HESSIAN)
    complex2, _ = manufactured_problem(n=2, amplitude=0.6, points=16, reduced=True, seed=6)
    solves = _spy_krylov(monkeypatch)
    for problem, t in ((real3, 0.5), (complex2, 1.0)):
        for tol in (1e-8, 1e-10):
            problem.newton_tol = tol
            solves.clear()
            state = newton_solve(problem, t)
            assert state.iterations == len(solves) >= 2
            assert solves[-1]["r_sup"] >= tol > state.residual_norm
            for solve in solves:
                assert solve["rtol"] >= 0.1 * tol / solve["r_2"]


@pytest.mark.parametrize("tol,iterations", [(1e-6, 5), (1e-10, 6), (1e-12, 6)])
def test_newton_meets_each_tolerance_in_a_pinned_count(tol, iterations):
    # a looser Krylov solve may cost a Newton step but never ends one early:
    # every tolerance is met, in the count the tighter solves took
    prob, _ = manufactured_problem(n=2, amplitude=0.6, points=16, reduced=True, seed=6)
    prob.newton_tol = tol
    state = newton_solve(prob, 1.0)
    assert state.residual_norm < tol
    assert state.iterations == iterations


def test_report_writes_the_krylov_work_of_each_newton_step(monkeypatch):
    # one entry per Newton iteration: the forcing the solve was asked for,
    # the products it took, the relative residual it reached and the
    # accepted step length
    prob, _ = manufactured_problem(n=1, points=32)
    prob.path = PathKind.HESSIAN
    solves = _spy_krylov(monkeypatch)
    steps = run_continuity(prob, uniform_schedule(3)).to_dict()["steps"]
    records = [record for step in steps for record in step["newton_steps"]]
    for step in steps:
        assert len(step["newton_steps"]) == step["newton_iterations"]
    assert len(records) == len(solves) >= 5
    assert sum(r["krylov_products"] for r in records) == sum(s["products"] for s in solves)
    for record, solve in zip(records, solves):
        assert set(record) == {"forcing", "krylov_products", "krylov_residual", "step"}
        assert record["forcing"] == solve["rtol"]
        assert record["krylov_products"] == solve["products"]
        assert record["krylov_residual"] == pytest.approx(solve["residual"], rel=1e-12)
        assert 0.0 < record["krylov_residual"] <= record["forcing"]
        assert 0.0 < record["step"] <= 1.0
        assert math.log2(record["step"]).is_integer()


def test_trivial_solution_unique():
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    prob = TorusProblem(g, MongeAmpere(2), np.eye(2),
                        MatrixField.constant(g, np.eye(2)),
                        ScalarField.constant(g, 0.7), path=PathKind.FIXED)
    state = newton_solve(prob, 1.0)
    assert np.abs(state.u.values).max() < 1e-10
    assert state.c == pytest.approx(-0.7, abs=1e-10)


def test_admissibility_margin_positive_on_path():
    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=5)
    state = newton_solve(prob, 1.0)
    assert state.admissibility_margin > 0
    res = [step["residual_sup"] for step in state.trace]
    assert all(r1 < r0 for r0, r1 in zip(res, res[1:]))  # monotone after damping
    for step in state.trace:
        assert step["margin"] > 0


def test_trace_ends_at_the_returned_iterate():
    # with max_newton the exact count a solve needs, its last step converges
    # on the cap: the trace still holds every iterate, the returned one last
    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=5)
    needed = newton_solve(prob, 1.0).iterations
    assert needed >= 2
    prob.max_newton = needed
    state = newton_solve(prob, 1.0)
    assert state.iterations == needed
    assert len(state.trace) == needed + 1
    assert state.trace[-1] == {"residual_sup": state.residual_norm,
                               "margin": state.admissibility_margin}
    # one step short, the state Newton stops at ends its trace too
    prob.max_newton = needed - 1
    with pytest.raises(StagnationError, match="did not converge") as err:
        newton_solve(prob, 1.0)
    stopped = err.value.state
    assert len(stopped.trace) == needed
    assert stopped.trace[-1]["residual_sup"] == stopped.residual_norm


def test_report_writes_each_newton_trace():
    prob, _ = manufactured_problem(n=1, points=32)
    prob.path = PathKind.HESSIAN
    report = run_continuity(prob, uniform_schedule(3))
    steps = report.to_dict()["steps"]
    needed = max(step["newton_iterations"] for step in steps)
    assert needed >= 2
    # the t-steps that need exactly the cap still end their traces at the solution
    prob.max_newton = needed
    capped = run_continuity(prob, uniform_schedule(3)).to_dict()["steps"]
    assert capped == steps
    for step in steps:
        trace = step["newton_trace"]
        assert len(trace) == step["newton_iterations"] + 1
        assert trace[-1] == {"residual_sup": step["residual_norm"],
                             "margin": step["admissibility_margin"]}


def test_quadratic_convergence_observed():
    prob, _ = manufactured_problem(n=2, amplitude=0.6, points=32, reduced=True, seed=6)
    state = newton_solve(prob, 1.0)
    res = [step["residual_sup"] for step in state.trace]
    superlinear = 0
    for r0, r1 in zip(res, res[1:]):
        if 1e-13 < r1 and r1 <= 10.0 * r0**1.7:
            superlinear += 1
    assert superlinear >= 2


def test_gauge_invariance():
    prob, _ = manufactured_problem(n=2, points=32, reduced=True, seed=7)
    state_a = newton_solve(prob, 1.0)
    phi, pert = hessian_perturbation(prob.grid, 0.15, seed=8)
    chi_b = MatrixField(prob.grid, prob.chi.values + pert.values)
    prob_b = TorusProblem(prob.grid, prob.op, prob.alpha, chi_b, prob.h,
                          path=PathKind.FIXED)
    state_b = newton_solve(prob_b, 1.0)
    diff = state_b.u.values + phi.values - state_a.u.values
    assert np.abs(diff - diff.mean()).max() < 1e-7
    assert state_b.c == pytest.approx(state_a.c, abs=1e-9)


def test_schedule_validation():
    prob, _ = manufactured_problem(n=1, points=32)
    with pytest.raises(ValueError):
        run_continuity(prob, [0.0, 0.5])      # does not end at 1
    with pytest.raises(ValueError):
        run_continuity(prob, [0.0, 0.6, 0.4, 1.0])  # not increasing
    with pytest.raises(ValueError):
        uniform_schedule(1)


def test_hessian_path_matches_direct_solve():
    # k = n: the path solves the log-det equation; compare against a direct
    # Newton solve at t = 1 with the constant pinned by the path
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    alpha = np.eye(2)
    chi = MatrixField.constant(g, 2 * np.eye(2))
    h = random_band_limited(g, 0.25, seed=9)
    prob = TorusProblem(g, LogSigmaK(2, 2), alpha, chi, h, path=PathKind.HESSIAN)
    report = run_continuity(prob, uniform_schedule(6))
    assert report.complete
    final = report.final

    assert np.abs(rhs_base(prob, 1.0) - h.values).max() == 0.0  # t=1 target is h
    direct = TorusProblem(g, LogSigmaK(2, 2), alpha, chi, h, path=PathKind.FIXED)
    state = newton_solve(direct, 1.0)
    assert np.abs(state.u.values - final.u.values).max() < 1e-8
    assert state.c == pytest.approx(final.c, abs=1e-9)


@pytest.mark.parametrize("mode,n,alpha", [
    ("complex", 2, COMPLEX_METRIC),
    ("real", 3, REAL_METRIC),
])
def test_hessian_path_under_a_general_metric(mode, n, alpha):
    # no benchmark workload uses a metric other than the identity; the
    # pull-back of dF and the preconditioner's symbol both read its entries
    g = PeriodicGrid.make(mode, n, 8, 1.0)
    _, pert = hessian_perturbation(g, 0.2, seed=12)
    chi = MatrixField(g, alpha + pert.values)
    h = random_band_limited(g, 0.25, seed=13)
    prob = TorusProblem(g, LogSigmaK(n, 2), alpha, chi, h, path=PathKind.HESSIAN)
    report = run_continuity(prob, uniform_schedule(5))
    assert report.complete
    assert [step["newton_iterations"] for step in report.steps] == [0, 3, 2, 2, 2]
    final = report.final
    assert np.abs(residual(prob, final.u, final.c, 1.0).values).max() < prob.newton_tol


def test_quotient_path_constants():
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    alpha = np.eye(2)
    _, pert = hessian_perturbation(g, 0.1, seed=10)
    chi = MatrixField(g, 2 * np.eye(2) + pert.values)
    c_class = compute_c(chi, alpha, 1, 2)
    prob = TorusProblem(g, HessianQuotientNeg(2, 1, 2), alpha, chi,
                        path=PathKind.QUOTIENT)
    report = run_continuity(prob, uniform_schedule(6))
    assert report.complete
    # the class constant reads the held A[0], bit for bit compute_c's
    assert prob.class_constant == c_class
    assert report.final.c == pytest.approx(c_class, abs=1e-8)
    for step in report.steps:
        assert step["c"] >= step["t"] * c_class - 1e-8


def test_riemannian_path_bounds_enforced(monkeypatch):
    g = PeriodicGrid.make("real", 2, 16, 1.0)
    _, pert = hessian_perturbation(g, 0.25, seed=11)
    chi = MatrixField(g, 2 * np.eye(2) + pert.values)
    prob = TorusProblem(g, LogSigmaK(2, 2), np.eye(2), chi, path=PathKind.RIEMANNIAN)
    import conesolve.solver as solver
    background_calls = []
    original = solver.evaluate_pointwise

    def counting(problem, comps, t):
        background_calls.extend([t] if comps is None else [])
        return original(problem, comps, t)

    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    report = run_continuity(prob, uniform_schedule(6))
    assert report.complete
    h0 = prob.background_value
    # h0 = F(A[0]) once per problem (at t = 1), not per t-step; the other
    # evaluation of A[0] is the cold start's, at t = 0
    assert background_calls == [1.0, 0.0]
    for step in report.steps:
        assert step["t"] * h0.min() - 1e-8 <= step["c"] <= step["t"] * h0.max() + 1e-8


def test_run_continuity_partial_report_on_hard_stagnation():
    # max_newton=0 forces immediate stagnation everywhere; the report must be
    # partial rather than an exception
    prob, _ = manufactured_problem(n=1, points=32)
    prob.path = PathKind.HESSIAN
    prob.max_newton = 0
    report = run_continuity(prob, [0.0, 1.0])
    assert not report.complete


def test_report_serialization():
    prob, _ = manufactured_problem(n=1, points=32)
    prob.path = PathKind.HESSIAN
    report = run_continuity(prob, uniform_schedule(3))
    blob = report.to_json()
    import json
    parsed = json.loads(blob)
    assert parsed["schema"] == "v1" and parsed["complete"]
    assert len(parsed["steps"]) == 3
    assert {"t", "c", "residual_norm", "admissibility_margin",
            "newton_iterations"} <= set(parsed["steps"][0])


def test_quotient_path_requires_a_quotient_operator():
    from conesolve import BlendedQuotient
    from conesolve.solver import path_operator

    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    chi = MatrixField.constant(g, 2 * np.eye(2))
    with pytest.raises(ValueError, match="HessianQuotientNeg"):
        TorusProblem(g, LogSigmaK(2, 2), np.eye(2), chi, path=PathKind.QUOTIENT)
    prob = TorusProblem(g, HessianQuotientNeg(2, 1, 2), np.eye(2), chi, path=PathKind.QUOTIENT)
    assert path_operator(prob, 0.5) == BlendedQuotient(2, 1, 2, 0.5)
