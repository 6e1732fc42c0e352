import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conesolve import (
    AdmissibilityError,
    HessianQuotientNeg,
    LogSigmaK,
    MatrixField,
    MongeAmpere,
    PathKind,
    PeriodicGrid,
    ScalarField,
    SolveState,
    StagnationError,
    TorusProblem,
    admissibility_margin,
    endomorphism_field,
    linearized_apply,
    newton_solve,
    normalize,
    random_band_limited,
    residual,
    run_continuity,
    uniform_schedule,
)
from conesolve.eigencalc import SigmaTable, contract
from conesolve.solver import Linearization, evaluate_pointwise, rhs_base
from conesolve.torus import (
    compute_c,
    congruence,
    hessian,
    hessian_components,
    hessian_perturbation,
    metric_root_inverse,
)
from oracles import eigenframe_first_derivative as first_derivative

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


def test_linearized_apply_consistency():
    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=2)
    g = prob.grid
    u0 = random_band_limited(g, 0.01, seed=3)
    state = SolveState(u0, 0.1, 1.0, 0.0, 1.0)
    v = random_band_limited(g, 1.0, seed=4)

    # constants have zero Hessian; the constant block is -dc
    const = linearized_apply(prob, state, ScalarField.constant(g, 3.0), 0.0)
    assert np.abs(const.values).max() < 1e-12
    unit_dc = linearized_apply(prob, state, ScalarField.zeros(g), 1.0)
    assert np.abs(unit_dc.values + 1.0).max() < 1e-14

    # directional-derivative ratio test at eps in {1e-4, 1e-5}
    lin = linearized_apply(prob, state, v, 0.7)
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
    lin = Linearization(prob, evaluate_pointwise(prob, u0, 1.0))
    out = lin.apply(v, dc).values

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
    ev = evaluate_pointwise(prob, u0, 1.0)
    linv = metric_root_inverse(alpha, n)
    pulled_back = congruence(np.conj(linv).T, ev.table.derivative())
    expected = contract(pulled_back, hessian(v).values) - 0.7

    # the matvec reads the Hessian's components, never the n x n field
    def refuse(*args, **kwargs):
        raise AssertionError("a Hessian field inside the matvec")

    lin = Linearization(prob, ev)
    monkeypatch.setattr(torus, "hessian", refuse)
    monkeypatch.setattr(solver, "hessian", refuse)
    out = lin.apply(v, 0.7).values
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def _linearized(mode, n, reduced, alpha):
    g = PeriodicGrid.make(mode, n, 8, 1.0, reduced)
    _, pert = hessian_perturbation(g, 0.2, seed=16)
    prob = TorusProblem(g, LogSigmaK(n, 2), alpha, MatrixField(g, alpha + pert.values),
                        ScalarField.zeros(g))
    u0, _ = hessian_perturbation(g, 0.3, seed=5)
    return prob, Linearization(prob, evaluate_pointwise(prob, u0, 1.0))


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
    zero_mode = (0,) * g.stored_axes
    symbol = prob.laplacian.copy()
    symbol[zero_mode] = 1.0
    spec = np.fft.rfftn(random_band_limited(g, 1.0, seed=7, max_harmonic=3).values) / symbol
    spec[zero_mode] = 0.0
    v = ScalarField(g, np.fft.irfftn(spec, s=g.shape, axes=range(g.stored_axes)))
    expected = lin.apply(v, 0.7).values
    out = lin.apply(spec, 0.7).values
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("mode,n,reduced,alpha", SPECTRAL_CASES)
def test_newton_system_solves_the_bordered_system(mode, n, reduced, alpha):
    # the Krylov solve in spectral coordinates, checked with the physical
    # apply; the components it returns are dv's
    from conesolve.solver import _solve_newton_system

    prob, lin = _linearized(mode, n, reduced, alpha)
    g = prob.grid
    r = random_band_limited(g, 0.1, seed=8).values + 0.02
    dv, dc, comps, info = _solve_newton_system(lin, r, 1e-10)
    assert info == 0
    assert abs(dv.values.mean()) < 1e-15
    bordered = np.concatenate([(lin.apply(dv, dc).values + r).ravel(), [dv.values.mean()]])
    assert np.sqrt(np.sum(bordered ** 2)) <= 1.01e-10 * np.sqrt(np.sum(r ** 2))
    fresh = hessian_components(dv.values, g)
    assert np.abs(comps - fresh).max() <= 1e-13 * np.abs(fresh).max()


def test_carried_components_match_a_fresh_transform(monkeypatch):
    # a line-search trial reads comp(u) + step*comp(dv) in place of
    # transforming u; after several accepted steps that is still comp(u)
    import conesolve.solver as solver

    g = PeriodicGrid.make("real", 3, 8, 1.0)
    _, pert = hessian_perturbation(g, 0.1, seed=21)
    prob = TorusProblem(g, LogSigmaK(3, 2), np.eye(3), MatrixField(g, np.eye(3) + pert.values),
                        random_band_limited(g, 0.3, seed=11), path=PathKind.HESSIAN)
    carried = []
    original = solver.evaluate_pointwise

    def recording(problem, u, t, comps=None):
        if comps is not None:
            carried.append((u.values.copy(), comps.copy()))
        return original(problem, u, t, comps)

    monkeypatch.setattr(solver, "evaluate_pointwise", recording)
    report = run_continuity(prob, uniform_schedule(3))
    # each t-step's start and each accepted step read carried components
    iterations = sum(step["newton_iterations"] for step in report.steps)
    assert iterations >= 5
    assert len(carried) == len(report.steps) + iterations
    for values, comps in carried:
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
    # 15 Newton steps) evaluates A[0] once, 22 evaluations in all (27 when
    # every t-step evaluated F(A[0]) again)
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

    def counting(problem, u, t, comps=None):
        calls.append(u is None)
        return original(problem, u, t, comps)

    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    report = run_continuity(prob, uniform_schedule(6))
    iterations = sum(step["newton_iterations"] for step in report.steps)
    assert report.complete and iterations == 15
    assert calls.count(True) == 1
    assert len(calls) == 1 + len(report.steps) + iterations == 22
    assert solver.background_value(prob, 0.5) is solver.background_value(prob, 1.0)


def test_newton_reads_the_frame_the_problem_holds(monkeypatch):
    # alpha and chi are checked and transformed once, when the problem is made
    import conesolve.solver as solver
    import conesolve.torus as torus

    prob, _ = manufactured_problem(n=2, points=16, reduced=True, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("the frame rebuilt inside newton_solve")

    for module in (solver, torus):
        for name in ("constant_metric", "metric_root_inverse", "metric_basis",
                     "endomorphism_field", "require_hermitian", "laplacian_symbol"):
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
        expected = SigmaTable.at(op, endomorphism_field(alpha, chi, w).values)
        assert np.array_equal(evaluate_pointwise(prob, w, 1.0).table.sigmas,
                              expected.sigmas)


def test_problem_frame_is_read_only():
    prob, _ = manufactured_problem(n=2, points=8)
    assert np.array_equal(prob.background, endomorphism_field(prob.alpha, prob.chi).values)
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
    assert [step["newton_iterations"] for step in report.steps] == [0, 3, 3, 3, 3]
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

    def counting(problem, u, t, comps=None):
        background_calls.extend([t] if u is None else [])
        return original(problem, u, t, comps)

    monkeypatch.setattr(solver, "evaluate_pointwise", counting)
    report = run_continuity(prob, uniform_schedule(6))
    assert report.complete
    h0 = solver.background_value(prob, 0.0)
    assert len(background_calls) == 1  # h0 = F(A[0]) once per problem, not per t-step
    for step in report.steps:
        assert step["t"] * h0.min() - 1e-8 <= step["c"] <= step["t"] * h0.max() + 1e-8


def test_run_continuity_partial_report_on_hard_stagnation():
    # max_newton=0 forces immediate stagnation everywhere; the report must be
    # partial rather than an exception
    prob, _ = manufactured_problem(n=1, points=32)
    prob.path = PathKind.HESSIAN
    prob.max_newton = 0
    report = run_continuity(prob, [0.0, 1.0], min_step=0.2)
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
