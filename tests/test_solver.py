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
from conesolve.eigencalc import first_derivative
from conesolve.solver import Linearization, evaluate_pointwise, rhs_base
from conesolve.torus import compute_c, hessian, hessian_perturbation


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
    ("real", 3, np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.2]])),
    ("complex", 2, np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])),
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
    original = solver.endomorphism_field

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "endomorphism_field", counting)
    state = newton_solve(prob, 1.0)
    # A[0] for the cold-start constant, A[u] at the start, then one
    # evaluation per full Newton step
    assert state.iterations >= 3
    assert len(calls) == 2 + state.iterations


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
    assert report.final.c == pytest.approx(c_class, abs=1e-8)
    for step in report.steps:
        assert step["c"] >= step["t"] * c_class - 1e-8


def test_riemannian_path_bounds_enforced():
    g = PeriodicGrid.make("real", 2, 16, 1.0)
    _, pert = hessian_perturbation(g, 0.25, seed=11)
    chi = MatrixField(g, 2 * np.eye(2) + pert.values)
    prob = TorusProblem(g, LogSigmaK(2, 2), np.eye(2), chi, path=PathKind.RIEMANNIAN)
    report = run_continuity(prob, uniform_schedule(6))
    assert report.complete
    from conesolve.solver import background_value
    h0 = background_value(prob, 0.0)
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
