"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to calibration.
"""

import time
import zlib

import numpy as np
import pytest

import conesolve as cs
from conesolve.subsolution import coordinate_ray_radius, dichotomy_margins
from conesolve.torus import hessian_perturbation
from oracles import ray_boundedness_oracle, second_difference, sigma_bruteforce


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _rand_hermitian(rng, n, complex_):
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _admissible_matrix(rng, op, complex_, degenerate=False):
    n = op.n
    while True:
        if degenerate:
            q, _ = np.linalg.qr(_rand_hermitian(rng, n, complex_))
            lam = rng.uniform(0.8, 3.0, n)
            lam[-1] = lam[0] + rng.uniform(-1e-6, 1e-6)
            a = (q * lam[None, :]) @ q.conj().T
        else:
            a = 0.3 * _rand_hermitian(rng, n, complex_) + np.diag(rng.uniform(0.8, 3.0, n))
        a = (a + a.conj().T) / 2
        vals = np.linalg.eigvalsh(a)
        if op.cone.contains(vals) and op.cone.margin(vals) > 0.1:
            return a


def _criterion1_kinds():
    return [
        cs.MongeAmpere(2), cs.MongeAmpere(3),
        cs.LogSigmaK(2, 1), cs.LogSigmaK(3, 2),
        cs.HessianQuotientNeg(2, 1, 2), cs.HessianQuotientNeg(3, 1, 2),
        cs.InverseSigmaK(2, 1), cs.InverseSigmaK(3, 2),
        cs.BlendedQuotient(3, 1, 2, 0.4),
        cs.ComposedWithT(2, cs.MongeAmpere(2)), cs.ComposedWithT(3, cs.MongeAmpere(3)),
    ]


def _criterion1_cases():
    """(op, A, H, near_degenerate) tuples shared by criteria 1 and 2."""
    cases = []
    for op in _criterion1_kinds():
        rng = np.random.default_rng(zlib.crc32(repr(op).encode()))
        per_kind = 200 // 2 if op.n == 2 else 200 // 2  # 100 at each listed n
        for i in range(per_kind):
            complex_ = bool(i % 2)
            degenerate = i % 7 == 3
            a = _admissible_matrix(rng, op, complex_, degenerate)
            h = _rand_hermitian(rng, op.n, complex_)
            h /= np.abs(h).max()
            cases.append((op, a, h, degenerate))
    return cases


def test_criterion_1_derivative_oracle():
    start = time.time()
    worst_smooth = worst_degen = 0.0
    for op, a, h, degenerate in _criterion1_cases():
        pairing = cs.contract(cs.first_derivative(op, a), h)

        def central1(t):
            return (cs.evaluate(op, a + t * h) - cs.evaluate(op, a - t * h)) / (2 * t)

        fd1 = (4.0 * central1(5e-4) - central1(1e-3)) / 3.0
        rel1 = abs(fd1 - pairing) / max(abs(pairing), 1e-6)
        form = cs.second_form(op, a, h)
        # step sweep: truncation and the eigensolver noise floor trade off,
        # so accept the best-resolved step (a wrong value fails at every step)
        rel2 = min(
            abs(second_difference(lambda t: cs.evaluate(op, a + t * h), step) - form)
            / max(abs(form), 1e-6)
            for step in (1e-3, 4e-3, 1.6e-2)
        )
        vals = np.linalg.eigvalsh(a)
        gap = np.abs(np.diff(np.sort(vals))).min() if op.n > 1 else 1.0
        tol = 1e-3 if (degenerate or gap <= 1e-3) else 1e-5
        if degenerate or gap <= 1e-3:
            worst_degen = max(worst_degen, rel1, rel2)
        else:
            worst_smooth = max(worst_smooth, rel1, rel2)
        if max(rel1, rel2) > tol:
            _line(1, False, f"{op!r}: rel errors ({rel1:.2e}, {rel2:.2e}) > {tol}")
    elapsed = time.time() - start
    ok = elapsed < 30.0
    _line(1, ok, f"derivative oracle on {len(_criterion1_cases())} pairs: "
                 f"worst rel {worst_smooth:.2e} (smooth) {worst_degen:.2e} "
                 f"(near-degenerate), {elapsed:.1f}s")


def test_criterion_2_concavity_ellipticity():
    worst_form = -np.inf
    for op, a, h, _ in _criterion1_cases():
        form = cs.second_form(op, a, h)
        worst_form = max(worst_form, form)
        if form > 1e-9:
            _line(2, False, f"{op!r}: second form {form:.2e} > 1e-9")
        d_eigs = np.linalg.eigvalsh(cs.first_derivative(op, a))
        if d_eigs.min() <= 0:
            _line(2, False, f"{op!r}: first derivative not positive definite")
        g = op.gradient(np.linalg.eigvalsh(a))
        norm, trace = np.linalg.norm(g), g.sum()
        if not (norm <= trace <= np.sqrt(op.n) * norm):
            _line(2, False, f"{op!r}: gradient comparability violated")
    _line(2, True, f"concavity/ellipticity on all cases; max second form "
                   f"{worst_form:.2e}")


def test_criterion_3_subsolution_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    ops = [cs.MongeAmpere(2), cs.MongeAmpere(3), cs.LogSigmaK(3, 2),
           cs.LogSigmaK(2, 1), cs.HessianQuotientNeg(2, 1, 2),
           cs.HessianQuotientNeg(3, 1, 2), cs.HessianQuotientNeg(3, 2, 3)]
    disagreements = 0
    count = 0
    while count < 100:
        op = ops[rng.integers(len(ops))]
        mu = rng.uniform(0.3, 3.0, op.n)
        if isinstance(op, cs.HessianQuotientNeg):
            lims = []
            for i in range(op.n):
                rest = np.delete(mu, i)
                import math
                lims.append(-(sigma_bruteforce(op.l - 1, rest) / math.comb(op.n, op.l))
                            / (sigma_bruteforce(op.k - 1, rest) / math.comb(op.n, op.k)))
            sigma_level = min(lims) + rng.choice([-0.3, -0.1, 0.1, 0.3])
            if not op.sup_boundary < sigma_level < op.sup_interior:
                continue
        else:
            sigma_level = rng.uniform(-1.0, 1.5)
        expected = ray_boundedness_oracle(op, mu, sigma_level, rng, rays=200)
        got = cs.is_subsolution_point(op, mu, sigma_level)
        disagreements += got != expected
        count += 1
    elapsed = time.time() - start
    ok = disagreements == 0 and elapsed < 120.0
    _line(3, ok, f"boundedness criterion vs 200-ray oracle on 100 cases: "
                 f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_4_dichotomy_validation():
    cases = [
        (cs.MongeAmpere(2), np.array([2.0, 2.0]), 0.0),
        (cs.LogSigmaK(3, 2), np.array([1.5, 1.5, 1.5]), np.log(2.0)),
        (cs.HessianQuotientNeg(2, 1, 2), np.array([1.0, 1.0]), -0.6),
    ]
    total_violations = 0
    details = []
    for op, mu, sigma_level in cases:
        radius = coordinate_ray_radius(op, mu[None, :], np.array([sigma_level]))
        kappa = cs.estimate_kappa(op, mu, sigma_level, radius, samples=10_000)
        held_out = cs.sample_level_set(op, sigma_level, 10_000,
                                       np.random.default_rng(2), min_radius=radius)
        margins = dichotomy_margins(op, mu, held_out)
        violations = int((margins <= kappa).sum())
        total_violations += violations
        details.append(f"{type(op).__name__}: kappa={kappa:.3g} viol={violations}")
    _line(4, total_violations == 0,
          "held-out dichotomy on 10^4 fresh samples per case: " + "; ".join(details))


def _manufactured(n, points, reduced, seed, amplitude=0.6):
    grid = cs.PeriodicGrid.make("complex", n, points, 1.0, reduced=reduced)
    ustar, _ = hessian_perturbation(grid, amplitude, seed=seed)
    alpha = np.eye(n)
    chi = cs.MatrixField.constant(grid, np.eye(n))
    op = cs.MongeAmpere(n)
    endo = cs.endomorphism_field(alpha, chi, ustar)
    lam = np.linalg.eigvalsh(endo.values)
    margin = float(np.asarray(op.cone.margin(lam)).min())
    h = cs.ScalarField(grid, np.asarray(op.value(lam, check=False)))
    prob = cs.TorusProblem(grid, op, alpha, chi, h, path=cs.PathKind.FIXED)
    return prob, ustar, margin


def test_criterion_5_manufactured_monge_ampere():
    start = time.time()
    details = []
    ok = True
    for n, points, reduced, seed in [(1, 64, False, 5), (2, 32, True, 6)]:
        prob, ustar, margin = _manufactured(n, points, reduced, seed)
        assert margin > 0.2
        state = cs.newton_solve(prob, 1.0)
        err = state.u.values - (ustar.values - ustar.values.mean())
        sup_err = float(np.abs(err - err.mean()).max())
        res = [s["residual_sup"] for s in state.trace]
        superlinear = sum(
            1 for r0, r1 in zip(res, res[1:]) if 1e-13 < r1 <= 10.0 * r0**1.7
        )
        case_ok = (sup_err < 1e-7 and state.residual_norm < 1e-10
                   and state.iterations <= 12 and superlinear >= 2)
        ok &= case_ok
        details.append(f"n={n}: sup_err={sup_err:.1e} res={state.residual_norm:.1e} "
                       f"iters={state.iterations} margin={margin:.2f}")
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _line(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_hessian_unknown_constant():
    start = time.time()
    grid = cs.PeriodicGrid.make("complex", 3, 16, 1.0, reduced=True)
    alpha = np.eye(3)
    chi = cs.MatrixField.constant(grid, 2 * np.eye(3))
    h = cs.random_band_limited(grid, 0.3, seed=11)
    op = cs.LogSigmaK(3, 2)
    prob = cs.TorusProblem(grid, op, alpha, chi, h, path=cs.PathKind.HESSIAN)
    report = cs.run_continuity(prob, cs.uniform_schedule(21))
    final = report.final
    endo = cs.endomorphism_field(alpha, chi, final.u)
    lam = np.linalg.eigvalsh(endo.values)
    c_reintegrated = float((np.asarray(op.value(lam, check=False)) - h.values).mean())
    drift = abs(c_reintegrated - final.c)
    elapsed = time.time() - start
    ok = (report.complete and final.residual_norm < 1e-9 and drift < 1e-8
          and elapsed < 600.0)
    _line(6, ok, f"k=2 Hessian path on 16^3: residual={final.residual_norm:.1e} "
                 f"c={final.c:.6f} reintegration drift={drift:.1e}, {elapsed:.1f}s")


def test_criterion_7_hessian_quotient():
    start = time.time()
    grid = cs.PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
    alpha = np.eye(2)

    # trivial anchor: unperturbed chi = 2 alpha has class constant exactly 1/2
    chi0 = cs.MatrixField.constant(grid, 2 * np.eye(2))
    anchor = cs.compute_c(chi0, alpha, 1, 2)
    assert anchor == pytest.approx(0.5, abs=1e-14)

    _, pert = hessian_perturbation(grid, 0.1, seed=21)
    chi = cs.MatrixField(grid, chi0.values + pert.values)
    c_class = cs.compute_c(chi, alpha, 1, 2)
    eigs = np.linalg.eigvalsh(cs.endomorphism_field(alpha, chi).values).reshape(-1, 2)
    certified = all(cs.quotient_cone_condition(ev, 2, 1, c_class) for ev in eigs)

    prob = cs.TorusProblem(grid, cs.HessianQuotientNeg(2, 1, 2), alpha, chi,
                           path=cs.PathKind.QUOTIENT)
    report = cs.run_continuity(prob, cs.uniform_schedule(11))
    c_err = abs(report.final.c - c_class)
    monotone = all(s["c"] >= s["t"] * c_class - 1e-8 for s in report.steps)
    elapsed = time.time() - start
    ok = (certified and report.complete and c_err < 1e-6 and monotone
          and elapsed < 300.0)
    _line(7, ok, f"quotient path: certified={certified} |c_1 - c|={c_err:.1e} "
                 f"monotone={monotone} anchor=0.5 exact, {elapsed:.1f}s")


def test_criterion_8_nminus1_operator():
    start = time.time()
    grid = cs.PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
    alpha = np.eye(2)
    _, pert = hessian_perturbation(grid, 1.0, seed=31)
    eta = cs.MatrixField(grid, np.eye(2) + 0.1 * pert.values)
    assert np.linalg.eigvalsh(eta.values).min() > 0  # eta positive
    chi = cs.nminus1_background(eta, alpha)
    op = cs.ComposedWithT(2, cs.MongeAmpere(2))
    h = cs.random_band_limited(grid, 0.2, seed=32)
    prob = cs.TorusProblem(grid, op, alpha, chi, h, path=cs.PathKind.HESSIAN)
    report = cs.run_continuity(prob, cs.uniform_schedule(11))
    final = report.final
    endo = cs.endomorphism_field(alpha, chi, final.u)
    lam = np.linalg.eigvalsh(endo.values)
    c_re = float((np.asarray(op.value(lam, check=False)) - h.values).mean())
    elapsed = time.time() - start
    ok = (report.complete and final.residual_norm < 1e-9
          and abs(c_re - final.c) < 1e-8 and elapsed < 300.0)
    _line(8, ok, f"T-composed log-det path: residual={final.residual_norm:.1e} "
                 f"c={final.c:.6f} recovered to {abs(c_re - final.c):.1e}, "
                 f"{elapsed:.1f}s")


def test_criterion_9_riemannian_path():
    start = time.time()
    grid = cs.PeriodicGrid.make("real", 3, 16, 1.0)
    alpha = np.eye(3)
    _, pert = hessian_perturbation(grid, 0.3, seed=41)
    chi = cs.MatrixField(grid, 2 * np.eye(3) + pert.values)
    prob = cs.TorusProblem(grid, cs.LogSigmaK(3, 2), alpha, chi,
                           path=cs.PathKind.RIEMANNIAN)
    report = cs.run_continuity(prob, cs.uniform_schedule(11))
    h0 = prob.background_value
    lo, hi = float(h0.min()), float(h0.max())
    bounds_ok = all(
        s["t"] * lo - 1e-8 <= s["c"] <= s["t"] * hi + 1e-8 for s in report.steps
    )
    elapsed = time.time() - start
    ok = report.complete and bounds_ok and elapsed < 600.0
    _line(9, ok, f"real m=3 path: complete={report.complete} "
                 f"c_t within [t*{lo:.3f}, t*{hi:.3f}] at all steps, {elapsed:.1f}s")


def test_criterion_10_abp_fuzz():
    grid = cs.BallGrid(2, 64)
    quad = cs.BallFunction.from_callable(grid, lambda x, y: 0.4 * (x**2 + y**2))
    rep = cs.abp_check(quad, 0.4)
    derived = 0.04 * np.pi
    quad_err = abs(rep.integral_det - derived) / derived

    rng = np.random.default_rng(50)
    passed = 0
    done = 0
    while done < 50:
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(-0.2, 0.2, 2)
        amp = rng.uniform(0.0, 0.05)
        kx, ky = rng.integers(1, 4, 2)

        def fn(x, y, a=a, b=b, amp=amp, kx=kx, ky=ky):
            return a * ((x - b[0]) ** 2 + (y - b[1]) ** 2) + amp * np.sin(
                np.pi * kx * x) * np.cos(np.pi * ky * (y + 0.3))

        v = cs.BallFunction.from_callable(grid, fn)
        room = float(v.boundary_values.min() - v.center_value())
        if room <= 0.1:
            continue
        passed += cs.abp_check(v, min(0.45, 0.9 * room)).passed
        done += 1
    ok = passed == 50 and quad_err < 0.05
    _line(10, ok, f"contact-set bound: fuzz {passed}/50 passed, quadratic case "
                  f"within {quad_err:.2%} of its closed form")


def test_criterion_11_cohomological_invariance():
    grid = cs.PeriodicGrid.make("complex", 2, 32, 1.0, reduced=True)
    alpha = np.eye(2)
    chi = cs.MatrixField.constant(grid, 2 * np.eye(2))
    base = cs.compute_c(chi, alpha, 1, 2)
    worst = 0.0
    for seed in range(20):
        _, pert = hessian_perturbation(grid, 0.4, seed=100 + seed)
        shifted = cs.MatrixField(grid, chi.values + pert.values)
        worst = max(worst, abs(cs.compute_c(shifted, alpha, 1, 2) - base) / abs(base))
    _line(11, worst < 1e-8,
          f"class constant invariant under potential shifts: max drift {worst:.1e}")


def test_criterion_12_gauge_invariance():
    prob, _, _ = _manufactured(2, 32, True, seed=61)
    state_a = cs.newton_solve(prob, 1.0)
    phi, pert = hessian_perturbation(prob.grid, 0.15, seed=62)
    chi_b = cs.MatrixField(prob.grid, prob.chi.values + pert.values)
    prob_b = cs.TorusProblem(prob.grid, prob.op, prob.alpha, chi_b, prob.h,
                             path=cs.PathKind.FIXED)
    state_b = cs.newton_solve(prob_b, 1.0)
    diff = state_b.u.values + phi.values - state_a.u.values
    dev = float(np.abs(diff - diff.mean()).max())
    _line(12, dev < 1e-7,
          f"solutions under a potential-shifted background differ by the "
          f"potential plus a constant to {dev:.1e}")
