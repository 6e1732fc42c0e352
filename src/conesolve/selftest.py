"""Fast deterministic property checks, shared by `conesolve selftest` and
`solve --check-only`.  Each check prints one pass/fail line in verbose mode."""

from __future__ import annotations

import numpy as np


def _fd_gradient(op, lam, h=1e-6):
    g = np.zeros_like(lam)
    for i in range(lam.size):
        e = np.zeros_like(lam)
        e[i] = h
        g[i] = (op.value(lam + e, check=False) - op.value(lam - e, check=False)) / (2 * h)
    return g


def check_operator_derivatives() -> bool:
    from .operators import (BlendedQuotient, ComposedWithT, HessianQuotientNeg, InverseSigmaK,
                            LogSigmaK, MongeAmpere)

    # every catalog kind at n = 3, the blend at t = 0, 1/2, 1, each composed with T
    kinds = [MongeAmpere(3), *(LogSigmaK(3, k) for k in (1, 2, 3)),
             *(HessianQuotientNeg(3, l, k) for l, k in ((1, 2), (1, 3), (2, 3))),
             InverseSigmaK(3, 1), InverseSigmaK(3, 2),
             *(BlendedQuotient(3, 1, 2, t) for t in (0.0, 0.5, 1.0))]
    rng = np.random.default_rng(7)
    for op in kinds + [ComposedWithT(3, inner) for inner in kinds]:
        for _ in range(20):
            lam = rng.uniform(0.3, 3.0, 3)
            g = op.gradient(lam)
            if g.min() <= 0:
                return False
            if np.abs(g - _fd_gradient(op, lam)).max() > 1e-6 * (1 + np.abs(g).max()):
                return False
            v = rng.standard_normal(3)
            if v @ op.hessian(lam) @ v > 1e-9 * (v @ v):
                return False
    return True


def check_gradient_trace_bounds() -> bool:
    from .operators import LogSigmaK

    rng = np.random.default_rng(8)
    op = LogSigmaK(3, 2)
    for _ in range(200):
        lam = rng.uniform(0.2, 4.0, 3)
        if not op.cone.contains(lam):
            continue
        g = op.gradient(lam)
        norm, trace = np.linalg.norm(g), g.sum()
        if not norm <= trace <= np.sqrt(3) * norm:
            return False
    return True


def check_eigen_determinism() -> bool:
    from .eigencalc import eigen_decompose

    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (a + a.conj().T) / 2
    e1, e2 = eigen_decompose(a), eigen_decompose(a.copy())
    return (np.array_equal(e1.values, e2.values)
            and np.array_equal(e1.frame, e2.frame)
            and np.abs(np.diff(e1.values)).min() >= 0)


def check_spectral_exactness() -> bool:
    from .torus import PeriodicGrid, ScalarField, derivative

    grid = PeriodicGrid.make("real", 1, 32, 1.0)
    x = grid.coordinates()[0]
    f = ScalarField(grid, np.sin(2 * np.pi * x))
    err = np.abs(derivative(f, 0).values - 2 * np.pi * np.cos(2 * np.pi * x)).max()
    return err < 1e-11


def check_schur_horn() -> bool:
    from .subsolution import schur_horn_pairing

    rng = np.random.default_rng(10)
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2
        if not schur_horn_pairing(np.sort(rng.uniform(0, 1, n)), m):
            return False
    return True


def check_abp_quadratic() -> bool:
    from .diagnostics import BallGrid, abp_quadratic_case

    case = abp_quadratic_case(BallGrid(2, 64))
    return case["relative_error"] < 0.05 and case["passed"]


CHECKS = [
    ("catalog derivatives vs finite differences, monotone, concave", check_operator_derivatives),
    ("gradient norm <= trace <= sqrt(n) * norm", check_gradient_trace_bounds),
    ("eigendecomposition determinism and ordering", check_eigen_determinism),
    ("spectral derivative exactness on band-limited data", check_spectral_exactness),
    ("diagonal pairing inequality fuzz", check_schur_horn),
    ("contact-set lower bound, closed-form case", check_abp_quadratic),
]


def run_all(verbose: bool = False) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        ok = fn()
        all_ok &= ok
        if verbose:
            print(f"[{'pass' if ok else 'FAIL'}] {name}")
    return all_ok
