"""``solver.gmres`` against a dense oracle, ``numpy.linalg.solve``, on small
nonsymmetric systems."""

import numpy as np
import pytest

from conesolve.solver import GMRES_MAX_RESTARTS, GMRES_RESTART, gmres


def _norm(w):
    return float(np.sqrt(np.sum(w * w)))


def nonsymmetric_system(size, seed):
    rng = np.random.default_rng(seed)
    a = np.eye(size) + rng.normal(size=(size, size)) / (2 * np.sqrt(size))
    a[np.diag_indices(size)] += np.linspace(0.0, 4.0, size)
    return a, rng.normal(size=size)


class CountingMatvec:
    """A z with the by-products C z of A = F C, for C the identity unless
    given, recording every input that is all zeros; ``finish`` is A x from
    C x, F (C x), and counts its calls."""

    def __init__(self, a, c=None):
        self.a = a
        self.c = np.eye(len(a)) if c is None else c
        self.f = a @ np.linalg.inv(self.c)
        self.calls = 0
        self.finishes = 0
        self.zero_inputs = 0

    def __call__(self, v):
        self.calls += 1
        self.zero_inputs += not np.any(v)
        return self.a @ v, self.c @ v

    def finish(self, p, x):
        self.finishes += 1
        return self.f @ p


def no_preconditioner(a):
    return lambda v: v


def jacobi(a):
    return lambda v: v / np.diag(a)


def nearby_inverse(a):
    """The exact inverse of a perturbed copy of A."""
    rng = np.random.default_rng(99)
    p = a + 0.1 * rng.normal(size=a.shape) / np.sqrt(a.shape[0])
    return lambda v: np.linalg.solve(p, v)


@pytest.mark.parametrize("size", [5, 24, 80])
@pytest.mark.parametrize("preconditioner", [no_preconditioner, jacobi, nearby_inverse])
@pytest.mark.parametrize("rtol", [1e-4, 1e-10])
def test_gmres_matches_dense_solve(size, preconditioner, rtol):
    a, b = nonsymmetric_system(size, seed=size)
    matvec = CountingMatvec(a)
    x, ax, _, info = gmres(matvec, b, M=preconditioner(a), finish=matvec.finish, rtol=rtol)
    assert info == 0
    assert _norm(b - a @ x) <= rtol * _norm(b)
    assert _norm(ax - a @ x) <= 1e-13 * _norm(b)
    # |x - x*| <= |A^-1| |b - A x|
    exact = np.linalg.solve(a, b)
    inverse_norm = 1.0 / np.linalg.svd(a, compute_uv=False)[-1]
    assert _norm(x - exact) <= 1.01 * inverse_norm * rtol * _norm(b)
    assert matvec.calls > 0
    assert matvec.zero_inputs == 0


def test_gmres_restarts_without_a_zero_product():
    # no workload restarts: a restart carries x, A x and the by-products, and
    # the last two still agree with dense products at the returned x
    size = 3 * GMRES_RESTART
    a, b = nonsymmetric_system(size, seed=1)
    a += np.diag(np.geomspace(1.0, 1e3, size))
    c, _ = nonsymmetric_system(size, seed=4)
    matvec = CountingMatvec(a, c)
    x, ax, px, info = gmres(matvec, b, M=no_preconditioner(a), finish=matvec.finish, rtol=1e-12)
    assert info == 0
    assert matvec.calls > GMRES_RESTART + 1
    assert matvec.finishes >= 2
    assert matvec.zero_inputs == 0
    assert _norm(b - a @ x) <= 1e-12 * _norm(b)
    assert _norm(ax - a @ x) <= 1e-13 * _norm(b)
    assert _norm(px - c @ x) <= 1e-13 * _norm(c @ x)


def test_gmres_zero_rhs_takes_no_product():
    a, _ = nonsymmetric_system(6, seed=2)
    matvec = CountingMatvec(a)
    x, ax, px, info = gmres(matvec, np.zeros(6), M=no_preconditioner(a), finish=matvec.finish,
                            rtol=1e-8)
    assert info == 0
    assert matvec.calls == 0
    assert not np.any(x) and not np.any(ax) and px is None


def test_gmres_reports_the_cap():
    # the cyclic shift: b = e_1 is orthogonal to A K_m for every m < size, so
    # restarted GMRES never moves from x = 0
    size = GMRES_RESTART + 10
    shift = np.roll(np.eye(size), 1, axis=0)
    b = np.zeros(size)
    b[0] = 1.0
    matvec = CountingMatvec(shift)
    x, ax, _, info = gmres(matvec, b, M=lambda v: v, finish=matvec.finish, rtol=1e-6)
    assert info == GMRES_MAX_RESTARTS
    assert _norm(b - shift @ x) > 1e-6
    assert _norm(ax - shift @ x) <= 1e-13


def test_gmres_reports_a_singular_operator_at_once():
    matvec = CountingMatvec(np.zeros((6, 6)))
    x, _, _, info = gmres(matvec, np.ones(6), M=lambda v: v, finish=matvec.finish, rtol=1e-8)
    assert info != 0
    assert matvec.calls == 1
    assert not np.any(x)


class HalfSpectrumPreconditioner:
    """M v = rfft(v): a preconditioner whose space is a complex half spectrum,
    with the matvec A irfft(z) reading vectors of that space, its by-products
    the field irfft(z), as a Newton system's are the direction's Hessian
    components.  Records what M returns and what the matvec reads."""

    def __init__(self, a):
        self.size = a.shape[0]
        self.matvec = CountingMatvec(a)
        self.outputs = []
        self.inputs = []

    def __call__(self, v):
        self.outputs.append(np.fft.rfft(v))
        return self.outputs[-1]

    def apply(self, z):
        assert z.dtype == complex and z.shape == (self.size // 2 + 1,)
        self.inputs.append(z)
        return self.matvec(np.fft.irfft(z, self.size))


@pytest.mark.parametrize("size", [6, 24, 3 * GMRES_RESTART])
def test_gmres_returns_x_in_the_preconditioner_space(size):
    a, b = nonsymmetric_system(size, seed=size + 1)
    m = HalfSpectrumPreconditioner(a)
    x, ax, px, info = gmres(m.apply, b, M=m, finish=m.matvec.finish, rtol=1e-10)
    assert info == 0
    assert x.dtype == complex and x.shape == (size // 2 + 1,)
    field = np.fft.irfft(x, size)
    assert _norm(b - a @ field) <= 1e-10 * _norm(b)
    assert np.allclose(field, np.linalg.solve(a, b), atol=1e-8)
    assert _norm(ax - a @ field) <= 1e-13 * _norm(b)
    assert _norm(px - field) <= 1e-13 * _norm(field)
    # a converged solve takes one product per Arnoldi step and none at the
    # returned x: the products read M's outputs in order, and the only M
    # that no product reads is each cycle's update, one per finish
    outputs = iter(m.outputs)
    assert all(any(z is out for out in outputs) for z in m.inputs)
    assert len(m.outputs) == m.matvec.calls + m.matvec.finishes
    assert all(z is not x for z in m.inputs)
    assert m.matvec.zero_inputs == 0


def test_gmres_in_another_space_keeps_the_zero_and_singular_contracts():
    a, _ = nonsymmetric_system(6, seed=3)
    m = HalfSpectrumPreconditioner(a)
    x, _, _, info = gmres(m.apply, np.zeros(6), M=m, finish=m.matvec.finish, rtol=1e-8)
    assert info == 0 and m.matvec.calls == 0
    assert x.shape == (4,) and not np.any(x)

    m = HalfSpectrumPreconditioner(np.zeros((6, 6)))
    x, _, _, info = gmres(m.apply, np.ones(6), M=m, finish=m.matvec.finish, rtol=1e-8)
    assert info != 0 and m.matvec.calls == 1
    assert x.dtype == complex and x.shape == (4,) and not np.any(x)
