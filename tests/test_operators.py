import math
import zlib

import numpy as np
import pytest

from conesolve import (
    BlendedQuotient,
    ComposedWithT,
    ConeViolation,
    HessianQuotientNeg,
    InverseSigmaK,
    LogSigmaK,
    MongeAmpere,
    NumericError,
    level_set_constants,
    operator_from_name,
    sample_level_set,
)
from oracles import fd_gradient, fd_hessian

ALL_KINDS = [
    MongeAmpere(2),
    MongeAmpere(3),
    LogSigmaK(3, 1),
    LogSigmaK(3, 2),
    HessianQuotientNeg(2, 1, 2),
    HessianQuotientNeg(3, 1, 3),
    HessianQuotientNeg(3, 2, 3),
    InverseSigmaK(3, 1),
    InverseSigmaK(3, 2),
    BlendedQuotient(3, 1, 2, 0.0),
    BlendedQuotient(3, 1, 2, 0.6),
    ComposedWithT(3, MongeAmpere(3)),
    ComposedWithT(2, LogSigmaK(2, 1)),
]


def interior_samples(op, rng, count):
    pts = []
    while len(pts) < count:
        lam = rng.normal(1.2, 1.0, op.n) if rng.random() < 0.5 else rng.uniform(0.2, 4.0, op.n)
        if op.cone.contains(lam) and op.cone.margin(lam) > 0.05:
            pts.append(lam)
    return np.array(pts)


def test_hand_values():
    ma = MongeAmpere(2)
    assert ma.value([1, 2]) == pytest.approx(math.log(2))
    np.testing.assert_allclose(ma.gradient([1, 2]), [1.0, 0.5])

    ls = LogSigmaK(3, 2)
    assert ls.value([1, 1, 1]) == pytest.approx(math.log(3))
    np.testing.assert_allclose(ls.gradient([1, 1, 1]), [2 / 3] * 3)

    hq = HessianQuotientNeg(2, 1, 2)
    assert hq.value([1, 1]) == pytest.approx(-1.0)
    np.testing.assert_allclose(hq.gradient([1, 1]), [0.5, 0.5], atol=1e-14)


def test_domain_error_carries_index():
    ls = LogSigmaK(3, 2)
    with pytest.raises(ConeViolation) as err:
        ls.value([1, 1, -0.5])
    assert err.value.index == 2


@pytest.mark.parametrize("op", ALL_KINDS, ids=lambda o: repr(o))
def test_gradient_and_hessian_formulas(op):
    rng = np.random.default_rng(zlib.crc32(repr(op).encode()))
    for lam in interior_samples(op, rng, 25):
        g = op.gradient(lam)
        np.testing.assert_allclose(
            g, fd_gradient(lambda x: op.value(x, check=False), lam),
            rtol=2e-5, atol=2e-7,
        )
        h = op.hessian(lam)
        np.testing.assert_allclose(
            h, fd_hessian(lambda x: op.value(x, check=False), lam),
            rtol=5e-3, atol=5e-5,
        )


@pytest.mark.parametrize("op", ALL_KINDS, ids=lambda o: repr(o))
def test_monotone_concave_symmetric(op):
    rng = np.random.default_rng(1 + zlib.crc32(repr(op).encode()) % 2**31)
    pts = interior_samples(op, rng, 1000)
    g = op.gradient(pts)
    assert g.min() > 0  # monotonicity
    h = op.hessian(pts)
    v = rng.standard_normal(pts.shape)
    quad = np.einsum("...i,...ij,...j->...", v, h, v)
    assert quad.max() <= 1e-9 * (v * v).sum(axis=-1).max()  # concavity
    # permutation invariance, exact up to floating reordering
    perm = rng.permutation(op.n)
    np.testing.assert_allclose(op.value(pts[:, perm]), op.value(pts),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("op", ALL_KINDS, ids=lambda o: repr(o))
def test_gradient_trace_comparison(op):
    rng = np.random.default_rng(2 + zlib.crc32(repr(op).encode()) % 2**31)
    pts = interior_samples(op, rng, 300)
    g = op.gradient(pts)
    norm = np.linalg.norm(g, axis=-1)
    trace = g.sum(axis=-1)
    assert np.all(norm <= trace * (1 + 1e-12))
    # equality holds exactly for linear operators; allow one ulp of slack
    assert np.all(trace <= math.sqrt(op.n) * norm * (1 + 1e-12))


def test_limit_hand_values():
    assert HessianQuotientNeg(2, 1, 2).limit_at_infinity([1.0]) == pytest.approx(-0.5)
    assert LogSigmaK(3, 2).limit_at_infinity([1.0, 1.0]) == math.inf
    assert MongeAmpere(2).limit_at_infinity([2.0]) == math.inf


def test_limit_outside_projection():
    with pytest.raises(ConeViolation):
        HessianQuotientNeg(2, 1, 2).limit_at_infinity([-1.0])


def test_limit_violation_is_the_projections():
    # Gamma_3 projects onto Gamma_2: the first point outside it, with its
    # first violated sigma_j and that value
    with pytest.raises(ConeViolation) as err:
        HessianQuotientNeg(3, 2, 3).limit_at_infinity([[1.0, 2.0], [3.0, -1.0]])
    assert (err.value.index, err.value.value) == (2, -3.0)
    np.testing.assert_array_equal(err.value.lam, [3.0, -1.0])


def test_nested_composition_rejected():
    # the preimage cone, and so its projection, assumes one T over a Gamma_k
    with pytest.raises(ValueError):
        ComposedWithT(3, ComposedWithT(3, MongeAmpere(3)))


@pytest.mark.parametrize("n", [2, 3])
def test_composed_finite_limits_closed_form(n):
    # T(mu', R) = T(mu', 0) + R/(n-1) (1, ..., 1, 0): the limits are those of
    # the last entry sum(mu')/(n-1) against the R^(n-1) growth of the rest
    rng = np.random.default_rng(n)
    quotient = ComposedWithT(n, HessianQuotientNeg(n, n - 1, n))
    inverse = ComposedWithT(n, InverseSigmaK(n, n - 1))
    for _ in range(20):
        mu_prime = rng.uniform(0.3, 3.0, n - 1)
        s = mu_prime.sum()
        assert quotient.limit_at_infinity(mu_prime) == pytest.approx(
            -(n - 1) / (n * s), rel=1e-12)
        assert inverse.limit_at_infinity(mu_prime) == pytest.approx(s / (n - 1), rel=1e-12)


def test_composed_limit_does_not_depend_on_the_batch():
    # sigma_1/sigma_2 of T(mu', R) decays like 1/R: the limit is exactly 0
    op = ComposedWithT(3, HessianQuotientNeg(3, 1, 2))
    assert op.limit_at_infinity([1.0, 2.0]) == 0.0
    np.testing.assert_array_equal(op.limit_at_infinity([[1.0, 2.0], [1e7, 1e7]]), [0.0, 0.0])


FINITE_LIMIT_KINDS = [
    HessianQuotientNeg(3, 1, 2),
    HessianQuotientNeg(3, 2, 3),
    InverseSigmaK(3, 1),
    BlendedQuotient(3, 1, 2, 0.7),
    ComposedWithT(3, HessianQuotientNeg(3, 1, 2)),
]


@pytest.mark.parametrize("op", FINITE_LIMIT_KINDS, ids=lambda o: repr(o))
def test_finite_limits_match_large_argument(op):
    rng = np.random.default_rng(3 + zlib.crc32(repr(op).encode()) % 2**31)
    for _ in range(30):
        mu_prime = rng.uniform(0.3, 3.0, op.n - 1)
        lim = op.limit_at_infinity(mu_prime)
        big = op.value(np.append(mu_prime, 1e8), check=False)
        assert abs(big - lim) <= 1e-4 * (1 + abs(lim))


def test_infinite_limits_grow():
    for op in (MongeAmpere(3), LogSigmaK(3, 2), ComposedWithT(3, MongeAmpere(3)),
               ComposedWithT(3, InverseSigmaK(3, 1))):
        mu_prime = np.array([1.0, 2.0])
        assert op.limit_at_infinity(mu_prime) == math.inf
        assert op.value(np.append(mu_prime, 1e8), check=False) > op.value(
            np.append(mu_prime, 1e4), check=False
        )


def test_scaling_recovers_any_level():
    # along any interior ray, f(t*lam) eventually exceeds every level below sup f
    rng = np.random.default_rng(4)
    for op in ALL_KINDS:
        for _ in range(20):
            lam = interior_samples(op, rng, 1)[0]
            target = op.sup_interior - 0.5 if math.isinf(op.sup_interior) is False else 2.0
            t = 1.0
            while op.value(t * lam, check=False) <= target and t < 1e12:
                t *= 4.0
            assert op.value(t * lam, check=False) > target


def test_level_set_constants_hand_values():
    assert level_set_constants(MongeAmpere(2), 0.0, samples=64).N == pytest.approx(1.0)
    assert level_set_constants(MongeAmpere(3), 3.0, samples=64).N == pytest.approx(math.e)
    assert level_set_constants(LogSigmaK(3, 2), math.log(3), samples=64).N == pytest.approx(1.0)


def test_level_set_constants_validation():
    with pytest.raises(ValueError):
        level_set_constants(HessianQuotientNeg(2, 1, 2), 0.5, samples=16)  # above sup


def test_level_set_tau_positive():
    lc = level_set_constants(MongeAmpere(2), 0.0, samples=256)
    assert lc.tau > 0
    # the trace of the gradient on {sum log = 0} has minimum 2 at (1,1)
    assert lc.tau >= 2.0 - 1e-9


def test_sample_level_set_lands_on_level():
    rng = np.random.default_rng(5)
    for op, sigma_level in [(MongeAmpere(2), 0.0), (LogSigmaK(3, 2), 1.0),
                            (HessianQuotientNeg(2, 1, 2), -0.7)]:
        pts = sample_level_set(op, sigma_level, 500, rng)
        vals = op.value(pts, check=False)
        assert np.abs(vals - sigma_level).max() < 1e-8
        assert pts.shape == (500, op.n)


@pytest.mark.parametrize("op, levels, min_radius", [
    (MongeAmpere(2), [-1.0, 0.0, 2.5], 3.0), (LogSigmaK(3, 2), [-1.0, 0.5, 2.0], 4.0),
    (HessianQuotientNeg(3, 1, 2), [-0.9, -0.7, -2.0], 5.0),
    (InverseSigmaK(3, 1), [0.3, 0.8, 2.0], 2.0),
    (ComposedWithT(3, LogSigmaK(3, 2)), [-0.5, 0.5, 1.5], 3.0),
], ids=repr)
def test_sample_level_set_draws_every_level_at_once(op, levels, min_radius):
    pts = sample_level_set(op, levels, 2000, np.random.default_rng(1), min_radius)
    assert pts.shape == (3, 2000, op.n)
    for level, rows in zip(levels, pts):
        assert np.abs(op.value(rows) - level).max() <= 1e-12 * (1.0 + abs(level))
        assert np.linalg.norm(rows, axis=-1).min() > min_radius
    # a level listed twice gets the same rows; one level listed alone is the
    # scalar draw, bit for bit
    twice = sample_level_set(op, [levels[1], levels[0], levels[1]], 2000,
                             np.random.default_rng(1), min_radius)
    np.testing.assert_array_equal(twice[0], twice[2])
    alone = sample_level_set(op, levels[1:2], 2000, np.random.default_rng(1), min_radius)
    np.testing.assert_array_equal(
        alone[0], sample_level_set(op, levels[1], 2000, np.random.default_rng(1), min_radius))


def test_sample_level_set_argument_errors(monkeypatch):
    import conesolve.operators as operators

    with pytest.raises(ValueError):
        sample_level_set(MongeAmpere(2), 0.0, 0, np.random.default_rng(0))
    # a radius no sample can reach in the allotted rounds
    monkeypatch.setattr(operators, "MAX_SAMPLING_ROUNDS", 3)
    with pytest.raises(NumericError):
        sample_level_set(MongeAmpere(2), 0.0, 50, np.random.default_rng(0), min_radius=1e28)
    with pytest.raises(ValueError):
        # every level must be attainable: the quotient stays below 0
        sample_level_set(HessianQuotientNeg(2, 1, 2), [-1.0, 0.5], 50, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_level_set(MongeAmpere(2), [], 50, np.random.default_rng(0))


def test_operator_from_name():
    assert isinstance(operator_from_name("monge_ampere", 2), MongeAmpere)
    assert operator_from_name("log_sigma_k", 3, k=2).k == 2
    hq = operator_from_name("hessian_quotient", 3, k=2, l=1)
    assert (hq.l, hq.k) == (1, 2)
    comp = operator_from_name("composed_with_T", 2, inner="monge_ampere")
    assert isinstance(comp, ComposedWithT)
    with pytest.raises(ValueError):
        operator_from_name("frobnicate", 2)
    with pytest.raises(ValueError):
        operator_from_name("hessian_quotient", 3, k=1, l=2)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_row_norms_are_numpy_norms_bit_for_bit(n, scale):
    # the certificate's crossings and level-set draws read row_norms where
    # they read np.linalg.norm(..., axis=-1), whose bits R and kappa keep
    from conesolve.operators import row_norms

    rng = np.random.default_rng(n)
    x = scale * rng.standard_normal((7282, n)) * 10.0 ** rng.uniform(-3, 3, (7282, 1))
    x[:5] = 0.0
    x[5, 0] = -scale
    assert np.array_equal(row_norms(x), np.linalg.norm(x, axis=-1))
    batch = x[:7280].reshape(20, 364, n)
    assert np.array_equal(row_norms(batch), np.linalg.norm(batch, axis=-1))
