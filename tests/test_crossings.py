"""Closed-form level crossings against the doubling-and-bisection oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesolve import (
    BlendedQuotient,
    ComposedWithT,
    HessianQuotientNeg,
    InverseSigmaK,
    LogSigmaK,
    MongeAmpere,
    NumericError,
    in_gamma_tilde,
    level_set_constants,
)
from conesolve.cones import sigma_all, t_map, without_each
from conesolve.operators import _rays_to_level
from conesolve.subsolution import coordinate_ray_radius
from oracles import coordinate_ray_radius_bisection, rays_to_level_bisection


def _config_kinds(n):
    """Every operator a config can build at dimension n."""
    kinds = [MongeAmpere(n), *(LogSigmaK(n, k) for k in range(1, n + 1)),
             *(HessianQuotientNeg(n, l, k) for k in range(2, n + 1) for l in range(1, k)),
             *(InverseSigmaK(n, k) for k in range(1, n))]
    return kinds + [ComposedWithT(n, inner) for inner in kinds] if n > 1 else kinds


KINDS = _config_kinds(1) + _config_kinds(2) + _config_kinds(3)
entries = st.floats(-3.0, 3.0).map(lambda x: round(x, 6))
#: signed offsets from the cone boundary along (1, ..., 1)
gaps = st.sampled_from([-1.0, -1e-3, -1e-6, 1e-6, 1e-3, 0.1, 1.0, 4.0])


def _pushed(cone, v, gap):
    """v + c * (1, ..., 1) with c at ``gap`` beyond the boundary crossing c*
    of the cone along (1, ..., 1), found by bisection on membership; v and
    gap may be batched."""
    v = np.asarray(v, dtype=float)
    lo, hi = np.full(v.shape[:-1], -100.0), np.full(v.shape[:-1], 100.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = cone.contains(v + mid[..., None])
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    return v + (hi + gap)[..., None]


def _level(op, draw):
    """A level strictly inside the attainable range of op."""
    u = draw(st.floats(-4.0, 4.0))
    if op.sup_interior == 0.0:
        return -math.exp(u)
    if op.sup_boundary == 0.0:
        return math.exp(u)
    return u


def _rtol(op, x):
    """Relative accuracy of a crossing at each row of x, from the cancellation
    in f there: the entries y (y = T x under composition) carry absolute
    errors dy of a rounding of their terms, and sigma_j(y) for j up to the
    cone's k then errs by eps * (sigma_j(|y|) + sum_m sigma_{j-1}(|y| without
    m) dy_m), relative to |sigma_j(y)|."""
    x = np.asarray(x, dtype=float)
    if isinstance(op, ComposedWithT):
        y = t_map(x)
        dy = (np.abs(x).sum(axis=-1, keepdims=True) + np.abs(x)) / (op.n - 1)
    else:
        y, dy = x, np.abs(x)
    cond = np.zeros(x.shape[:-1])
    for j in range(1, op.cone.k + 1):
        spread = sigma_all(np.abs(y), j)[..., j] + (
            sigma_all(without_each(np.abs(y)), j - 1)[..., j - 1] * dy).sum(axis=-1)
        cond = np.maximum(cond, spread / np.abs(sigma_all(y, j)[..., j]))
    assert np.all(np.isfinite(cond))
    return 1e-12 + 4e-15 * cond


def _assert_rows_close(op, got, expected):
    assert got.shape == expected.shape
    rtol = _rtol(op, expected)[:, None]
    assert np.all(np.abs(got - expected) <= rtol * np.abs(expected))


def _above(op, x, sigma_level):
    return bool(op.cone.contains(x)) and op.value(x, check=False) > sigma_level


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS))
def test_origin_crossings_match_bisection(data, op):
    count = data.draw(st.integers(1, 6))
    v = np.array(data.draw(st.lists(st.lists(entries, min_size=op.n, max_size=op.n),
                                    min_size=count, max_size=count)))
    inside = np.abs(data.draw(st.lists(gaps, min_size=count, max_size=count)))
    dirs = _pushed(op.cone, v, inside)
    sigma_level = _level(op, data.draw)
    _assert_rows_close(op, _rays_to_level(op, dirs, sigma_level),
                       rays_to_level_bisection(op, dirs, sigma_level))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS))
def test_coordinate_crossings_match_bisection(data, op):
    v = np.array(data.draw(st.lists(entries, min_size=op.n, max_size=op.n)))
    gap = data.draw(gaps)
    mu = _pushed(op.cone, v, gap)
    if not in_gamma_tilde(op.cone, mu):
        mu = _pushed(op.cone, v, abs(gap))
    # a level the rays reach: below every limit, and below f(mu) for t = 0
    top = min([op.sup_interior] + [op.limit_at_infinity(np.delete(mu, i))
                                   for i in range(op.n)])
    sigma_level = min(_level(op, data.draw), top - 0.01 * (1.0 + abs(top)))
    if op.cone.contains(mu) and data.draw(st.booleans()):
        sigma_level = min(sigma_level, op.value(mu) - data.draw(st.floats(0.0, 2.0)))
    sigmas = np.array([sigma_level])
    crossings = [float(op.coordinate_crossing(mu[None, :], i, sigmas)[0]) for i in range(op.n)]
    points = mu + np.diag(crossings)
    radius = coordinate_ray_radius(op, mu[None, :], sigmas)
    assert radius == pytest.approx(coordinate_ray_radius_bisection(op, mu[None, :], sigmas),
                                   rel=_rtol(op, points).max())
    for i, t in enumerate(crossings):
        step = 10.0 * _rtol(op, points[i]) * (1.0 + t + np.abs(mu).max())
        x = mu.copy()
        x[i] += t + step
        assert _above(op, x, sigma_level)
        if t > 0:
            x[i] = mu[i] + t - step
            assert not _above(op, x, sigma_level)


def test_crossing_at_the_cone_entry():
    # (2, 2, -1.5) is outside Gamma_2 with every pair in Gamma_1: along e_1
    # sigma_2 = -2 + t/2 enters at 4, along e_3 sigma_2 = -2 + 4t at 1/2; at
    # the level -800, e^sigma underflows and the crossing is the entry itself
    op, mu = LogSigmaK(3, 2), np.array([[2.0, 2.0, -1.5]])
    for sigma_level, entries_at in [(-800.0, [4.0, 4.0, 0.5]), (-30.0, None)]:
        crossings = [op.coordinate_crossing(mu, i, sigma_level)[0] for i in range(3)]
        if entries_at is not None:
            assert crossings == entries_at
        else:
            assert all(t > e for t, e in zip(crossings, [4.0, 4.0, 0.5]))
        sigmas = np.array([sigma_level])
        assert coordinate_ray_radius(op, mu, sigmas) == pytest.approx(
            coordinate_ray_radius_bisection(op, mu, sigmas), rel=1e-12)


@pytest.mark.parametrize("op, mu, sigma_level", [
    (HessianQuotientNeg(2, 1, 2), [1.0, 1.0], -0.4),  # the limit -0.5 stays below the level
    (ComposedWithT(3, HessianQuotientNeg(3, 2, 3)), [1.0, 1.0, 1.0], -0.3),  # limit -1/3
    (MongeAmpere(2), [-1.0, -1.0], 0.0),  # never enters the cone
    # sigma_3 = 1 + t grows along e_1 but sigma_2 = 1 - 2t does not
    (LogSigmaK(3, 3), [0.0, -1.0, -1.0], 0.0),
], ids=["quotient", "composed-quotient", "outside", "sigma_2-falls"])
def test_ray_that_never_crosses_raises(op, mu, sigma_level):
    mu, sigmas = np.array([mu]), np.array([sigma_level])
    with pytest.raises(NumericError):
        op.coordinate_crossing(mu, 0, sigma_level)
    with pytest.raises(NumericError):
        coordinate_ray_radius(op, mu, sigmas)
    with pytest.raises(NumericError):
        coordinate_ray_radius_bisection(op, mu, sigmas)


def test_rays_crossing_beyond_reach_are_dropped():
    # f(t d) = 2 log t + log(d_1 d_2) = sigma at t = exp((sigma - log(d_1 d_2))/2):
    # 1e35 and exp(-75) ~ 3e-33 lie outside (2^-100, 2^100), the others inside
    op = MongeAmpere(2)
    dirs = np.array([[1e-70, 1.0], [1e-50, 1.0], [1.0, 1.0]])
    for sigma_level, kept in [(0.0, [1, 2]), (-150.0, [0, 1])]:
        got = _rays_to_level(op, dirs, sigma_level)
        assert got.shape == rays_to_level_bisection(op, dirs, sigma_level).shape
        t = np.exp((sigma_level - np.log(dirs[kept, 0])) / 2)
        np.testing.assert_allclose(got, t[:, None] * dirs[kept], rtol=1e-14)


@pytest.mark.parametrize("op, sigma_level, min_radius", [
    (MongeAmpere(2), 0.0, 10.0), (LogSigmaK(3, 2), 1.0, 4.5),
    (HessianQuotientNeg(3, 1, 2), -0.6, 14.0), (InverseSigmaK(3, 1), 0.8, 2.0),
    (ComposedWithT(3, LogSigmaK(3, 2)), 0.5, 3.0),
], ids=repr)
def test_sample_level_set_keeps_the_bisection_samples(monkeypatch, op, sigma_level, min_radius):
    from conesolve import operators, sample_level_set

    got = sample_level_set(op, sigma_level, 2000, np.random.default_rng(1), min_radius)
    monkeypatch.setattr(operators, "_rays_to_level", rays_to_level_bisection)
    expected = sample_level_set(op, sigma_level, 2000, np.random.default_rng(1), min_radius)
    assert got.shape == (2000, op.n)
    _assert_rows_close(op, got, expected)


def test_blend_crossings_only_at_one():
    rng = np.random.default_rng(7)
    dirs = rng.uniform(0.1, 2.0, (50, 3))
    quotient, blend = HessianQuotientNeg(3, 1, 2), BlendedQuotient(3, 1, 2, 1.0)
    for sigma_level in (-6.0, -20.0):  # below every limit -1/sigma_1(mu') >= -5
        np.testing.assert_array_equal(blend.ray_crossing(dirs, sigma_level),
                                      quotient.ray_crossing(dirs, sigma_level))
        np.testing.assert_array_equal(blend.coordinate_crossing(dirs, 1, sigma_level),
                                      quotient.coordinate_crossing(dirs, 1, sigma_level))
    for t in (0.0, 0.5):
        blend = BlendedQuotient(3, 1, 2, t)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            blend.ray_crossing(dirs, -1.0)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            blend.coordinate_crossing(dirs, 0, -1.0)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            level_set_constants(blend, -1.0)


def test_inverse_quotient_level_below_its_range():
    # f > 0 on the cone: at a level <= 0 every ray from inside is above it
    op, mu = InverseSigmaK(3, 1), np.array([[0.5, 1.0, 2.0], [1e-3, 3.0, 0.2]])
    for sigma_level in (0.0, -1.0):
        for i in range(3):
            np.testing.assert_array_equal(op.coordinate_crossing(mu, i, sigma_level), 0.0)
    for sigma_level in (0.002, 0.01):  # below every limit sqrt(sigma_2(mu')) >= 0.014
        sigmas = np.full(2, sigma_level)
        assert coordinate_ray_radius(op, mu, sigmas) == pytest.approx(
            coordinate_ray_radius_bisection(op, mu, sigmas), rel=1e-12)


def test_coordinate_crossing_degree_above_two_is_refused():
    # T-lines meet sigma_j in degree n - 1; configs stop at n = 3
    with pytest.raises(ValueError, match="degree above two"):
        ComposedWithT(4, MongeAmpere(4)).coordinate_crossing(np.ones((1, 4)), 0, 0.0)


@pytest.mark.parametrize("op, sigma_level", [
    (MongeAmpere(3), 0.4), (LogSigmaK(3, 2), -1.0), (HessianQuotientNeg(3, 2, 3), -2.0),
    (InverseSigmaK(3, 2), 0.3), (ComposedWithT(3, HessianQuotientNeg(3, 1, 3)), -0.5),
], ids=repr)
def test_level_set_anchor_is_on_the_level(op, sigma_level):
    big_n = level_set_constants(op, sigma_level, samples=16).N
    assert op.value(np.full(op.n, big_n)) == pytest.approx(sigma_level, rel=1e-14, abs=1e-14)
