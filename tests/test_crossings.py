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
from conesolve.operators import _RAY_REACH, _directions, _rays_to_level, row_norms
from conesolve.subsolution import coordinate_ray_radius
from oracles import (
    coordinate_crossings_bisection,
    coordinate_ray_radius_bisection,
    rays_to_level_bisection,
    sample_level_set_filtered,
)


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
    _assert_rows_close(op, next(_rays_to_level(op, dirs, [sigma_level])),
                       rays_to_level_bisection(op, dirs, sigma_level))


def _crossing_row(op, draw, zero_slope: bool):
    """A row mu and a level its coordinate rays reach.  mu lies in the cone's
    natural domain, inside the cone or outside it; or, if ``zero_slope``, it
    is zero but for one entry (in dimension 3 the other two may be a, -a),
    so that sigma_{j-1}(mu without i) = 0 on some axis i for j = 2 or 3."""
    if zero_slope:
        mu = np.zeros(op.n)
        i = draw(st.integers(0, op.n - 1))
        mu[i] = draw(entries)
        if op.n == 3 and draw(st.booleans()):
            a = draw(entries)
            mu[[m for m in range(3) if m != i]] = a, -a
        if not in_gamma_tilde(op.cone, mu):
            return mu, _level(op, draw)  # some ray never enters the cone
    else:
        v = np.array(draw(st.lists(entries, min_size=op.n, max_size=op.n)))
        gap = draw(gaps)
        mu = _pushed(op.cone, v, gap)
        if not in_gamma_tilde(op.cone, mu):
            mu = _pushed(op.cone, v, abs(gap))
    # a level the rays reach: below every limit, and below f(mu) for t = 0
    top = min([op.sup_interior] + [op.limit_at_infinity(np.delete(mu, i))
                                   for i in range(op.n)])
    sigma_level = min(_level(op, draw), top - 0.01 * (1.0 + abs(top)))
    if op.cone.contains(mu) and draw(st.booleans()):
        sigma_level = min(sigma_level, op.value(mu) - draw(st.floats(0.0, 2.0)))
    return mu, sigma_level


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), op=st.sampled_from(KINDS))
def test_coordinate_crossings_match_bisection(data, op):
    # up to four rows, each at its own level; at most one with a zero slope
    count = data.draw(st.integers(1, 4))
    zero_row = data.draw(st.integers(0, 2 * count - 1)) if op.n > 1 else count
    rows = [_crossing_row(op, data.draw, p == zero_row) for p in range(count)]
    mu = np.array([row for row, _ in rows])
    sigmas = np.array([level for _, level in rows])
    try:
        expected = coordinate_crossings_bisection(op, mu, sigmas)
    except NumericError:
        with pytest.raises(NumericError):
            op.coordinate_crossings(mu, sigmas)
        return
    crossings = op.coordinate_crossings(mu, sigmas)
    assert crossings.shape == mu.shape
    points = mu[:, None, :] + crossings[..., None] * np.eye(op.n)
    radius = coordinate_ray_radius(op, mu, sigmas)
    assert radius == pytest.approx(coordinate_ray_radius_bisection(op, mu, sigmas),
                                   rel=_rtol(op, points).max())
    for p, i in np.ndindex(mu.shape):
        t = crossings[p, i]
        step = 10.0 * _rtol(op, points[p, i]) * (1.0 + t + np.abs(mu[p]).max())
        assert abs(t - expected[p, i]) <= step
        x = mu[p].copy()
        x[i] += t + step
        assert _above(op, x, sigmas[p])
        if t > 0:
            x[i] = mu[p, i] + t - step
            assert not _above(op, x, sigmas[p])


def test_crossing_at_the_cone_entry():
    # (2, 2, -1.5) is outside Gamma_2 with every pair in Gamma_1: along e_1
    # sigma_2 = -2 + t/2 enters at 4, along e_3 sigma_2 = -2 + 4t at 1/2; at
    # the level -800, e^sigma underflows and the crossing is the entry itself
    op, mu = LogSigmaK(3, 2), np.array([[2.0, 2.0, -1.5]])
    for sigma_level, entries_at in [(-800.0, [4.0, 4.0, 0.5]), (-30.0, None)]:
        crossings = list(op.coordinate_crossings(mu, sigma_level)[0])
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
        op.coordinate_crossings(mu, sigma_level)
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
        (got,) = _rays_to_level(op, dirs, [sigma_level])
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


@pytest.mark.parametrize("op", _config_kinds(2) + _config_kinds(3)
                         + [BlendedQuotient(3, 1, 2, 1.0)], ids=repr)
def test_sampler_keeps_the_bytes_of_form_all_then_filter(op):
    # the screened sampler keeps the points, in the order, that forming and
    # measuring every crossing keeps: at radius 0, near the median crossing
    # and beyond almost every crossing, for a level listed twice too
    from conesolve import sample_level_set

    near, far = float(op.value(np.full(op.n, 1.4))), float(op.value(np.full(op.n, 1.5)))
    norms = row_norms(sample_level_set_filtered(op, near, 400, np.random.default_rng(11)))
    for seed in (0, 3, 7):
        for radius in (0.0, float(np.median(norms)), float(np.quantile(norms, 0.98))):
            for sigma_level in (near, [far, near, far]):
                got = sample_level_set(op, sigma_level, 150, np.random.default_rng(seed), radius)
                expected = sample_level_set_filtered(op, sigma_level, 150,
                                                     np.random.default_rng(seed), radius)
                assert got.tobytes() == expected.tobytes()


def _quantile_radius(op, q):
    """The q-quantile of the norms of 2000 crossings of the level f(1.4 * ones)."""
    near = float(op.value(np.full(op.n, 1.4)))
    return float(np.quantile(row_norms(sample_level_set_filtered(
        op, near, 2000, np.random.default_rng(11))), q))


@pytest.mark.parametrize("op, sigma_level, radius, seed, rounds, gaussian_rounds", [
    (LogSigmaK(3, 2), 1.0, 0.0, 0, 1, 0),
    (LogSigmaK(3, 2), None, lambda op: _quantile_radius(op, 0.97), 0, 2, 1),
    (MongeAmpere(2), [0.0, 0.5], lambda op: _quantile_radius(op, 0.97), 3, 5, 4),
    (LogSigmaK(3, 2), [0.3, -0.11083608, -0.29002441], 4.52, 0, 2, 1),
    (LogSigmaK(3, 1), None, lambda op: _quantile_radius(op, 0.98), 0, 2, 2),
    (ComposedWithT(3, LogSigmaK(3, 2)), None, lambda op: _quantile_radius(op, 0.95), 7, 2, 2),
], ids=["round-0", "later-positive-slice", "two-levels-later-positive", "real3-hessian-certify",
        "later-gaussian", "composed-later-gaussian"])
def test_early_stop_keeps_the_bytes_wherever_the_draw_ends(
        monkeypatch, op, sigma_level, radius, seed, rounds, gaussian_rounds):
    # the draw ends in round 0, in a later round's positive half (before its
    # last slice, or after one level is full) or in its Gaussian half: counted
    # by the rounds' direction draws and the cone tests, which only a Gaussian
    # half runs; the points are the whole draw's
    from conesolve import operators, sample_level_set

    if sigma_level is None:
        sigma_level = float(op.value(np.full(op.n, 1.4)))
    if callable(radius):
        radius = radius(op)
    calls = {"rounds": 0, "cone tests": 0}
    directions, contains = operators._directions, type(op.cone).contains

    def counted_directions(*args):
        calls["rounds"] += 1
        return directions(*args)

    def counted_contains(cone, x):
        calls["cone tests"] += 1
        return contains(cone, x)

    monkeypatch.setattr(operators, "_directions", counted_directions)
    monkeypatch.setattr(type(op.cone), "contains", counted_contains)
    got = sample_level_set(op, sigma_level, 2000, np.random.default_rng(seed), radius)
    monkeypatch.undo()
    assert calls == {"rounds": rounds, "cone tests": gaussian_rounds}
    expected = sample_level_set_filtered(op, sigma_level, 2000, np.random.default_rng(seed),
                                         radius)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("op", [LogSigmaK(2, 1), MongeAmpere(3), LogSigmaK(3, 1),
                                ComposedWithT(3, LogSigmaK(3, 2))], ids=repr)
def test_unit_directions_stay_under_the_sampler_screen(op):
    # _rays_to_level screens at t * (1 + 1e-12) > min_radius: no point t * d
    # past the radius may fail it, anywhere in the reach window
    rng = np.random.default_rng(5)
    dirs = np.concatenate(list(_directions(op.cone, 20_000, rng)))
    scales = np.concatenate([np.geomspace(*_RAY_REACH, 64), 2.0 ** rng.uniform(-100, 100, 64)])
    for t in scales:
        assert np.all(row_norms(t * dirs) <= t * (1 + 1e-12))


def test_blend_crossings_only_at_one():
    rng = np.random.default_rng(7)
    dirs = rng.uniform(0.1, 2.0, (50, 3))
    quotient, blend = HessianQuotientNeg(3, 1, 2), BlendedQuotient(3, 1, 2, 1.0)
    for sigma_level in (-6.0, -20.0):  # below every limit -1/sigma_1(mu') >= -5
        np.testing.assert_array_equal(blend.ray_crossing(dirs, sigma_level),
                                      quotient.ray_crossing(dirs, sigma_level))
        np.testing.assert_array_equal(blend.coordinate_crossings(dirs, sigma_level),
                                      quotient.coordinate_crossings(dirs, sigma_level))
    for t in (0.0, 0.5):
        blend = BlendedQuotient(3, 1, 2, t)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            blend.ray_crossing(dirs, -1.0)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            blend.coordinate_crossings(dirs, -1.0)
        with pytest.raises(ValueError, match="BlendedQuotient"):
            level_set_constants(blend, -1.0)


def test_inverse_quotient_level_below_its_range():
    # f > 0 on the cone: at a level <= 0 every ray from inside is above it
    op, mu = InverseSigmaK(3, 1), np.array([[0.5, 1.0, 2.0], [1e-3, 3.0, 0.2]])
    for sigma_level in (0.0, -1.0):
        np.testing.assert_array_equal(op.coordinate_crossings(mu, sigma_level), 0.0)
    for sigma_level in (0.002, 0.01):  # below every limit sqrt(sigma_2(mu')) >= 0.014
        sigmas = np.full(2, sigma_level)
        assert coordinate_ray_radius(op, mu, sigmas) == pytest.approx(
            coordinate_ray_radius_bisection(op, mu, sigmas), rel=1e-12)


def test_coordinate_crossing_degree_above_two_is_refused():
    # T-lines meet sigma_j in degree n - 1; configs stop at n = 3
    with pytest.raises(ValueError, match="degree above two"):
        ComposedWithT(4, MongeAmpere(4)).coordinate_crossings(np.ones((1, 4)), 0.0)


@pytest.mark.parametrize("op, sigma_level", [
    (MongeAmpere(3), 0.4), (LogSigmaK(3, 2), -1.0), (HessianQuotientNeg(3, 2, 3), -2.0),
    (InverseSigmaK(3, 2), 0.3), (ComposedWithT(3, HessianQuotientNeg(3, 1, 3)), -0.5),
], ids=repr)
def test_level_set_anchor_is_on_the_level(op, sigma_level):
    big_n = level_set_constants(op, sigma_level, samples=16).N
    assert op.value(np.full(op.n, big_n)) == pytest.approx(sigma_level, rel=1e-14, abs=1e-14)
