import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conesolve import diagnostics
from conesolve import (
    BallFunction,
    BallGrid,
    LogSigmaK,
    MatrixField,
    MongeAmpere,
    PeriodicGrid,
    ScalarField,
    TorusProblem,
    abp_check,
    contact_set,
    hmw_ratio,
    random_band_limited,
    strong_concavity_flags,
    trace_estimate_check,
)
from conesolve.torus import spectral_gradient, spectral_hessian_components
from oracles import (
    abp_dense,
    abp_dense_weight,
    ball_coordinates,
    complex_gradient,
    dense_ball_function,
    metric_root_inverse,
    supporting_plane_bruteforce,
)


def quadratic_well(a, grid=None):
    grid = grid or BallGrid(2, 64)
    return BallFunction.from_callable(grid, lambda x, y: a * (x**2 + y**2))


def test_contact_set_quadratic():
    v = quadratic_well(0.4)
    p = contact_set(v, 0.4)
    # gradient condition: 0.8 |x| < 0.2
    assert p.count > 0
    assert np.linalg.norm(p.points, axis=1).max() <= 0.25 * (1 + 1e-12)
    # for convex v the plane test is redundant: the gradient condition alone
    # gives the same set
    grads = v.gradient()
    gnorm = np.sqrt(grads[0] ** 2 + grads[1] ** 2)
    expected = int((v.grid.interior_mask & (gnorm < 0.2)).sum())
    assert p.count == expected


def test_contact_set_empty_cases():
    grid = BallGrid(2, 64)
    # linear with slope above eps/2 has no small-gradient points; tilt gently
    # so the precondition still holds via the quadratic term
    v = BallFunction.from_callable(grid, lambda x, y: 0.6 * (x**2 + y**2) + 0.5 * x)
    p = contact_set(v, 0.08)
    assert p.count > 0
    for pt in p.points:
        g = 1.2 * pt + np.array([0.5, 0.0])
        assert np.linalg.norm(g) < 0.04

    with pytest.raises(ValueError):
        contact_set(quadratic_well(0.4), 0.0)
    # strictly concave: precondition cannot hold
    w = BallFunction.from_callable(grid, lambda x, y: -(x**2 + y**2))
    with pytest.raises(ValueError):
        contact_set(w, 0.1)


def test_abp_quadratic_closed_form():
    rep = abp_check(quadratic_well(0.4), 0.4)
    derived = 0.04 * np.pi
    assert rep.integral_det == pytest.approx(derived, rel=0.05)
    assert rep.lower_bound == pytest.approx(derived, rel=1e-12)
    assert rep.passed
    assert rep.contact_volume_fraction == pytest.approx(1 / 16, rel=0.05)


def test_abp_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        abp_check(quadratic_well(0.4), 0.0)
    # too large an epsilon violates the boundary-gap precondition
    with pytest.raises(ValueError):
        abp_check(quadratic_well(0.4), 0.6)


def fuzz_wells():
    """The first 50 of ``diagnostics.fuzz_wells`` on a 64^2 ball, seed 0."""
    return itertools.islice(diagnostics.fuzz_wells(BallGrid(2, 64), np.random.default_rng(0)), 50)


def test_abp_fuzz_wells():
    for _, v, eps in fuzz_wells():
        rep = abp_check(v, eps)
        assert rep.passed


def test_abp_check_matches_the_dense_tensor_on_fuzz_wells():
    # bit for bit: the open-grid samples against the full coordinate arrays,
    # and the separate second differences against the full Hessian tensor
    for fn, v, eps in fuzz_wells():
        dense = dense_ball_function(v.grid, fn)
        assert np.array_equal(v.values, dense.values)
        assert np.array_equal(v.boundary_values, dense.boundary_values)
        rep = abp_check(v, eps)
        assert (rep.integral_det, rep.contact_volume_fraction) == abp_dense(dense, eps)


def assert_contact_mask_matches_bruteforce(v, epsilon):
    """contact_set's mask against the per-candidate plane test on the same
    candidates; returns the candidate and contact counts."""
    grads = v.gradient()
    gnorm = np.sqrt(sum(g**2 for g in grads))
    candidates = v.grid.interior_mask & (gnorm < 0.5 * epsilon)
    expected = supporting_plane_bruteforce(v, grads, candidates)
    mask = contact_set(v, epsilon).mask
    assert mask.dtype == expected.dtype and mask.shape == expected.shape
    assert np.array_equal(mask, expected)
    return int(candidates.sum()), int(expected.sum())


def double_well(*x):
    return (sum(c**2 for c in x) - 0.3) ** 2 + 0.1 * x[0]


def tilted_double_well(m, points_per_axis):
    return BallFunction.from_callable(BallGrid(m, points_per_axis), double_well)


@pytest.mark.parametrize("m, points, kept", [(1, 64, (12, 2)), (2, 64, (222, 78)),
                                             (3, 24, (297, 113))])
def test_supporting_plane_double_well(m, points, kept):
    # non-convex: the central bump and most of the tilted ring of minima at
    # |x|^2 = 0.3 have small gradients but no global supporting plane
    assert assert_contact_mask_matches_bruteforce(tilted_double_well(m, points), 0.2) == kept


@pytest.mark.parametrize("m, points", [(1, 64), (2, 64), (3, 24)])
def test_abp_check_matches_the_dense_tensor_on_the_double_well(m, points):
    v = tilted_double_well(m, points)
    dense = dense_ball_function(v.grid, double_well)
    assert np.array_equal(v.values, dense.values)
    rep = abp_check(v, 0.2)
    assert rep.integral_det > 0
    assert (rep.integral_det, rep.contact_volume_fraction) == abp_dense(dense, 0.2)


@pytest.fixture
def abp_bands(monkeypatch):
    """The flat indices of the band of each ``abp_check`` call, in order."""
    bands = []
    differences = diagnostics._second_differences

    def spy(grads, h, band):
        bands.append(band)
        return differences(grads, h, band)

    monkeypatch.setattr(diagnostics, "_second_differences", spy)
    return bands


def assert_abp_check_is_dense(fn, grid, epsilon, bands):
    """abp_check against the dense oracle bit for bit, with every point of
    positive oracle weight, before the plane test, in the band; returns the
    report."""
    v = BallFunction.from_callable(grid, fn)
    dense = dense_ball_function(grid, fn)
    assert np.array_equal(v.values, dense.values)
    rep = abp_check(v, epsilon)
    assert (rep.integral_det, rep.contact_volume_fraction) == abp_dense(dense, epsilon)
    band = np.zeros(grid.interior_mask.size, dtype=bool)
    band[bands[-1]] = True
    weight = abp_dense_weight(dense, epsilon)[2].ravel()
    assert weight[band].any() and not (weight[~band] > 0.0).any()
    return rep


@pytest.mark.parametrize("seed, failing", [(0, []), (3, [32])])
def test_abp_band_is_the_dense_tensor_on_the_128_fuzz_wells(seed, failing, abp_bands):
    # the wells of ``conesolve abp --grid 128 --cases 40``; seed 3's fuzz_32
    # fails the check, its contact islands unresolved, as on the full grid
    grid = BallGrid(2, 128)
    wells = itertools.islice(diagnostics.fuzz_wells(grid, np.random.default_rng(seed)), 40)
    verdicts = [assert_abp_check_is_dense(fn, grid, eps, abp_bands).passed
                for fn, _, eps in wells]
    assert [k for k, passed in enumerate(verdicts) if not passed] == failing
    assert all(band.size < grid.interior_mask.sum() / 10 for band in abp_bands)


def test_abp_band_is_the_dense_tensor_on_the_double_well_in_3d(abp_bands):
    rep = assert_abp_check_is_dense(double_well, BallGrid(3, 32), 0.2, abp_bands)
    assert rep.integral_det > 0


def kinked_cone(*x):
    """|x|_1 / 8, steeper by 1/2 past |x|_1 = 1/2: a centred difference that
    spans no kink is exactly +-1/8 along each axis."""
    r = sum(np.abs(c) for c in x)
    return r / 8 + np.maximum(r - 0.5, 0.0) / 2


@pytest.mark.parametrize("m, edge", [(1, 30), (2, 60)])
def test_abp_band_keeps_the_points_at_half_epsilon(m, edge, abp_bands):
    # at eps = 1/4 these points have |grad v| = eps/2 exactly, so their weight
    # is 0.5 whatever their rate, zero or not
    grid = BallGrid(m, 64)
    dense = dense_ball_function(grid, kinked_cone)
    grads, _, weight = abp_dense_weight(dense, 0.25)
    at_edge = grid.interior_mask & (np.sqrt(sum(g**2 for g in grads)) == 0.125)
    assert at_edge.sum() == edge
    assert np.all(weight[at_edge] == 0.5)
    assert assert_abp_check_is_dense(kinked_cone, grid, 0.25, abp_bands).passed
    assert np.isin(np.flatnonzero(at_edge), abp_bands[-1]).all()


def walled_bowl(grid):
    """A shallow bowl whose wall rises by 1/2 between the last grid point of an
    axis and the unit sphere, so the contact set reaches the faces of the
    square, where the second differences are one-sided."""
    start = 0.5 * (1.0 + grid.axis_coordinates()[-1])

    def fn(*x):
        r = np.sqrt(sum(c**2 for c in x))
        return 0.05 * r**2 + 0.5 * np.maximum(r - start, 0.0) / (1.0 - start)
    return fn


@pytest.mark.parametrize("m, points", [(1, 64), (2, 64), (1, 33), (2, 33)])
def test_abp_band_takes_one_sided_differences_on_the_faces(m, points, abp_bands):
    # with an odd count the first point of each axis is inside the ball too
    grid = BallGrid(m, points)
    fn = walled_bowl(grid)
    dense = dense_ball_function(grid, fn)
    grads, _, weight = abp_dense_weight(dense, 0.25)
    contact = supporting_plane_bruteforce(dense, grads, weight > 0.0)
    faces = (-1,) if points % 2 == 0 else (0, -1)
    for face in faces:
        assert any(contact[(slice(None),) * axis + (face,)].any() for axis in range(m))
    assert_abp_check_is_dense(fn, grid, 0.25, abp_bands)


@pytest.mark.parametrize("check", [abp_check, contact_set])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["grid", "sphere"])
def test_non_finite_samples_are_refused(check, bad, where):
    v = quadratic_well(0.4)
    if where == "grid":
        v.values[10, 40] = bad
    else:
        v.boundary_values[3] = bad
    with pytest.raises(ValueError, match="finite"):
        check(v, 0.4)


@pytest.mark.parametrize("m, fn", [(2, lambda x, y: x), (3, lambda *x: x[0] ** 2)],
                         ids=["x", "x0-squared"])
def test_from_callable_broadcasts_to_the_full_grid(m, fn):
    grid = BallGrid(m, 12)
    v = BallFunction.from_callable(grid, fn)
    dense = dense_ball_function(grid, fn)
    assert v.values.shape == (12,) * m
    np.testing.assert_array_equal(v.values, dense.values)
    np.testing.assert_array_equal(v.boundary_values, dense.boundary_values)
    # the samples are the function's own: writing one changes no other sample
    v.values[(0,) * m] = 7.0
    assert np.count_nonzero(v.values == 7.0) == 1
    assert not (BallFunction.from_callable(grid, fn).values == 7.0).any()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ball_grid_layout(m):
    grid = BallGrid(m, 10)
    coords = ball_coordinates(grid)
    interior = sum(c**2 for c in coords) < 1.0
    np.testing.assert_array_equal(grid.interior_mask, interior)
    expected = np.concatenate([np.stack([c[interior] for c in coords]),
                               grid.boundary_points.T], axis=1)
    np.testing.assert_array_equal(grid.samples, expected)
    np.testing.assert_allclose(grid.sample_norms, np.linalg.norm(expected, axis=0),
                               rtol=1e-15)
    cached = [*grid.open_coordinates, grid.interior_mask, grid.boundary_points,
              grid.samples, grid.sample_norms]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert grid.samples is grid.samples
    # the cache is no field: a grid that has built it equals a fresh one
    assert grid == BallGrid(m, 10) and hash(grid) == hash(BallGrid(m, 10))
    assert grid != BallGrid(m, 12)


def test_supporting_plane_fuzz_wells():
    for _, v, eps in fuzz_wells():
        assert_contact_mask_matches_bruteforce(v, eps)


@pytest.mark.parametrize("chunk", [5, 64, 1000])
def test_supporting_plane_partial_blocks(monkeypatch, chunk):
    v = tilted_double_well(2, 64)
    grid = v.grid
    points = int(grid.interior_mask.sum()) + len(grid.boundary_points)
    monkeypatch.setattr(diagnostics, "_PLANE_BLOCK_BYTES", chunk * points * 8)
    count, _ = assert_contact_mask_matches_bruteforce(v, 0.2)
    assert count % chunk != 0


def test_supporting_plane_no_candidates():
    # a cone with its tip between grid points: every centered difference has
    # |grad| > 0.4, so no candidate reaches the plane test
    grid = BallGrid(2, 64)
    h = grid.spacing
    v = BallFunction.from_callable(grid, lambda x, y: np.hypot(x - h / 2, y - h / 2))
    assert assert_contact_mask_matches_bruteforce(v, 0.2) == (0, 0)
    assert contact_set(v, 0.2).points.shape == (0, 2)


def test_supporting_plane_single_candidate():
    # the centre is the only candidate: g = 0, so its own sample's reach equals
    # the largest offset and only the slack margin keeps it in the product
    v = quadratic_well(0.4)
    assert assert_contact_mask_matches_bruteforce(v, 0.04) == (1, 1)
    assert contact_set(v, 0.04).count == 1
    assert abp_check(v, 0.04).passed


def test_supporting_plane_far_refuter():
    # a narrow dip at |x| = 0.7, below every plane of small slope through the
    # centre: the samples that refute the central candidates lie far from them
    v = BallFunction.from_callable(
        BallGrid(2, 64),
        lambda x, y: x**2 + y**2 - 0.6 * np.exp(-((x - 0.7)**2 + y**2) / 0.01))
    x, y = ball_coordinates(v.grid)
    central = np.hypot(x, y) < 0.3
    grads = v.gradient()
    candidates = v.grid.interior_mask & (np.hypot(*grads) < 0.1)
    assert candidates[central].sum() > 0
    assert assert_contact_mask_matches_bruteforce(v, 0.2) == (10, 1)
    mask = contact_set(v, 0.2).mask
    assert not mask[central].any()
    assert v.values[mask] == v.values.min()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(depth=st.floats(0.1, 0.5), tilt=st.floats(-0.3, 0.3), scale=st.floats(0.5, 2.0),
       points=st.sampled_from([16, 25, 32]))
def test_supporting_plane_property(depth, tilt, scale, points):
    v = BallFunction.from_callable(
        BallGrid(2, points),
        lambda x, y: scale * (x**2 + y**2 - depth) ** 2 + tilt * (x - 0.5 * y))
    room = float(v.boundary_values.min() - v.center_value())
    assume(room > 0.02)
    assert_contact_mask_matches_bruteforce(v, min(0.45, 0.9 * room))


def flat_problem(grid, alpha):
    """A problem on ``grid`` with background chi = alpha, for the monitor."""
    return TorusProblem(grid, MongeAmpere(grid.n), alpha, MatrixField.constant(grid, alpha),
                        ScalarField.zeros(grid))


def monitor(problem, u):
    """``hmw_ratio`` of u, with its Hessian components and gradient read from
    one half spectrum, as the CLI's diagnostics read them."""
    spec = np.fft.rfftn(u.values)
    return hmw_ratio(problem, u, spectral_hessian_components(spec, u.grid),
                     spectral_gradient(spec, u.grid))


def test_hmw_ratio_values():
    g = PeriodicGrid.make("complex", 1, 64, 1.0)
    prob = flat_problem(g, np.eye(1))
    zero = ScalarField.zeros(g)
    assert monitor(prob, zero).ratio == 0.0

    a = 0.3
    x, _ = g.coordinates()
    u = ScalarField(g, a * np.cos(2 * np.pi * x))
    rep = monitor(prob, u)
    assert rep.sup_dd_u == pytest.approx(a * np.pi**2, rel=1e-10)
    assert rep.sup_grad_sq == pytest.approx(a**2 * np.pi**2, rel=1e-10)
    k = rep.sup_grad_sq + 1.0
    assert rep.ratio == pytest.approx(rep.sup_dd_u / k)
    assert rep.phi_params["K"] == pytest.approx(k)
    assert rep.phi_params["phi_prime_low"] == pytest.approx(1 / (4 * k))
    assert rep.phi_params["phi_prime_high"] == pytest.approx(1 / (2 * k))
    assert 0 < rep.psi_params["tau"] <= 1

    real = PeriodicGrid.make("real", 2, 8, 1.0)
    with pytest.raises(ValueError):
        monitor(flat_problem(real, np.eye(2)), ScalarField.zeros(real))


def test_hmw_ratio_under_a_non_diagonal_complex_metric():
    # u = a cos Re(c^T z) with c = 2 pi (1, -i), i.e. a cos(2 pi (x_1 + y_2)):
    # du = -(a/2) sin(.) c and dd u = -(a/4) cos(.) c c*, so both sups read the
    # form q = v* alpha^{-1} v at v = (1, -i), attained on the grid
    alpha = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])
    g = PeriodicGrid.make("complex", 2, 8, 1.0)
    a = 0.3
    x1, _, _, y2 = g.coordinates()
    u = ScalarField(g, a * np.cos(2 * np.pi * (x1 + y2)))
    rep = monitor(flat_problem(g, alpha), u)
    v = np.array([1.0, -1.0j])
    q = np.real(np.conj(v) @ np.linalg.inv(alpha) @ v)
    assert rep.sup_grad_sq == pytest.approx(a**2 * np.pi**2 * q, rel=1e-12)
    assert rep.sup_dd_u == pytest.approx(a * np.pi**2 * q, rel=1e-12)
    # a transposed or an unconjugated L^{-1} would read another form
    linv = np.linalg.inv(np.linalg.cholesky(alpha))
    for wrong in (linv.T, np.conj(linv)):
        assert abs(np.linalg.norm(wrong @ v) ** 2 / q - 1.0) > 0.3


@pytest.mark.parametrize("reduced, alpha", [
    (False, np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])),
    (True, np.array([[1.5, 0.2 - 0.4j, 0.1j], [0.2 + 0.4j, 2.0, 0.3], [-0.1j, 0.3, 1.2]])),
])
def test_hmw_gradient_is_the_reference_gradient_in_the_metric(reduced, alpha):
    # |L^{-1} du|^2 from the real quadratic form on the stored axes' derivatives
    # equals its value from the holomorphic gradient on the full FFT mesh
    g = PeriodicGrid.make("complex", len(alpha), 12 if reduced else 8, 1.0, reduced=reduced)
    u = random_band_limited(g, 0.2, 5)
    w = np.einsum("ab,...b->...a", metric_root_inverse(alpha), complex_gradient(u))
    expected = float(np.real(np.einsum("...a,...a->...", np.conj(w), w)).max())
    rep = monitor(flat_problem(g, alpha), u)
    assert rep.sup_grad_sq == pytest.approx(expected, rel=1e-12)
    assert expected > 0.01


def test_trace_estimate():
    g = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    u = ScalarField.zeros(g)
    gfield = MatrixField.constant(g, np.eye(2))
    rep = trace_estimate_check(u, gfield, np.eye(2), 1.0, threshold=2.5)
    assert rep.c_fit == pytest.approx(2.0)
    assert rep.passed and bool(rep)
    assert not trace_estimate_check(u, gfield, np.eye(2), 1.0, threshold=1.5)
    # a Hermitian alpha with imaginary entries against a real field g
    alpha = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])
    real_g = np.array([[1.0, 0.2], [0.2, 1.0]])
    rep = trace_estimate_check(u, MatrixField.constant(g, real_g), alpha, 1.0, threshold=2.0)
    assert rep.c_fit == pytest.approx(np.trace(np.linalg.inv(alpha) @ real_g).real, rel=1e-14)


def test_trace_estimate_checks_its_metric():
    # alpha is read as every other function that takes a metric reads it
    # (torus.constant_metric): Hermitian and positive definite, and a
    # MatrixField that is constant on its grid reads as its matrix
    g = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
    u = random_band_limited(g, 0.3, seed=5)
    gfield = MatrixField.constant(g, np.array([[1.0, 0.2], [0.2, 1.5]]))
    with pytest.raises(ValueError, match="metric must be positive definite"):
        trace_estimate_check(u, gfield, -np.eye(2), 1.0, 3.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        trace_estimate_check(u, gfield, np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, 3.0)
    alpha = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])
    by_field = trace_estimate_check(u, gfield, MatrixField.constant(g, alpha), 1.0, 3.0)
    assert by_field == trace_estimate_check(u, gfield, alpha, 1.0, 3.0)
    varying = MatrixField(g, gfield.values * (1.0 + u.values[..., None, None]))
    with pytest.raises(ValueError, match="constant on the grid"):
        trace_estimate_check(u, gfield, varying, 1.0, 3.0)
    # the identity matrix gives the bits of the unchecked formula
    rep = trace_estimate_check(u, gfield, np.eye(2), 1.0, 3.0)
    tr = np.real(np.einsum("ab,...ba->...", np.linalg.inv(np.eye(2)), gfield.values))
    assert rep.c_fit == float((tr * np.exp(-1.0 * (u.values - u.values.min()))).max())


def test_strong_concavity_flags():
    rng = np.random.default_rng(1)
    ma = MongeAmpere(3)
    samples = rng.uniform(0.2, 5.0, (10_000, 3))
    flag_a, flag_b = strong_concavity_flags(ma, samples)
    assert flag_a and flag_b
    # the first condition is an exact zero for the log-det operator
    lam = -np.sort(-samples, axis=-1)
    g = ma.gradient(lam)
    h = ma.hessian(lam)
    assert np.abs(h[..., 0, 0] + g[..., 0] / lam[..., 0]).max() < 1e-12

    assert strong_concavity_flags(ma, [[1.0, 1.0, 1.0]]) == (True, True)
    # the linear operator fails both at (2, 1)
    assert strong_concavity_flags(LogSigmaK(2, 1), [[2.0, 1.0]]) == (False, False)

    with pytest.raises(ValueError):
        strong_concavity_flags(ma, [])


def test_odd_grid_centre_is_the_origin():
    # odd counts sample cell centres, so the middle point, where the abp
    # precondition reads v(0), is the origin itself
    grid = BallGrid(2, 33)
    v = BallFunction.from_callable(grid, lambda x, y: np.exp(x) + 3.0 * y + x * y)
    assert v.center_value() == 1.0
    axis = grid.axis_coordinates()
    np.testing.assert_array_equal(axis, -axis[::-1])


def test_supporting_plane_boundary_samples_decide():
    # |x|^2 with a narrow well on the unit sphere: with an odd point count no
    # grid point lies on the sphere, so the well, narrower than the gap, dips
    # the sphere samples only, below the tangent planes near the rim
    grid = BallGrid(2, 33)
    coords = ball_coordinates(grid)
    width = 0.5 * float(np.abs(np.hypot(*coords) - 1.0).min())
    v = BallFunction.from_callable(
        grid, lambda x, y: x**2 + y**2
        - 0.05 * np.maximum(0.0, 1.0 - np.abs(np.hypot(x, y) - 1.0) / width))
    interior = grid.interior_mask
    np.testing.assert_array_equal(v.values[interior], (coords[0]**2 + coords[1]**2)[interior])
    grads = v.gradient()
    mask = diagnostics._has_supporting_plane(v, grads, interior)
    np.testing.assert_array_equal(mask, supporting_plane_bruteforce(v, grads, interior))
    assert 0 < mask.sum() < interior.sum()
    # against the undipped sphere samples every candidate passes
    undipped = BallFunction(grid, v.values, np.ones_like(v.boundary_values))
    np.testing.assert_array_equal(supporting_plane_bruteforce(undipped, grads, interior),
                                  interior)
