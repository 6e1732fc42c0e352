"""Independent oracles used across the test suite.

Everything here is deliberately dumb: subset enumeration (in exact rational
arithmetic where signs decide), finite differences, a Fourier symbol written
out on the full FFT mesh, a spectral derivative and the holomorphic
gradient on the full complex FFT mesh, geometric ray shooting, doubling and bisection onto
level sets, one supporting-plane test per candidate, the contact-set
integral from the full tensor of second differences, each operator kind's
value, derivatives and limit written out by hand, F(A) = f(lambda(A))
with its derivatives in an eigenframe, and the sigma recursion on dense
(..., n, n) matrices.  None of it shares code with the
library paths it checks, except ``metric_hessian``, which takes a run's steps
in a run's order so that a report's values can be compared with it bit for
bit, and ``sample_level_set_filtered``, the level-set sampler that forms
every crossing before it filters, which reads the library's closed-form ray
scale and reach window so that the two can be compared byte for byte.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from conesolve import (
    BallFunction,
    BlendedQuotient,
    ComposedWithT,
    HessianQuotientNeg,
    InverseSigmaK,
    LogSigmaK,
    MongeAmpere,
    NumericError,
)
from conesolve import operators
from conesolve.eigencalc import eigen_decompose, pack, require_hermitian
from conesolve.torus import congruence, hessian_components, hessian_symbols


def sigma_bruteforce(k: int, lam) -> float:
    """Elementary symmetric polynomial by explicit subset enumeration."""
    lam = list(lam)
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def ray_polynomial(j: int, mu_prime, preimage: bool = False) -> list[Fraction]:
    """Exact coefficients, constant term first, of t -> sigma_j(M(mu', t)).

    M is the identity, so M(mu', t) = (mu', t), or with ``preimage`` the
    averaging map T written out entrywise: the first n-1 entries are
    (sum_{i != m} mu'_i + t)/(n-1), the last is sum_i mu'_i/(n-1).  Every
    entry is a linear polynomial in t with Fraction coefficients, and sigma_j
    is the sum of products over all j-subsets.  With |mu'| in place of mu'
    the coefficients bound the magnitude of the terms that cancel in each.
    """
    mu = [Fraction(float(x)) for x in mu_prime]
    if preimage:
        d = len(mu)
        entries = [((sum(mu) - x) / d, Fraction(1, d)) for x in mu]
        entries.append((sum(mu) / d, Fraction(0)))
    else:
        entries = [(x, Fraction(0)) for x in mu] + [(Fraction(0), Fraction(1))]
    coeffs = [Fraction(0)] * (j + 1)
    for subset in itertools.combinations(entries, j):
        product = [Fraction(1)]
        for c0, c1 in subset:
            times = [Fraction(0)] * (len(product) + 1)
            for d, a in enumerate(product):
                times[d] += a * c0
                times[d + 1] += a * c1
            product = times
        for d, a in enumerate(product):
            coeffs[d] += a
    return coeffs


def leading_sign(coeffs) -> int:
    """Sign of the leading nonzero coefficient, i.e. of the polynomial at
    large t; 0 for the zero polynomial."""
    for a in reversed(coeffs):
        if a:
            return 1 if a > 0 else -1
    return 0


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            out[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                         - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
    return out


def second_difference(f, t: float):
    """Richardson-extrapolated central second difference of f at 0 along 1."""
    d1 = (f(t) - 2.0 * f(0.0) + f(-t)) / t**2
    d2 = (f(t / 2) - 2.0 * f(0.0) + f(-t / 2)) / (t / 2) ** 2
    return (4.0 * d2 - d1) / 3.0


def positive_directions(rng, n: int, count: int) -> np.ndarray:
    """Unit directions spanning the positive orthant, biased toward the axes.

    Unboundedness of (mu + Gamma_n) shows up along near-coordinate rays, so a
    fixed fraction hugs each axis at several approach scales.
    """
    dirs = [rng.uniform(0.05, 1.0, size=(count // 2, n)), np.eye(n)]
    etas = [1e-4, 1e-3, 1e-2, 1e-1, 0.3]
    per = max(1, (count - count // 2 - n) // (n * len(etas)))
    for i in range(n):
        for eta in etas:
            d = np.zeros((per, n))
            d[:, i] = 1.0
            d += eta * rng.uniform(0.1, 1.0, size=(per, n))
            dirs.append(d)
    d = np.concatenate(dirs, axis=0)[:count]
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def ray_boundedness_oracle(op, mu, sigma_level: float, rng, rays: int = 200,
                           radius_cap: float = 1e6) -> bool:
    """Brute-force boundedness of (mu + Gamma_n) intersected with {f = sigma}.

    Shoots rays from mu in positive directions, bisects f onto the level set
    along each, and declares the intersection bounded iff every crossing lies
    within radius_cap.  Rays that never reach the level (f stays below sigma
    out to huge t) count as crossings at infinity.  Uses only op.value and
    cone membership.
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    dirs = positive_directions(rng, n, rays)
    max_radius = 0.0
    for d in dirs:
        # march into the cone
        t_in = 0.0
        if not op.cone.contains(mu):
            t_in = 1e-6
            while not op.cone.contains(mu + t_in * d):
                t_in *= 2.0
                if t_in > 1e9:
                    return False  # never admissible: treat as unbounded evidence
        f_in = op.value(mu + t_in * d, check=False) if op.cone.contains(mu + t_in * d) else -np.inf
        if f_in >= sigma_level:
            max_radius = max(max_radius, float(np.linalg.norm(mu + t_in * d)))
            continue
        t_lo, t_hi = t_in, max(1.0, 2.0 * t_in if t_in else 1.0)
        crossed = False
        while t_hi < 1e8:
            if op.value(mu + t_hi * d, check=False) > sigma_level:
                crossed = True
                break
            t_lo = t_hi
            t_hi *= 2.0
        if not crossed:
            return False  # escapes to infinity below the level
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            if op.value(mu + t_mid * d, check=False) > sigma_level:
                t_hi = t_mid
            else:
                t_lo = t_mid
        max_radius = max(max_radius, float(np.linalg.norm(mu + 0.5 * (t_lo + t_hi) * d)))
        if max_radius > radius_cap:
            return False
    return max_radius <= radius_cap


def ball_coordinates(grid) -> list[np.ndarray]:
    """The full coordinate arrays of a ``BallGrid``, one per axis."""
    return np.meshgrid(*([grid.axis_coordinates()] * grid.m), indexing="ij")


def dense_ball_function(grid, fn) -> BallFunction:
    """``fn`` evaluated on the full coordinate arrays of ``grid`` and on its
    sphere samples."""
    return BallFunction(grid, np.asarray(fn(*ball_coordinates(grid)), dtype=float),
                        np.asarray(fn(*grid.boundary_points.T), dtype=float))


def supporting_plane_bruteforce(v, grads, candidates: np.ndarray) -> np.ndarray:
    """The candidates of a ``BallFunction`` whose tangent plane lies below v on
    every interior and boundary sample, up to a relative 1e-12 slack; one
    candidate at a time."""
    grid = v.grid
    coords = ball_coordinates(grid)
    interior = sum(c**2 for c in coords) < 1.0
    pts_all = np.stack([c[interior] for c in coords], axis=1)
    test_pts = np.concatenate([pts_all, grid.boundary_points], axis=0)
    test_vals = np.concatenate([v.values[interior], v.boundary_values])
    slack = 1e-12 * (1.0 + float(np.abs(test_vals).max()))
    mask = np.zeros_like(candidates)
    for idx in np.argwhere(candidates):
        key = tuple(idx)
        x = np.array([coords[a][key] for a in range(grid.m)])
        g = np.array([grads[a][key] for a in range(grid.m)])
        support = v.values[key] + (test_pts - x) @ g
        if np.all(test_vals >= support - slack):
            mask[key] = True
    return mask


def abp_dense_weight(v, epsilon: float):
    """``abp_check``'s gradient, full (N, ..., m, m) tensor of symmetrized
    second differences and weight of every point of the square, before the
    plane test."""
    grid = v.grid
    m, h = grid.m, grid.spacing
    grads = np.gradient(v.values, h)
    grads = [grads] if m == 1 else list(grads)
    gnorm = np.sqrt(sum(g**2 for g in grads))
    rows = [np.gradient(gi, h) for gi in grads]
    if m == 1:
        rows = [[rows[0]]]
    hess = np.empty(v.values.shape + (m, m))
    for i in range(m):
        for j in range(m):
            hess[..., i, j] = 0.5 * (rows[i][j] + rows[j][i])
    gdir = np.stack(grads, axis=-1) / np.maximum(gnorm, 1e-300)[..., None]
    rate = np.abs(sum(hess[..., i, j] * gdir[..., i] * gdir[..., j]
                      for i in range(m) for j in range(m)))
    weight = np.clip(0.5 + (0.5 * epsilon - gnorm) / np.maximum(rate * h, 1e-300), 0.0, 1.0)
    weight[sum(c**2 for c in ball_coordinates(grid)) >= 1.0] = 0.0
    return grads, hess, weight


def abp_dense(v, epsilon: float) -> tuple[float, float]:
    """``abp_check``'s integral of det D^2 v and contact volume fraction,
    from the full (N, ..., m, m) tensor of symmetrized second differences and
    the per-candidate plane test."""
    grid = v.grid
    m, h = grid.m, grid.spacing
    grads, hess, weight = abp_dense_weight(v, epsilon)
    weight[~supporting_plane_bruteforce(v, grads, weight > 0.0)] = 0.0
    cell = h**m
    ball = math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
    integral_det = float((np.linalg.det(hess[weight > 0]) * weight[weight > 0]).sum() * cell)
    return integral_det, float(weight.sum()) * cell / ball


def rays_to_level_bisection(op, dirs: np.ndarray, sigma_level, min_radius: float = 0.0,
                            iters: int = 60) -> np.ndarray | list:
    """Bisect t on each ray t * d so that f(t*d) = sigma.  Drops failed rays
    and the points at norm <= min_radius.  For a sequence of levels, a list of
    such arrays, one per level."""
    if np.ndim(sigma_level):
        return [rays_to_level_bisection(op, dirs, level, min_radius, iters)
                for level in sigma_level]
    m = dirs.shape[0]
    t_hi = np.ones(m)
    val = op.value(dirs, check=False)
    val = np.atleast_1d(val)
    for _ in range(120):
        below = val <= sigma_level
        if not below.any():
            break
        t_hi[below] *= 2.0
        val[below] = np.atleast_1d(op.value(t_hi[below, None] * dirs[below], check=False))
        if t_hi.max() > 1e30:
            break
    t_lo = t_hi / 2.0
    val = np.atleast_1d(op.value(t_lo[:, None] * dirs, check=False))
    for _ in range(200):
        above = val >= sigma_level
        if not above.any():
            break
        t_lo[above] /= 2.0
        val[above] = np.atleast_1d(op.value(t_lo[above, None] * dirs[above], check=False))
        if t_lo.min() < 1e-30:
            break
    good = (np.atleast_1d(op.value(t_lo[:, None] * dirs, check=False)) < sigma_level) & (
        np.atleast_1d(op.value(t_hi[:, None] * dirs, check=False)) > sigma_level
    )
    dirs, t_lo, t_hi = dirs[good], t_lo[good], t_hi[good]
    for _ in range(iters):
        t_mid = 0.5 * (t_lo + t_hi)
        above = np.atleast_1d(op.value(t_mid[:, None] * dirs, check=False)) > sigma_level
        t_hi = np.where(above, t_mid, t_hi)
        t_lo = np.where(above, t_lo, t_mid)
    points = 0.5 * (t_lo + t_hi)[:, None] * dirs
    return points[np.linalg.norm(points, axis=-1) > min_radius]


def sample_level_set_filtered(op, sigma_level, count: int, rng: np.random.Generator,
                              min_radius: float = 0.0) -> np.ndarray:
    """``sample_level_set`` as it was before it screened the crossings or
    stopped early: each round draws its directions whole, both halves
    concatenated and then normalized, every ray within reach is formed as a
    point and measured, the points at norm <= min_radius are dropped
    afterwards, and each level is cut at ``count`` at the end.  Its round
    sizes and draws are the library's, so the two must agree byte for byte."""
    levels, listed = np.unique(np.asarray(sigma_level, dtype=float), return_inverse=True)
    collected = [[] for _ in levels]
    accepted, tried = [0] * len(levels), 0
    for _ in range(operators.MAX_SAMPLING_ROUNDS):
        need = max(1.5 * (count - got) / max(got / tried if tried else 0.25, 0.02)
                   for got in accepted)
        m = int(min(max(need, 256), 400_000))
        dirs = _whole_round_directions(op.cone, m, rng)
        values = np.asarray(op._value(dirs))
        for points, level in zip(collected, levels):
            t = op._ray_scale(values, level)
            keep = (t > operators._RAY_REACH[0]) & (t < operators._RAY_REACH[1])
            lam = t[keep, None] * dirs[keep]
            points.append(lam[np.linalg.norm(lam, axis=-1) > min_radius])
        tried += m
        accepted = [sum(p.shape[0] for p in points) for points in collected]
        if min(accepted) >= count:
            break
    else:
        raise NumericError(f"level-set sampling got {min(accepted)}/{count} points")
    out = np.stack([np.concatenate(points, axis=0)[:count] for points in collected])
    return out[listed.reshape(np.shape(sigma_level))]


def _whole_round_directions(cone, m: int, rng: np.random.Generator) -> np.ndarray:
    """One round of ``sample_level_set``'s unit directions, drawn whole: m // 2
    positively spread rows, then the Gaussian rows of the other half that lie
    in the cone, normalized together."""
    half, n = m // 2, cone.n
    beta = rng.uniform(0.0, 5.0, size=(half, 1))
    d_pos = 10.0 ** (-beta * rng.uniform(0.0, 1.0, size=(half, n)))
    d_gauss = rng.standard_normal((m - half, n))
    dirs = np.concatenate([d_pos, d_gauss[np.asarray(cone.contains(d_gauss), dtype=bool)]])
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def coordinate_crossings_bisection(op, mu: np.ndarray, sigmas: np.ndarray,
                                   iters: int = 60) -> np.ndarray:
    """The level crossing t* of every coordinate ray mu + t e_i, shaped like
    ``mu`` (npts, n).

    Along +e_i both cone membership and f are monotone, so the crossing of
    {f > sigma} is found by doubling and bisection on the indicator.
    """
    npts, n = mu.shape
    crossings = np.zeros((npts, n))
    for i in range(n):
        def above(ts: np.ndarray) -> np.ndarray:
            pts = mu.copy()
            pts[:, i] += ts
            inside = np.asarray(op.cone.contains(pts), dtype=bool)
            out = np.zeros(npts, dtype=bool)
            if inside.any():
                vals = np.atleast_1d(op.value(pts[inside], check=False))
                out[inside] = vals > sigmas[inside]
            return out

        t_hi = np.ones(npts)
        for _ in range(200):
            mask = ~above(t_hi)
            if not mask.any():
                break
            t_hi[mask] *= 2.0
            if t_hi.max() > 1e30:
                raise NumericError("coordinate ray never crossed the level set")
        t_lo = np.zeros(npts)
        for _ in range(iters):
            t_mid = 0.5 * (t_lo + t_hi)
            up = above(t_mid)
            t_hi = np.where(up, t_mid, t_hi)
            t_lo = np.where(up, t_lo, t_mid)
        crossings[:, i] = 0.5 * (t_lo + t_hi)
    return crossings


def coordinate_ray_radius_bisection(op, mu: np.ndarray, sigmas: np.ndarray,
                                    iters: int = 60) -> float:
    """sup over points and axes of |mu + t* e_i| at the bisected level
    crossings t* (``coordinate_crossings_bisection``)."""
    crossings = coordinate_crossings_bisection(op, mu, sigmas, iters)
    radius = 0.0
    for i in range(mu.shape[1]):
        pts = mu.copy()
        pts[:, i] += crossings[:, i]
        radius = max(radius, float(np.linalg.norm(pts, axis=1).max()))
    return radius


def derivative_full_mesh(f, axes) -> np.ndarray:
    """Spectral derivative of a ScalarField along stored ``axes`` (repeats mean
    higher order) by the full complex fftn: each axis's (i k)^count, with the
    Nyquist mode zeroed on axes differentiated an odd number of times."""
    grid = f.grid
    spec = np.fft.fftn(f.values)
    ng = grid.points_per_axis
    for ax, cnt in Counter(axes).items():
        k = grid.wavenumbers(ax).copy()
        if cnt % 2 == 1:
            k[ng // 2] = 0.0
        shape = [1] * grid.stored_axes
        shape[ax] = ng
        spec = spec * (1j * k.reshape(shape)) ** cnt
    return np.real(np.fft.ifftn(spec))


def metric_root_inverse(alpha) -> np.ndarray:
    """L^{-1} for the Cholesky factor alpha = L L*."""
    return np.linalg.inv(np.linalg.cholesky(np.asarray(alpha)))


def metric_hessian(u, alpha) -> np.ndarray:
    """L^{-1} Hess u L^{-*}, the Hessian in alpha-orthonormal coordinates, as
    sum_e c_e(u) B_e with B_e = L^{-1} U_e L^{-*}: the operations and order of
    the library's frame, so its values are those of a run bit for bit.  It is
    returned as rows (``eigencalc.pack``), as the monitor reads it, summed
    over e in order on the packed rows with no BLAS product, as a run sums
    them (a BLAS ``tensordot`` rounds differently)."""
    basis = pack(congruence(metric_root_inverse(alpha), hessian_symbols(u.grid).units))
    comps = hessian_components(u.values, u.grid)
    rows = np.zeros((len(basis),) + comps.shape[1:])
    for e, comp in enumerate(comps):
        rows += basis[:, e].reshape((-1,) + (1,) * comp.ndim) * comp
    return rows


def complex_gradient(u) -> np.ndarray:
    """Holomorphic derivatives u_p = (d_x - i d_y) u / 2 of a complex-mode
    ScalarField, shape grid + (n,), each from ``derivative_full_mesh``; a
    reduced grid has no y axes, so there u_p = d_x u / 2."""
    grid = u.grid
    if grid.mode != "complex":
        raise ValueError("complex_gradient requires a complex-mode grid")
    out = np.empty(grid.shape + (grid.n,), dtype=complex)
    for p in range(grid.n):
        x, y = grid.axis_pair(p)
        dy = 0.0 if y is None else derivative_full_mesh(u, (y,))
        out[..., p] = 0.5 * (derivative_full_mesh(u, (x,)) - 1j * dy)
    return out


def laplacian_symbol_full_mesh(grid, alpha) -> np.ndarray:
    """Fourier symbol of v -> tr(alpha^{-1} Hess v) on the full FFT mesh.

    Written out from the wavenumbers with no Nyquist rule: -sum a_pq k_p k_q
    in real mode, -1/4 Re(w* alpha^{-1} w) with w_p = k_{x_p} - i k_{y_p} in
    complex mode.
    """
    dim = grid.n
    ainv = np.linalg.inv(np.asarray(alpha))
    ks = [grid.wavenumbers(a) for a in range(grid.stored_axes)]
    mesh = np.meshgrid(*ks, indexing="ij")
    if grid.mode == "real":
        sym = np.zeros(grid.shape)
        for p in range(dim):
            for q in range(dim):
                sym -= np.real(ainv[p, q]) * mesh[p] * mesh[q]
        return sym
    w = np.zeros(grid.shape + (dim,), dtype=complex)
    for p in range(dim):
        xp, yp = grid.axis_pair(p)
        w[..., p] = mesh[xp] - (0.0 if yp is None else 1j * mesh[yp])
    return -0.25 * np.real(np.einsum("...p,pq,...q->...", np.conj(w), ainv, w))


# ---------------------------------------------------------------------------
# each catalog kind's value, gradient, Hessian and limit, by hand


def sigma_subsets(j: int, lam, drop=()) -> np.ndarray:
    """sigma_j of the last axis of ``lam`` without the entries ``drop``, by
    subset enumeration; batched, and 0 for j < 0 or j above the entries left."""
    lam = np.asarray(lam, dtype=float)
    keep = [i for i in range(lam.shape[-1]) if i not in drop]
    out = np.zeros(lam.shape[:-1])
    if j < 0:
        return out
    for subset in itertools.combinations(keep, j):
        out = out + np.prod(lam[..., list(subset)], axis=-1)
    return out


def t_map_subsets(lam) -> np.ndarray:
    """T(lam)_m: the sum of the entries other than m, over n - 1."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    return np.stack([sigma_subsets(1, lam, (m,)) for m in range(n)], axis=-1) / (n - 1)


def _sigma_grad(j, lam):
    n = lam.shape[-1]
    return np.stack([sigma_subsets(j - 1, lam, (i,)) for i in range(n)], axis=-1)


def _sigma_hess(j, lam):
    n = lam.shape[-1]
    h = np.zeros(lam.shape + (n,))
    for i in range(n):
        for m in range(n):
            if i != m:
                h[..., i, m] = sigma_subsets(j - 2, lam, (i, m))
    return h


def _outer(g):
    return g[..., :, None] * g[..., None, :]


def _ratio_jets(l, k, lam):
    """q = sigma_l/sigma_k with its gradient and Hessian, by the quotient rule."""
    a, b = sigma_subsets(l, lam)[..., None], sigma_subsets(k, lam)[..., None]
    ag, bg = _sigma_grad(l, lam), _sigma_grad(k, lam)
    ah, bh = _sigma_hess(l, lam), _sigma_hess(k, lam)
    dq = (ag * b - a * bg) / b**2
    a, b = a[..., None], b[..., None]
    cross = ag[..., :, None] * bg[..., None, :] + ag[..., None, :] * bg[..., :, None]
    d2q = ah / b - cross / b**2 - a * bh / b**2 + 2 * a * _outer(bg) / b**3
    return (a / b)[..., 0, 0], dq, d2q


def reference_value(op, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    n = op.n
    if isinstance(op, ComposedWithT):
        return reference_value(op.inner, t_map_subsets(lam))
    if isinstance(op, MongeAmpere):
        return np.log(lam).sum(axis=-1)
    if isinstance(op, LogSigmaK):
        return np.log(sigma_subsets(op.k, lam))
    if isinstance(op, HessianQuotientNeg):
        return -(sigma_subsets(op.l, lam) / math.comb(n, op.l)) / (
            sigma_subsets(op.k, lam) / math.comb(n, op.k))
    if isinstance(op, InverseSigmaK):
        return (sigma_subsets(n, lam) / sigma_subsets(op.k, lam)) ** (1.0 / (n - op.k))
    if isinstance(op, BlendedQuotient):
        quotient = reference_value(HessianQuotientNeg(n, op.l, op.k), lam)
        return op.t * quotient - (1 - op.t) * math.comb(n, op.k) / sigma_subsets(op.k, lam)
    raise TypeError(op)


def reference_gradient(op, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    n = op.n
    if isinstance(op, ComposedWithT):
        # T is linear and symmetric: the gradient pulls back through T itself
        return t_map_subsets(reference_gradient(op.inner, t_map_subsets(lam)))
    if isinstance(op, MongeAmpere):
        return 1.0 / lam
    if isinstance(op, LogSigmaK):
        return _sigma_grad(op.k, lam) / sigma_subsets(op.k, lam)[..., None]
    if isinstance(op, HessianQuotientNeg):
        return -math.comb(n, op.k) / math.comb(n, op.l) * _ratio_jets(op.l, op.k, lam)[1]
    if isinstance(op, InverseSigmaK):
        # f = q^(1/m), q = sigma_n/sigma_k, m = n-k: f' = f q' / (m q)
        q, dq, _ = _ratio_jets(n, op.k, lam)
        return (reference_value(op, lam) / ((n - op.k) * q))[..., None] * dq
    if isinstance(op, BlendedQuotient):
        b = sigma_subsets(op.k, lam)[..., None]
        pure = math.comb(n, op.k) * _sigma_grad(op.k, lam) / b**2
        quotient = reference_gradient(HessianQuotientNeg(n, op.l, op.k), lam)
        return op.t * quotient + (1 - op.t) * pure
    raise TypeError(op)


def reference_hessian(op, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    n = op.n
    if isinstance(op, ComposedWithT):
        jac = (np.ones((n, n)) - np.eye(n)) / (n - 1)
        return jac @ reference_hessian(op.inner, t_map_subsets(lam)) @ jac
    if isinstance(op, MongeAmpere):
        h = np.zeros(lam.shape + (n,))
        h[..., range(n), range(n)] = -1.0 / lam**2
        return h
    if isinstance(op, LogSigmaK):
        s = sigma_subsets(op.k, lam)[..., None, None]
        g = _sigma_grad(op.k, lam)
        return _sigma_hess(op.k, lam) / s - _outer(g) / s**2
    if isinstance(op, HessianQuotientNeg):
        return -math.comb(n, op.k) / math.comb(n, op.l) * _ratio_jets(op.l, op.k, lam)[2]
    if isinstance(op, InverseSigmaK):
        # f'' = f / (m q) (q'' + (1/m - 1) q' q'^T / q)
        m = n - op.k
        q, dq, d2q = _ratio_jets(n, op.k, lam)
        scale = (reference_value(op, lam) / (m * q))[..., None, None]
        return scale * (d2q + (1 / m - 1) * _outer(dq) / q[..., None, None])
    if isinstance(op, BlendedQuotient):
        b = sigma_subsets(op.k, lam)[..., None, None]
        bg = _sigma_grad(op.k, lam)
        pure = math.comb(n, op.k) * (_sigma_hess(op.k, lam) / b**2 - 2 * _outer(bg) / b**3)
        quotient = reference_hessian(HessianQuotientNeg(n, op.l, op.k), lam)
        return op.t * quotient + (1 - op.t) * pure
    raise TypeError(op)


def reference_limit(op, mu_prime) -> np.ndarray:
    """lim f(mu', R) as R -> inf, per row of mu'; +inf where f grows without
    bound."""
    mu_prime = np.asarray(mu_prime, dtype=float)
    n = op.n
    if isinstance(op, ComposedWithT):
        return _reference_limit_under_t(op.inner, mu_prime.sum(axis=-1))
    if isinstance(op, (MongeAmpere, LogSigmaK)):
        return np.full(mu_prime.shape[:-1], math.inf)
    if isinstance(op, HessianQuotientNeg):
        el, ek = sigma_subsets(op.l - 1, mu_prime), sigma_subsets(op.k - 1, mu_prime)
        return -(el / math.comb(n, op.l)) / (ek / math.comb(n, op.k))
    if isinstance(op, InverseSigmaK):
        en, ek = sigma_subsets(n - 1, mu_prime), sigma_subsets(op.k - 1, mu_prime)
        return (en / ek) ** (1.0 / (n - op.k))
    if isinstance(op, BlendedQuotient):
        # the pure-Hessian part decays like 1/sigma_k -> 0
        return op.t * reference_limit(HessianQuotientNeg(n, op.l, op.k), mu_prime)
    raise TypeError(op)


def _reference_limit_under_t(inner, total):
    """The limit along T(mu', R) = T(mu', 0) + R/(n-1) (1, ..., 1, 0), where
    sigma_j has leading coefficient C(n-1, j)/(n-1)^j for j < n and
    sum(mu')/(n-1)^n at degree n-1 for j = n."""
    n = inner.n
    if isinstance(inner, (MongeAmpere, LogSigmaK)):
        return np.full(total.shape, math.inf)
    if isinstance(inner, HessianQuotientNeg):
        # degrees l and min(k, n-1) in R agree only for (l, k) = (n-1, n)
        if inner.l == n - 1:
            return -(n - 1) / (n * total)
        return np.zeros_like(total)
    if isinstance(inner, InverseSigmaK):
        # sigma_n/sigma_k grows like R^(n-1-k): finite only for k = n-1, where
        # it tends to the last entry of T(mu', 0), sum(mu')/(n-1)
        if inner.k < n - 1:
            return np.full(total.shape, math.inf)
        return total / (n - 1)
    if isinstance(inner, BlendedQuotient):
        return inner.t * _reference_limit_under_t(
            HessianQuotientNeg(n, inner.l, inner.k), total)
    raise TypeError(inner)


# ---------------------------------------------------------------------------
# F(A) = f(lambda(A)) and its derivatives in an eigenframe
#
# At A = U diag(lam) U* and Htilde = U* H U, for smooth symmetric f,
#
#     dF(A)[H]  = sum_i f_i Htilde_ii,
#     d2F(A)[H] = sum_ij f_ij Htilde_ii Htilde_jj
#                 + sum_{p != q} (f_p - f_q)/(lam_p - lam_q) |Htilde_pq|^2.
#
# The divided difference extends continuously across eigenvalue collisions;
# near one the analytic limit f_pp - f_pq replaces the cancelling quotient.

#: relative spectral-gap threshold below which the divided difference
#: switches to its analytic limit
DEGENERATE_GAP = 1e-8


def frame_product(frame, weights) -> np.ndarray:
    """U diag(w) U* for eigenframes U (..., n, n) and weights w (..., n)."""
    return np.einsum("...ip,...p,...jp->...ij", frame, weights, np.conj(frame))


def hessian_weights(d, basis) -> np.ndarray:
    """Weights w_e = Re <D, B_e> = Re sum_ij conj(B_e)_ij D_ij of the dense D,
    shape (..., n, n), against a dense basis (E, n, n).  Shape (E,) + d.shape[:-2]."""
    return np.real(np.tensordot(np.conj(basis), d, axes=((1, 2), (-2, -1))))


def matrix_sigmas(a, kmax: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """sigma_0..sigma_kmax (kmax >= 1) of the spectrum of each Hermitian matrix
    in ``a``, shape (..., n, n), stacked on a trailing axis; and the matrices
    P_0..P_{kmax-1}, P_{j-1} = d sigma_j / dA, by the Faddeev-LeVerrier
    recursion on the dense matrices (P_0 = I, sigma_j = tr(A P_{j-1}) / j,
    P_j = sigma_j I - A P_{j-1}).  P_0 is the unbatched identity."""
    a = np.asarray(a)
    eye = np.eye(a.shape[-1])
    e = np.ones(a.shape[:-2] + (kmax + 1,))
    derivatives = [eye]
    e[..., 1] = np.real(np.einsum("...ii->...", a))
    for j in range(2, kmax + 1):
        product = a if j == 2 else a @ derivatives[-1]
        derivatives.append(e[..., j - 1, None, None] * eye - product)
        e[..., j] = np.real(np.einsum("...ij,...ji->...", a, derivatives[-1])) / j
    return e, derivatives


def eigenframe_value(op, a):
    """F(A) = f(eigenvalues of A); raises ``ConeViolation`` outside the cone."""
    return op.value(eigen_decompose(a).values)


def eigenframe_first_derivative(op, a) -> np.ndarray:
    """The matrix of dF at A: U diag(grad f(lam)) U*."""
    eig = eigen_decompose(a)
    return frame_product(eig.frame, op.gradient(eig.values))


@dataclass(frozen=True)
class SecondDerivativeForm:
    """Pieces of the second derivative of F at a fixed admissible A.

    ``diag_block`` is the Hessian f_ij at the sorted eigenvalues;
    ``offdiag_weights`` holds (f_p - f_q)/(lam_p - lam_q), the analytic limit
    being substituted on nearly coincident pairs.  For concave symmetric f the
    off-diagonal weights are <= 0.
    """

    diag_block: np.ndarray
    offdiag_weights: np.ndarray


def second_derivative_form(op, lam) -> SecondDerivativeForm:
    lam = np.asarray(lam, dtype=float)
    g = op.gradient(lam, check=False)
    h = op.hessian(lam, check=False)
    dl = lam[..., :, None] - lam[..., None, :]
    df = g[..., :, None] - g[..., None, :]
    near = np.abs(dl) < DEGENERATE_GAP * (1.0 + np.abs(lam[..., :, None]))
    quotient = df / np.where(near, 1.0, dl)
    # analytic limit of the divided difference as lam_q -> lam_p
    limit = np.einsum("...ii->...i", h)[..., :, None] - h
    w = np.where(near, limit, quotient) * (1.0 - np.eye(lam.shape[-1]))
    return SecondDerivativeForm(h, w)


def eigenframe_second_form(op, a, h):
    """d2F(A)[H, H] from the eigenframe form above."""
    eig = eigen_decompose(a)
    op.value(eig.values)  # raises outside the cone
    u = eig.frame
    ht = np.einsum("...pi,...pq,...qj->...ij", np.conj(u), require_hermitian(h), u)
    form = second_derivative_form(op, eig.values)
    d = np.real(np.einsum("...ii->...i", ht))
    out = (np.einsum("...i,...ij,...j->...", d, form.diag_block, d)
           + np.einsum("...pq,...pq->...", form.offdiag_weights, np.abs(ht) ** 2))
    return out if np.ndim(out) else float(out)
