"""Numerical checks of the a priori inequalities on solved or synthetic data.

These are desk-scale verifications, not proofs: the contact-set lower bound is
integrated with finite differences on a sampled ball, the second-order /
gradient ratio is reported as a monitor without an invented constant, and the
structural concavity flags are evaluated on samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigencalc import combine, sup_operator_norm
from .operators import SymmetricOperator
from .solver import TorusProblem
from .torus import MatrixField, ScalarField, constant_metric


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class BallGrid:
    """Cartesian sampling of the unit ball plus explicit sphere samples.

    The square [-1, 1]^m is sampled with ``points_per_axis`` points per
    axis, the origin among them: from -1 in steps of the spacing for even
    counts, at the centres of the cells for odd ones.  Interior points are
    those strictly inside the ball.  Boundary values live on explicit sphere
    samples, not on grid points, so radial test functions are evaluated at
    their true boundary values.

    The grid's fixed data (open coordinates, interior mask, sphere samples and
    the ball samples of the plane test) is computed on first use, held
    read-only and shared by every function sampled on the grid; it holds no
    full-grid coordinate array.
    """

    m: int
    points_per_axis: int

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ValueError("BallGrid supports m in {1, 2, 3}")
        if self.points_per_axis < 8:
            raise ValueError("need at least 8 points per axis")

    @property
    def spacing(self) -> float:
        return 2.0 / self.points_per_axis

    def axis_coordinates(self) -> np.ndarray:
        n = self.points_per_axis
        if n % 2:
            return (2.0 * np.arange(n) + 1 - n) / n
        return -1.0 + self.spacing * np.arange(n)

    @cached_property
    def open_coordinates(self) -> tuple[np.ndarray, ...]:
        """One coordinate array per axis, shaped to broadcast against the others."""
        axes = np.meshgrid(*([self.axis_coordinates()] * self.m), indexing="ij", sparse=True)
        return tuple(_read_only(a) for a in axes)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        """Points strictly inside the ball."""
        return _read_only(sum(c**2 for c in self.open_coordinates) < 1.0)

    @cached_property
    def boundary_points(self) -> np.ndarray:
        count = 4 * self.points_per_axis
        if self.m == 1:
            return _read_only(np.array([[-1.0], [1.0]]))
        if self.m == 2:
            th = 2.0 * np.pi * np.arange(count) / count
            return _read_only(np.stack([np.cos(th), np.sin(th)], axis=1))
        idx = np.arange(count * 4)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * (idx + 0.5) / (count * 4)
        th = 2.0 * np.pi * idx / golden
        r = np.sqrt(1.0 - z**2)
        return _read_only(np.stack([r * np.cos(th), r * np.sin(th), z], axis=1))

    @cached_property
    def samples(self) -> np.ndarray:
        """(m, points): the interior grid points, then the sphere samples."""
        axis = self.axis_coordinates()
        inside = np.nonzero(self.interior_mask)
        return _read_only(np.stack([np.concatenate([axis[i], edge])
                                    for i, edge in zip(inside, self.boundary_points.T)]))

    @cached_property
    def sample_norms(self) -> np.ndarray:
        """|p| of each of ``samples``."""
        return _read_only(np.sqrt(np.einsum("ij,ij->j", self.samples, self.samples)))


@dataclass
class BallFunction:
    grid: BallGrid
    values: np.ndarray          # on the full cartesian square
    boundary_values: np.ndarray

    @staticmethod
    def from_callable(grid: BallGrid, fn) -> "BallFunction":
        """Sample ``fn(x_1, ..., x_m)`` on the grid and on its sphere samples.

        On the grid ``fn`` receives the read-only open coordinate arrays
        ``grid.open_coordinates``, which broadcast against each other, so it
        must be elementwise; its result is broadcast to the full grid.
        """
        shape = (grid.points_per_axis,) * grid.m
        vals = np.broadcast_to(np.asarray(fn(*grid.open_coordinates), dtype=float), shape)
        bvals = np.asarray(fn(*grid.boundary_points.T), dtype=float)
        return BallFunction(grid, vals.copy(), bvals)

    def center_value(self) -> float:
        center = (self.grid.points_per_axis // 2,) * self.grid.m
        return float(self.values[center])

    def gradient(self) -> list[np.ndarray]:
        g = np.gradient(self.values, self.grid.spacing)
        return [g] if self.grid.m == 1 else list(g)


@dataclass(frozen=True)
class ContactSet:
    mask: np.ndarray
    points: np.ndarray  # (count, m) coordinates

    @property
    def count(self) -> int:
        return int(self.mask.sum())


#: bytes of one block of the supporting-plane product.  On the 40 fuzz wells of
#: ``conesolve abp --grid 128`` at seeds 0 and 3 the 13 361 ball samples prune
#: to 4-33% of themselves (median 10%), so a block holds 7 to 60 candidates.
_PLANE_BLOCK_BYTES = 1 << 18


def _has_supporting_plane(v: BallFunction, grads, candidates: np.ndarray) -> np.ndarray:
    """The candidates whose tangent plane is a global lower supporting plane of
    v over the interior and boundary samples, up to a relative 1e-12 slack.

    The plane of slope g through (x, v(x)) supports v iff
    min_p (v(p) - p.g) >= v(x) - x.g: the left side is the discrete Legendre
    transform of the samples at g, one row of the product of the candidates'
    [-g, 1] rows with the lifted samples [p, v(p)], taken a block at a time.

    Only samples that could refute some plane enter the product: with G the
    largest candidate slope |g|, sample p is kept iff
    v(p) - |p| G < max(offsets) + slack.  The pruning is exact, since a dropped
    sample has v(p) - p.g >= v(p) - |p| G >= max(offsets) + slack for every
    candidate g, above every candidate's offset - slack; the margin keeps each
    candidate's own sample, so at least one sample is always kept.
    """
    mask = np.zeros(candidates.shape, dtype=bool)
    flat = np.flatnonzero(candidates)
    if not flat.size:
        return mask
    grid = v.grid
    heights = np.concatenate([v.values[grid.interior_mask], v.boundary_values])
    slack = 1e-12 * (1.0 + float(np.abs(heights).max()))
    planes = np.stack([-g.ravel()[flat] for g in grads] + [np.ones(flat.size)], axis=1)
    axis = grid.axis_coordinates()
    lifted_x = np.column_stack([axis[i] for i in np.unravel_index(flat, candidates.shape)]
                               + [v.values.ravel()[flat]])
    offsets = np.einsum("ij,ij->i", planes, lifted_x)
    slope = float(np.sqrt(np.einsum("ij,ij->i", planes[:, :-1], planes[:, :-1]).max()))
    keep = heights - slope * grid.sample_norms < offsets.max() + slack
    lifted = np.vstack([grid.samples[:, keep], heights[keep]])  # (m + 1, kept samples)
    chunk = max(1, _PLANE_BLOCK_BYTES // lifted[0].nbytes)
    block = np.empty((min(chunk, len(planes)), lifted.shape[1]))
    legendre = np.empty(len(planes))
    for lo in range(0, len(planes), chunk):
        rows = planes[lo:lo + chunk]
        products = np.matmul(rows, lifted, out=block[:len(rows)])
        legendre[lo:lo + len(rows)] = products.min(axis=1)
    mask.ravel()[flat] = legendre >= offsets - slack
    return mask


def _check_preconditions(v: BallFunction, epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not (np.isfinite(v.values).all() and np.isfinite(v.boundary_values).all()):
        raise ValueError("the grid and sphere samples must be finite")
    if v.center_value() + epsilon > float(v.boundary_values.min()) + 1e-12:
        raise ValueError("precondition failed: v(0) + epsilon must not exceed boundary values")


def contact_set(v: BallFunction, epsilon: float) -> ContactSet:
    """Points carrying a global lower supporting plane with |gradient| < eps/2."""
    _check_preconditions(v, epsilon)
    grads = v.gradient()
    grad_norm = np.sqrt(sum(g**2 for g in grads))
    candidates = v.grid.interior_mask & (grad_norm < 0.5 * epsilon)
    mask = _has_supporting_plane(v, grads, candidates)
    return ContactSet(mask, v.grid.axis_coordinates()[np.argwhere(mask)])


@dataclass(frozen=True)
class AbpReport:
    epsilon: float
    contact_volume_fraction: float
    integral_det: float
    lower_bound: float
    passed: bool


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


#: relative slack in the pass predicate.  The continuum inequality is an
#: identity (the gradient image of the contact set is exactly the ball of
#: radius eps/2, counted once), so the discrete comparison can only be made
#: up to quadrature error; 5% covers the fuzz wells at 64^2, but not every well
#: at 128^2: seed 3's fuzz_32, a few contact islands, reads 0.888 of the bound.
ABP_GRID_TOLERANCE = 0.05


def _second_differences(grads, h: float, band: np.ndarray) -> list[list[np.ndarray]]:
    """``np.gradient``'s differences of the gradient (centred inside the square,
    one-sided on its faces) at the flat indices ``band``, symmetrized: entry
    [i][j] is 0.5 (d_j g_i + d_i g_j), and on the diagonal d_i g_i."""
    m, n = len(grads), grads[0].shape[0]
    steps = []
    for j in range(m):
        stride = n ** (m - 1 - j)
        at = band // stride % n
        steps.append((band + stride * (at < n - 1), band - stride * (at > 0),
                      np.where((at > 0) & (at < n - 1), 2. * h, h)))
    rows = [[(g.ravel()[hi] - g.ravel()[lo]) / scale for hi, lo, scale in steps] for g in grads]
    return [[rows[i][i] if i == j else 0.5 * (rows[i][j] + rows[j][i]) for j in range(m)]
            for i in range(m)]


def abp_check(v: BallFunction, epsilon: float) -> AbpReport:
    """Contact-set lower bound: c0 * eps^m <= integral over P of det(D^2 v).

    c0 is the unit-ball volume over 2^m, the constant realized by the
    gradient-image argument (the ball of radius eps/2 lies inside the
    gradient image of the contact set).  The Hessian determinant is
    integrated with centered finite differences; cells straddling the
    |grad v| = eps/2 boundary enter with a first-order antialiased weight,
    and the pass predicate allows ABP_GRID_TOLERANCE of relative slack.

    Only the band of interior points with |grad v| <= eps/2 + m D / 2 is
    weighed, D (``jump``) the largest difference of a gradient component
    between grid neighbours.  A positive weight needs |grad v| < eps/2 +
    h rate / 2, every second difference is at most D / h, and so the rate
    |u.H u| <= max|H_ij| (sum |u_i|)^2 <= m D / h for a unit u.  The factor
    1 + 1e-12 covers the rate's few dozen roundings, 1e-300 the weight's floor
    and 1e-150 the points whose |grad v| underflows when squared.
    """
    _check_preconditions(v, epsilon)
    grid = v.grid
    m = grid.m
    h = grid.spacing
    grads = v.gradient()
    gnorm = np.sqrt(sum(g**2 for g in grads))
    jump = max(max(d.max(), -d.min())
               for d in (np.diff(g, axis=j) for g in grads for j in range(m)))
    reach = 0.5 * max(m * jump * (1.0 + 1e-12), 1e-300)
    band = np.flatnonzero(grid.interior_mask & (gnorm <= max(0.5 * epsilon + reach, 1e-150)))
    hess = _second_differences(grads, h, band)
    norm = gnorm.ravel()[band]
    # spatial rate of change of |grad v| along its own direction
    floor = np.maximum(norm, 1e-300)
    gdir = [g.ravel()[band] / floor for g in grads]
    rate = np.abs(sum(hess[i][j] * gdir[i] * gdir[j] for i in range(m) for j in range(m)))
    weight = np.clip(0.5 + (0.5 * epsilon - norm) / np.maximum(rate * h, 1e-300), 0.0, 1.0)
    candidates = np.zeros(gnorm.shape, dtype=bool)
    candidates.ravel()[band] = weight > 0.0
    kept = _has_supporting_plane(v, grads, candidates).ravel()[band]

    cell = h**m
    dets = np.linalg.det(np.stack([np.stack([hij[kept] for hij in row], axis=-1)
                                   for row in hess], axis=-2))
    integral_det = float((dets * weight[kept]).sum() * cell)
    c0 = unit_ball_volume(m) / 2.0**m
    lower = c0 * epsilon**m
    # summed over the whole grid: pairwise summation's bits follow the array
    full = np.zeros(gnorm.shape)
    full.ravel()[band[kept]] = weight[kept]
    fraction = float(full.sum()) * cell / unit_ball_volume(m)
    passed = integral_det >= lower * (1.0 - ABP_GRID_TOLERANCE)
    return AbpReport(epsilon, fraction, integral_det, lower, passed)


def abp_quadratic_case(grid: BallGrid) -> dict:
    """``abp_check``'s closed-form case on the 2-d ``grid``, as a report record:
    v = 0.4 |x|^2 and epsilon = 0.4 give the integral 0.04 pi."""
    rep = abp_check(BallFunction.from_callable(grid, lambda x, y: 0.4 * (x**2 + y**2)), 0.4)
    derived = 0.04 * np.pi
    return {"case": "quadratic", "integral_det": rep.integral_det, "derived": derived,
            "relative_error": abs(rep.integral_det - derived) / derived, "passed": rep.passed}


def fuzz_wells(grid: BallGrid, rng: np.random.Generator):
    """Perturbed quadratic wells on the 2-d ``grid``, drawn from ``rng`` without
    end, each with its samples and epsilon = min(0.45, 0.9 * room); a draw is
    kept when its room, least boundary value minus centre value, is over 0.1."""
    while True:
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(-0.2, 0.2, 2)
        amp = rng.uniform(0.0, 0.05)
        kx, ky = rng.integers(1, 4, 2)

        def fn(x, y, a=a, b=b, amp=amp, kx=kx, ky=ky):
            return a * ((x - b[0])**2 + (y - b[1])**2) + amp * np.sin(
                np.pi * kx * x) * np.cos(np.pi * ky * (y + 0.3))

        v = BallFunction.from_callable(grid, fn)
        room = float(v.boundary_values.min() - v.center_value())
        if room > 0.1:
            yield fn, v, min(0.45, 0.9 * room)


@dataclass(frozen=True)
class HmwReport:
    """Second-order/gradient monitor with the test-function parameters.

    ``ratio`` = sup |dd u| / (1 + sup |grad u|^2); the comparison constant in
    the underlying estimate depends on the subsolution and is not computable,
    so only the ratio is reported, never a pass/fail.
    """

    sup_dd_u: float
    sup_grad_sq: float
    ratio: float
    phi_params: dict
    psi_params: dict


#: the constant A of the test function psi recorded by ``hmw_ratio``
HMW_PSI_A = 1.0


def hmw_ratio(problem: TorusProblem, u: ScalarField, comps: np.ndarray,
              gradient: np.ndarray) -> HmwReport:
    """The monitor of u on the problem's complex grid, in its held frame, from
    u's Hessian components c_e(u), ``comps``, and its real derivatives d_a u
    along the stored axes, ``gradient`` (``torus.spectral_gradient``).

    |dd u|_alpha is the operator norm of sum_e c_e(u) B_e (``problem.basis``),
    read from the rows.  |du|^2_alpha = |L^{-1} du|^2 (alpha = L L*,
    ``problem.root_inverse``) for du = (u_p), u_p = (d_x - i d_y) u / 2, is the
    real quadratic form d^T Q d with Q = Re(W* W), W = L^{-1} P, where P maps
    the stored axes' derivatives to the u_p; a reduced grid has no y axes."""
    grid = u.grid
    if grid.mode != "complex":
        raise ValueError("the second-order/gradient monitor applies in complex mode")
    sup_dd = sup_operator_norm(combine(problem.basis, comps), problem.packing)
    p = np.zeros((grid.n, grid.stored_axes), dtype=complex)
    for j in range(grid.n):
        x, y = grid.axis_pair(j)
        p[j, x] = 0.5
        if y is not None:
            p[j, y] = -0.5j
    w = np.einsum("ab,bc->ac", problem.root_inverse, p)
    q = np.real(np.einsum("ba,bc->ac", np.conj(w), w))
    sup_grad_sq = float(np.einsum("a...,a...->...", gradient, combine(q, gradient)).max())
    big_k = sup_grad_sq + 1.0
    spread = float(u.values.max() - u.values.min())
    tau = 1.0 / (1.0 + spread)
    return HmwReport(
        sup_dd_u=sup_dd,
        sup_grad_sq=sup_grad_sq,
        ratio=sup_dd / (1.0 + sup_grad_sq),
        phi_params={"K": big_k, "phi_prime_low": 1.0 / (4.0 * big_k),
                    "phi_prime_high": 1.0 / (2.0 * big_k)},
        psi_params={"A": HMW_PSI_A, "tau": tau},
    )


@dataclass(frozen=True)
class TraceEstimate:
    c_fit: float
    threshold: float
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def trace_estimate_check(u: ScalarField, g: MatrixField, alpha, a_const: float,
                         threshold: float) -> TraceEstimate:
    """Fit the smallest C with tr_alpha(g) <= C exp(A (u - inf u)) pointwise.
    ``alpha`` is read as ``torus.constant_metric`` reads it, and checked."""
    alpha = constant_metric(alpha, g.dim)
    tr = np.real(np.einsum("ab,...ba->...", np.linalg.inv(alpha), g.values))
    shifted = u.values - u.values.min()
    c_fit = float((tr * np.exp(-a_const * shifted)).max())
    return TraceEstimate(c_fit, threshold, c_fit <= threshold)


def strong_concavity_flags(op: SymmetricOperator, lambda_samples) -> tuple[bool, bool]:
    """Evaluate the two strengthened concavity conditions on sorted samples.

    With lam sorted descending (lam_1 largest):
      (a)  f_11 + f_1 / lam_1 <= 0,
      (b)  lam_1 f_1 <= lam_i f_i for all i.
    Returns the AND over all samples per condition.
    """
    lam = np.atleast_2d(np.asarray(lambda_samples, dtype=float))
    if lam.size == 0:
        raise ValueError("lambda_samples must be non-empty")
    lam = -np.sort(-lam, axis=-1)
    g = op.gradient(lam)
    h = op.hessian(lam)
    tol = 1e-12 * (1.0 + np.abs(g).max() + np.abs(h).max())
    cond_a = bool(np.all(h[..., 0, 0] + g[..., 0] / lam[..., 0] <= tol))
    prods = lam * g
    cond_b = bool(np.all(prods[..., :1] <= prods + tol))
    return cond_a, cond_b
