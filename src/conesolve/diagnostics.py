"""Numerical checks of the a priori inequalities on solved or synthetic data.

These are desk-scale verifications, not proofs: the contact-set lower bound is
integrated with finite differences on a sampled ball, the second-order /
gradient ratio is reported as a monitor without an invented constant, and the
structural concavity flags are evaluated on samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import SymmetricOperator
from .torus import (
    MatrixField,
    ScalarField,
    complex_gradient,
    metric_hessian,
    metric_root_inverse,
    sup_operator_norm,
)


@dataclass(frozen=True)
class BallGrid:
    """Cartesian sampling of the unit ball plus explicit sphere samples.

    The square [-radius, radius)^m is sampled with ``points_per_axis`` points
    per axis (origin on the grid for even counts); interior points are those
    strictly inside the ball.  Boundary values live on explicit sphere
    samples, not on grid points, so radial test functions are evaluated at
    their true boundary values.
    """

    m: int
    points_per_axis: int
    radius: float = 1.0

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ValueError("BallGrid supports m in {1, 2, 3}")
        if self.points_per_axis < 8:
            raise ValueError("need at least 8 points per axis")

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.points_per_axis

    def axis_coordinates(self) -> np.ndarray:
        return -self.radius + self.spacing * np.arange(self.points_per_axis)

    def coordinates(self) -> list[np.ndarray]:
        ax = self.axis_coordinates()
        return list(np.meshgrid(*([ax] * self.m), indexing="ij"))

    def interior_mask(self, coords=None) -> np.ndarray:
        """Points strictly inside the ball; ``coords`` reuses a ``coordinates()``."""
        rr = sum(c**2 for c in (self.coordinates() if coords is None else coords))
        return rr < self.radius**2

    def boundary_points(self) -> np.ndarray:
        count = 4 * self.points_per_axis
        if self.m == 1:
            return np.array([[-self.radius], [self.radius]])
        if self.m == 2:
            th = 2.0 * np.pi * np.arange(count) / count
            return self.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        idx = np.arange(count * 4)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * (idx + 0.5) / (count * 4)
        th = 2.0 * np.pi * idx / golden
        r = np.sqrt(1.0 - z**2)
        return self.radius * np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


@dataclass
class BallFunction:
    grid: BallGrid
    values: np.ndarray          # on the full cartesian square
    boundary_values: np.ndarray

    @staticmethod
    def from_callable(grid: BallGrid, fn) -> "BallFunction":
        coords = grid.coordinates()
        vals = np.asarray(fn(*coords), dtype=float)
        bpts = grid.boundary_points()
        bvals = np.asarray(fn(*[bpts[:, a] for a in range(grid.m)]), dtype=float)
        return BallFunction(grid, vals, bvals)

    def center_value(self) -> float:
        center = (self.grid.points_per_axis // 2,) * self.grid.m
        return float(self.values[center])

    def gradient(self) -> list[np.ndarray]:
        g = np.gradient(self.values, self.grid.spacing)
        return [g] if self.grid.m == 1 else list(g)

    def fd_hessian(self, grads=None) -> np.ndarray:
        """Centered second differences; ``grads`` reuses a ``gradient()``."""
        g = self.gradient() if grads is None else grads
        m = self.grid.m
        hess = np.zeros(self.values.shape + (m, m))
        for i in range(m):
            gi = np.gradient(g[i], self.grid.spacing)
            for j in range(m):
                hess[..., i, j] = gi[j] if m > 1 else gi
        return 0.5 * (hess + np.swapaxes(hess, -1, -2))


@dataclass(frozen=True)
class ContactSet:
    mask: np.ndarray
    points: np.ndarray  # (count, m) coordinates

    @property
    def count(self) -> int:
        return int(self.mask.sum())


#: bytes of one block of the supporting-plane product: 2 candidates against
#: the ~13.4k test points of a 128^2 ball.  Twice this budget runs no faster
#: and raises the peak RSS of ``conesolve abp --grid 128`` by about 0.5 MB.
_PLANE_BLOCK_BYTES = 1 << 18


def _has_supporting_plane(v: BallFunction, grads, candidates: np.ndarray,
                          interior: np.ndarray, coords) -> np.ndarray:
    """The candidates whose tangent plane is a global lower supporting plane of
    v over the interior and boundary samples, up to a relative 1e-12 slack.

    The plane of slope g through (x, v(x)) supports v iff
    min_p (v(p) - p.g) >= v(x) - x.g: the left side is the discrete Legendre
    transform of the samples at g, one row of the product of the candidates'
    [-g, 1] rows with the lifted samples [p, v(p)], taken a block at a time.
    """
    fields = list(coords) + [v.values]
    edges = list(v.grid.boundary_points().T) + [v.boundary_values]
    lifted = np.empty((len(fields), int(interior.sum()) + len(edges[0])))  # (m + 1, points)
    for row, field, edge in zip(lifted, fields, edges):
        np.concatenate([field[interior], edge], out=row)
    slack = 1e-12 * (1.0 + float(np.abs(lifted[-1]).max()))
    planes = np.stack([-g[candidates] for g in grads] + [np.ones(int(candidates.sum()))],
                      axis=1)
    lifted_x = np.stack([c[candidates] for c in coords] + [v.values[candidates]], axis=1)
    offsets = np.einsum("ij,ij->i", planes, lifted_x)
    chunk = max(1, _PLANE_BLOCK_BYTES // lifted[0].nbytes)
    block = np.empty((min(chunk, len(planes)), lifted.shape[1]))
    legendre = np.empty(len(planes))
    for lo in range(0, len(planes), chunk):
        rows = planes[lo:lo + chunk]
        products = np.matmul(rows, lifted, out=block[:len(rows)])
        legendre[lo:lo + len(rows)] = products.min(axis=1)
    mask = np.zeros_like(candidates)
    mask[candidates] = legendre >= offsets - slack
    return mask


def _check_preconditions(v: BallFunction, epsilon: float) -> None:
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if v.center_value() + epsilon > float(v.boundary_values.min()) + 1e-12:
        raise ValueError("precondition failed: v(0) + epsilon must not exceed boundary values")


def contact_set(v: BallFunction, epsilon: float) -> ContactSet:
    """Points carrying a global lower supporting plane with |gradient| < eps/2."""
    _check_preconditions(v, epsilon)
    grid = v.grid
    coords = grid.coordinates()
    interior = grid.interior_mask(coords)
    grads = v.gradient()
    grad_norm = np.sqrt(sum(g**2 for g in grads))
    candidates = interior & (grad_norm < 0.5 * epsilon)

    mask = _has_supporting_plane(v, grads, candidates, interior, coords)
    pts = np.stack([coords[a][mask] for a in range(grid.m)], axis=1) if mask.any() \
        else np.zeros((0, grid.m))
    return ContactSet(mask, pts)


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
#: up to quadrature error; 5% covers it comfortably at 64^2.
ABP_GRID_TOLERANCE = 0.05


def abp_check(v: BallFunction, epsilon: float) -> AbpReport:
    """Contact-set lower bound: c0 * eps^m <= integral over P of det(D^2 v).

    c0 is the unit-ball volume over 2^m, the constant realized by the
    gradient-image argument (the ball of radius eps/2 lies inside the
    gradient image of the contact set).  The Hessian determinant is
    integrated with centered finite differences; cells straddling the
    |grad v| = eps/2 boundary enter with a first-order antialiased weight,
    and the pass predicate allows ABP_GRID_TOLERANCE of relative slack.
    """
    _check_preconditions(v, epsilon)
    grid = v.grid
    m = grid.m
    h = grid.spacing
    coords = grid.coordinates()
    interior = grid.interior_mask(coords)
    grads = v.gradient()
    gnorm = np.sqrt(sum(g**2 for g in grads))
    hess = v.fd_hessian(grads)
    # spatial rate of change of |grad v| along its own direction
    gdir = np.stack(grads, axis=-1) / np.maximum(gnorm, 1e-300)[..., None]
    rate = np.abs(np.einsum("...ij,...i,...j->...", hess, gdir, gdir))
    weight = np.clip(0.5 + (0.5 * epsilon - gnorm) / np.maximum(rate * h, 1e-300), 0.0, 1.0)
    weight[~interior] = 0.0
    candidates = weight > 0.0
    weight[~_has_supporting_plane(v, grads, candidates, interior, coords)] = 0.0

    cell = h**m
    dets = np.linalg.det(hess[weight > 0]) if candidates.any() else np.zeros(0)
    integral_det = float((dets * weight[weight > 0]).sum() * cell)
    c0 = unit_ball_volume(m) / 2.0**m
    lower = c0 * epsilon**m
    fraction = float(weight.sum()) * cell / (unit_ball_volume(m) * grid.radius**m)
    passed = integral_det >= lower * (1.0 - ABP_GRID_TOLERANCE)
    return AbpReport(epsilon, fraction, integral_det, lower, passed)


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


def hmw_ratio(u: ScalarField, alpha) -> HmwReport:
    if u.grid.mode != "complex":
        raise ValueError("the second-order/gradient monitor applies in complex mode")
    sup_dd = sup_operator_norm(metric_hessian(u, alpha).values)
    grad = complex_gradient(u)
    w = np.einsum("ab,...b->...a", metric_root_inverse(alpha, u.grid.n), grad)
    grad_sq = np.real(np.einsum("...a,...a->...", np.conj(w), w))
    sup_grad_sq = float(grad_sq.max())
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
    """Fit the smallest C with tr_alpha(g) <= C exp(A (u - inf u)) pointwise."""
    ainv = np.linalg.inv(np.asarray(alpha, dtype=complex)
                         if np.iscomplexobj(g.values) else np.asarray(alpha, dtype=float))
    tr = np.real(np.einsum("ab,...ba->...", ainv, g.values))
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
