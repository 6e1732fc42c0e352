"""Uniform periodic grids on flat tori with trigonometric-spectral calculus.

Complex mode discretizes C^n / lattice: complex coordinate z_j = x_j + i*y_j
maps to the stored real axis pair (2j, 2j+1).  A grid may instead be
``reduced``, storing only the x_j axes; fields are then constant along every
y_j, all y-derivatives vanish identically, and the complex Hessian collapses
to a quarter of the real one.  This torus-invariant slice is what makes
three-complex-dimensional problems desk sized.

Real mode discretizes R^m / Z^m-type tori directly; the Hessian is the full
real one (covariant and coordinate Hessians agree on a flat torus).

Convention: the mixed complex Hessian is

    u_{i jbar} = 1/4 ( d_{x_i x_j} + d_{y_i y_j} + i (d_{x_i y_j} - d_{y_i x_j}) ) u

so that u = |z|^2 has u_{i jbar} = delta_ij.

Field I/O is a flat binary of 8-byte little-endian reals plus a JSON sidecar;
complex data is stored as interleaved (real, imag) pairs.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cones import sigma_all
from .eigencalc import hermitian_defect, require_hermitian


class DegenerateClassError(ValueError):
    """The denominator class integral is not positive."""


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid over a flat torus.

    ``n`` is the complex dimension in complex mode, the real dimension in
    real mode.  ``periods`` has one entry per stored axis.
    """

    mode: str
    n: int
    points_per_axis: int
    periods: tuple[float, ...]
    reduced: bool = False

    def __post_init__(self):
        if self.mode not in ("complex", "real"):
            raise ValueError(f"mode must be 'complex' or 'real', got {self.mode!r}")
        if self.mode == "real" and self.reduced:
            raise ValueError("reduced storage applies to complex mode only")
        if self.points_per_axis < 4 or self.points_per_axis % 2:
            raise ValueError("points_per_axis must be even and >= 4")
        if len(self.periods) != self.stored_axes:
            raise ValueError(
                f"need {self.stored_axes} periods, got {len(self.periods)}"
            )
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")

    @staticmethod
    def make(mode: str, n: int, points_per_axis: int,
             periods: float | tuple[float, ...] = 1.0, reduced: bool = False) -> "PeriodicGrid":
        axes = n if (mode == "real" or reduced) else 2 * n
        if np.isscalar(periods):
            periods = (float(periods),) * axes
        return PeriodicGrid(mode, n, points_per_axis, tuple(periods), reduced)

    @property
    def stored_axes(self) -> int:
        if self.mode == "real" or self.reduced:
            return self.n
        return 2 * self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.stored_axes

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / self.points_per_axis for p in self.periods)

    @property
    def volume(self) -> float:
        return float(np.prod(self.periods))

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid coordinate arrays, one per stored axis."""
        axes_1d = [
            np.arange(self.points_per_axis) * h for h in self.spacings
        ]
        return list(np.meshgrid(*axes_1d, indexing="ij"))

    def wavenumbers(self, axis: int) -> np.ndarray:
        ng = self.points_per_axis
        return 2.0 * np.pi * np.fft.fftfreq(ng, d=self.spacings[axis])

    def axis_pair(self, j: int) -> tuple[int, int | None]:
        """Stored axes (x_j, y_j) of complex coordinate j; y is None if reduced."""
        if self.mode != "complex":
            raise ValueError("axis_pair applies to complex mode")
        if self.reduced:
            return j, None
        return 2 * j, 2 * j + 1


@dataclass
class ScalarField:
    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @staticmethod
    def zeros(grid: PeriodicGrid) -> "ScalarField":
        return ScalarField(grid, np.zeros(grid.shape))

    @staticmethod
    def constant(grid: PeriodicGrid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.shape, float(value)))

    def mean(self) -> float:
        return float(self.values.mean())

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class MatrixField:
    """Pointwise Hermitian (complex mode) or symmetric (real mode) matrices."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        d = self.values.shape[-1]
        if self.values.shape != self.grid.shape + (d, d):
            raise ValueError("matrix field values must have shape grid.shape + (d, d)")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @staticmethod
    def constant(grid: PeriodicGrid, matrix) -> "MatrixField":
        matrix = np.asarray(matrix)
        vals = np.broadcast_to(matrix, grid.shape + matrix.shape).copy()
        return MatrixField(grid, vals)

    def hermitian_defect(self) -> float:
        return hermitian_defect(self.values)


def derivative(f: ScalarField, axes) -> ScalarField:
    """Spectral derivative of the trigonometric interpolant along stored axes.

    ``axes`` is a stored-axis index or a sequence of them; repeats mean higher
    order.  The Nyquist mode is zeroed on axes differentiated an odd number of
    times.
    """
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
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
    return ScalarField(grid, np.real(np.fft.ifftn(spec)))


def _second_derivative_symbol(grid: PeriodicGrid, ax_a: int | None,
                              ax_b: int | None) -> np.ndarray | float:
    """Symbol of d_a d_b on the rfftn half spectrum, broadcastable to it.

    Follows ``derivative``'s Nyquist rule: the Nyquist mode is zeroed on an
    axis differentiated once, kept on an axis differentiated twice.  An axis
    of None (a y axis of a reduced grid) gives the symbol 0.
    """
    if ax_a is None or ax_b is None:
        return 0.0
    ng = grid.points_per_axis
    last = grid.stored_axes - 1

    def wavenumbers(ax: int) -> np.ndarray:
        k = grid.wavenumbers(ax)
        if ax_a != ax_b:
            k = k.copy()
            k[ng // 2] = 0.0
        if ax == last:
            k = k[: ng // 2 + 1]
        shape = [1] * grid.stored_axes
        shape[ax] = k.size
        return k.reshape(shape)

    return -wavenumbers(ax_a) * wavenumbers(ax_b)


@dataclass(frozen=True, eq=False)
class HessianSymbols:
    """The mode's Hessian as real components, each with its half-spectrum symbol.

    ``components`` lists the upper triangle as (i, j, imaginary): the real
    part of H_ij, and for i < j on a full complex grid its imaginary part too
    (a reduced grid has none).  ``symbols`` stacks their symbols on the rfftn
    half spectrum, shape ``(len(components),) + half spectrum``, read-only.
    """

    components: tuple[tuple[int, int, bool], ...]
    symbols: np.ndarray


@functools.lru_cache(maxsize=16)
def hessian_symbols(grid: PeriodicGrid) -> HessianSymbols:
    """The grid's Hessian symbol table, built once per grid."""
    entries = []
    for i in range(grid.n):
        for j in range(i, grid.n):
            if grid.mode == "real":
                entries.append(((i, j, False), _second_derivative_symbol(grid, i, j)))
                continue
            xi, yi = grid.axis_pair(i)
            xj, yj = grid.axis_pair(j)
            entries.append(((i, j, False), 0.25 * (_second_derivative_symbol(grid, xi, xj)
                                                   + _second_derivative_symbol(grid, yi, yj))))
            if not grid.reduced and i != j:
                entries.append(((i, j, True), 0.25 * (_second_derivative_symbol(grid, xi, yj)
                                                      - _second_derivative_symbol(grid, yi, xj))))
    half = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    symbols = np.stack([np.broadcast_to(sym, half) for _, sym in entries])
    symbols.setflags(write=False)
    return HessianSymbols(tuple(c for c, _ in entries), symbols)


def hessian_components(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The Hessian's components (``hessian_symbols(grid).components``) of the
    field ``values``: one forward rfftn and one batched irfftn, shape
    ``(len(components),) + grid.shape``."""
    spec = np.fft.rfftn(values)
    axes = tuple(range(1, grid.stored_axes + 1))
    return np.fft.irfftn(spec * hessian_symbols(grid).symbols, s=grid.shape, axes=axes)


def hessian_weights(d: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Weights w with <D, Hess v> = sum_e w_e * (component e of Hess v).

    ``d`` has shape (..., n, n); the pairing is ``eigencalc.contract``'s
    Re sum_ij D_ij conj(H_ij).  For Hermitian D the weights are D_ii,
    2 Re D_ij and 2 Im D_ij; they are formed from both triangles of D, so
    they equal the pairing's own sum.  Shape ``(len(components),) + d.shape[:-2]``.
    """
    comps = hessian_symbols(grid).components
    out = np.empty((len(comps),) + d.shape[:-2])
    for e, (i, j, imaginary) in enumerate(comps):
        if i == j:
            out[e] = np.real(d[..., i, i])
        elif imaginary:
            out[e] = np.imag(d[..., i, j] - d[..., j, i])
        else:
            out[e] = np.real(d[..., i, j] + d[..., j, i])
    return out


def hessian(u: ScalarField) -> MatrixField:
    """The mode's Hessian field: mixed complex (1/4 convention) or full real."""
    grid = u.grid
    dtype = complex if grid.mode == "complex" and not grid.reduced else float
    out = np.zeros(grid.shape + (grid.n, grid.n), dtype=dtype)
    components = hessian_symbols(grid).components
    for (i, j, imaginary), d2 in zip(components, hessian_components(u.values, grid)):
        if imaginary:
            out.imag[..., i, j] = d2
            out.imag[..., j, i] = -d2
        else:
            out.real[..., i, j] = d2
            out.real[..., j, i] = d2
    return MatrixField(grid, out)


def complex_hessian(u: ScalarField) -> MatrixField:
    """The mixed complex Hessian u_{i jbar} in the 1/4 convention."""
    if u.grid.mode != "complex":
        raise ValueError("complex_hessian requires a complex-mode grid")
    return hessian(u)


def real_hessian(u: ScalarField) -> MatrixField:
    if u.grid.mode != "real":
        raise ValueError("real_hessian requires a real-mode grid")
    return hessian(u)


def complex_gradient(u: ScalarField) -> np.ndarray:
    """Holomorphic derivatives u_p = (d_x - i d_y) u / 2, shape grid + (n,)."""
    grid = u.grid
    if grid.mode != "complex":
        raise ValueError("complex_gradient requires a complex-mode grid")
    out = np.zeros(grid.shape + (grid.n,), dtype=complex)
    for p in range(grid.n):
        xp, yp = grid.axis_pair(p)
        dx = derivative(u, xp).values
        dy = derivative(u, yp).values if yp is not None else 0.0
        out[..., p] = 0.5 * (dx - 1j * dy)
    return out


def _as_matrix(alpha, dim: int) -> np.ndarray:
    """Accept a constant matrix or a constant MatrixField for the metric."""
    if isinstance(alpha, MatrixField):
        vals = alpha.values.reshape(-1, alpha.dim, alpha.dim)
        if np.abs(vals - vals[0]).max() > 1e-12 * (1.0 + np.abs(vals[0]).max()):
            raise ValueError("the background metric must be constant on the grid")
        alpha = vals[0]
    alpha = np.asarray(alpha)
    if alpha.shape != (dim, dim):
        raise ValueError(f"metric must be {dim}x{dim}")
    require_hermitian(alpha)
    try:
        np.linalg.cholesky(alpha)
    except np.linalg.LinAlgError:
        raise ValueError("metric must be positive definite") from None
    return alpha


def metric_root_inverse(alpha, dim: int) -> np.ndarray:
    """L^{-1} for the Cholesky factor alpha = L L*."""
    return np.linalg.inv(np.linalg.cholesky(_as_matrix(alpha, dim)))


def congruence(l: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L g L* for a constant d x d matrix L and matrices g of shape (..., d, d).

    One matrix product: the (points, d*d) view of g times kron(L, conj L)^T.
    """
    d = l.shape[-1]
    flat = np.reshape(g, (-1, d * d)) @ np.kron(l, np.conj(l)).T
    return flat.reshape(np.shape(g))


def endomorphism_field(alpha, chi: MatrixField, u: ScalarField | None = None) -> MatrixField:
    """A = alpha^{-1} (chi + Hess u), in alpha-orthonormalized coordinates.

    Returned as L^{-1} (chi + Hess u) L^{-*} with alpha = L L*, which is
    literally Hermitian/symmetric and has the same eigenvalues as
    alpha^{-1} (chi + Hess u).
    """
    grid = chi.grid
    g = chi.values
    if u is not None:
        if u.grid is not grid and u.grid != grid:
            raise ValueError("fields must share one grid")
        g = g + hessian(u).values
    linv = metric_root_inverse(alpha, chi.dim)
    return MatrixField(grid, congruence(linv, g))


def integral(f: ScalarField, weight: ScalarField | None = None) -> float:
    """Torus integral: the grid mean times the represented volume.

    On a periodic grid the mean is the trapezoidal rule and is exact for
    trigonometric polynomials resolved by the grid.
    """
    vals = f.values
    if weight is not None:
        if weight.grid != f.grid:
            raise ValueError("fields must share one grid")
        vals = vals * weight.values
    return float(vals.mean()) * f.grid.volume


def form_ratio(chi: MatrixField, alpha, j: int) -> ScalarField:
    """Pointwise sigma_j(eigenvalues of alpha^{-1} chi) / C(n, j).

    Normalized so chi = alpha gives the constant 1; this is the pointwise
    density of the degree-j wedge combination of chi against the background.
    """
    return _form_ratios(chi, alpha, (j,))[0]


def _form_ratios(chi: MatrixField, alpha, degrees) -> list[ScalarField]:
    """``form_ratio`` at each of ``degrees``, from one eigensolve."""
    n = chi.dim
    for j in degrees:
        if not 0 <= j <= n:
            raise ValueError(f"j must be in 0..{n}, got {j}")
    lam = np.linalg.eigvalsh(endomorphism_field(alpha, chi).values)
    e = sigma_all(lam, max(degrees))
    return [ScalarField(chi.grid, e[..., j] / math.comb(n, j)) for j in degrees]


def compute_c(chi: MatrixField, alpha, l: int, k: int) -> float:
    """The class constant: ratio of integrated degree-l and degree-k densities."""
    num, den = (integral(ratio) for ratio in _form_ratios(chi, alpha, (l, k)))
    if den <= 0:
        raise DegenerateClassError(f"degree-{k} class integral is {den:.6g}, not positive")
    return num / den


def nminus1_background(eta: MatrixField, alpha) -> MatrixField:
    """chi = (tr_alpha eta) alpha - (n-1) eta, the background for T-composed operators.

    Satisfies T(lambda(alpha^{-1} chi)) = lambda(alpha^{-1} eta) up to ordering.
    """
    n = eta.dim
    if n < 2:
        raise ValueError("nminus1_background requires n >= 2")
    a = _as_matrix(alpha, n)
    ainv = np.linalg.inv(a)
    tr = np.real(np.einsum("ab,...ba->...", ainv, eta.values))
    vals = tr[..., None, None] * a - (n - 1) * eta.values
    return MatrixField(eta.grid, vals)


def random_band_limited(grid: PeriodicGrid, amplitude: float, seed: int,
                        max_harmonic: int = 2, terms: int = 6) -> ScalarField:
    """A reproducible mean-zero trigonometric polynomial with bounded band."""
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    vals = np.zeros(grid.shape)
    for _ in range(terms):
        kvec = rng.integers(-max_harmonic, max_harmonic + 1, size=grid.stored_axes)
        if not kvec.any():
            kvec[rng.integers(grid.stored_axes)] = 1
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(
            2.0 * np.pi * kvec[a] * coords[a] / grid.periods[a]
            for a in range(grid.stored_axes)
        )
        vals += rng.normal(0.0, 1.0) * np.cos(arg + phase)
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return ScalarField(grid, vals)


def hessian_perturbation(grid: PeriodicGrid, amplitude: float, seed: int,
                         max_harmonic: int = 2, terms: int = 6
                         ) -> tuple[ScalarField, MatrixField]:
    """A potential phi and its Hessian scaled to the given operator norm.

    The sup over the grid of the pointwise spectral norm of the Hessian (the
    mode's Hessian: mixed complex or full real) equals ``amplitude``, which is
    the right normalization when the Hessian perturbs a background form.
    """
    phi = random_band_limited(grid, 1.0, seed, max_harmonic, terms)
    h = hessian(phi)
    opnorm = float(np.abs(np.linalg.eigvalsh(h.values)).max())
    scale = amplitude / opnorm if opnorm > 0 else 0.0
    return (
        ScalarField(grid, phi.values * scale),
        MatrixField(grid, h.values * scale),
    )


def laplacian_symbol(grid: PeriodicGrid, alpha) -> np.ndarray:
    """Fourier symbol of v -> tr(alpha^{-1} Hess v) on the rfftn half spectrum.

    tr(alpha^{-1} H) is the pairing <alpha^{-1}, H>, so the symbol is the
    Hessian's own component symbols weighted by alpha^{-1}, Nyquist rule
    included.  Negative everywhere except the zero mode.
    """
    ainv = np.linalg.inv(_as_matrix(alpha, grid.n))
    return np.einsum("e,e...->...", hessian_weights(ainv, grid),
                     hessian_symbols(grid).symbols)


# ---------------------------------------------------------------------------
# field I/O


def save_field(field: ScalarField | MatrixField, path_base: str | Path) -> None:
    path_base = Path(path_base)
    grid = field.grid
    vals = field.values
    is_complex = np.iscomplexobj(vals)
    if is_complex:
        flat = np.stack([vals.real, vals.imag], axis=-1).ravel()
    else:
        flat = np.asarray(vals, dtype=float).ravel()
    flat.astype("<f8").tofile(path_base.with_suffix(".bin"))
    sidecar = {
        "kind": "matrix" if isinstance(field, MatrixField) else "scalar",
        "mode": grid.mode,
        "n": grid.n,
        "points_per_axis": grid.points_per_axis,
        "periods": list(grid.periods),
        "reduced": grid.reduced,
        "shape": list(vals.shape),
        "dtype": "complex128" if is_complex else "float64",
        "byte_order": "little",
    }
    path_base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_field(path_base: str | Path) -> ScalarField | MatrixField:
    path_base = Path(path_base)
    sidecar = json.loads(path_base.with_suffix(".json").read_text())
    grid = PeriodicGrid(
        sidecar["mode"], sidecar["n"], sidecar["points_per_axis"],
        tuple(sidecar["periods"]), sidecar["reduced"],
    )
    raw = np.fromfile(path_base.with_suffix(".bin"), dtype="<f8")
    shape = tuple(sidecar["shape"])
    if sidecar["dtype"] == "complex128":
        # (real, imag) pairs are the complex layout; x + 1j*y would turn -0.0
        # into 0.0 and a real part beside an infinite imaginary part into nan
        vals = raw.view("<c16").reshape(shape)
    else:
        vals = raw.reshape(shape)
    if sidecar["kind"] == "matrix":
        return MatrixField(grid, vals)
    return ScalarField(grid, vals)


def export_csv(field: ScalarField, path: str | Path, fixed: dict[int, int] | None = None) -> None:
    """Write a 1D or 2D slice of a scalar field as CSV with coordinates.

    Axes not listed in ``fixed`` are exported; at most two may remain free.
    """
    fixed = fixed or {}
    grid = field.grid
    free = [a for a in range(grid.stored_axes) if a not in fixed]
    if len(free) > 2:
        raise ValueError("export_csv writes 1D or 2D slices; fix more axes")
    indexer = tuple(
        slice(None) if a in free else fixed[a] for a in range(grid.stored_axes)
    )
    vals = field.values[indexer]
    coords = [np.arange(grid.points_per_axis) * grid.spacings[a] for a in free]
    with open(path, "w") as fh:
        header = ",".join([f"x{a}" for a in free] + ["value"])
        fh.write(header + "\n")
        if len(free) == 1:
            for x, v in zip(coords[0], vals):
                fh.write(f"{x!r},{v!r}\n")
        else:
            for i, xi in enumerate(coords[0]):
                for j, xj in enumerate(coords[1]):
                    fh.write(f"{xi!r},{xj!r},{vals[i, j]!r}\n")
