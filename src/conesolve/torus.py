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

from .eigencalc import hermitian_defect, matrix_sigmas, require_hermitian


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


def _symbol(grid: PeriodicGrid, axes) -> np.ndarray:
    """Symbol prod_a (i k_a)^count of d^axes on the rfftn half spectrum,
    broadcastable to it; repeated axes mean higher order.  The Nyquist rule:
    the Nyquist mode is zeroed on an axis differentiated an odd number of times.
    """
    ng = grid.points_per_axis
    last = grid.stored_axes - 1
    sym = 1.0
    for ax, cnt in Counter(axes).items():
        k = grid.wavenumbers(ax)
        if cnt % 2 == 1:
            k[ng // 2] = 0.0
        if ax == last:
            k = k[: ng // 2 + 1]
        shape = [1] * grid.stored_axes
        shape[ax] = k.size
        sym = sym * k.reshape(shape) ** cnt
    return sym * 1j ** len(axes)


def derivative(f: ScalarField, axes) -> ScalarField:
    """Spectral derivative of the trigonometric interpolant along stored axes.

    ``axes`` is a stored-axis index or a sequence of them; repeats mean higher
    order.  One rfftn, times ``_symbol``, and one irfftn.
    """
    if isinstance(axes, (int, np.integer)):
        axes = (int(axes),)
    grid = f.grid
    spec = np.fft.rfftn(f.values) * _symbol(grid, axes)
    return ScalarField(grid, np.fft.irfftn(spec, s=grid.shape, axes=range(grid.stored_axes)))


@dataclass(frozen=True, eq=False)
class HessianSymbols:
    """The mode's Hessian as real components, each with its half-spectrum symbol.

    ``components`` lists the upper triangle as (i, j, imaginary): the real
    part of H_ij, and for i < j on a full complex grid its imaginary part too
    (a reduced grid has none).  ``symbols`` stacks their symbols on the rfftn
    half spectrum, shape ``(len(components),) + half spectrum``; ``units``
    stacks their unit matrices U_e, shape ``(len(components), n, n)``, so
    Hess u = sum_e c_e U_e for the components c_e.  Both are read-only.
    """

    components: tuple[tuple[int, int, bool], ...]
    symbols: np.ndarray
    units: np.ndarray


@functools.lru_cache(maxsize=16)
def hessian_symbols(grid: PeriodicGrid) -> HessianSymbols:
    """The grid's Hessian symbol table, built once per grid."""

    def d2(a: int | None, b: int | None):
        # an axis of None (a y axis of a reduced grid) gives the symbol 0
        return 0.0 if a is None or b is None else _symbol(grid, (a, b)).real

    entries = []
    for i in range(grid.n):
        for j in range(i, grid.n):
            if grid.mode == "real":
                entries.append(((i, j, False), d2(i, j)))
                continue
            xi, yi = grid.axis_pair(i)
            xj, yj = grid.axis_pair(j)
            entries.append(((i, j, False), 0.25 * (d2(xi, xj) + d2(yi, yj))))
            if not grid.reduced and i != j:
                entries.append(((i, j, True), 0.25 * (d2(xi, yj) - d2(yi, xj))))
    half = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    symbols = np.stack([np.broadcast_to(sym, half) for _, sym in entries])
    full_complex = grid.mode == "complex" and not grid.reduced
    units = np.zeros((len(entries), grid.n, grid.n), complex if full_complex else float)
    for e, ((i, j, imaginary), _) in enumerate(entries):
        units[e, i, j] = 1j if imaginary else 1.0
        units[e, j, i] = np.conj(units[e, i, j])
    symbols.setflags(write=False)
    units.setflags(write=False)
    return HessianSymbols(tuple(c for c, _ in entries), symbols, units)


def hessian_components(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The Hessian's components (``hessian_symbols(grid).components``) of the
    field ``values``: one forward rfftn, then ``spectral_hessian_components``."""
    return spectral_hessian_components(np.fft.rfftn(values), grid)


def spectral_hessian_components(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The Hessian's components of the field whose rfftn half spectrum is
    ``spec``: one batched irfftn, shape ``(len(components),) + grid.shape``."""
    axes = tuple(range(1, grid.stored_axes + 1))
    return np.fft.irfftn(spec * hessian_symbols(grid).symbols, s=grid.shape, axes=axes)


def hessian_weights(d: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Weights w_e = Re <D, B_e> (``eigencalc.contract``'s pairing) of D, shape
    (..., n, n), against a basis (E, n, n) such as ``units`` or ``metric_basis``,
    so <D, sum_e c_e B_e> = sum_e w_e c_e.  Shape ``(E,) + d.shape[:-2]``."""
    return np.real(np.tensordot(np.conj(basis), d, axes=((1, 2), (-2, -1))))


def _combine(u: ScalarField, basis: np.ndarray) -> np.ndarray:
    """sum_e c_e(u) B_e over the Hessian's components c_e(u)."""
    return np.tensordot(hessian_components(u.values, u.grid), basis, axes=(0, 0))


def hessian(u: ScalarField) -> MatrixField:
    """The mode's Hessian field: mixed complex (1/4 convention) or full real."""
    return MatrixField(u.grid, _combine(u, hessian_symbols(u.grid).units))


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
    """Holomorphic derivatives u_p = (d_x - i d_y) u / 2, shape grid + (n,):
    one forward rfftn and one batched irfftn over every stored axis's symbol."""
    grid = u.grid
    if grid.mode != "complex":
        raise ValueError("complex_gradient requires a complex-mode grid")
    axes = range(grid.stored_axes)
    half = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    symbols = np.stack([np.broadcast_to(_symbol(grid, (a,)), half) for a in axes])
    d = np.fft.irfftn(np.fft.rfftn(u.values) * symbols, s=grid.shape,
                      axes=tuple(a + 1 for a in axes))
    out = np.empty(grid.shape + (grid.n,), dtype=complex)
    for p in range(grid.n):
        xp, yp = grid.axis_pair(p)
        out[..., p] = 0.5 * (d[xp] - 1j * (d[yp] if yp is not None else 0.0))
    return out


def constant_metric(alpha, dim: int) -> np.ndarray:
    """The background metric as a d x d matrix, checked: a matrix or a
    MatrixField constant on its grid, Hermitian and positive definite.
    Raises ValueError otherwise."""
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
    return np.linalg.inv(np.linalg.cholesky(constant_metric(alpha, dim)))


def congruence(l: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L g L* for a constant d x d matrix L and matrices g of shape (..., d, d).

    One matrix product: the (points, d*d) view of g times kron(L, conj L)^T.
    """
    d = l.shape[-1]
    flat = np.reshape(g, (-1, d * d)) @ np.kron(l, np.conj(l)).T
    return flat.reshape(np.shape(g))


def metric_basis(grid: PeriodicGrid, alpha) -> np.ndarray:
    """The Hessian basis in alpha-orthonormal coordinates: B_e = L^{-1} U_e L^{-*}
    with alpha = L L* and U_e the ``hessian_symbols(grid).units``, so that
    L^{-1} Hess u L^{-*} = sum_e c_e(u) B_e.  Shape (E, n, n)."""
    return congruence(metric_root_inverse(alpha, grid.n), hessian_symbols(grid).units)


def metric_hessian(u: ScalarField, alpha) -> MatrixField:
    """L^{-1} Hess u L^{-*}: the Hessian in alpha-orthonormal coordinates."""
    return MatrixField(u.grid, _combine(u, metric_basis(u.grid, alpha)))


def endomorphism_field(alpha, chi: MatrixField, u: ScalarField | None = None) -> MatrixField:
    """A = alpha^{-1} (chi + Hess u), in alpha-orthonormalized coordinates:
    L^{-1} chi L^{-*} + ``metric_hessian(u, alpha)`` with alpha = L L*, which is
    literally Hermitian/symmetric with the eigenvalues of alpha^{-1} (chi + Hess u).
    """
    grid = chi.grid
    a = congruence(metric_root_inverse(alpha, chi.dim), chi.values)
    if u is not None:
        if u.grid is not grid and u.grid != grid:
            raise ValueError("fields must share one grid")
        a = a + metric_hessian(u, alpha).values
    return MatrixField(grid, a)


def sup_operator_norm(h: np.ndarray) -> float:
    """max |H|_2 over Hermitian matrices h, shape (..., n, n).  As |H|_F / sqrt(n)
    <= |H|_2 <= |H|_F, only matrices with |H|_F >= max |H|_F / sqrt(n) (less a
    rounding slack) can attain it, and ``eigvalsh`` runs on those alone; it
    works per matrix, so the result is the full eigensolve's bit for bit."""
    n = h.shape[-1]
    mats = np.reshape(h, (-1, n, n))
    fro = np.sqrt(np.sum(np.abs(mats) ** 2, axis=(-2, -1)))
    keep = fro >= (1.0 - 1e-12) * fro.max() / math.sqrt(n)
    return float(np.abs(np.linalg.eigvalsh(mats[keep])).max())


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
    return _form_ratios(endomorphism_field(alpha, chi).values, chi.grid, (j,))[0]


def _form_ratios(a: np.ndarray, grid: PeriodicGrid, degrees) -> list[ScalarField]:
    """``form_ratio`` at each of ``degrees`` of the endomorphism field with
    values ``a`` (A = alpha^{-1} chi in orthonormal coordinates), from one
    sigma recursion."""
    n = a.shape[-1]
    for j in degrees:
        if not 0 <= j <= n:
            raise ValueError(f"j must be in 0..{n}, got {j}")
    e, _ = matrix_sigmas(a, max(1, *degrees))
    return [ScalarField(grid, e[..., j] / math.comb(n, j)) for j in degrees]


def class_constant(a: np.ndarray, grid: PeriodicGrid, l: int, k: int) -> float:
    """The class constant of the endomorphism field with values ``a``, such as
    a problem's held A[0]: ratio of integrated degree-l and degree-k densities."""
    num, den = (integral(ratio) for ratio in _form_ratios(a, grid, (l, k)))
    if den <= 0:
        raise DegenerateClassError(f"degree-{k} class integral is {den:.6g}, not positive")
    return num / den


def compute_c(chi: MatrixField, alpha, l: int, k: int) -> float:
    """The class constant of chi against alpha: ``class_constant`` of
    A[0] = ``endomorphism_field(alpha, chi)``."""
    return class_constant(endomorphism_field(alpha, chi).values, chi.grid, l, k)


def nminus1_background(eta: MatrixField, alpha) -> MatrixField:
    """chi = (tr_alpha eta) alpha - (n-1) eta, the background for T-composed operators.

    Satisfies T(lambda(alpha^{-1} chi)) = lambda(alpha^{-1} eta) up to ordering.
    """
    n = eta.dim
    if n < 2:
        raise ValueError("nminus1_background requires n >= 2")
    a = constant_metric(alpha, n)
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
    opnorm = sup_operator_norm(h.values)
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
    table = hessian_symbols(grid)
    ainv = np.linalg.inv(constant_metric(alpha, grid.n))
    return np.einsum("e,e...->...", hessian_weights(ainv, table.units), table.symbols)


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
