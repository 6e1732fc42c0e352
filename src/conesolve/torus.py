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

from .eigencalc import (Packing, combine, packed_sigmas, packing, require_hermitian,
                        sup_operator_norm)
from .rules import require


class DegenerateClassError(ValueError):
    """The denominator class integral is not positive."""


#: the rule of each grid setting, for ``rules.require``: (predicate, phrase)
GRID_RULES = {
    "mode": (lambda mode: mode in ("complex", "real"), "must be complex or real"),
    "points_per_axis": (lambda points: points >= 4 and points % 2 == 0, "must be even and >= 4"),
}


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
        require(GRID_RULES, "mode", self.mode)
        if self.mode == "real" and self.reduced:
            raise ValueError("reduced storage applies to complex mode only")
        require(GRID_RULES, "points_per_axis", self.points_per_axis)
        if len(self.periods) != self.stored_axes:
            raise ValueError(
                f"need {self.stored_axes} periods, got {len(self.periods)}"
            )
        if not all(0.0 < p < math.inf for p in self.periods):
            raise ValueError(f"periods must be finite and positive, got {self.periods}")

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


def spectral_hessian_components(spec: np.ndarray, grid: PeriodicGrid,
                                work: np.ndarray | None = None,
                                out: np.ndarray | None = None) -> np.ndarray:
    """The Hessian's components of the field whose rfftn half spectrum is
    ``spec``, shape ``(len(components),) + grid.shape``: ``inverse_chain`` of
    spec with ``hessian_symbols(grid).symbols``."""
    return inverse_chain(spec, hessian_symbols(grid).symbols, grid, work, out)


def spectral_gradient(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The real first derivatives d_a u along the stored axes of the field
    whose rfftn half spectrum is ``spec``, shape ``(stored_axes,) +
    grid.shape``: ``inverse_chain`` of i spec with the real k_a of
    d_a = i k_a (Nyquist rule included).  Unlike ``hessian_symbols``, which
    every Krylov product reads, these symbols are not cached: a run reads
    them once, and a held table would stay resident for nothing."""
    half = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    symbols = np.stack([np.broadcast_to(np.imag(_symbol(grid, (a,))), half)
                        for a in range(grid.stored_axes)])
    return inverse_chain(1j * spec, symbols, grid)


def inverse_chain(spec: np.ndarray, symbols: np.ndarray, grid: PeriodicGrid,
                  work: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The batched irfftn of spec * symbols for real ``symbols`` stacked on a
    leading axis over the half spectrum, shape ``(len(symbols),) +
    grid.shape``: the same chain of 1-D transforms with the same bits.

    It runs in place.  spec * symbols is written through the real and imaginary
    views of ``work`` (complex, shape ``symbols.shape``; a complex ``out=`` of
    np.multiply would buffer a complex cast of the real symbols), an ifft over
    each leading axis overwrites ``work``, and an irfft over the last writes
    ``out``, which is returned.  A caller that applies many directions, as
    ``solver.Linearization`` does, holds both; left out, they are allocated
    here, and ``work`` is garbage on return either way.
    """
    if work is None:
        work = np.empty(symbols.shape, dtype=complex)
    if out is None:
        out = np.empty(symbols.shape[:1] + grid.shape)
    np.multiply(spec.real, symbols, out=work.real)
    np.multiply(spec.imag, symbols, out=work.imag)
    for axis in range(1, grid.stored_axes):
        np.fft.ifft(work, axis=axis, out=work)
    return np.fft.irfft(work, n=grid.points_per_axis, axis=-1, out=out)


def hessian(u: ScalarField) -> MatrixField:
    """The mode's Hessian field, mixed complex (1/4 convention) or full real:
    the components ``combine``d with the (n*n, E) matrix of their units."""
    units, n = hessian_symbols(u.grid).units, u.grid.n
    entries = combine(units.reshape(len(units), n * n).T, hessian_components(u.values, u.grid))
    return MatrixField(u.grid, np.moveaxis(entries, 0, -1).reshape(u.grid.shape + (n, n)))


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


def congruence(l: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L g L* for a constant d x d matrix L and matrices g of shape (..., d, d).

    The (points, d*d) view of g times kron(L, conj L)^T, summed over the
    diagonals of kron(L, conj L): the main one scales each column, then every
    other nonzero diagonal adds its shifted columns, in order.  No BLAS, so
    neither the bits nor the time depend on its threads.  A diagonal L (the
    ``alpha_scaled`` metrics) costs one elementwise product, with the bits of
    the matrix product; any other L may differ from it by rounding.
    """
    d2 = l.shape[-1] ** 2
    flat = np.reshape(g, (-1, d2))
    kron = np.kron(l, np.conj(l)).astype(np.result_type(flat, l))
    # a contiguous coefficient row, in the product's dtype: broadcast on its own
    out = flat * np.diagonal(kron).copy()
    for s in range(1 - d2, d2):
        coef = np.diagonal(kron, s)  # kron[i, i + s]
        if s and coef.any():
            lo, hi = max(0, -s), d2 - max(0, s)
            out[:, lo:hi] += flat[:, lo + s:hi + s] * coef
    return out.reshape(np.shape(g))


def packed_frame(alpha, chi: MatrixField):
    """The frame of A = L^{-1} (chi + Hess u) L^{-*}, alpha = L L*: L^{-1}, the
    ``eigencalc.Packing``, the rows of A[0] = L^{-1} chi L^{-*} and the (rows, E)
    matrix M whose column e holds the rows of B_e = L^{-1} U_e L^{-*}."""
    linv = np.linalg.inv(np.linalg.cholesky(constant_metric(alpha, chi.dim)))
    background = congruence(linv, chi.values)
    basis = congruence(linv, hessian_symbols(chi.grid).units)
    layout = packing(chi.dim, np.iscomplexobj(background) or np.iscomplexobj(basis))
    return linv, layout, layout.pack(background), layout.pack(basis)


def endomorphism_field(alpha, chi: MatrixField, u: ScalarField | None = None) -> MatrixField:
    """A = alpha^{-1} (chi + Hess u) from its ``packed_frame``: the rows
    A[0] + M c(u) for the Hessian's components c(u), as a
    ``solver.TorusProblem`` sums them, unpacked.  It is literally
    Hermitian/symmetric with the eigenvalues of alpha^{-1} (chi + Hess u).
    """
    if u is not None and u.grid is not chi.grid and u.grid != chi.grid:
        raise ValueError("fields must share one grid")
    _, layout, rows, basis = packed_frame(alpha, chi)
    if u is not None:
        rows = combine(basis, hessian_components(u.values, chi.grid), rows)
    return MatrixField(chi.grid, layout.unpack(rows))


def integral(f: ScalarField) -> float:
    """Torus integral: the grid mean times the represented volume.

    On a periodic grid the mean is the trapezoidal rule and is exact for
    trigonometric polynomials resolved by the grid.
    """
    return float(f.values.mean()) * f.grid.volume


def form_ratio(chi: MatrixField, alpha, j: int) -> ScalarField:
    """Pointwise sigma_j(eigenvalues of alpha^{-1} chi) / C(n, j).

    Normalized so chi = alpha gives the constant 1; this is the pointwise
    density of the degree-j wedge combination of chi against the background.
    """
    _, layout, rows, _ = packed_frame(alpha, chi)
    return _form_ratios(rows, layout, chi.grid, (j,))[0]


def _form_ratios(x: np.ndarray, layout: Packing, grid: PeriodicGrid, degrees) -> list[ScalarField]:
    """``form_ratio`` at each of ``degrees`` of the endomorphism field whose rows
    are ``x`` in ``layout`` (A[0], as ``packed_frame`` gives them), from one
    sigma recursion."""
    n = grid.n
    for j in degrees:
        if not 0 <= j <= n:
            raise ValueError(f"j must be in 0..{n}, got {j}")
    e, _ = packed_sigmas(x, layout, max(1, *degrees))
    return [ScalarField(grid, e[j] / math.comb(n, j)) for j in degrees]


def class_constant(x: np.ndarray, layout: Packing, grid: PeriodicGrid, l: int, k: int) -> float:
    """The class constant of the endomorphism field whose rows are ``x`` in
    ``layout``, such as a problem's held A[0]: ratio of integrated degree-l and
    degree-k densities."""
    num, den = (integral(ratio) for ratio in _form_ratios(x, layout, grid, (l, k)))
    if den <= 0:
        raise DegenerateClassError(f"degree-{k} class integral is {den:.6g}, not positive")
    return num / den


def compute_c(chi: MatrixField, alpha, l: int, k: int) -> float:
    """The class constant of chi against alpha: ``class_constant`` of the rows
    of A[0] = L^{-1} chi L^{-*} (``packed_frame``)."""
    _, layout, rows, _ = packed_frame(alpha, chi)
    return class_constant(rows, layout, chi.grid, l, k)


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


#: cosine terms of a ``random_band_limited`` polynomial
BAND_TERMS = 6


def random_band_limited(grid: PeriodicGrid, amplitude: float, seed: int,
                        max_harmonic: int = 2) -> ScalarField:
    """A reproducible mean-zero trigonometric polynomial with bounded band:
    ``BAND_TERMS`` cosines of frequencies up to ``max_harmonic`` per axis."""
    rng = np.random.default_rng(seed)
    coords = grid.coordinates()
    vals = np.zeros(grid.shape)
    for _ in range(BAND_TERMS):
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


def hessian_perturbation(grid: PeriodicGrid, amplitude: float, seed: int
                         ) -> tuple[ScalarField, MatrixField]:
    """A potential phi and its Hessian scaled to the given operator norm.

    The sup over the grid of the pointwise spectral norm of the Hessian (the
    mode's Hessian: mixed complex or full real) equals ``amplitude``, which is
    the right normalization when the Hessian perturbs a background form.
    """
    phi = random_band_limited(grid, 1.0, seed)
    h = hessian(phi)
    layout = packing(grid.n, np.iscomplexobj(h.values))
    opnorm = sup_operator_norm(layout.pack(h.values), layout)
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
    layout = packing(grid.n, np.iscomplexobj(ainv) or np.iscomplexobj(table.units))
    weights = layout.pairings(layout.pack(table.units), layout.pack(ainv))
    return np.einsum("e,e...->...", weights, table.symbols)


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


def _count(value, least: int = 0) -> bool:
    """Is ``value`` a JSON integer (not a boolean) >= ``least``?"""
    return type(value) is int and value >= least


#: the keys of a field sidecar that ``load_field`` reads, each with the rule
#: of its JSON value, for ``rules.require``; the grid checks the rest (even
#: points, the count and sign of the periods)
SIDECAR_RULES = {
    "kind": (lambda kind: kind in ("scalar", "matrix"), "must be scalar or matrix"),
    "mode": GRID_RULES["mode"],
    "n": (lambda n: _count(n, 1), "must be an integer >= 1"),
    "points_per_axis": (_count, "must be an integer"),
    "periods": (lambda periods: type(periods) is list
                and all(type(p) in (int, float) for p in periods), "must be a list of numbers"),
    "reduced": (lambda reduced: type(reduced) is bool, "must be true or false"),
    "shape": (lambda shape: type(shape) is list and all(map(_count, shape)),
              "must be a list of integers >= 0"),
    "dtype": (lambda dtype: dtype in ("float64", "complex128"), "must be float64 or complex128"),
}


def load_field(path_base: str | Path) -> ScalarField | MatrixField:
    """The field ``save_field`` wrote at ``path_base``.  A sidecar that is not
    a JSON object, lacks a key read here, or holds a value that breaks its
    rule in ``SIDECAR_RULES`` or the grid's, is a ValueError naming it."""
    path_base = Path(path_base)
    sidecar_path = path_base.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    if not isinstance(sidecar, dict):
        raise ValueError(f"field sidecar {sidecar_path} is not a JSON object")
    missing = [key for key in SIDECAR_RULES if key not in sidecar]
    if missing:
        raise ValueError(f"field sidecar {sidecar_path} lacks {', '.join(missing)}")
    try:
        for key in SIDECAR_RULES:
            require(SIDECAR_RULES, key, sidecar[key])
        grid = PeriodicGrid(sidecar["mode"], sidecar["n"], sidecar["points_per_axis"],
                            tuple(sidecar["periods"]), sidecar["reduced"])
    except ValueError as exc:
        raise ValueError(f"field sidecar {sidecar_path}: {exc}") from exc
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
