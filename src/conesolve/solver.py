"""Damped Newton solves of F(A[u]) = rhs(t, c) on the torus, with the unknown
constant c solved simultaneously.

The unknown pair is (u mean-zero, c); constants span the cokernel of the
linearization on a closed manifold, so the Newton system is bordered: the
pointwise linearized equation plus the mean-zero constraint make it square.
Each iterate is evaluated once, from the sigma_j of A[u] read straight from
the matrix (``eigencalc.SigmaTable``): the cone margin, F and the matrix of
dF need no eigenvalues or eigenvectors.
The linear solves are matrix-free restarted GMRES (``gmres``, right-
preconditioned, Saad & Schultz 1986) with a constant-coefficient spectral
preconditioner: the inverse of (mean trace of the first-derivative matrix / n)
times the metric Laplacian.  Its inner products are einsum and pairwise sums,
not BLAS level-1 calls, so the iterates do not depend on the BLAS thread count.
The search directions are kept as rfftn half spectra, the preconditioner's
output, so an Arnoldi step costs one forward transform and E inverse ones (E
Hessian components), and a Newton step one more inverse transform.  Newton
carries the Hessian components of its iterate, so line-search trials
transform nothing.

Continuity paths, each anchored at a member solvable from u = 0:

  ``hessian``     F(A[u]) = t*H + (1-t)*H0 + c,     H0 = F(A[0]),
  ``quotient``    f_t(lambda(A[u])) = -c,           f_t the blended quotient,
  ``riemannian``  F(A[u]) = c + (1-t)*h0,           h0 = F(A[0]) pointwise,
  ``fixed``       F(A[u]) = h + c.

Marching warm-starts each t from the previous solution and bisects the t-step
on Newton stagnation down to 1e-4 before giving up with a partial report.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .eigencalc import SigmaTable, require_hermitian
from .operators import BlendedQuotient, HessianQuotientNeg, SymmetricOperator
from .torus import (
    MatrixField,
    PeriodicGrid,
    ScalarField,
    class_constant,
    constant_metric,
    endomorphism_field,
    hessian_components,
    hessian_weights,
    laplacian_symbol,
    metric_basis,
    spectral_hessian_components,
)
# unused here; the benchmark's tracer binds its spans at these names
from .eigencalc import eigen_decompose  # noqa: F401
from .torus import hessian  # noqa: F401


#: step halvings the Newton line search tries before it stagnates
MAX_HALVINGS = 30
#: slack of the monotone bounds on the recorded path constants c_t
PATH_BOUND_SLACK = 1e-8
#: Arnoldi steps between GMRES restarts
GMRES_RESTART = 30
#: restarts GMRES makes before it reports failure
GMRES_MAX_RESTARTS = 200


class AdmissibilityError(ValueError):
    """Eigenvalues of A[u] left the operator cone somewhere on the grid."""

    def __init__(self, worst_index: tuple, margin: float):
        self.worst_index = worst_index
        self.margin = margin
        super().__init__(
            f"inadmissible data: cone margin {margin:.6g} at grid point {worst_index}"
        )


class StagnationError(RuntimeError):
    """Newton stopped without converging: the line search exhausted its
    halvings, the iteration cap was reached or a Krylov solve failed."""

    def __init__(self, message: str, state: "SolveState | None" = None):
        self.state = state
        super().__init__(message)


class PathBoundError(RuntimeError):
    """A recorded path constant violated its monotone bound."""


class PathKind(enum.Enum):
    HESSIAN = "hessian"
    QUOTIENT = "quotient"
    RIEMANNIAN = "riemannian"
    FIXED = "fixed"


@dataclass
class TorusProblem:
    """Problem data: operator, backgrounds, right-hand side and path choice.
    alpha and chi are checked and read once, at construction, into read-only
    A[0] (``background``), B_e (``basis``) and the ``laplacian_symbol``."""

    grid: PeriodicGrid
    op: SymmetricOperator
    alpha: np.ndarray
    chi: MatrixField
    h: ScalarField | None = None
    path: PathKind = PathKind.FIXED
    normalization: str = "mean_zero"
    newton_tol: float = 1e-10
    max_newton: int = 50
    background: np.ndarray = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.normalization not in ("mean_zero", "sup_zero"):
            raise ValueError("normalization must be 'mean_zero' or 'sup_zero'")
        if not isinstance(self.chi, MatrixField) or self.chi.dim != self.grid.n:
            raise ValueError(f"chi must be a field of {self.grid.n}x{self.grid.n} matrices")
        if self.h is not None and not isinstance(self.h, ScalarField):
            raise ValueError("the rhs h must be a scalar field")
        if self.chi.grid != self.grid or (self.h is not None and self.h.grid != self.grid):
            raise ValueError("fields must share one grid")
        if self.op.n != self.grid.n:
            raise ValueError("operator cone dimension must match the mode dimension")
        if self.path in (PathKind.HESSIAN, PathKind.FIXED) and self.h is None:
            raise ValueError(f"{self.path.value} path requires an rhs field h")
        if self.path is PathKind.QUOTIENT and not isinstance(self.op, HessianQuotientNeg):
            raise ValueError(f"quotient path requires a HessianQuotientNeg, got {self.op!r}")
        self.alpha = constant_metric(self.alpha, self.grid.n)
        try:
            require_hermitian(self.chi.values)
        except ValueError as exc:
            raise ValueError(f"chi: {exc}") from None
        self.background = endomorphism_field(self.alpha, self.chi).values
        self.basis = metric_basis(self.grid, self.alpha)
        self.laplacian = laplacian_symbol(self.grid, self.alpha)
        for held in (self.background, self.basis, self.laplacian):
            held.setflags(write=False)

    @functools.cached_property
    def background_value(self) -> np.ndarray:
        """F(A[0]) for ``op``, held read-only.  Computed on first use, not at
        construction, so an inadmissible A[0] is an error of the solve (exit
        3), not of the config (exit 4)."""
        value = evaluate_pointwise(self, None, 1.0).require_admissible().value
        value.setflags(write=False)
        return value

    @functools.cached_property
    def class_constant(self) -> float:
        """The quotient operator's class constant: ``torus.class_constant`` of
        the held A[0]."""
        return class_constant(self.background, self.grid, self.op.l, self.op.k)


@dataclass
class SolveState:
    u: ScalarField
    c: float
    t: float
    residual_norm: float
    admissibility_margin: float
    iterations: int = 0
    trace: tuple = ()


@dataclass
class SolveReport:
    steps: list[dict] = field(default_factory=list)
    final: SolveState | None = None
    diagnostics: dict = field(default_factory=dict)
    complete: bool = True

    def record(self, state: SolveState, normalization: str) -> None:
        """Append the step record of a converged state and make it the final
        state, with u normalized as the problem asks."""
        self.steps.append({
            "t": float(state.t),
            "c": float(state.c),
            "residual_norm": float(state.residual_norm),
            "admissibility_margin": float(state.admissibility_margin),
            "newton_iterations": int(state.iterations),
        })
        self.final = replace(state, u=normalize(state.u, normalization))

    def to_dict(self) -> dict:
        out = {
            "schema": "v1",
            "complete": self.complete,
            "steps": self.steps,
            "diagnostics": self.diagnostics,
        }
        if self.final is not None:
            out["final"] = {
                "t": self.final.t,
                "c": self.final.c,
                "residual_norm": self.final.residual_norm,
                "admissibility_margin": self.final.admissibility_margin,
                "iterations": self.final.iterations,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def normalize(u: ScalarField, mode: str) -> ScalarField:
    """Subtract the mean (mean_zero) or the max (sup_zero); idempotent."""
    if mode == "mean_zero":
        return ScalarField(u.grid, u.values - u.values.mean())
    if mode == "sup_zero":
        return ScalarField(u.grid, u.values - u.values.max())
    raise ValueError(f"unknown normalization {mode!r}")


def path_operator(problem: TorusProblem, t: float) -> SymmetricOperator:
    if problem.path is PathKind.QUOTIENT:
        return BlendedQuotient(problem.grid.n, problem.op.l, problem.op.k, t)
    return problem.op


def constant_sign(problem: TorusProblem) -> float:
    """Sign s in rhs = base + s*c; the residual is F - base - s*c."""
    return -1.0 if problem.path is PathKind.QUOTIENT else 1.0


@dataclass(frozen=True)
class PointwiseEvaluation:
    """The pointwise data every Newton step reads from A[u] at one (u, t).

    ``table`` holds the sigma_j the operator in force at t reads at A[u], and
    their matrix derivatives; ``margin`` is the smallest cone margin on the
    grid, at ``worst_index``.  ``value`` is F(A[u]); it is only computed when
    the iterate is admissible (``margin > 0``).
    """

    table: SigmaTable
    margin: float
    worst_index: tuple
    value: np.ndarray | None

    def require_admissible(self) -> "PointwiseEvaluation":
        if self.margin <= 0.0:
            raise AdmissibilityError(self.worst_index, self.margin)
        return self


def evaluate_pointwise(problem: TorusProblem, u: ScalarField | None, t: float,
                       comps: np.ndarray | None = None) -> PointwiseEvaluation:
    """Evaluate A[u] (A[0] when ``u`` is None), the sigma table of the operator
    in force at t, the cone margin and F, from the problem's held arrays.
    ``comps``, if given, are u's ``hessian_components``, and u is not transformed."""
    endo = problem.background
    if u is not None:
        if u.grid != problem.grid:
            raise ValueError("fields must share one grid")
        if comps is None:
            comps = hessian_components(u.values, u.grid)
        endo = endo + np.tensordot(comps, problem.basis, (0, 0))
    table = SigmaTable.at(path_operator(problem, t), endo)
    margins = table.margin()
    worst = int(np.argmin(margins))
    margin = float(margins.flat[worst])
    value = table.value() if margin > 0.0 else None
    return PointwiseEvaluation(table, margin,
                               np.unravel_index(worst, margins.shape), value)


def background_value(problem: TorusProblem, t: float) -> np.ndarray:
    """F(A[0]) for the operator in force at parameter t.  Off the quotient
    path that operator does not depend on t, and the problem holds its value."""
    if problem.path is PathKind.QUOTIENT:
        return evaluate_pointwise(problem, None, t).require_admissible().value
    return problem.background_value


def rhs_base(problem: TorusProblem, t: float) -> np.ndarray:
    """The c-independent part of the right-hand side at parameter t."""
    if problem.path is PathKind.HESSIAN:
        h0 = background_value(problem, t)
        return t * problem.h.values + (1.0 - t) * h0
    if problem.path is PathKind.QUOTIENT:
        return np.zeros(problem.grid.shape)
    if problem.path is PathKind.RIEMANNIAN:
        return (1.0 - t) * background_value(problem, t)
    return problem.h.values


def admissibility_margin(problem: TorusProblem, u: ScalarField, t: float = 1.0) -> float:
    """min over the grid of the cone margin of lambda(A[u]); may be <= 0."""
    return evaluate_pointwise(problem, u, t).margin


def residual(problem: TorusProblem, u: ScalarField, c: float, t: float) -> ScalarField:
    """Pointwise F_t(A[u]) - rhs_t(c); raises AdmissibilityError off the cone."""
    ev = evaluate_pointwise(problem, u, t).require_admissible()
    rhs = rhs_base(problem, t) + constant_sign(problem) * c
    return ScalarField(problem.grid, ev.value - rhs)


class Linearization:
    """Matrix-free derivative of the residual at a fixed admissible iterate.
    ``components`` holds the Hessian components of the last direction applied."""

    def __init__(self, problem: TorusProblem, ev: PointwiseEvaluation):
        self.problem = problem
        self.grid = problem.grid
        ev.require_admissible()
        d = ev.table.derivative()
        self.mean_trace = float(np.real(np.einsum("...ii->...", d)).mean()) / self.grid.n
        self.sign = constant_sign(problem)
        # <D, sum_e c_e B_e> = sum_e <D, B_e> c_e: one weight per Hessian
        # component, so a matvec never forms the n x n Hessian field
        self.weights = hessian_weights(d, problem.basis)
        self.components = None

    def apply(self, v: ScalarField | np.ndarray, dc: float) -> ScalarField:
        """Directional derivative: <D, alpha-orthonormal Hess v> - s*dc.

        ``v`` is a field or its rfftn half spectrum.  From a spectrum, as in
        the Krylov solve, the Hessian components take E inverse transforms
        and no forward one.
        """
        spec = np.fft.rfftn(v.values) if isinstance(v, ScalarField) else v
        self.components = None  # free the last direction's before forming these
        self.components = spectral_hessian_components(spec, self.grid)
        out = np.einsum("e...,e...->...", self.weights, self.components)
        return ScalarField(self.grid, out - self.sign * dc)


def linearized_apply(problem: TorusProblem, state: SolveState, v: ScalarField,
                     dc: float) -> ScalarField:
    ev = evaluate_pointwise(problem, state.u, state.t)
    return Linearization(problem, ev).apply(v, dc)


def _norm(w: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * w)))


def gmres(matvec, b: np.ndarray, *, M, rtol: float) -> tuple[np.ndarray, int]:
    """Solve A x = b by right-preconditioned restarted GMRES (Saad & Schultz 1986).

    ``M`` maps a vector of b's space into a search space of its own, such as
    a complex half spectrum, and ``matvec`` applies A to a vector of that
    space, returning one of b's.  The orthonormal Arnoldi basis lives in b's
    space; the search directions z_j = M v_j and the solution x = sum_j y_j z_j
    live in M's.  Starts from x = 0, so no product is spent on a zero vector.
    Each cycle takes up to ``GMRES_RESTART`` Arnoldi steps (one M and one
    matvec each), orthogonalized by classical Gram-Schmidt applied twice, and
    minimizes the residual by Givens rotations; it ends with one product for
    the true residual, and the last product of a converged solve is A x.
    Returns (x, info): info is 0 once |b - A x| <= rtol |b|, else the number
    of cycles run (``GMRES_MAX_RESTARTS``, or fewer if A M is singular on the
    Krylov space).  For b = 0 it returns x = 0 of M's space (M(0)) and takes
    no product.  Projections are einsum sums and norms pairwise sums, never a
    BLAS dot or nrm2, whose bits change with the thread count.
    """
    m = GMRES_RESTART
    beta = _norm(b)
    tol = rtol * beta
    if beta == 0.0:
        return M(b), 0
    basis = np.empty((1, b.size))
    x = None
    r = b
    for cycle in range(1, GMRES_MAX_RESTARTS + 1):
        hess = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        basis[0] = r / beta
        search = []
        for j in range(m):
            z = M(basis[j])
            if x is None:
                x = np.zeros_like(z)
            search.append(z)
            w = matvec(z)
            for _ in range(2):
                h = np.einsum("ij,j->i", basis[:j + 1], w)
                w = w - np.einsum("ij,i->j", basis[:j + 1], h)
                hess[:j + 1, j] += h
            w_norm = _norm(w)
            col = hess[:j + 2, j]
            col[j + 1] = w_norm
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = float(np.hypot(col[j], w_norm))
            if rho == 0.0:
                return x, cycle
            cs[j], sn[j] = col[j] / rho, w_norm / rho
            col[j], col[j + 1] = rho, 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            if abs(g[j + 1]) <= tol:
                break
            if j + 1 == len(basis):
                # rows are added by doubling: an up-front block of m + 1 rows
                # lands on the heap and stays resident, though most solves
                # take a few Arnoldi steps
                basis = np.concatenate([basis, np.empty_like(basis)])
            basis[j + 1] = w / w_norm
        k = j + 1
        y = np.linalg.solve(hess[:k, :k], g[:k])
        x = x + np.einsum("i,i...->...", y, search)
        r = b - matvec(x)
        beta = _norm(r)
        if beta <= tol:
            return x, 0
    return x, GMRES_MAX_RESTARTS


# the benchmark's tracer times the Krylov layer at this name
lgmres = gmres


def _solve_newton_system(lin: Linearization, r: np.ndarray, forcing: float):
    """Solve [dF - s*dc = -r ; mean(v) = 0] by ``gmres`` preconditioned with
    the inverse constant-coefficient Laplacian, to relative residual
    ``forcing``; the call goes through ``lgmres`` so the benchmark times it.

    The search space is the rfftn half spectrum of v, with dc appended: the
    preconditioner returns rfftn(g - mean g) / symbol and never inverts it,
    and the matvec reads the Hessian components of v straight from it.  An
    Arnoldi step costs one forward transform and E inverse ones (E Hessian
    components); one inverse transform of the solution then gives dv.  The
    zero mode of every search direction is 0, so the mean row, zero mode / N,
    is exactly 0.
    """
    grid = lin.grid
    npts = int(np.prod(grid.shape))
    sign = lin.sign
    axes = tuple(range(grid.stored_axes))
    symbol = lin.problem.laplacian * lin.mean_trace
    half, modes = symbol.shape, symbol.size
    zero_mode = (0,) * grid.stored_axes
    symbol[zero_mode] = 1.0  # the zero mode is handled by the constant block

    def matvec(z):
        spec = z[:modes].reshape(half)
        out = lin.apply(spec, float(z[modes].real))
        return np.concatenate([out.values.ravel(), [spec[zero_mode].real / npts]])

    def precondition(w):
        g = w[:npts].reshape(grid.shape)
        gbar = g.mean()
        spec = np.fft.rfftn(g - gbar) / symbol
        spec[zero_mode] = 0.0
        return np.concatenate([spec.ravel(), [-sign * gbar]])

    b = np.concatenate([-r.ravel(), [0.0]])
    sol, info = lgmres(matvec, b, M=precondition, rtol=forcing)
    dv = np.fft.irfftn(sol[:modes].reshape(half), s=grid.shape, axes=axes)
    # a converged solve's last product is the true residual's, at sol; only a
    # zero rhs takes no product
    comps = lin.components if lin.components is not None else hessian_components(dv, grid)
    return ScalarField(grid, dv - dv.mean()), float(sol[modes].real), comps, info


def newton_solve(problem: TorusProblem, t: float,
                 warm: SolveState | None = None) -> SolveState:
    """Damped Newton on (u, c) at fixed t.

    Accepts a step only when the iterate stays strictly admissible and the
    sup-norm residual decreases; halves the step up to ``MAX_HALVINGS`` times
    and raises StagnationError with the last state when exhausted, or when a
    Krylov solve does not converge.  Each iterate is evaluated once.  The
    Hessian components of u are carried with it: the start transforms u once,
    and a trial u + step*dv reads comp(u) + step*comp(dv), with comp(dv) from
    the Krylov solve's last product, so no trial transforms.
    """
    grid = problem.grid
    sign = constant_sign(problem)
    base = rhs_base(problem, t)
    u = ScalarField.zeros(grid) if warm is None else normalize(warm.u, "mean_zero")
    comps = hessian_components(u.values, grid)
    ev = evaluate_pointwise(problem, u, t, comps).require_admissible()
    c = sign * float((ev.value - base).mean()) if warm is None else warm.c
    r = ev.value - (base + sign * c)
    r_sup = float(np.abs(r).max())
    margin = ev.margin
    trace: list[dict] = []
    iterations = 0

    def stagnated(message: str) -> StagnationError:
        state = SolveState(u, c, t, r_sup, margin, iterations, tuple(trace))
        return StagnationError(f"{message} at t={t:.6g}, residual {r_sup:.3e}", state)

    for _ in range(problem.max_newton):
        trace.append({"residual_sup": r_sup, "margin": margin})
        if r_sup < problem.newton_tol:
            break
        forcing = max(min(1e-4, 0.1 * r_sup), 1e-12)
        lin = Linearization(problem, ev)
        ev = None  # the sigma table is not read again: free it before the Krylov solve
        dv, dc, dv_comps, info = _solve_newton_system(lin, r, forcing)
        del lin
        if info != 0:
            raise stagnated(f"Krylov solve did not converge (gmres info {info})")
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            u_try = ScalarField(grid, u.values + step * dv.values)
            comps_try = comps + step * dv_comps
            ev = evaluate_pointwise(problem, u_try, t, comps_try)
            if ev.margin > 0.0:
                c_try = c + step * dc
                r_try = ev.value - (base + sign * c_try)
                r_try_sup = float(np.abs(r_try).max())
                if r_try_sup < r_sup:
                    u, comps, c, r, r_sup = u_try, comps_try, c_try, r_try, r_try_sup
                    margin = ev.margin
                    break
            step *= 0.5
        else:
            raise stagnated("line search stagnated")
        del dv, dv_comps  # free them before the next Krylov solve
        iterations += 1
    else:
        if r_sup >= problem.newton_tol:
            raise stagnated(f"Newton did not converge in {problem.max_newton} iterations")
    return SolveState(u, c, t, r_sup, margin, iterations, tuple(trace))


def uniform_schedule(steps: int = 21) -> np.ndarray:
    if steps < 2:
        raise ValueError("schedule needs at least the endpoints")
    return np.linspace(0.0, 1.0, steps)


def run_continuity(problem: TorusProblem, t_schedule, min_step: float = 1e-4) -> SolveReport:
    """March the continuity parameter from 0 to 1 with warm starts.

    On Newton stagnation the t-step is bisected, down to ``min_step`` before
    aborting with a partial report.  Recorded path constants are checked
    against their monotone bounds:

      riemannian:  t*min(h0) <= c_t <= t*max(h0)   (within PATH_BOUND_SLACK),
      quotient:    c_t >= t * (class constant)      (within PATH_BOUND_SLACK).
    """
    schedule = np.asarray(list(t_schedule), dtype=float)
    if schedule.ndim != 1 or schedule.size < 2:
        raise ValueError("t_schedule must be a 1-D list of at least two values")
    if not (schedule[0] == 0.0 and schedule[-1] == 1.0):
        raise ValueError("t_schedule must start at 0 and end at 1")
    if np.any(np.diff(schedule) <= 0):
        raise ValueError("t_schedule must be strictly increasing")

    h0_bounds = None
    quotient_floor = None
    if problem.path is PathKind.RIEMANNIAN:
        h0 = background_value(problem, 0.0)
        h0_bounds = (float(h0.min()), float(h0.max()))
    if problem.path is PathKind.QUOTIENT:
        quotient_floor = problem.class_constant

    report = SolveReport()
    state: SolveState | None = None
    t_done = None
    pending = list(schedule)
    while pending:
        t_next = pending[0]
        try:
            state = newton_solve(problem, t_next, warm=state)
        except StagnationError:
            t_from = 0.0 if t_done is None else t_done
            if t_next - t_from <= min_step:
                report.complete = False
                return report
            pending.insert(0, 0.5 * (t_from + t_next))
            continue
        pending.pop(0)
        t_done = t_next
        _check_path_bounds(state, h0_bounds, quotient_floor)
        report.record(state, problem.normalization)
    return report


def _check_path_bounds(state: SolveState, h0_bounds, quotient_floor) -> None:
    t, c, slack = state.t, state.c, PATH_BOUND_SLACK
    if h0_bounds is not None:
        lo, hi = t * h0_bounds[0], t * h0_bounds[1]
        if not (lo - slack <= c <= hi + slack):
            raise PathBoundError(
                f"c_t = {c:.12g} outside [t*min(h0), t*max(h0)] = "
                f"[{lo:.12g}, {hi:.12g}] at t={t:.6g}"
            )
    if quotient_floor is not None:
        if c < t * quotient_floor - slack:
            raise PathBoundError(
                f"c_t = {c:.12g} below t*c = {t * quotient_floor:.12g} at t={t:.6g}"
            )
