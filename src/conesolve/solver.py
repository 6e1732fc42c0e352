"""Damped Newton solves of F(A[u]) = rhs(t, c) on the torus, with the unknown
constant c solved simultaneously.

The unknown pair is (u mean-zero, c); constants span the cokernel of the
linearization on a closed manifold, so the Newton system is the pointwise
linearized equation in (dv, dc), with the mean-zero gauge of dv built into the
Krylov search space.  An iterate is read only as u's Hessian components c_e,
and A[u] = A[0] + M c as packed real rows, entries first, for the matrix M
of the packed B_e (``eigencalc.Packing``).  One sigma recursion on the rows
(``eigencalc.SigmaTable``) gives the cone margin, F and dF, whose Hessian
weights are M^T (g D).  The linear solves are matrix-free restarted GMRES
(``gmres``, Saad & Schultz 1986) preconditioned by the exact inverse of
tau Lap_alpha - s*dc, tau = tr dF / n pointwise (Concus & Golub 1973), each
to the relative residual max(min(1e-3, 0.1 |r|_sup), 0.1 newton_tol / |r|_2,
1e-12) of the Newton residual r: an inexact-Newton forcing term (Eisenstat &
Walker 1996) whose floor stops at a linear residual of 2-norm, hence of sup
norm, 0.1 newton_tol.

Continuity paths, each anchored at a member solvable from u = 0:

  ``hessian``     F(A[u]) = t*H + (1-t)*H0 + c,     H0 = F(A[0]),
  ``quotient``    f_t(lambda(A[u])) = -c,           f_t the blended quotient,
  ``riemannian``  F(A[u]) = c + (1-t)*h0,           h0 = F(A[0]) pointwise,
  ``fixed``       F(A[u]) = h + c.

From the third t on, Newton starts at the secant prediction of the last two
accepted states (Allgower & Georg 1990, ch. 2), the second from the first.  On
Newton stagnation the t-step is bisected, down to ``MIN_T_STEP``, before a
partial report.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .eigencalc import Packing, SigmaTable, combine, require_hermitian
from .operators import BlendedQuotient, HessianQuotientNeg, SymmetricOperator
from .rules import require
from .torus import (
    MatrixField,
    PeriodicGrid,
    ScalarField,
    class_constant,
    constant_metric,
    hessian_components,
    hessian_symbols,
    laplacian_symbol,
    packed_frame,
    spectral_hessian_components,
)
# unused here; the benchmark's tracer binds its spans at these names
from .eigencalc import eigen_decompose  # noqa: F401
from .torus import endomorphism_field, hessian  # noqa: F401


#: step halvings the Newton line search tries before it stagnates
MAX_HALVINGS = 30
#: slack of the monotone bounds on the recorded path constants c_t
PATH_BOUND_SLACK = 1e-8
#: the shortest t-step ``run_continuity`` bisects down to before it gives up
MIN_T_STEP = 1e-4
#: Arnoldi steps between GMRES restarts
GMRES_RESTART = 30
#: restarts GMRES makes before it reports failure
GMRES_MAX_RESTARTS = 200


class AdmissibilityError(ValueError):
    """Eigenvalues of A[u] left the operator cone somewhere on the grid."""

    #: what ``margin`` measures, for the message
    measure = "inadmissible data: cone margin"

    def __init__(self, worst_index: tuple, margin: float):
        self.worst_index = worst_index
        self.margin = margin
        super().__init__(f"{self.measure} {margin:.6g} at grid point {worst_index}")


class EllipticityError(AdmissibilityError):
    """dF at an admissible iterate is not elliptic: its ``margin``, tr dF / n
    at ``worst_index``, is not a finite number > 0."""

    measure = "non-elliptic linearization: tr dF / n"


class StagnationError(RuntimeError):
    """Newton stopped without converging: the line search exhausted its
    halvings, the iteration cap was reached or a Krylov solve failed."""

    def __init__(self, message: str, state: "SolveState | None" = None):
        self.state = state
        super().__init__(message)


class PathBoundError(RuntimeError):
    """A recorded path constant violated its monotone bound."""


#: how a solution is pinned: the statistic of u that is subtracted from it
NORMALIZATIONS = {"mean_zero": np.ndarray.mean, "sup_zero": np.ndarray.max}

#: the rule of each solve setting, for ``rules.require``: (predicate, phrase)
SOLVE_RULES = {
    "normalization": (NORMALIZATIONS.__contains__, f"must be {' or '.join(NORMALIZATIONS)}"),
    "newton_tol": (lambda tol: 0.0 < tol < math.inf, "must be a finite number > 0"),
    "max_newton": (lambda count: count >= 1, "must be >= 1"),
    "schedule": (lambda steps: steps >= 2, "must have at least 2 steps"),
}


class PathKind(enum.Enum):
    HESSIAN = "hessian"
    QUOTIENT = "quotient"
    RIEMANNIAN = "riemannian"
    FIXED = "fixed"


@dataclass
class TorusProblem:
    """Problem data: operator, backgrounds, right-hand side and path choice.
    alpha and chi are checked and read once, at construction, into the read-only
    ``torus.packed_frame`` (``root_inverse``, ``packing``, ``background`` A[0],
    ``basis`` M) and ``laplacian_symbol``; ``components`` transforms a field,
    ``endomorphism`` assembles every A[u]."""

    grid: PeriodicGrid
    op: SymmetricOperator
    alpha: np.ndarray
    chi: MatrixField
    h: ScalarField | None = None
    path: PathKind = PathKind.FIXED
    normalization: str = "mean_zero"
    newton_tol: float = 1e-10
    max_newton: int = 50
    root_inverse: np.ndarray = field(init=False, repr=False, compare=False)
    packing: Packing = field(init=False, repr=False, compare=False)
    background: np.ndarray = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    laplacian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for setting in ("normalization", "newton_tol", "max_newton"):
            require(SOLVE_RULES, setting, getattr(self, setting))
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
        self.root_inverse, self.packing, self.background, self.basis = packed_frame(
            self.alpha, self.chi)
        self.laplacian = laplacian_symbol(self.grid, self.alpha)
        for held in (self.root_inverse, self.background, self.basis, self.laplacian):
            held.setflags(write=False)

    def components(self, u: ScalarField) -> np.ndarray:
        """u's Hessian components c_e(u): the one place a solve transforms a field."""
        if u.grid != self.grid:
            raise ValueError("fields must share one grid")
        return hessian_components(u.values, self.grid)

    def endomorphism(self, comps: np.ndarray | None) -> np.ndarray:
        """The rows of A[u] = A[0] + sum_e c_e B_e from u's components
        ``comps``; the held A[0] itself for None."""
        if comps is None:
            return self.background
        return combine(self.basis, comps, self.background)

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
        return class_constant(self.background, self.packing, self.grid, self.op.l, self.op.k)


@dataclass
class SolveState:
    """A converged (or, in a StagnationError, the last) Newton iterate at t.

    ``newton_solve`` also returns ``components``, the Hessian components of
    its final u, from which the next t-step's start is evaluated with no
    transform; a state without them, as a caller may build, is transformed at
    the start, and ``SolveReport.record`` drops them.  ``trace`` holds the
    sup-norm residual and the cone margin of every iterate from the start to
    this one, ``iterations + 1`` entries; the report writes it as
    ``newton_trace``.  ``newton_steps`` holds what each Newton step did,
    ``iterations`` entries: the Krylov solve's ``forcing``, its
    ``krylov_products`` and final ``krylov_residual`` (relative, 2-norm), and
    the accepted ``step`` length, 2^-halvings.
    """

    u: ScalarField
    c: float
    t: float
    residual_norm: float
    admissibility_margin: float
    iterations: int = 0
    trace: tuple = ()
    newton_steps: tuple = ()
    components: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class SolveReport:
    steps: list[dict] = field(default_factory=list)
    final: SolveState | None = None
    complete: bool = True

    def record(self, state: SolveState, normalization: str, start: str) -> None:
        """Append the step record of a converged state and make it the final
        state, with u normalized as the problem asks.  ``start`` says where its
        Newton solve started: "cold", "warm" (the last state), "secant" (the
        secant prediction) or "secant_rejected" (the last state, after an
        inadmissible prediction)."""
        self.steps.append({
            "start": start,
            "t": float(state.t),
            "c": float(state.c),
            "residual_norm": float(state.residual_norm),
            "admissibility_margin": float(state.admissibility_margin),
            "newton_iterations": int(state.iterations),
            "newton_trace": [
                {"residual_sup": float(it["residual_sup"]), "margin": float(it["margin"])}
                for it in state.trace
            ],
            "newton_steps": [dict(step) for step in state.newton_steps],
        })
        self.final = replace(state, u=normalize(state.u, normalization), components=None)

    def to_dict(self) -> dict:
        out = {
            "schema": "v1",
            "complete": self.complete,
            "steps": self.steps,
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
    require(SOLVE_RULES, "normalization", mode)
    return ScalarField(u.grid, u.values - NORMALIZATIONS[mode](u.values))


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

    @classmethod
    def of(cls, table: SigmaTable) -> "PointwiseEvaluation":
        """The margin, its worst point and, if admissible, F, read from ``table``."""
        margins = table.margin()
        worst = int(np.argmin(margins))
        margin = float(margins.flat[worst])
        value = table.value() if margin > 0.0 else None
        return cls(table, margin, np.unravel_index(worst, margins.shape), value)

    def require_admissible(self) -> "PointwiseEvaluation":
        if self.margin <= 0.0:
            raise AdmissibilityError(self.worst_index, self.margin)
        return self


def evaluate_pointwise(problem: TorusProblem, comps: np.ndarray | None,
                       t: float) -> PointwiseEvaluation:
    """Evaluate A[u] from u's Hessian components ``comps`` (the held A[0] for
    None), the sigma table of the operator in force at t, the cone margin and
    F, from the problem's held arrays."""
    return PointwiseEvaluation.of(
        SigmaTable.at(path_operator(problem, t), problem.endomorphism(comps), problem.packing))


def rhs_base(problem: TorusProblem, t: float) -> np.ndarray:
    """The c-independent part of the right-hand side at parameter t."""
    if problem.path is PathKind.HESSIAN:
        return t * problem.h.values + (1.0 - t) * problem.background_value
    if problem.path is PathKind.QUOTIENT:
        return np.zeros(problem.grid.shape)
    if problem.path is PathKind.RIEMANNIAN:
        return (1.0 - t) * problem.background_value
    return problem.h.values


def admissibility_margin(problem: TorusProblem, u: ScalarField, t: float = 1.0) -> float:
    """min over the grid of the cone margin of lambda(A[u]); may be <= 0."""
    return evaluate_pointwise(problem, problem.components(u), t).margin


def residual(problem: TorusProblem, u: ScalarField, c: float, t: float) -> ScalarField:
    """Pointwise F_t(A[u]) - rhs_t(c); raises AdmissibilityError off the cone."""
    ev = evaluate_pointwise(problem, problem.components(u), t).require_admissible()
    rhs = rhs_base(problem, t) + constant_sign(problem) * c
    return ScalarField(problem.grid, ev.value - rhs)


class Linearization:
    """Matrix-free derivative of the residual at a fixed admissible iterate,
    and ``inv_tau``, 1 / tau for tau = tr D / n pointwise; EllipticityError
    if tau is not a finite number > 0 somewhere.

    It allocates the buffers of its products once: the complex work spectrum
    of ``spectral_hessian_components``, ``components`` and the weighted sum.
    Every ``apply`` overwrites them, so a product allocates nothing of
    component size.  ``components`` holds the Hessian components of the last
    direction applied, until the next product; the field ``apply`` returns is
    its own."""

    def __init__(self, problem: TorusProblem, ev: PointwiseEvaluation):
        self.problem = problem
        self.grid = problem.grid
        ev.require_admissible()
        d = ev.table.derivative()
        tau = d[:self.grid.n].sum(axis=0) / self.grid.n
        worst = int(np.argmin(np.where(np.isfinite(tau), tau, -np.inf)))
        if not 0.0 < tau.flat[worst] < math.inf:
            raise EllipticityError(np.unravel_index(worst, tau.shape), float(tau.flat[worst]))
        self.inv_tau = 1.0 / tau
        self.sign = constant_sign(problem)
        # <D, sum_e c_e B_e> = sum_e <D, B_e> c_e: one weight per Hessian
        # component, so a matvec never forms the n x n Hessian field
        self.weights = problem.packing.pairings(problem.basis, d)
        self._work = np.empty(hessian_symbols(self.grid).symbols.shape, dtype=complex)
        self.components = np.empty(self.weights.shape)
        self._sum = np.empty(self.grid.shape)

    def apply(self, spec: np.ndarray, dc: float) -> ScalarField:
        """Directional derivative: <D, alpha-orthonormal Hess v> - s*dc, for
        the v whose rfftn half spectrum is ``spec``, as the Krylov solve keeps
        its directions: the Hessian components take E inverse transforms.
        """
        spectral_hessian_components(spec, self.grid, self._work, self.components)
        np.einsum("e...,e...->...", self.weights, self.components, out=self._sum)
        return ScalarField(self.grid, self._sum - self.sign * dc)


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
    """Solve dF - s*dc = -r for mean-zero v by ``gmres`` to relative residual
    ``forcing``, preconditioned with the exact inverse of tau Lap_alpha - s*dc
    for tau = tr dF / n pointwise.  The search space is v's rfftn half
    spectrum, zero mode 0, with dc appended.  Returns (dv, dc, comp(dv),
    info, work): comp(dv) is ``lin.components``, the last product's, and
    work holds ``krylov_products`` and the final relative ``krylov_residual``.
    """
    grid = lin.grid
    sign = lin.sign
    axes = tuple(range(grid.stored_axes))
    symbol = lin.problem.laplacian.copy()
    half, modes = symbol.shape, symbol.size
    zero_mode = (0,) * grid.stored_axes
    symbol[zero_mode] = 1.0  # the zero mode is handled by dc
    inv_tau_mean = lin.inv_tau.mean()
    b = -r.ravel()
    products, last = 0, 0.0  # A x at gmres's start, x = 0

    def matvec(z):
        nonlocal products, last
        products += 1
        last = lin.apply(z[:modes].reshape(half), float(z[modes].real)).values.ravel()
        return last

    def precondition(w):
        # tau Lap v - s*dc = w: the shift makes (w - shift) / tau mean zero
        g = w.reshape(grid.shape)
        shift = (g * lin.inv_tau).mean() / inv_tau_mean
        spec = np.fft.rfftn((g - shift) * lin.inv_tau) / symbol
        spec[zero_mode] = 0.0
        return np.concatenate([spec.ravel(), [-sign * shift]])

    sol, info = lgmres(matvec, b, M=precondition, rtol=forcing)
    dv = np.fft.irfftn(sol[:modes].reshape(half), s=grid.shape, axes=axes)
    work = {"krylov_products": products, "krylov_residual": _norm(b - last) / _norm(b)}
    return ScalarField(grid, dv - dv.mean()), float(sol[modes].real), lin.components, info, work


def newton_solve(problem: TorusProblem, t: float,
                 warm: SolveState | None = None) -> SolveState:
    """Damped Newton on (u, c) at fixed t.

    Accepts a step only when the iterate stays strictly admissible and the
    sup-norm residual decreases; halves the step up to ``MAX_HALVINGS`` times
    and raises StagnationError with the last state when exhausted, or when a
    Krylov solve does not converge.  Each Krylov solve is asked for the
    relative residual max(min(1e-3, 0.1 |r|_sup), 0.1 newton_tol / |r|_2,
    1e-12) (Eisenstat & Walker 1996); gmres reads it against |r|_2, so the
    floor asks for a linear residual of 2-norm, hence of sup norm, at most
    0.1 newton_tol.  Newton exits on the sup-norm test alone, so a loose
    solve can cost a step but cannot end one early.  Each iterate is evaluated once, from the
    Hessian components carried with u: a trial reads comp(u) + step*comp(dv),
    comp(dv) from the Krylov solve's last product, and forms no field.  The
    cold start evaluates the held A[0]; a warm start evaluates ``warm``'s
    components (transforming u only if it carries none) and leaves ``warm``
    as it was handed.  The returned state carries the final iterate's
    components.  A start that already meets ``newton_tol`` is returned after
    0 iterations.
    """
    grid = problem.grid
    sign = constant_sign(problem)
    base = rhs_base(problem, t)
    if warm is None:
        u = ScalarField.zeros(grid)
        comps = np.zeros((problem.basis.shape[1],) + grid.shape)
        ev = evaluate_pointwise(problem, None, t)
    else:
        u = normalize(warm.u, "mean_zero")
        comps = problem.components(u) if warm.components is None else warm.components
        ev = evaluate_pointwise(problem, comps, t)
    ev.require_admissible()
    c = sign * float((ev.value - base).mean()) if warm is None else warm.c
    warm = None  # a predicted start is held nowhere else: its arrays go once replaced
    r = ev.value - (base + sign * c)
    r_sup = float(np.abs(r).max())
    margin = ev.margin
    trace = [{"residual_sup": r_sup, "margin": margin}]
    newton_steps = []
    iterations = 0

    def stagnated(message: str) -> StagnationError:
        state = SolveState(u, c, t, r_sup, margin, iterations, tuple(trace), tuple(newton_steps))
        return StagnationError(f"{message} at t={t:.6g}, residual {r_sup:.3e}", state)

    while r_sup >= problem.newton_tol:
        if iterations == problem.max_newton:
            raise stagnated(f"Newton did not converge in {problem.max_newton} iterations")
        forcing = max(min(1e-3, 0.1 * r_sup), 0.1 * problem.newton_tol / _norm(r), 1e-12)
        lin = Linearization(problem, ev)
        ev = None  # the sigma table is not read again: free it before the Krylov solve
        dv, dc, dv_comps, info, work = _solve_newton_system(lin, r, forcing)
        del lin
        if info != 0:
            raise stagnated(f"Krylov solve did not converge (gmres info {info})")
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            comps_try = comps + step * dv_comps
            ev = evaluate_pointwise(problem, comps_try, t)
            if ev.margin > 0.0:
                c_try = c + step * dc
                r_try = ev.value - (base + sign * c_try)
                r_try_sup = float(np.abs(r_try).max())
                if r_try_sup < r_sup:
                    u = ScalarField(grid, u.values + step * dv.values)
                    comps, c, r, r_sup = comps_try, c_try, r_try, r_try_sup
                    margin = ev.margin
                    break
            step *= 0.5
        else:
            raise stagnated("line search stagnated")
        del dv, dv_comps  # free them before the next Krylov solve
        iterations += 1
        trace.append({"residual_sup": r_sup, "margin": margin})
        newton_steps.append({"forcing": forcing, **work, "step": step})
    return SolveState(u, c, t, r_sup, margin, iterations, tuple(trace), tuple(newton_steps),
                      comps)


def uniform_schedule(steps: int = 21) -> np.ndarray:
    require(SOLVE_RULES, "schedule", steps)
    return np.linspace(0.0, 1.0, steps)


def check_schedule(t_schedule) -> np.ndarray:
    """The t values as a float array: at least two, from 0 to 1, increasing; else ValueError."""
    schedule = np.asarray(list(t_schedule), dtype=float)
    if schedule.ndim != 1 or schedule.size < 2:
        raise ValueError("the t values must be a 1-D list of at least two")
    if not (schedule[0] == 0.0 and schedule[-1] == 1.0):
        raise ValueError("the t values must start at 0 and end at 1")
    if not np.all(np.diff(schedule) > 0):
        raise ValueError("the t values must be strictly increasing")
    return schedule


def secant_start(prev: SolveState, last: SolveState, t: float) -> SolveState:
    """The start at t predicted from the accepted states ``prev`` and ``last``:
    x_last + theta (x_last - x_prev) for u, c and the Hessian components,
    with theta = (t - t_last) / (t_last - t_prev).  Its residual and margin
    are NaN until ``newton_solve`` evaluates it."""
    theta = (t - last.t) / (last.t - prev.t)
    u = last.u.values + theta * (last.u.values - prev.u.values)
    comps = last.components + theta * (last.components - prev.components)
    return SolveState(ScalarField(last.u.grid, u), last.c + theta * (last.c - prev.c), t,
                      math.nan, math.nan, components=comps)


def _solve_step(problem: TorusProblem, t: float, prev: SolveState | None,
                last: SolveState | None) -> tuple[SolveState, str]:
    """Newton at t from the secant prediction of ``prev`` and ``last``, from
    ``last`` alone, or cold; returns the state and its start (see
    ``SolveReport.record``)."""
    if last is None:
        return newton_solve(problem, t), "cold"
    if prev is None:
        return newton_solve(problem, t, warm=last), "warm"
    try:
        return newton_solve(problem, t, warm=secant_start(prev, last, t)), "secant"
    except AdmissibilityError:
        pass  # fall back outside the handler, whose traceback holds the prediction
    return newton_solve(problem, t, warm=last), "secant_rejected"


def run_continuity(problem: TorusProblem, t_schedule) -> SolveReport:
    """March the continuity parameter from 0 to 1, each t-step from the third
    on from the secant prediction of the last two accepted states
    (``_solve_step``).

    On Newton stagnation the t-step is bisected, down to ``MIN_T_STEP`` before
    aborting with a partial report; the retry predicts from the same two
    states, at the uneven spacing.  Recorded path constants are checked
    against their monotone bounds:

      riemannian:  t*min(h0) <= c_t <= t*max(h0)   (within PATH_BOUND_SLACK),
      quotient:    c_t >= t * (class constant)      (within PATH_BOUND_SLACK).
    """
    schedule = check_schedule(t_schedule)

    h0_bounds = None
    quotient_floor = None
    if problem.path is PathKind.RIEMANNIAN:
        h0 = problem.background_value
        h0_bounds = (float(h0.min()), float(h0.max()))
    if problem.path is PathKind.QUOTIENT:
        quotient_floor = problem.class_constant

    report = SolveReport()
    prev: SolveState | None = None
    state: SolveState | None = None
    pending = list(schedule)
    while pending:
        t_next = pending[0]
        try:
            accepted, start = _solve_step(problem, t_next, prev, state)
        except StagnationError:
            t_from = 0.0 if state is None else state.t
            if t_next - t_from <= MIN_T_STEP:
                report.complete = False
                return report
            pending.insert(0, 0.5 * (t_from + t_next))
            continue
        pending.pop(0)
        prev, state = state, accepted
        _check_path_bounds(state, h0_bounds, quotient_floor)
        report.record(state, problem.normalization, start)
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
