"""Command-line entry point: certify, solve, and diagnose from a config file.

Subcommands:

  solve     parse config, certify the trivial comparison function, run the
            configured path, attach diagnostics, write artifacts
  certify   certification only
  selftest  quick operator/calculus property suite, no config needed
  abp       contact-set lower-bound check: closed-form case plus fuzz

Exit codes: 0 success, 1 selftest/abp failure, 2 solver stagnation,
3 domain (admissibility) error, 4 I/O failure or invalid config, 5 refuted certificate.

Reports are deterministic for a fixed config and seed: wall-clock timings are
deliberately excluded so two identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config, parse_generator
from .operators import operator_from_name
from .solver import (
    AdmissibilityError,
    PathKind,
    SolveReport,
    StagnationError,
    TorusProblem,
    background_value,
    newton_solve,
    run_continuity,
    uniform_schedule,
)
from .subsolution import certify_field
from .torus import (
    MatrixField,
    PeriodicGrid,
    ScalarField,
    constant_metric,
    endomorphism_field,
    hessian_perturbation,
    load_field,
    random_band_limited,
    save_field,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_STAGNATION = 2
EXIT_DOMAIN = 3
EXIT_IO = 4
EXIT_REFUTED = 5


def build_problem(cfg: RunConfig) -> tuple[TorusProblem, dict]:
    """Materialize grid, backgrounds, rhs and operator from a config.

    Raises ValueError when the data the config names cannot make the problem.
    """
    grid = PeriodicGrid.make(cfg.mode, cfg.dimension, cfg.points_per_axis,
                             cfg.periods, cfg.reduced)
    extras: dict = {}

    kind, args = parse_generator(cfg.alpha_spec)
    alpha = constant_metric(load_field(cfg.alpha_spec[len("file:"):]) if kind == "file"
                            else args[0] * np.eye(grid.n), grid.n)

    kind, args = parse_generator(cfg.chi_spec)
    if kind == "chi_scaled":
        chi = MatrixField.constant(grid, args[0] * alpha)
    elif kind == "chi_perturbed":
        scale, amplitude = args[0], args[1]
        seed = int(args[2]) if len(args) > 2 else cfg.seed
        _, pert = hessian_perturbation(grid, amplitude, seed)
        chi = MatrixField(grid, scale * alpha + pert.values)
        extras["chi_perturbation_seed"] = seed
    else:
        chi = load_field(cfg.chi_spec[len("file:"):])

    kind, args = parse_generator(cfg.rhs_spec)
    if kind == "zero":
        h = ScalarField.zeros(grid)
    elif kind == "constant":
        h = ScalarField.constant(grid, args[0])
    elif kind == "random_smooth":
        seed = int(args[1]) if len(args) > 1 else cfg.seed
        h = random_band_limited(grid, args[0], seed)
        extras["rhs_seed"] = seed
    else:
        h = load_field(cfg.rhs_spec[len("file:"):])

    op = operator_from_name(cfg.operator, grid.n, k=cfg.k, l=cfg.l, inner=cfg.inner)
    problem = TorusProblem(
        grid=grid, op=op, alpha=alpha, chi=chi, h=h,
        path=PathKind(cfg.path),
        normalization=cfg.normalization,
        newton_tol=cfg.newton_tol, max_newton=cfg.max_newton,
    )
    return problem, extras


def certify_problem(problem: TorusProblem, cfg: RunConfig) -> dict:
    """Certify the trivial comparison function for the configured path."""
    eigs = np.linalg.eigvalsh(problem.background).reshape(-1, problem.grid.n)
    extra = {}
    if problem.path is PathKind.QUOTIENT:
        extra["class_constant"] = problem.class_constant
        sigmas = np.full(eigs.shape[0], -extra["class_constant"])
    elif problem.path is PathKind.RIEMANNIAN:
        h0 = background_value(problem, 0.0)
        sigmas = np.full(eigs.shape[0], float(h0.max()))
    else:
        sigmas = np.asarray(problem.h.values).ravel()
    cert = certify_field(problem.op, eigs, sigmas, cfg.delta_grid,
                         kappa_samples=cfg.kappa_samples, seed=cfg.seed)
    return {**cert.to_dict(), **extra}


def _diagnostics(problem: TorusProblem, state) -> dict:
    from .diagnostics import hmw_ratio, strong_concavity_flags

    out: dict = {}
    endo = endomorphism_field(problem.alpha, problem.chi, state.u)
    mats = endo.values.reshape(-1, problem.grid.n, problem.grid.n)
    take = np.linalg.eigvalsh(mats[:: max(1, mats.shape[0] // 512)])
    flag_a, flag_b = strong_concavity_flags(problem.op, take)
    out["strong_concavity_flags"] = {"f11_plus_f1_over_lam1": flag_a,
                                     "lam1_f1_smallest": flag_b}
    if problem.grid.mode == "complex":
        rep = hmw_ratio(state.u, problem.alpha)
        out["second_order_gradient_monitor"] = {
            "sup_dd_u": rep.sup_dd_u,
            "sup_grad_sq": rep.sup_grad_sq,
            "ratio": rep.ratio,
            "phi_params": rep.phi_params,
            "psi_params": rep.psi_params,
        }
    return out


def run(cfg: RunConfig, check_only: bool = False, certify_only: bool = False) -> int:
    """Execute certification, solve and diagnostics; write artifacts."""
    outdir = Path(cfg.output_directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    report: dict = {
        "schema": "v1",
        "library_version": __version__,
        "config": cfg.to_dict(),
    }

    try:
        problem, extras = build_problem(cfg)
    except ValueError as exc:
        report["error"] = {"kind": "config", "message": str(exc)}
        _write_report(report, outdir)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    report["generators"] = extras

    try:
        if cfg.certify_enabled or certify_only:
            cert = certify_problem(problem, cfg)
            report["certificate"] = cert
            if cert["verdict"] != "certified":
                _write_report(report, outdir)
                print(f"subsolution refuted; {_refutation(cert['witness'])}", file=sys.stderr)
                return EXIT_REFUTED
        if certify_only:
            report["certify_only"] = True
            _write_report(report, outdir)
            return EXIT_OK
        if check_only:
            report["check_only"] = True
            ok = _selftest_quick()
            report["selftest"] = "pass" if ok else "fail"
            _write_report(report, outdir)
            return EXIT_OK if ok else EXIT_SELFTEST

        if problem.path is PathKind.FIXED:
            solve_report = SolveReport()
            solve_report.record(newton_solve(problem, 1.0), problem.normalization)
        else:
            schedule = (uniform_schedule(cfg.schedule)
                        if isinstance(cfg.schedule, int) else cfg.schedule)
            solve_report = run_continuity(problem, schedule)
        state = solve_report.final
        report["solve"] = solve_report.to_dict()
        if not solve_report.complete:
            _write_report(report, outdir)
            return EXIT_STAGNATION
        report["diagnostics"] = _diagnostics(problem, state)
        if cfg.save_fields:
            save_field(state.u, outdir / "u_final")
            save_field(problem.chi, outdir / "chi")
    except StagnationError as exc:
        report["error"] = {"kind": "stagnation", "message": str(exc)}
        _write_report(report, outdir)
        print(f"stagnation: {exc}", file=sys.stderr)
        return EXIT_STAGNATION
    except (AdmissibilityError,) as exc:
        report["error"] = {"kind": "domain", "message": str(exc)}
        _write_report(report, outdir)
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    _write_report(report, outdir)
    _write_summary(report, outdir)
    return EXIT_OK


def _refutation(witness: dict) -> str:
    if "violation" not in witness:
        return f"witness {witness}"
    violation = witness["violation"]
    return (f"no delta was admissible: each of {witness['skipped_deltas']} leaves the"
            f" natural domain; at delta {witness['delta']}, point {witness['point']}"
            f" without entry {witness['subtuple']} has sigma_{violation['index']}"
            f" = {violation['sigma']:.6g}, not > 0")


def _write_report(report: dict, outdir: Path) -> None:
    (outdir / "solve_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )


def _write_summary(report: dict, outdir: Path) -> None:
    lines = [f"conesolve {report['library_version']} run summary"]
    cfg = report["config"]
    lines.append(
        f"problem: mode={cfg['mode']} n={cfg['dimension']} operator={cfg['operator']}"
        f" path={cfg['path']} grid={cfg['points_per_axis']}"
    )
    if "certificate" in report:
        cert = report["certificate"]
        lines.append(
            f"certificate: {cert['verdict']} delta={cert['delta']}"
            f" R={cert['R']} kappa={cert['kappa']}"
        )
    if "solve" in report:
        final = report["solve"].get("final")
        if final:
            lines.append(
                f"solve: c={final['c']:.12g} residual={final['residual_norm']:.3e}"
                f" margin={final['admissibility_margin']:.4g}"
                f" iterations={final['iterations']}"
            )
        steps = report["solve"]["steps"]
        lines.append(f"path steps: {len(steps)}")
        for s in steps:
            lines.append(
                f"  t={s['t']:.4f} c={s['c']:+.9f} res={s['residual_norm']:.2e}"
                f" iters={s['newton_iterations']}"
            )
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _selftest_quick(verbose: bool = False) -> bool:
    """Fast deterministic property checks across the library."""
    from . import selftest

    return selftest.run_all(verbose=verbose)


def _cmd_solve(args, certify_only: bool = False) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_IO
    if args.output:
        cfg.output_directory = args.output
    if args.seed is not None:
        cfg.seed = args.seed
    check_only = getattr(args, "check_only", False)
    return run(cfg, check_only=check_only, certify_only=certify_only)


def _cmd_certify(args) -> int:
    return _cmd_solve(args, certify_only=True)


def _cmd_selftest(args) -> int:
    ok = _selftest_quick(verbose=True)
    return EXIT_OK if ok else EXIT_SELFTEST


def _cmd_abp(args) -> int:
    from .diagnostics import BallFunction, BallGrid, abp_check

    grid = BallGrid(2, args.grid)
    quad = BallFunction.from_callable(grid, lambda x, y: 0.4 * (x**2 + y**2))
    rep = abp_check(quad, 0.4)
    derived = 0.04 * np.pi
    results = [{
        "case": "quadratic",
        "integral_det": rep.integral_det,
        "derived": derived,
        "relative_error": abs(rep.integral_det - derived) / derived,
        "passed": rep.passed,
    }]
    rng = np.random.default_rng(args.seed or 0)
    count = 0
    while count < args.cases:
        a = rng.uniform(0.5, 1.5)
        b = rng.uniform(-0.2, 0.2, 2)
        amp = rng.uniform(0.0, 0.05)
        kx, ky = rng.integers(1, 4, 2)

        def fn(x, y, a=a, b=b, amp=amp, kx=kx, ky=ky):
            return a * ((x - b[0])**2 + (y - b[1])**2) + amp * np.sin(
                np.pi * kx * x) * np.cos(np.pi * ky * (y + 0.3))

        v = BallFunction.from_callable(grid, fn)
        room = float(v.boundary_values.min() - v.center_value())
        if room <= 0.1:
            continue
        eps = min(0.45, 0.9 * room)
        r = abp_check(v, eps)
        results.append({
            "case": f"fuzz_{count}",
            "epsilon": eps,
            "integral_det": r.integral_det,
            "lower_bound": r.lower_bound,
            "passed": r.passed,
        })
        count += 1
    all_passed = all(r["passed"] for r in results[1:])
    out = {"grid": args.grid, "cases": results, "all_fuzz_passed": all_passed}
    if args.output:
        Path(args.output).mkdir(parents=True, exist_ok=True)
        (Path(args.output) / "abp_report.json").write_text(
            json.dumps(out, indent=2, sort_keys=True) + "\n"
        )
    for r in results:
        tag = "pass" if r["passed"] else "FAIL"
        print(f"[{tag}] {r['case']}")
    return EXIT_OK if all_passed else EXIT_SELFTEST


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conesolve",
        description="Continuity-method solves of symmetric eigenvalue-operator "
                    "equations on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="certify, solve and diagnose")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--output", default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--check-only", action="store_true",
                         help="run certification and the property suite, no solve")
    p_solve.set_defaults(func=_cmd_solve)

    p_cert = sub.add_parser("certify", help="certification only")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--output", default=None)
    p_cert.add_argument("--seed", type=int, default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_self = sub.add_parser("selftest", help="deterministic property suite")
    p_self.set_defaults(func=_cmd_selftest)

    p_abp = sub.add_parser("abp", help="contact-set lower-bound check")
    p_abp.add_argument("--grid", type=int, default=64)
    p_abp.add_argument("--cases", type=int, default=10)
    p_abp.add_argument("--seed", type=int, default=0)
    p_abp.add_argument("--output", default=None)
    p_abp.set_defaults(func=_cmd_abp)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
