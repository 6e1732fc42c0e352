"""The benchmark's workloads: configs generated from a seed, the operations a
user runs on them, and the checks every operation's output must pass.

Each workload has a main operation (``conesolve solve``, or ``conesolve abp``
on abp-128) and a certify operation (``conesolve certify`` on the workload's
config).  The program only ever sees the generated config file or command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NEWTON_TOL = 1e-10
#: exact identities for c hold to rounding; measured agreement is below 1e-11
C_TOLERANCE = 1e-10
#: agreement with the recorded reference c, across commits and translations
REFERENCE_TOLERANCE = 1e-8
#: the pinned acceptance slack of the contact-set check (diagnostics.ABP_GRID_TOLERANCE)
ABP_GRID_TOLERANCE = 0.05
ABP_GRID = 128
ABP_CASES = 40

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _config(problem: str, path: str, grid: str, chi: str, report_dir: Path,
            rhs: str = "zero", schedule: int = 21) -> str:
    return (
        f"[problem]\n{problem}\npath = {path}\n"
        f"[grid]\n{grid}\n"
        f"[background]\nalpha = alpha_scaled(1)\nchi = {chi}\n"
        f"[rhs]\nh = {rhs}\n"
        f"[solve]\nschedule = {schedule}\nnewton_tol = {NEWTON_TOL!r}\n"
        f"[certify]\nenabled = true\n"
        f"[output]\ndirectory = {report_dir}\nsave_fields = false\n"
    )


def translated_config(seed: int, outdir: Path, **spec):
    """The config of ``spec`` with chi and h moved to files, translated on the torus.

    chi and h come from the program's generators with fixed generator seeds;
    the workload seed picks a grid translation of both.  Translation is a
    symmetry of every problem here, so each seed gives the program other input
    files but the same work and the same c.  With seeded generators instead,
    the certificate's work changed by up to half between seeds.
    Returns the config text and the untranslated problem.
    """
    from conesolve.cli import build_problem
    from conesolve.config import parse_config
    from conesolve.torus import MatrixField, ScalarField, save_field

    base, _ = build_problem(parse_config(_config(report_dir=outdir / "report", **spec)))
    grid = base.grid
    axes = tuple(range(grid.stored_axes))
    shift = tuple(int(k) for k in
                  np.random.default_rng(seed).integers(0, grid.points_per_axis, len(axes)))
    save_field(MatrixField(grid, np.roll(base.chi.values, shift, axes)), outdir / "chi")
    spec["chi"] = f"file:{outdir / 'chi'}"
    if spec.get("rhs", "zero") != "zero":
        save_field(ScalarField(grid, np.roll(base.h.values, shift, axes)), outdir / "h")
        spec["rhs"] = f"file:{outdir / 'h'}"
    return _config(report_dir=outdir / "report", **spec), base


@dataclass
class Workload:
    """One workload, materialized for one seed under one output directory."""

    name: str
    seed: int
    outdir: Path
    config_text: str
    main_argv: list[str]
    #: (what, value, tolerance) that the final c of a solve must match
    c_targets: list[tuple[str, float, float]] = field(default_factory=list)
    class_constant: float | None = None

    @property
    def config_path(self) -> Path:
        return self.outdir / "workload.cfg"

    @property
    def certify_argv(self) -> list[str]:
        return ["certify", "--config", str(self.config_path)]

    @property
    def certify_report_path(self) -> Path:
        return self.outdir / "report" / "solve_report.json"

    @property
    def is_solve(self) -> bool:
        return self.main_argv[0] == "solve"

    @property
    def report_path(self) -> Path:
        if self.is_solve:
            return self.certify_report_path
        return self.outdir / "abp" / "abp_report.json"


def _solve_workload(name: str, seed: int, outdir: Path, text: str, **kw) -> Workload:
    return Workload(name, seed, outdir, text,
                    ["solve", "--config", str(outdir / "workload.cfg")], **kw)


def real3_hessian(seed: int, outdir: Path) -> Workload:
    text, _ = translated_config(
        seed, outdir, problem="mode = real\ndimension = 3\noperator = log_sigma_k\nk = 2",
        path="hessian", grid="points_per_axis = 16", chi="chi_perturbed(1, 0.1, 21)",
        rhs="random_smooth(0.3, 11)", schedule=6,
    )
    ref = json.loads(REFERENCE_FILE.read_text())["real3-hessian"]
    return _solve_workload("real3-hessian", seed, outdir, text,
                           c_targets=[("recorded reference", ref["c"], REFERENCE_TOLERANCE)])


def quotient_c3(seed: int, outdir: Path) -> Workload:
    text, _ = translated_config(
        seed, outdir,
        problem="mode = complex\ndimension = 3\noperator = hessian_quotient\nk = 2\nl = 1",
        path="quotient", grid="points_per_axis = 20\nreduced = true",
        chi="chi_perturbed(2, 0.1, 21)", schedule=11,
    )
    # chi = 2*alpha + ddbar(phi): the class constant of (l, k) = (1, 2) is 2^(l-k)
    return _solve_workload("quotient-c3", seed, outdir, text,
                           c_targets=[("class constant", 0.5, C_TOLERANCE)],
                           class_constant=0.5)


def c2_full_fixed(seed: int, outdir: Path) -> Workload:
    # small amplitudes keep the discrete identity below exact to ~1e-11 at 12^4
    text, base = translated_config(
        seed, outdir, problem="mode = complex\ndimension = 2\noperator = monge_ampere",
        path="fixed", grid="points_per_axis = 12\nreduced = false",
        chi="chi_perturbed(1, 0.05, 21)", rhs="random_smooth(0.12, 11)",
    )
    # det(chi + ddbar u) averages to det(alpha) = 1, so mean(e^(h + c)) = 1
    c = -math.log(float(np.mean(np.exp(base.h.values))))
    return _solve_workload("c2-full-fixed", seed, outdir, text,
                           c_targets=[("-log(mean e^h)", c, C_TOLERANCE)])


def abp_128(seed: int, outdir: Path) -> Workload:
    # conesolve abp takes no config; certify_s here certifies the quotient demo shape
    text, _ = translated_config(
        seed, outdir,
        problem="mode = complex\ndimension = 2\noperator = hessian_quotient\nk = 2\nl = 1",
        path="quotient", grid="points_per_axis = 32\nreduced = true",
        chi="chi_perturbed(2, 0.1, 21)", schedule=11,
    )
    # one fuzz seed for every workload seed: the contact-set work of the 40
    # cases changes by up to a fifth between fuzz seeds
    return Workload(
        "abp-128", seed, outdir, text,
        ["abp", "--grid", str(ABP_GRID), "--cases", str(ABP_CASES), "--seed", "0",
         "--output", str(outdir / "abp")],
        class_constant=0.5,
    )


WORKLOADS = {
    "real3-hessian": real3_hessian,
    "quotient-c3": quotient_c3,
    "c2-full-fixed": c2_full_fixed,
    "abp-128": abp_128,
}


def check_solve(report: dict, rc: int, wl: Workload) -> list[str]:
    """Problems with one ``conesolve solve`` result; empty when it is correct."""
    problems = _check_certified(report, rc)
    solve = report.get("solve") or {}
    final = solve.get("final") or {}
    if solve.get("complete") is not True:
        problems.append("solve report not complete")
    if not final:
        return problems + ["no final state"]
    if not final.get("residual_norm", math.inf) < NEWTON_TOL:
        problems.append(f"final residual {final.get('residual_norm')} >= {NEWTON_TOL}")
    if final.get("t") != 1.0:
        problems.append(f"final t = {final.get('t')}")
    c = final.get("c", math.nan)
    for what, value, tol in wl.c_targets:
        if not abs(c - value) <= tol:
            problems.append(f"c = {c!r}, {what} {value!r}")
    return problems


def check_certify(report: dict, rc: int, wl: Workload) -> list[str]:
    """Problems with one ``conesolve certify`` result."""
    problems = _check_certified(report, rc)
    if report.get("certify_only") is not True:
        problems.append("not a certify-only report")
    if wl.class_constant is not None:
        got = (report.get("certificate") or {}).get("class_constant", math.nan)
        if not abs(got - wl.class_constant) <= C_TOLERANCE:
            problems.append(f"class constant {got!r}, expected {wl.class_constant!r}")
    return problems


def check_abp(report: dict, rc: int, wl: Workload) -> list[str]:
    """Problems with one ``conesolve abp`` result."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if report.get("all_fuzz_passed") is not True:
        problems.append("not all fuzz cases passed")
    cases = report.get("cases") or []
    if len(cases) != ABP_CASES + 1:
        problems.append(f"{len(cases)} cases, expected {ABP_CASES + 1}")
    quad = cases[0] if cases else {}
    if quad.get("case") != "quadratic" or not (
            quad.get("relative_error", math.inf) <= ABP_GRID_TOLERANCE):
        problems.append(f"quadratic case off: {quad}")
    return problems


def _check_certified(report: dict, rc: int) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    verdict = (report.get("certificate") or {}).get("verdict")
    if verdict != "certified":
        problems.append(f"certificate verdict {verdict!r}")
    return problems


def check_main(report: dict, rc: int, wl: Workload) -> list[str]:
    return (check_solve if wl.is_solve else check_abp)(report, rc, wl)


def checker_escapes(report: dict, wl: Workload) -> list[str]:
    """Wrong results, made from a correct main-operation report, that pass.

    The report with a nonzero exit code, and the report with c moved by 1e-6
    (on abp-128: with the quadratic case off by twice the tolerance), must
    each fail the checks.  An empty list means the checks can fail.
    """
    escaped = []
    if check_main(report, 0, wl):
        return ["the unaltered report does not pass, so nothing is shown"]
    if not check_main(report, 2, wl):
        escaped.append("exit code 2 passed")
    wrong = json.loads(json.dumps(report))
    if wl.is_solve:
        wrong["solve"]["final"]["c"] += 1e-6
    else:
        wrong["cases"][0]["relative_error"] = 2 * ABP_GRID_TOLERANCE
    if not check_main(wrong, 0, wl):
        escaped.append("a perturbed result passed")
    return escaped
