"""Whole-program properties checked in fresh interpreters: the report does not
depend on the BLAS thread count, a run needs numpy alone, and a bad command
line or a degenerate class gives its documented exit status, not a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conesolve
from conesolve import MatrixField, PeriodicGrid, save_field

SRC = Path(conesolve.__file__).resolve().parents[1]

#: full complex n = 2 on 12^4 points: the Krylov vectors hold 20737 entries,
#: enough for a threaded BLAS to split a level-1 call between threads
FULL_C2_CFG = """
[problem]
mode = complex
dimension = 2
operator = monge_ampere
path = fixed

[grid]
points_per_axis = 12
reduced = false

[background]
chi = chi_perturbed(1, 0.05, 21)

[rhs]
h = random_smooth(0.12, 11)

[output]
directory = {out}
save_fields = false
"""

#: FULL_C2_CFG under a non-diagonal Hermitian metric file: every B_e is dense,
#: so the assembly of A[u] sums every component into every row
METRIC_C2_CFG = FULL_C2_CFG.replace("[background]\n", "[background]\nalpha = file:{alpha}\n")

#: a quotient-path continuity on complex n = 3, reduced 16^3: each t-step
#: starts from the evaluation the last one carried
QUOTIENT_C3_CFG = """
[problem]
mode = complex
dimension = 3
operator = hessian_quotient
k = 2
l = 1
path = quotient

[grid]
points_per_axis = 16
reduced = true

[background]
chi = chi_perturbed(2, 0.1, 21)

[solve]
schedule = 6

[output]
directory = {out}
save_fields = false
"""

#: a hessian-path continuity on real n = 3, 8^3: F(A[0]) and the cold start
#: both evaluate the held A[0]
REAL3_HESSIAN_CFG = """
[problem]
mode = real
dimension = 3
operator = log_sigma_k
k = 2
path = hessian

[grid]
points_per_axis = 8

[background]
chi = chi_perturbed(1, 0.1, 21)

[rhs]
h = random_smooth(0.3, 11)

[solve]
schedule = 3

[output]
directory = {out}
save_fields = false
"""

TINY_CFG = """
[problem]
mode = complex
dimension = 1
operator = monge_ampere
path = fixed

[grid]
points_per_axis = 16

[background]
chi = chi_perturbed(1, 0.1, 3)

[rhs]
h = random_smooth(0.1, 5)

[output]
directory = {out}
save_fields = false
"""


#: complex n = 3 with chi = -alpha: sigma_3 of A[0] = -I is -1 everywhere, so
#: the degree-3 class integral of the (1, 3) quotient is not positive
DEGENERATE_QUOTIENT_CFG = """
[problem]
mode = complex
dimension = 3
operator = hessian_quotient
k = 3
l = 1
path = quotient

[grid]
points_per_axis = 8
reduced = true

[background]
chi = chi_scaled(-1)

[certify]
enabled = {certify}

[output]
directory = {out}
save_fields = false
"""


def run_python(args, threads=None, check=True):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check)


@pytest.mark.parametrize("config", [FULL_C2_CFG, METRIC_C2_CFG, QUOTIENT_C3_CFG,
                                    REAL3_HESSIAN_CFG],
                         ids=["fixed-c2-full", "fixed-c2-full-metric", "quotient-c3",
                              "real3-hessian"])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, config):
    grid = PeriodicGrid.make("complex", 2, 12)
    save_field(MatrixField.constant(grid, np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])),
               tmp_path / "alpha")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.format(out=tmp_path / "out", alpha=tmp_path / "alpha"))
    report = tmp_path / "out" / "solve_report.json"
    reports = []
    for threads in (1, 2):
        run_python(["-m", "conesolve.cli", "solve", "--config", str(cfg)], threads)
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_a_run_imports_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.format(out=tmp_path / "out"))
    code = (
        "import sys, conesolve, conesolve.cli\n"
        "assert conesolve.cli.main(['solve', '--config', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = run_python(["-c", code, str(cfg)])
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("certify", ["true", "false"])
def test_a_degenerate_quotient_class_is_a_domain_error(tmp_path, certify):
    # integral sigma_k <= 0 needs A[0] outside Gamma_k somewhere: exit 3 with
    # a report, as an inadmissible background gives
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DEGENERATE_QUOTIENT_CFG.format(certify=certify, out=tmp_path / "out"))
    done = run_python(["-m", "conesolve.cli", "solve", "--config", str(cfg)], check=False)
    assert done.returncode == 3 and "Traceback" not in done.stderr
    assert "domain error: degree-3 class integral" in done.stderr
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["error"]["kind"] == "domain"


@pytest.mark.parametrize("argv, message", [
    (["solve"], "the following arguments are required: --config"),
    (["certify", "--config", "{cfg}", "--seed", "-1"], "--seed: must be an integer >= 0"),
    (["solve", "--config", "{cfg}", "--seed", "two"], "--seed: must be an integer >= 0"),
    (["abp", "--grid", "4", "--output", "{out}"], "--grid: must be an integer >= 8"),
], ids=["no-config", "negative-seed", "seed-not-an-integer", "abp-grid-below-8"])
def test_usage_errors_exit_4_before_any_output(tmp_path, argv, message):
    # exit 2 is solver stagnation and 1 an abp failure: a bad command line is
    # neither, and it leaves no output directory behind
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.format(out=tmp_path / "out"))
    args = [a.format(cfg=cfg, out=tmp_path / "out") for a in argv]
    done = run_python(["-m", "conesolve.cli", *args], check=False)
    assert done.returncode == 4 and "Traceback" not in done.stderr
    assert message in done.stderr
    assert not (tmp_path / "out").exists()
