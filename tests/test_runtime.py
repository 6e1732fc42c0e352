"""Whole-program properties checked in fresh interpreters: the report does not
depend on the BLAS thread count, and a run needs numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import conesolve

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


def run_python(args, threads=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FULL_C2_CFG.format(out=tmp_path / "out"))
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
