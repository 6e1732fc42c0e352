"""The output checks must be able to fail: ``python3 -m pytest bench``.

The benchmark repeats this on every run with the warm-up operation's real
report before it measures anything.
"""

from pathlib import Path

import workloads


def _solve_report(c: float) -> dict:
    return {
        "certificate": {"verdict": "certified"},
        "solve": {"complete": True, "final": {"c": c, "t": 1.0, "residual_norm": 1e-12}},
    }


def test_solve_checks_fail_on_perturbed_c_and_nonzero_exit():
    wl = workloads.Workload("quotient-c3", 0, Path("."), "", ["solve"],
                            c_targets=[("class constant", 0.5, workloads.C_TOLERANCE)])
    assert workloads.check_main(_solve_report(0.5), 0, wl) == []
    assert workloads.checker_escapes(_solve_report(0.5), wl) == []


def test_abp_checks_fail_on_quadratic_error_and_nonzero_exit():
    wl = workloads.Workload("abp-128", 0, Path("."), "", ["abp"])
    report = {"all_fuzz_passed": True,
              "cases": [{"case": "quadratic", "relative_error": 0.01}]
              + [{"case": f"fuzz_{i}"} for i in range(workloads.ABP_CASES)]}
    assert workloads.check_main(report, 0, wl) == []
    assert workloads.checker_escapes(report, wl) == []
