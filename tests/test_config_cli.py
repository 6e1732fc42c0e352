import json

import numpy as np
import pytest

from conesolve import MatrixField, PeriodicGrid, ScalarField, save_field
from conesolve.cli import main
from conesolve.config import ConfigError, parse_config

MINIMAL = """
[problem]
mode = complex
dimension = 1
operator = monge_ampere

[grid]
points_per_axis = 64
"""


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "complex" and cfg.dimension == 1
    assert cfg.operator == "monge_ampere" and cfg.path == "fixed"
    assert cfg.points_per_axis == 64


def test_quotient_l_ge_k_rejected():
    text = MINIMAL.replace(
        "operator = monge_ampere",
        "operator = hessian_quotient\nk = 1\nl = 2",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("require l < k" in e for e in err.value.errors)


def test_missing_grid_section():
    with pytest.raises(ConfigError) as err:
        parse_config("[problem]\nmode = complex\ndimension = 1\n")
    assert any("grid.points_per_axis" in e for e in err.value.errors)


def test_all_errors_collected():
    bad = """
[problem]
mode = wavelet
dimension = 9
operator = frobnicate

[grid]
points_per_axis = 7

[mystery]
key = 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = "\n".join(err.value.errors)
    assert "mode" in text and "dimension" in text
    assert "frobnicate" in text
    assert "points_per_axis" in text
    assert "unknown section [mystery]" in text
    assert len(err.value.errors) >= 5


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[solve]\nwibble = 3\n")
    assert any("solve.wibble" in e for e in err.value.errors)


QUOTIENT_CFG = """
[problem]
mode = complex
dimension = 2
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

[certify]
kappa_samples = 200

[output]
directory = {out}
"""


def test_cli_solve_quotient(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["schema"] == "v1"
    assert report["certificate"]["verdict"] == "certified"
    assert report["solve"]["final"]["c"] == pytest.approx(0.5, abs=1e-8)
    assert (tmp_path / "out" / "u_final.bin").exists()
    assert (tmp_path / "out" / "summary.txt").exists()
    # resolved config and version are embedded
    assert report["config"]["operator"] == "hessian_quotient"
    assert "library_version" in report
    # the second-order/gradient monitor rides along in the diagnostics
    monitor = report["diagnostics"]["second_order_gradient_monitor"]
    assert np.isfinite(monitor["ratio"])


def test_cli_reports_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "solve_report.json").read_bytes()
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "solve_report.json").read_bytes() == first


def test_cli_refuted_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        QUOTIENT_CFG.format(out=tmp_path / "out")
        .replace("chi_perturbed(2, 0.1, 21)", "chi_perturbed(5, 2.6, 3)")
    )
    assert main(["solve", "--config", str(cfg)]) == 5
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["certificate"]["verdict"] == "refuted"
    assert report["certificate"]["witness"] is not None


def test_cli_refutation_without_an_admissible_delta(tmp_path, capsys):
    # chi = 0.1 * alpha: every eigenvalue 0.1 - 2 delta is negative, so each
    # delta pushes every point out of the natural domain
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        QUOTIENT_CFG.format(out=tmp_path / "out")
        .replace("chi_perturbed(2, 0.1, 21)", "chi_scaled(0.1)")
        .replace("kappa_samples = 200", "kappa_samples = 200\ndelta_grid = 0.4, 0.2")
    )
    assert main(["certify", "--config", str(cfg)]) == 5
    witness = json.loads((tmp_path / "out" / "solve_report.json").read_text())[
        "certificate"]["witness"]
    assert witness["skipped_deltas"] == [0.4, 0.2] and witness["delta"] == 0.2
    assert witness["point"] == 0 and witness["violation"]["index"] == 1
    err = capsys.readouterr().err
    assert "no delta was admissible" in err and "sigma_1 = -0.3" in err


def test_cli_check_only(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out"))
    assert main(["solve", "--config", str(cfg), "--check-only"]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["check_only"] and "solve" not in report


@pytest.mark.parametrize("problem, message", [
    ("dimension = 2\noperator = hessian_quotient\nk = 3\nl = 1", "got l=1, k=3"),
    ("dimension = 2\noperator = monge_ampere\nk = 3\nl = 1\npath = quotient",
     "require k <= problem.dimension"),
    ("dimension = 2\noperator = inverse_sigma_k\nk = 2", "need 1 <= k <= n-1"),
    ("dimension = 2\noperator = composed_with_T\ninner = log_sigma_k\nk = 3",
     "need 1 <= k <= n"),
    ("dimension = 1\noperator = composed_with_T\ninner = monge_ampere",
     "composition with T requires n >= 2"),
])
def test_operator_parameters_checked_against_dimension(problem, message):
    text = MINIMAL.replace("dimension = 1\noperator = monge_ampere", problem)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(message in e for e in err.value.errors)


def test_cli_k_above_dimension_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out").replace("k = 2", "k = 3"))
    assert main(["certify", "--config", str(cfg)]) == 4
    assert "config error: operator hessian_quotient" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("chi = chi_perturbed(2)", "chi_perturbed takes 2 to 3 argument(s), got 1"),
    ("alpha = alpha_scaled()", "alpha_scaled takes 1 argument(s), got 0"),
    ("h = constant()", "constant takes 1 argument(s), got 0"),
    ("chi = chi_scaled(abc)", "generator arguments must be finite numbers"),
    ("h = constant(nan)", "generator arguments must be finite numbers"),
    ("alpha = alpha_scaled(-1)", "the alpha scale must be > 0"),
    ("chi = chi_perturbed(1, 0.1, 2.5)", "seed of chi_perturbed must be a non-negative integer"),
    ("h = random_smooth(0.1, -3)", "seed of random_smooth must be a non-negative integer"),
])
def test_cli_malformed_generator_is_a_config_error(tmp_path, capsys, line, message):
    section = "rhs" if line.startswith("h ") else "background"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out")
                   .replace("[background]\nchi = chi_perturbed(2, 0.1, 21)", "")
                   + f"\n[{section}]\n{line}\n")
    assert main(["certify", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_bad_config_path(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 4


def test_cli_abp(tmp_path, capsys):
    assert main(["abp", "--grid", "64", "--cases", "3",
                 "--output", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "abp_report.json").read_text())
    assert report["all_fuzz_passed"]
    out = capsys.readouterr().out
    assert out.count("[pass]") == 4


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out


def test_field_generators_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "run.cfg"
    base = QUOTIENT_CFG.format(out=out1)
    cfg.write_text(base)
    assert main(["solve", "--config", str(cfg)]) == 0
    cfg.write_text(base.replace(str(out1), str(out2)))
    assert main(["solve", "--config", str(cfg)]) == 0
    u1 = (out1 / "u_final.bin").read_bytes()
    u2 = (out2 / "u_final.bin").read_bytes()
    assert u1 == u2


def test_quotient_path_takes_its_operator(tmp_path, capsys):
    # the path solves and certifies the quotient of the configured operator:
    # any other operator there is a config error, exit 4
    text = QUOTIENT_CFG.format(out=tmp_path / "out").replace(
        "operator = hessian_quotient", "operator = log_sigma_k")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("quotient path: requires operator hessian_quotient, got log_sigma_k" in e
               for e in err.value.errors)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["certify", "--config", str(cfg)]) == 4
    assert "config error: quotient path" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _background_files(tmp_path, case):
    """A [background] section naming a metric file, and for some cases a chi or
    an h file, that cannot make QUOTIENT_CFG's problem (complex n = 2, reduced 16^2)."""
    grid = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    alpha = MatrixField.constant(grid, np.eye(2))
    chi, rhs = "chi_perturbed(2, 0.1, 21)", ""
    if case == "non-constant metric":
        alpha.values[3, 5] = np.diag([2.0, 1.0])
    elif case == "negative-definite metric":
        alpha = MatrixField.constant(grid, -np.eye(2))
    elif case == "indefinite metric":
        alpha = MatrixField.constant(grid, np.diag([1.0, -1.0]))
    elif case == "chi on another grid":
        coarse = PeriodicGrid.make("complex", 2, 8, 1.0, reduced=True)
        save_field(MatrixField.constant(coarse, 2.0 * np.eye(2)), tmp_path / "chi")
        chi = f"file:{tmp_path / 'chi'}"
    elif case == "non-Hermitian chi":
        save_field(MatrixField.constant(grid, np.array([[1.0, 0.3], [0.0, 1.0]])),
                   tmp_path / "chi")
        chi = f"file:{tmp_path / 'chi'}"
    elif case == "scalar chi":
        save_field(ScalarField.constant(grid, 2.0), tmp_path / "chi")
        chi = f"file:{tmp_path / 'chi'}"
    else:
        save_field(MatrixField.constant(grid, np.eye(2)), tmp_path / "h")
        rhs = f"\n[rhs]\nh = file:{tmp_path / 'h'}\n"
    save_field(alpha, tmp_path / "alpha")
    return f"[background]\nalpha = file:{tmp_path / 'alpha'}\nchi = {chi}{rhs}"


@pytest.mark.parametrize("case, message", [
    ("non-constant metric", "the background metric must be constant on the grid"),
    ("negative-definite metric", "metric must be positive definite"),
    ("indefinite metric", "metric must be positive definite"),
    ("chi on another grid", "fields must share one grid"),
    ("non-Hermitian chi", "chi: matrix is not Hermitian: defect 3.000e-01 > 1e-12 * scale"),
    ("scalar chi", "chi must be a field of 2x2 matrices"),
    ("matrix rhs", "the rhs h must be a scalar field"),
])
def test_cli_bad_metric_or_field_file_is_a_config_error(tmp_path, capsys, case, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out").replace(
        "[background]\nchi = chi_perturbed(2, 0.1, 21)", _background_files(tmp_path, case)))
    assert main(["solve", "--config", str(cfg)]) == 4
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["error"] == {"kind": "config", "message": message}
    assert "solve" not in report and "certificate" not in report
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_constant_metric_file(tmp_path):
    grid = PeriodicGrid.make("complex", 2, 16, 1.0, reduced=True)
    save_field(MatrixField.constant(grid, 2.0 * np.eye(2)), tmp_path / "alpha")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out").replace(
        "[background]\n", f"[background]\nalpha = file:{tmp_path / 'alpha'}\n"))
    assert main(["certify", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["certificate"]["verdict"] == "certified" and "error" not in report
