import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conesolve import (
    LogSigmaK,
    MatrixField,
    MongeAmpere,
    PeriodicGrid,
    ScalarField,
    TorusProblem,
    certify_field,
    endomorphism_field,
    load_field,
    save_field,
    strong_concavity_flags,
    uniform_schedule,
)
from conesolve.cli import main
from conesolve.config import ConfigError, parse_config
from conesolve.operators import OPERATOR_KINDS
from conesolve.solver import PathKind
from conesolve.eigencalc import packing, sup_operator_norm
from oracles import metric_hessian

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


@pytest.mark.parametrize("old, new, error", [
    ("dimension = 1", "dimension = two", "problem.dimension: expected an integer, got 'two'"),
    ("points_per_axis = 64", "points_per_axis = eight",
     "grid.points_per_axis: expected an integer, got 'eight'"),
])
def test_unparseable_value_is_reported_once(old, new, error):
    # a value that does not parse has no range to check
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert err.value.errors == [error]


def _problem(**setting):
    g = PeriodicGrid.make("complex", 1, 8, 1.0)
    return TorusProblem(g, MongeAmpere(1), np.eye(1), MatrixField.constant(g, np.eye(1)),
                        ScalarField.zeros(g), **setting)


def _certify(deltas=(0.2,), kappa_samples=0):
    return certify_field(MongeAmpere(2), np.ones((4, 2)), np.zeros(4), deltas,
                         kappa_samples=kappa_samples)


@pytest.mark.parametrize("old, new, section, library, shown", [
    ("mode = complex", "mode = wavelet", "problem",
     lambda: PeriodicGrid.make("wavelet", 1, 8), None),
    ("points_per_axis = 64", "points_per_axis = 7", "grid",
     lambda: PeriodicGrid.make("complex", 1, 7), None),
    ("operator = monge_ampere", "operator = monge_ampere\nnormalization = sup", "problem",
     lambda: _problem(normalization="sup"), None),
    ("[solve]\n", "[solve]\nnewton_tol = -1\n", "solve", lambda: _problem(newton_tol=-1.0), None),
    ("[solve]\n", "[solve]\nmax_newton = 0\n", "solve", lambda: _problem(max_newton=0), None),
    ("[solve]\n", "[solve]\nschedule = 1\n", "solve", lambda: uniform_schedule(1), None),
    ("[certify]\n", "[certify]\nkappa_samples = -5\n", "certify",
     lambda: _certify(kappa_samples=-5), None),
    # the config shows the line as written, the library the list it was given
    ("[certify]\n", "[certify]\ndelta_grid = 0.2, -0.5\n", "certify",
     lambda: _certify([0.2, -0.5]), ("[0.2, -0.5]", "'0.2, -0.5'")),
], ids=["mode", "points_per_axis", "normalization", "newton_tol", "max_newton", "schedule",
        "kappa_samples", "delta_grid"])
def test_config_error_is_the_library_message(old, new, section, library, shown):
    # each rule is stated once, in the library module that reads the setting:
    # the config's error is that module's ValueError, prefixed by the section
    with pytest.raises(ValueError) as lib_err:
        library()
    message = str(lib_err.value)
    if shown is not None:
        message = message.replace(*shown)
    text = MINIMAL + "\n[solve]\n\n[certify]\n"
    assert old in text
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace(old, new, 1))
    assert err.value.errors == [f"{section}.{message}"]


def test_config_defaults_are_the_library_defaults():
    # both are stated, since the report records resolved values; they must agree
    cfg = parse_config(MINIMAL)
    problem = {f.name: f.default for f in fields(TorusProblem)}
    grid = inspect.signature(PeriodicGrid.make).parameters
    assert cfg.newton_tol == problem["newton_tol"]
    assert cfg.max_newton == problem["max_newton"]
    assert cfg.normalization == problem["normalization"]
    assert PathKind(cfg.path) is problem["path"]
    assert cfg.kappa_samples == inspect.signature(certify_field).parameters[
        "kappa_samples"].default
    assert cfg.schedule == inspect.signature(uniform_schedule).parameters["steps"].default
    assert cfg.periods == grid["periods"].default
    assert cfg.reduced is grid["reduced"].default


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


def test_a_percent_sign_in_a_value_is_literal(tmp_path):
    # values are read as written: configparser's interpolation would make
    # "out%1" a traceback
    out = tmp_path / "out%1"
    text = QUOTIENT_CFG.format(out=out)
    assert parse_config(text).output_directory == str(out)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["solve", "--config", str(cfg)]) == 0
    assert json.loads((out / "solve_report.json").read_text())["config"]["output_directory"] \
        == str(out)


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


@pytest.mark.parametrize("operator, param", [
    (operator, param) for operator, (_, required) in sorted(OPERATOR_KINDS.items())
    for param in required])
def test_each_required_operator_parameter_is_named_when_missing(operator, param):
    # the config names what is missing from the catalog's own table, so the two
    # cannot drift apart: every parameter a kind requires, left out, is named
    given = {"k": "k = 2", "l": "l = 1", "inner": "inner = log_sigma_k"}
    problem = "\n".join([f"dimension = 3\noperator = {operator}"]
                        + [given[other] for other in OPERATOR_KINDS[operator][1]
                           if other != param])
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("dimension = 1\noperator = monge_ampere", problem))
    assert any(f"problem.{param}" in e for e in err.value.errors)


@pytest.mark.parametrize("path", [kind.value for kind in PathKind])
def test_every_path_kind_parses(path):
    problem = f"dimension = 2\noperator = hessian_quotient\nk = 2\nl = 1\npath = {path}"
    cfg = parse_config(MINIMAL.replace("dimension = 1\noperator = monge_ampere", problem))
    assert cfg.path == path


def test_cli_inadmissible_background_is_a_domain_error(tmp_path, capsys):
    # F(A[0]) is computed when the solve first needs it, not when the problem
    # is built, so A[0] outside the cone stays a domain error (exit 3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[problem]\nmode = real\ndimension = 2\noperator = log_sigma_k\nk = 2\n"
        "path = hessian\n[grid]\npoints_per_axis = 8\n"
        "[background]\nchi = chi_scaled(-1)\n[rhs]\nh = constant(0.1)\n"
        f"[certify]\nenabled = false\n[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["solve", "--config", str(cfg)]) == 3
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["error"]["kind"] == "domain"
    assert "domain error: inadmissible data" in capsys.readouterr().err


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


@pytest.mark.parametrize("line, message", [
    ("delta_grid = ,", "certify.delta_grid must list finite deltas > 0, got ','"),
    ("delta_grid = 0.2, -0.5", "certify.delta_grid must list finite deltas > 0, got '0.2, -0.5'"),
    ("delta_grid = nan", "certify.delta_grid must list finite deltas > 0, got 'nan'"),
    ("schedule = 0.5, 1", "solve.schedule: the t values must start at 0 and end at 1"),
    ("schedule = 0, 0.5", "solve.schedule: the t values must start at 0 and end at 1"),
    ("schedule = 0, 0.5, 0.5, 1", "solve.schedule: the t values must be strictly increasing"),
    ("schedule = 0, nan, 1", "solve.schedule: the t values must be strictly increasing"),
    ("newton_tol = -1", "solve.newton_tol must be a finite number > 0, got -1.0"),
    ("newton_tol = nan", "solve.newton_tol must be a finite number > 0, got nan"),
    ("max_newton = 0", "solve.max_newton must be >= 1, got 0"),
])
def test_cli_bad_solve_or_certify_value_is_a_config_error(tmp_path, capsys, line, message):
    # values the library would reject mid-run are config errors (exit 4)
    section = "certify" if line.startswith("delta_grid") else "solve"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUOTIENT_CFG.format(out=tmp_path / "out").replace("schedule = 6\n", "")
                   .replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert main(["solve", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("[grid]\n", "[grid]\nperiods = nan\n", "grid.periods must be finite numbers > 0, got 'nan'"),
    ("[grid]\n", "[grid]\nperiods = inf\n", "grid.periods must be finite numbers > 0, got 'inf'"),
    ("[grid]\n", "[grid]\nperiods = 1, -1\n",
     "grid.periods must be finite numbers > 0, got '1, -1'"),
    ("kappa_samples = 200", "kappa_samples = -5", "certify.kappa_samples must be >= 0, got -5"),
    ("path = quotient\n", "path = quotient\nnormalization = sup\n",
     "problem.normalization must be mean_zero or sup_zero, got 'sup'"),
], ids=["period-nan", "period-inf", "period-negative", "kappa-samples-negative",
        "normalization"])
def test_cli_bad_grid_certify_or_problem_value_is_a_config_error(tmp_path, capsys, old, new,
                                                                 message):
    # an infinite period makes every derivative symbol 0 and a nan one every
    # cone check fail; a negative count of kappa samples is no count; each is
    # a config error (exit 4) before any output is written
    cfg = tmp_path / "run.cfg"
    text = QUOTIENT_CFG.format(out=tmp_path / "out")
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main(["solve", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
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


@pytest.mark.parametrize("argv, message", [
    (["--grid", "33"], "--grid: must be an even integer, got '33'"),
    (["--cases", "0"], "--cases: must be an integer >= 1, got '0'"),
    (["--cases", "-3"], "--cases: must be an integer >= 1, got '-3'"),
], ids=["odd-grid", "zero-cases", "negative-cases"])
def test_cli_abp_usage_errors(tmp_path, capsys, argv, message):
    # an odd grid has no point at the ball's centre, where every case reads
    # v(0); no case is no check
    with pytest.raises(SystemExit) as done:
        main(["abp", *argv, "--output", str(tmp_path / "out")])
    assert done.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_abp_output_under_a_file_is_an_io_error(tmp_path, capsys):
    # the output directory is made before any case runs: a path it cannot be
    # made at is an I/O failure (exit 4), not a failed inequality (exit 1)
    (tmp_path / "file").write_text("")
    assert main(["abp", "--grid", "64", "--cases", "3",
                 "--output", str(tmp_path / "file" / "out")]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot create output directory" in captured.err


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
    elif case.startswith("h sidecar"):
        save_field(ScalarField.zeros(grid), tmp_path / "h")
        sidecar = json.loads((tmp_path / "h.json").read_text())
        if case == "h sidecar without reduced":
            del sidecar["reduced"]
        else:
            sidecar["periods"] = 5
        (tmp_path / "h.json").write_text(json.dumps(sidecar))
        rhs = f"\n[rhs]\nh = file:{tmp_path / 'h'}\n"
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
    ("h sidecar without reduced", "field sidecar {tmp}/h.json lacks reduced"),
    ("h sidecar with a number for periods",
     "field sidecar {tmp}/h.json: periods must be a list of numbers, got 5"),
])
def test_cli_bad_metric_or_field_file_is_a_config_error(tmp_path, capsys, case, message):
    message = message.format(tmp=tmp_path)
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


def test_cli_certificate_does_not_depend_on_the_seed(tmp_path):
    # with few kappa samples a seeded draw would move kappa between seeds; the
    # certificate reads its data alone, and here --seed reaches no generator
    text = (Path(__file__).resolve().parents[1] / "demos" / "quotient.cfg").read_text()
    assert "kappa_samples = 2000" in text
    cfg = tmp_path / "quotient.cfg"
    cfg.write_text(text.replace("kappa_samples = 2000", "kappa_samples = 20"))
    certificates = []
    for seed in ("0", "3"):
        out = tmp_path / f"seed-{seed}"
        assert main(["certify", "--config", str(cfg), "--output", str(out), "--seed", seed]) == 0
        certificates.append(json.loads((out / "solve_report.json").read_text())["certificate"])
    assert certificates[0]["verdict"] == "certified" and certificates[0]["kappa_samples"] == 20
    assert certificates[0] == certificates[1]


#: metrics with off-diagonal entries, the complex one with imaginary entries
REAL_METRIC = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.2]])
COMPLEX_METRIC = np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.5]])

#: the benchmark's quotient-c3 shape, with chi from its generator
QUOTIENT_C3_CFG = """
[problem]
mode = complex
dimension = 3
operator = hessian_quotient
k = 2
l = 1
path = quotient

[grid]
points_per_axis = 20
reduced = true

[background]
chi = chi_perturbed(2, 0.1, 21)

[solve]
schedule = 11

[output]
directory = {out}
"""


def metric_config(tmp_path, shape):
    """A solve under a non-diagonal constant metric file: Monge-Ampere on the
    full complex 2-torus (fixed path), or log sigma_2 on the real 3-torus
    (hessian path); the quotient-c3 shape under the flat metric otherwise."""
    out = tmp_path / "out"
    if shape == "quotient":
        return QUOTIENT_C3_CFG.format(out=out)
    if shape == "complex":
        grid, alpha = PeriodicGrid.make("complex", 2, 8), COMPLEX_METRIC
        problem = "mode = complex\ndimension = 2\noperator = monge_ampere\npath = fixed"
        chi, rhs = "chi_perturbed(1, 0.05, 21)", "random_smooth(0.12, 11)"
    else:
        grid, alpha = PeriodicGrid.make("real", 3, 12), REAL_METRIC
        problem = "mode = real\ndimension = 3\noperator = log_sigma_k\nk = 2\npath = hessian"
        chi, rhs = "chi_perturbed(1, 0.1, 21)", "random_smooth(0.3, 11)"
    save_field(MatrixField.constant(grid, alpha), tmp_path / "alpha")
    return (f"[problem]\n{problem}\n[grid]\npoints_per_axis = {grid.points_per_axis}\n"
            f"[background]\nalpha = file:{tmp_path / 'alpha'}\nchi = {chi}\n[rhs]\nh = {rhs}\n"
            f"[solve]\nschedule = 4\n[certify]\nkappa_samples = 300\n"
            f"[output]\ndirectory = {out}\nsave_fields = true\n")


@pytest.mark.parametrize("shape, op, alpha", [
    ("complex", MongeAmpere(2), COMPLEX_METRIC),
    ("real", LogSigmaK(3, 2), REAL_METRIC),
])
def test_cli_diagnostics_under_a_non_identity_metric(tmp_path, shape, op, alpha):
    # the report's diagnostics are those of the reference pull-back of the
    # saved u_final and chi through alpha
    cfg = tmp_path / "run.cfg"
    cfg.write_text(metric_config(tmp_path, shape))
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    diagnostics = json.loads((out / "solve_report.json").read_text())["diagnostics"]
    u, chi = load_field(out / "u_final"), load_field(out / "chi")
    mats = endomorphism_field(alpha, chi, u).values.reshape(-1, op.n, op.n)
    flag_a, flag_b = strong_concavity_flags(op, np.linalg.eigvalsh(
        mats[:: max(1, mats.shape[0] // 512)]))
    assert diagnostics["strong_concavity_flags"] == {"f11_plus_f1_over_lam1": flag_a,
                                                     "lam1_f1_smallest": flag_b}
    monitor = diagnostics.get("second_order_gradient_monitor")
    if shape == "real":
        assert monitor is None
    else:
        rows = metric_hessian(u, alpha)
        assert monitor["sup_dd_u"] == sup_operator_norm(rows, packing(op.n, True))


#: the functions that check alpha or rebuild the frame from it
FRAME_BUILDERS = ("constant_metric", "endomorphism_field", "laplacian_symbol")


@pytest.mark.parametrize("shape", ["complex", "real", "quotient"])
def test_run_reads_the_frame_build_problem_made(tmp_path, monkeypatch, shape):
    # certify, solve and diagnostics read the problem's held frame: once
    # build_problem returns, no module rebuilds it from alpha
    import conesolve.cli as cli
    import conesolve.diagnostics as diagnostics
    import conesolve.solver as solver
    import conesolve.torus as torus

    cfg = parse_config(metric_config(tmp_path, shape))
    build = cli.build_problem

    def refuse(*args, **kwargs):
        raise AssertionError("the frame was rebuilt after build_problem")

    def build_then_refuse(config):
        built = build(config)
        for module in (solver, torus, cli, diagnostics):
            for name in FRAME_BUILDERS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        return built

    monkeypatch.setattr(cli, "build_problem", build_then_refuse)
    assert cli.run(cfg) == 0
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert report["certificate"]["verdict"] == "certified"
    assert report["solve"]["complete"] and report["diagnostics"]


@pytest.mark.parametrize("shape", ["complex", "real"])
def test_diagnostics_read_the_final_u_through_one_transform(tmp_path, monkeypatch, shape):
    # the diagnostics take one forward transform of the final u, and unpack
    # only the matrices the sup-norm prune keeps
    import conesolve.cli as cli
    from conesolve.eigencalc import Packing

    transforms, unpacked = [], []
    rfftn, unpack, diagnose = np.fft.rfftn, Packing.unpack, cli._diagnostics

    def counting_rfftn(a, *args, **kwargs):
        transforms.append(np.shape(a))
        return rfftn(a, *args, **kwargs)

    def recording_unpack(self, x):
        unpacked.append(int(np.prod(np.shape(x)[1:])))
        return unpack(self, x)

    def watched(problem, state):
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfftn", counting_rfftn)
            patch.setattr(Packing, "unpack", recording_unpack)
            return diagnose(problem, state)

    monkeypatch.setattr(cli, "_diagnostics", watched)
    cfg = parse_config(metric_config(tmp_path, shape))
    assert cli.run(cfg) == 0
    grid = cli.build_problem(cfg)[0].grid
    points = int(np.prod(grid.shape))
    sampled = len(range(0, points, max(1, points // 512)))
    assert transforms == [grid.shape]
    if shape == "complex":  # n = 2: the sampled spectrum is a closed form of the rows
        assert unpacked and max(unpacked) <= sampled < points
        assert len(unpacked) == 1
    else:  # n = 3: the sampled spectrum is Jacobi on the rows
        assert unpacked == []
