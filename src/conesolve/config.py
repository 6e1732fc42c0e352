"""Run configuration: a sectioned key-value text format and its validation.

The format is INI-style (configparser).  Sections and keys:

    [problem]
    mode = complex | real
    dimension = <int>                 complex dimension n, or real dimension
    operator = monge_ampere | log_sigma_k | hessian_quotient
               | inverse_sigma_k | composed_with_T
    k = <int>          l = <int>      operator parameters where applicable
    inner = <operator name>           composed_with_T only
    path = hessian | quotient | riemannian | fixed    quotient: hessian_quotient only
    normalization = mean_zero | sup_zero

    [grid]
    points_per_axis = <even int >= 4>
    periods = <float list, one per stored axis; or a single float>
    reduced = true | false            complex mode: store x-axes only

    [background]
    alpha = alpha_scaled(<s > 0>) | file:<path>     file: a constant, positive definite metric
    chi = chi_scaled(<s>) | chi_perturbed(<s>, <amplitude>[, <seed>]) | file:<path>

    [rhs]
    h = zero | constant(<v>) | random_smooth(<amplitude>[, <seed>]) | file:<path>

    [solve]
    schedule = <int count> | <comma list of t values>
    newton_tol = <float>
    max_newton = <int>

    [certify]
    enabled = true | false
    delta_grid = <comma list of floats>
    kappa_samples = <int>

    [output]
    directory = <path>
    save_fields = true | false

Validation is collecting: every problem found is reported, not just the first.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from .operators import OPERATOR_KINDS, operator_from_name

_KNOWN_KEYS = {
    "problem": {"mode", "dimension", "operator", "k", "l", "inner", "path",
                "normalization"},
    "grid": {"points_per_axis", "periods", "reduced"},
    "background": {"alpha", "chi"},
    "rhs": {"h"},
    "solve": {"schedule", "newton_tol", "max_newton"},
    "certify": {"enabled", "delta_grid", "kappa_samples"},
    "output": {"directory", "save_fields"},
}

_PATHS = {"hessian", "quotient", "riemannian", "fixed"}


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))


@dataclass
class RunConfig:
    mode: str
    dimension: int
    operator: str
    k: int | None
    l: int | None
    inner: str | None
    path: str
    normalization: str
    points_per_axis: int
    periods: tuple[float, ...] | float
    reduced: bool
    alpha_spec: str
    chi_spec: str
    rhs_spec: str
    schedule: list[float] | int
    newton_tol: float
    max_newton: int
    certify_enabled: bool
    delta_grid: tuple[float, ...]
    kappa_samples: int
    output_directory: str
    save_fields: bool
    seed: int = 0

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if isinstance(out["periods"], tuple):
            out["periods"] = list(out["periods"])
        out["delta_grid"] = list(out["delta_grid"])
        return out


def _parse_bool(raw: str, where: str, errors: list[str]) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    errors.append(f"{where}: expected a boolean, got {raw!r}")
    return False


def _parse_int(raw: str, where: str, errors: list[str], default: int = 0) -> int:
    try:
        return int(raw)
    except ValueError:
        errors.append(f"{where}: expected an integer, got {raw!r}")
        return default


def _parse_float(raw: str, where: str, errors: list[str], default: float = 0.0) -> float:
    try:
        return float(raw)
    except ValueError:
        errors.append(f"{where}: expected a number, got {raw!r}")
        return default


_GENERATOR_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\((.*)\)$")


def parse_generator(spec: str) -> tuple[str, list[float]]:
    """Split 'name(a, b, ...)' into the name and its numeric arguments.

    Raises ValueError if an argument is not a number.
    """
    spec = spec.strip()
    if spec.startswith("file:"):
        return "file", []
    match = _GENERATOR_RE.match(spec)
    if match is None:
        return spec, []
    args = [float(a) for a in match.group(2).split(",") if a.strip()]
    return match.group(1), args


#: (fewest, most) arguments of each generator, and the index of its seed argument
_GENERATORS = {"alpha_scaled": (1, 1, None), "chi_scaled": (1, 1, None),
               "chi_perturbed": (2, 3, 2), "zero": (0, 0, None), "constant": (1, 1, None),
               "random_smooth": (1, 2, 1)}


def _check_generator(where: str, spec: str, kinds: set[str], errors: list[str]) -> None:
    """Collect the problems of one generator spec: arguments that are not
    finite numbers, an unknown name, a wrong argument count, a seed that is not
    a non-negative integer, or an alpha scale that is not positive."""
    try:
        kind, args = parse_generator(spec)
        finite = all(map(math.isfinite, args))
    except ValueError:
        finite = False
    if not finite:
        errors.append(f"{where}: generator arguments must be finite numbers, got {spec!r}")
        return
    if kind == "file":
        return
    if kind not in kinds:
        errors.append(f"{where}: unknown generator {spec!r}")
        return
    fewest, most, seed = _GENERATORS[kind]
    if not fewest <= len(args) <= most:
        count = fewest if fewest == most else f"{fewest} to {most}"
        errors.append(f"{where}: {kind} takes {count} argument(s), got {len(args)} in {spec!r}")
        return
    if seed is not None and seed < len(args) and not (
            args[seed] >= 0 and args[seed].is_integer()):
        errors.append(f"{where}: the seed of {kind} must be a non-negative integer,"
                      f" got {spec!r}")
    if kind == "alpha_scaled" and not args[0] > 0:
        errors.append(f"{where}: the alpha scale must be > 0, got {spec!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every problem found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key {section}.{key}")

    def get(section: str, key: str, default: str | None = None) -> str | None:
        if parser.has_option(section, key):
            return parser.get(section, key).strip()
        return default

    # [problem]
    problem_start = len(errors)
    mode = get("problem", "mode", "complex")
    if mode not in ("complex", "real"):
        errors.append(f"problem.mode must be complex or real, got {mode!r}")
    dimension_raw = get("problem", "dimension")
    if dimension_raw is None:
        errors.append("missing required key problem.dimension")
        dimension = 0
    else:
        dimension = _parse_int(dimension_raw, "problem.dimension", errors)
        if not 1 <= dimension <= 3:
            errors.append(f"problem.dimension must be 1..3, got {dimension_raw}")
    operator = get("problem", "operator", "monge_ampere")
    if operator not in OPERATOR_KINDS:
        errors.append(f"unknown operator {operator!r}; known: {sorted(OPERATOR_KINDS)}")
    k_raw, l_raw = get("problem", "k"), get("problem", "l")
    k = _parse_int(k_raw, "problem.k", errors) if k_raw is not None else None
    l = _parse_int(l_raw, "problem.l", errors) if l_raw is not None else None
    inner = get("problem", "inner")
    if operator == "log_sigma_k" and k is None:
        errors.append("operator log_sigma_k requires problem.k")
    if operator == "inverse_sigma_k" and k is None:
        errors.append("operator inverse_sigma_k requires problem.k")
    if operator == "hessian_quotient":
        if k is None or l is None:
            errors.append("operator hessian_quotient requires problem.k and problem.l")
        elif not 1 <= l < k:
            errors.append("operator hessian_quotient: require l < k (with l >= 1)")
    if operator == "composed_with_T" and inner is None:
        errors.append("operator composed_with_T requires problem.inner")
    if inner is not None and inner not in OPERATOR_KINDS.keys() - {"composed_with_T"}:
        errors.append(f"unknown inner operator {inner!r}")
    if len(errors) == problem_start:
        try:  # the operator's own parameter checks, against the dimension
            operator_from_name(operator, dimension, k=k, l=l, inner=inner)
        except ValueError as exc:
            errors.append(f"operator {operator} at dimension {dimension}: {exc}")
    path = get("problem", "path", "fixed")
    if path not in _PATHS:
        errors.append(f"problem.path must be one of {sorted(_PATHS)}, got {path!r}")
    if path == "quotient":
        if k is None or l is None or not 1 <= l < k:
            errors.append("quotient path: require l < k (with l >= 1) in [problem]")
        elif k > dimension >= 1:
            errors.append(f"quotient path: require k <= problem.dimension, got k = {k}")
        if operator != "hessian_quotient":
            errors.append(f"quotient path: requires operator hessian_quotient, got {operator}")
    normalization = get("problem", "normalization", "mean_zero")
    if normalization not in ("mean_zero", "sup_zero"):
        errors.append(f"problem.normalization must be mean_zero or sup_zero")

    # [grid]
    if not parser.has_section("grid"):
        errors.append("missing section [grid] (grid.points_per_axis is required)")
        points = 0
    else:
        ppa_raw = get("grid", "points_per_axis")
        if ppa_raw is None:
            errors.append("missing required key grid.points_per_axis")
            points = 0
        else:
            points = _parse_int(ppa_raw, "grid.points_per_axis", errors)
            if points < 4 or points % 2:
                errors.append(
                    f"grid.points_per_axis must be even and >= 4, got {ppa_raw}"
                )
    periods_raw = get("grid", "periods", "1.0")
    parts = [p for p in periods_raw.split(",") if p.strip()]
    periods_list = [_parse_float(p, "grid.periods", errors) for p in parts]
    periods: tuple[float, ...] | float = (
        periods_list[0] if len(periods_list) == 1 else tuple(periods_list)
    )
    reduced = _parse_bool(get("grid", "reduced", "false"), "grid.reduced", errors)
    if mode == "real" and reduced:
        errors.append("grid.reduced applies to complex mode only")

    # [background]
    alpha_spec = get("background", "alpha", "alpha_scaled(1)")
    chi_spec = get("background", "chi", "chi_scaled(1)")
    _check_generator("background.alpha", alpha_spec, {"alpha_scaled"}, errors)
    _check_generator("background.chi", chi_spec, {"chi_scaled", "chi_perturbed"}, errors)

    # [rhs]
    rhs_spec = get("rhs", "h", "zero")
    _check_generator("rhs.h", rhs_spec, {"zero", "constant", "random_smooth"}, errors)

    # [solve]
    schedule_raw = get("solve", "schedule", "21")
    if "," in schedule_raw:
        schedule: list[float] | int = [
            _parse_float(p, "solve.schedule", errors) for p in schedule_raw.split(",")
        ]
    else:
        schedule = _parse_int(schedule_raw, "solve.schedule", errors, default=21)
        if isinstance(schedule, int) and schedule < 2:
            errors.append("solve.schedule must have at least 2 steps")
    newton_tol = _parse_float(get("solve", "newton_tol", "1e-10"), "solve.newton_tol", errors)
    max_newton = _parse_int(get("solve", "max_newton", "50"), "solve.max_newton", errors)

    # [certify]
    certify_enabled = _parse_bool(get("certify", "enabled", "true"), "certify.enabled", errors)
    delta_raw = get("certify", "delta_grid", "0.4, 0.2, 0.1, 0.05, 0.025")
    delta_grid = tuple(
        _parse_float(p, "certify.delta_grid", errors) for p in delta_raw.split(",") if p.strip()
    )
    kappa_samples = _parse_int(get("certify", "kappa_samples", "2000"),
                               "certify.kappa_samples", errors)

    # [output]
    output_directory = get("output", "directory", "out")
    save_fields = _parse_bool(get("output", "save_fields", "true"), "output.save_fields", errors)

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        mode=mode, dimension=dimension, operator=operator, k=k, l=l, inner=inner,
        path=path, normalization=normalization, points_per_axis=points,
        periods=periods, reduced=reduced, alpha_spec=alpha_spec, chi_spec=chi_spec,
        rhs_spec=rhs_spec, schedule=schedule, newton_tol=newton_tol,
        max_newton=max_newton, certify_enabled=certify_enabled,
        delta_grid=delta_grid, kappa_samples=kappa_samples,
        output_directory=output_directory, save_fields=save_fields,
    )
