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
    periods = <finite float > 0 list, one per stored axis; or a single one>
    reduced = true | false            complex mode: store x-axes only

    [background]
    alpha = alpha_scaled(<s > 0>) | file:<path>     file: a constant, positive definite metric
    chi = chi_scaled(<s>) | chi_perturbed(<s>, <amplitude>[, <seed>]) | file:<path>

    [rhs]
    h = zero | constant(<v>) | random_smooth(<amplitude>[, <seed>]) | file:<path>

    [solve]
    schedule = <int count >= 2> | <comma list of t values, 0 first, 1 last, increasing>
    newton_tol = <finite float > 0>
    max_newton = <int >= 1>

    [certify]
    enabled = true | false
    delta_grid = <non-empty comma list of finite floats > 0>
    kappa_samples = <int >= 0>      0: no kappa sampling

    [output]
    directory = <path>
    save_fields = true | false

Validation is collecting: every problem found is reported once, not just the
first.  A rule the library checks too is read from its table (``rules``).
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from .operators import OPERATOR_KINDS, operator_from_name
from .rules import require
from .solver import SOLVE_RULES, PathKind, check_schedule
from .subsolution import CERTIFY_RULES
from .torus import GRID_RULES

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

_PATHS = {kind.value for kind in PathKind}


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


def _parse(convert, raw: str | None, where: str, errors: list[str]):
    """``convert(raw)``, or None if ``raw`` is missing or does not parse (collected)."""
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        errors.append(f"{where}: expected {'an integer' if convert is int else 'a number'},"
                      f" got {raw!r}")
        return None


def _check(section: str, rules: dict, name: str, value, errors: list[str], shown=None) -> None:
    """Collect ``rules.require``'s message, prefixed by ``section``, for a parsed value."""
    try:
        if value is not None:
            require(rules, name, value, shown)
    except ValueError as exc:
        errors.append(f"{section}.{exc}")


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
    _check("problem", GRID_RULES, "mode", mode, errors)
    dimension_raw = get("problem", "dimension")
    dimension = _parse(int, dimension_raw, "problem.dimension", errors)
    if dimension_raw is None:
        errors.append("missing required key problem.dimension")
    elif dimension is not None and not 1 <= dimension <= 3:
        errors.append(f"problem.dimension must be 1..3, got {dimension_raw}")
    operator = get("problem", "operator", "monge_ampere")
    if operator not in OPERATOR_KINDS:
        errors.append(f"unknown operator {operator!r}; known: {sorted(OPERATOR_KINDS)}")
    k_raw, l_raw = get("problem", "k"), get("problem", "l")
    k = _parse(int, k_raw, "problem.k", errors)
    l = _parse(int, l_raw, "problem.l", errors)
    inner = get("problem", "inner")
    given = {"k": k_raw, "l": l_raw, "inner": inner}
    required = OPERATOR_KINDS[operator][1] if operator in OPERATOR_KINDS else ()
    if any(given[param] is None for param in required):
        errors.append(f"operator {operator} requires "
                      + " and ".join(f"problem.{param}" for param in required))
    elif operator == "hessian_quotient" and None not in (k, l) and not 1 <= l < k:
        errors.append("operator hessian_quotient: require l < k (with l >= 1)")
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
        if None not in (k, dimension) and k > dimension >= 1:
            errors.append(f"quotient path: require k <= problem.dimension, got k = {k}")
        if operator != "hessian_quotient":
            errors.append(f"quotient path: requires operator hessian_quotient, got {operator}")
    normalization = get("problem", "normalization", "mean_zero")
    _check("problem", SOLVE_RULES, "normalization", normalization, errors)

    # [grid]
    ppa_raw = get("grid", "points_per_axis")
    points = _parse(int, ppa_raw, "grid.points_per_axis", errors)
    if not parser.has_section("grid"):
        errors.append("missing section [grid] (grid.points_per_axis is required)")
    elif ppa_raw is None:
        errors.append("missing required key grid.points_per_axis")
    _check("grid", GRID_RULES, "points_per_axis", points, errors)
    periods_raw = get("grid", "periods", "1.0")
    parts = [p for p in periods_raw.split(",") if p.strip()]
    periods_list = [_parse(float, p, "grid.periods", errors) for p in parts]
    if None not in periods_list and not all(0.0 < p < math.inf for p in periods_list):
        errors.append(f"grid.periods must be finite numbers > 0, got {periods_raw!r}")
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
        schedule = [_parse(float, p, "solve.schedule", errors) for p in schedule_raw.split(",")]
        if None not in schedule:
            try:
                check_schedule(schedule)
            except ValueError as exc:
                errors.append(f"solve.schedule: {exc}")
    else:
        schedule = _parse(int, schedule_raw, "solve.schedule", errors)
        _check("solve", SOLVE_RULES, "schedule", schedule, errors)
    newton_tol = _parse(float, get("solve", "newton_tol", "1e-10"), "solve.newton_tol", errors)
    _check("solve", SOLVE_RULES, "newton_tol", newton_tol, errors)
    max_newton = _parse(int, get("solve", "max_newton", "50"), "solve.max_newton", errors)
    _check("solve", SOLVE_RULES, "max_newton", max_newton, errors)

    # [certify]
    certify_enabled = _parse_bool(get("certify", "enabled", "true"), "certify.enabled", errors)
    delta_raw = get("certify", "delta_grid", "0.4, 0.2, 0.1, 0.05, 0.025")
    delta_grid = tuple(
        _parse(float, p, "certify.delta_grid", errors) for p in delta_raw.split(",") if p.strip()
    )
    if None not in delta_grid:
        _check("certify", CERTIFY_RULES, "delta_grid", delta_grid, errors, shown=delta_raw)
    kappa_samples = _parse(int, get("certify", "kappa_samples", "2000"),
                           "certify.kappa_samples", errors)
    _check("certify", CERTIFY_RULES, "kappa_samples", kappa_samples, errors)

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
