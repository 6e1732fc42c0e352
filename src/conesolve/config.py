"""Run configuration: a sectioned key-value text format and its validation.

The format is INI-style (configparser), with literal values.  Each setting is
declared once, on its ``RunConfig`` field: the field's metadata holds its
section, key, default and parser, and the comment beside it the values it takes.

Validation is collecting: every problem found is reported once, not just the
first.  A rule the library checks too is read from its table (``rules``).
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields

from .operators import OPERATOR_KINDS, operator_from_name
from .rules import require
from .solver import SOLVE_RULES, PathKind, check_schedule
from .subsolution import CERTIFY_RULES
from .torus import GRID_RULES

_PATHS = {kind.value for kind in PathKind}


class ConfigError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))


def _bool(raw: str) -> bool:
    """A boolean setting; raises ValueError on anything else."""
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


_EXPECTED = {int: "an integer", float: "a number", _bool: "a boolean"}


def _setting(section: str, key: str, default: str | None = None, parse=None):
    """A field read from ``[section] key``: ``default`` when absent (None: no
    default), converted by ``parse`` (None: kept as written)."""
    return field(metadata={"setting": (section, key, default, parse)})


@dataclass
class RunConfig:
    """One run's settings; each field declares its config key (``_setting``)."""

    mode: str = _setting("problem", "mode", "complex")  # complex | real
    #: complex dimension n, or real dimension
    dimension: int = _setting("problem", "dimension", parse=int)
    #: monge_ampere | log_sigma_k | hessian_quotient | inverse_sigma_k | composed_with_T
    operator: str = _setting("problem", "operator", "monge_ampere")
    k: int | None = _setting("problem", "k", parse=int)  # where the operator takes it
    l: int | None = _setting("problem", "l", parse=int)  # where the operator takes it
    inner: str | None = _setting("problem", "inner")  # an operator name; composed_with_T only
    #: hessian | quotient | riemannian | fixed; quotient: hessian_quotient only
    path: str = _setting("problem", "path", "fixed")
    normalization: str = _setting("problem", "normalization", "mean_zero")  # or sup_zero
    points_per_axis: int = _setting("grid", "points_per_axis", parse=int)  # even, >= 4
    #: finite floats > 0: one per stored axis, or a single one
    periods: tuple[float, ...] | float = _setting("grid", "periods", "1.0")
    reduced: bool = _setting("grid", "reduced", "false", _bool)  # complex: x-axes only
    #: alpha_scaled(<s > 0>) | file:<path>, a constant positive definite metric
    alpha_spec: str = _setting("background", "alpha", "alpha_scaled(1)")
    #: chi_scaled(<s>) | chi_perturbed(<s>, <amplitude>[, <seed>]) | file:<path>
    chi_spec: str = _setting("background", "chi", "chi_scaled(1)")
    #: zero | constant(<v>) | random_smooth(<amplitude>[, <seed>]) | file:<path>
    rhs_spec: str = _setting("rhs", "h", "zero")
    #: a count >= 2, or t values from 0 to 1, increasing
    schedule: list[float] | int = _setting("solve", "schedule", "21")
    newton_tol: float = _setting("solve", "newton_tol", "1e-10", float)  # finite, > 0
    max_newton: int = _setting("solve", "max_newton", "50", int)  # >= 1
    certify_enabled: bool = _setting("certify", "enabled", "true", _bool)
    #: finite floats > 0, at least one
    delta_grid: tuple[float, ...] = _setting("certify", "delta_grid",
                                             "0.4, 0.2, 0.1, 0.05, 0.025")
    kappa_samples: int = _setting("certify", "kappa_samples", "2000", int)  # 0: no sampling
    output_directory: str = _setting("output", "directory", "out")
    save_fields: bool = _setting("output", "save_fields", "true", _bool)
    seed: int = 0

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if isinstance(out["periods"], tuple):
            out["periods"] = list(out["periods"])
        out["delta_grid"] = list(out["delta_grid"])
        return out


def _parse(convert, raw: str | None, where: str, errors: list[str]):
    """``convert(raw)``, or None if ``raw`` is missing or does not parse (collected)."""
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        errors.append(f"{where}: expected {_EXPECTED[convert]}, got {raw!r}")
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
    # values are literal: no interpolation, so a % is a character like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    errors: list[str] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    settings = {f.name: f.metadata["setting"] for f in fields(RunConfig) if f.metadata}
    known: dict[str, set[str]] = {}
    for section, key, _, _ in settings.values():
        known.setdefault(section, set()).add(key)
    for section in parser.sections():
        if section not in known:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in known[section]:
                errors.append(f"unknown key {section}.{key}")

    raw: dict[str, str | None] = {}
    values = {}
    for name, (section, key, default, parse) in settings.items():
        given = parser.get(section, key, fallback=None)
        raw[name] = default if given is None else given.strip()
        values[name] = (raw[name] if parse is None
                        else _parse(parse, raw[name], f"{section}.{key}", errors))
    cfg = RunConfig(**values)
    unparsed = {name for name, value in values.items()
                if value is None and raw[name] is not None}

    # [problem]
    problem_start = len(errors)
    _check("problem", GRID_RULES, "mode", cfg.mode, errors)
    dimension, operator, k = cfg.dimension, cfg.operator, cfg.k
    if raw["dimension"] is None:
        errors.append("missing required key problem.dimension")
    elif dimension is not None and not 1 <= dimension <= 3:
        errors.append(f"problem.dimension must be 1..3, got {raw['dimension']}")
    if operator not in OPERATOR_KINDS:
        errors.append(f"unknown operator {operator!r}; known: {sorted(OPERATOR_KINDS)}")
    required = OPERATOR_KINDS[operator][1] if operator in OPERATOR_KINDS else ()
    if any(raw[param] is None for param in required):
        errors.append(f"operator {operator} requires "
                      + " and ".join(f"problem.{param}" for param in required))
    elif operator == "hessian_quotient" and None not in (k, cfg.l) and not 1 <= cfg.l < k:
        errors.append("operator hessian_quotient: require l < k (with l >= 1)")
    if cfg.inner is not None and cfg.inner not in OPERATOR_KINDS.keys() - {"composed_with_T"}:
        errors.append(f"unknown inner operator {cfg.inner!r}")
    if len(errors) == problem_start and not unparsed & {"dimension", "k", "l"}:
        try:  # the operator's own parameter checks, against the dimension
            operator_from_name(operator, dimension, k=k, l=cfg.l, inner=cfg.inner)
        except ValueError as exc:
            errors.append(f"operator {operator} at dimension {dimension}: {exc}")
    if cfg.path not in _PATHS:
        errors.append(f"problem.path must be one of {sorted(_PATHS)}, got {cfg.path!r}")
    if cfg.path == "quotient":
        if None not in (k, dimension) and k > dimension >= 1:
            errors.append(f"quotient path: require k <= problem.dimension, got k = {k}")
        if operator != "hessian_quotient":
            errors.append(f"quotient path: requires operator hessian_quotient, got {operator}")
    _check("problem", SOLVE_RULES, "normalization", cfg.normalization, errors)

    # [grid]
    if not parser.has_section("grid"):
        errors.append("missing section [grid] (grid.points_per_axis is required)")
    elif raw["points_per_axis"] is None:
        errors.append("missing required key grid.points_per_axis")
    _check("grid", GRID_RULES, "points_per_axis", cfg.points_per_axis, errors)
    parts = [p for p in cfg.periods.split(",") if p.strip()]
    periods = [_parse(float, p, "grid.periods", errors) for p in parts]
    if None not in periods and not all(0.0 < p < math.inf for p in periods):
        errors.append(f"grid.periods must be finite numbers > 0, got {cfg.periods!r}")
    cfg.periods = periods[0] if len(periods) == 1 else tuple(periods)
    if cfg.mode == "real" and cfg.reduced:
        errors.append("grid.reduced applies to complex mode only")

    # [background], [rhs]
    _check_generator("background.alpha", cfg.alpha_spec, {"alpha_scaled"}, errors)
    _check_generator("background.chi", cfg.chi_spec, {"chi_scaled", "chi_perturbed"}, errors)
    _check_generator("rhs.h", cfg.rhs_spec, {"zero", "constant", "random_smooth"}, errors)

    # [solve]
    if "," in cfg.schedule:
        cfg.schedule = [_parse(float, p, "solve.schedule", errors)
                        for p in cfg.schedule.split(",")]
        if None not in cfg.schedule:
            try:
                check_schedule(cfg.schedule)
            except ValueError as exc:
                errors.append(f"solve.schedule: {exc}")
    else:
        cfg.schedule = _parse(int, cfg.schedule, "solve.schedule", errors)
        _check("solve", SOLVE_RULES, "schedule", cfg.schedule, errors)
    _check("solve", SOLVE_RULES, "newton_tol", cfg.newton_tol, errors)
    _check("solve", SOLVE_RULES, "max_newton", cfg.max_newton, errors)

    # [certify]
    delta_raw, cfg.delta_grid = cfg.delta_grid, tuple(
        _parse(float, p, "certify.delta_grid", errors)
        for p in cfg.delta_grid.split(",") if p.strip())
    if None not in cfg.delta_grid:
        _check("certify", CERTIFY_RULES, "delta_grid", cfg.delta_grid, errors, shown=delta_raw)
    _check("certify", CERTIFY_RULES, "kappa_samples", cfg.kappa_samples, errors)

    if errors:
        raise ConfigError(errors)
    return cfg
