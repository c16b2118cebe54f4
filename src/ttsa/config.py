"""Experiment configuration: line-oriented text format and builders.

The format is UTF-8, one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored. Parsing is strict: unknown keys,
duplicate keys and type mismatches are errors naming the offending line;
out-of-range values, and keys set where nothing reads them (``_READ_WHEN``),
are errors naming the key. The fully resolved configuration (defaults
applied) is echoed into every output file for provenance.

Matrix- and vector-valued keys take JSON arrays, e.g.
``problem.q11 = [[-1.3, 0.4], [-0.3, -1.1]]``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import (
    ALGORITHMS, DIVERGENCE_GUARD, MATRICIAL, _first_diverged, _initial_iterate,
    checkpoint_indices, resolve_algorithm,
)
from .errors import ConfigError
from .montecarlo import KNOWN_CHECKS, MCConfig
from .problems import (
    BOUNDED_UNIFORM,
    GAUSSIAN,
    LIBRARY_NAMES,
    BiasModel,
    NoiseModel,
    NonlinearResidual,
    ProblemSpec,
    library_problem,
)
from .schedules import REGIMES, StepSchedule

OUTPUT_DIR_ENV = "TTSA_OUTPUT_DIR"


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"expected a number, got {text!r}") from exc
    if math.isnan(value):
        # NaN compares false with everything, so checks against it fail silently
        raise ValueError(f"expected a number other than NaN, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"expected an integer, got {text!r}") from exc


def _parse_bool(text: str) -> bool:
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _finite_json_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        # json.loads takes NaN and Infinity, which no block or offset can hold
        raise ValueError(f"expected finite numbers, got {text}")
    return value


def _parse_json(text: str):
    try:
        return json.loads(
            text, parse_float=_finite_json_number, parse_constant=_finite_json_number
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"expected a JSON array, got {text!r}") from exc


def _parse_str(text: str) -> str:
    return text


def _parse_checks(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(value)
    return json.dumps(value)


@dataclass
class ExperimentConfig:
    problem_name: str = "linear-2x2"
    problem_theta_star: list | None = None
    problem_mu_star: list | None = None
    problem_q11: list | None = None
    problem_q12: list | None = None
    problem_q21: list | None = None
    problem_q22: list | None = None
    problem_noise_cov: list | None = None
    problem_noise: str = GAUSSIAN
    problem_moment_order: float = math.inf
    problem_bias: str = "zero"
    problem_bias_rho: float = 1.0
    problem_bias_coeff_fast: list | None = None
    problem_bias_coeff_slow: list | None = None
    problem_residual: str = "none"
    problem_residual_coeff_fast: list | None = None
    problem_residual_coeff_slow: list | None = None
    problem_residual_clamp: float = 10.0

    step_a: float = 0.6
    step_b: float = 0.8
    step_beta0: float = 2.0
    step_gamma0: float = 1.0
    step_regime: str = "plain"

    run_n_final: int = 100000
    run_seed: int = 20240701
    run_algorithm: str = "standard"
    run_track_decomposition: bool = False
    run_theta0_offset: list | None = None
    run_mu0_offset: list | None = None
    run_checkpoints_per_decade: int = 8

    mc_replications: int = 2000
    mc_base_seed: int = 20240701
    mc_tol_rel: float = 0.15
    mc_tol_cross: float = 0.10
    mc_checks: tuple = ("clt",)
    mc_dump_samples: bool = False

    output_directory: str = ""

    def resolved_output_dir(self) -> str:
        if self.output_directory:
            return self.output_directory
        return os.environ.get(OUTPUT_DIR_ENV, ".")


# field type, as written in ExperimentConfig, to the parser of its values
_PARSERS = {
    "str": _parse_str,
    "float": _parse_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "list | None": _parse_json,
    "tuple": _parse_checks,
}


def _key_table() -> dict[str, tuple[str, object]]:
    table = {}
    for f in fields(ExperimentConfig):
        section, _, rest = f.name.partition("_")
        table[f"{section}.{rest}"] = (f.name, _PARSERS[f.type])
    return table


KEY_TABLE = _key_table()


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text into a fully resolved ExperimentConfig."""
    config = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'section.key = value', got {raw!r}",
                line=lineno,
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = KEY_TABLE.get(key)
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", line=lineno, key=key)
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", line=lineno, key=key)
        seen.add(key)
        attr, parser = entry
        try:
            setattr(config, attr, parser(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}", line=lineno, key=key) from exc
    _validate(config)
    return config


# the allowed values of each enumerated key
_CHOICES = {
    "problem.name": (*LIBRARY_NAMES, "custom"),
    "problem.noise": (GAUSSIAN, BOUNDED_UNIFORM),
    "problem.bias": ("zero", "power_decay"),
    "problem.residual": ("none", "quadratic_form"),
    "step.regime": REGIMES,
    "run.algorithm": ALGORITHMS,
}
# (key, value, the keys read only when key = value): a key is read when every
# row listing it holds. A read key whose default is None must be set, and an
# unread key must keep its default: the echo would show a value no builder used.
_READ_WHEN = (
    ("problem.name", "custom", (
        "problem.q11", "problem.q12", "problem.q21", "problem.q22", "problem.noise_cov",
        "problem.theta_star", "problem.mu_star", "problem.residual",
        "problem.residual_coeff_fast", "problem.residual_coeff_slow", "problem.residual_clamp",
    )),
    ("problem.residual", "quadratic_form",
     ("problem.residual_coeff_fast", "problem.residual_coeff_slow", "problem.residual_clamp")),
    ("problem.bias", "power_decay",
     ("problem.bias_coeff_fast", "problem.bias_coeff_slow", "problem.bias_rho")),
    # only the standard clt verdict bounds the cross block
    ("run.algorithm", "standard", ("mc.tol_cross",)),
)
_DEFAULTS = ExperimentConfig()


def _value(config: ExperimentConfig, key: str):
    return getattr(config, KEY_TABLE[key][0])


def _validate(config: ExperimentConfig) -> None:
    for key, allowed in _CHOICES.items():
        value = _value(config, key)
        if value not in allowed:
            raise ConfigError(f"unknown {key} {value!r} (one of: {', '.join(allowed)})", key=key)
    a, b = config.step_a, config.step_b
    if not (0.0 < a <= 1.0) or not (0.0 < b <= 1.0):
        raise ConfigError(
            f"step exponents out of range: need 1/2 < a < b <= 1 (A3); "
            f"got a={a}, b={b}",
            key="step.b" if not (0.0 < b <= 1.0) else "step.a",
        )
    if not (0.5 < a < b):
        raise ConfigError(
            f"step exponent ordering violated: need 1/2 < a < b (A3); got a={a}, b={b}",
            key="step.a",
        )
    if config.run_algorithm == MATRICIAL and config.run_track_decomposition:
        raise ConfigError(
            "run.track_decomposition: decomposition tracking applies to the plain "
            "iteration only, not to run.algorithm = matricial",
            key="run.track_decomposition",
        )
    if "negligibility" in config.mc_checks and not config.run_track_decomposition:
        raise ConfigError(
            "run.track_decomposition: mc.checks = negligibility reads the tracked "
            "decomposition, so it needs run.track_decomposition = true",
            key="run.track_decomposition",
        )
    # each key must exceed its bound: the counts, and the step scales (A3),
    # bias decay rate (A4), clamp radius and tolerances, which are positive
    bounds = {
        "run.n_final": 0, "run.checkpoints_per_decade": 0, "mc.replications": 1,
        "step.beta0": 0.0, "step.gamma0": 0.0, "problem.bias_rho": 0.0,
        "problem.residual_clamp": 0.0, "mc.tol_rel": 0.0, "mc.tol_cross": 0.0,
    }
    for key, bound in bounds.items():
        value = _value(config, key)
        if not value > bound:
            raise ConfigError(f"{key} must be greater than {bound}, got {value}", key=key)
    unread = set()
    for cond, value, keys in _READ_WHEN:
        if _value(config, cond) == value:
            continue
        unread.update(keys)
        for key in keys:
            if _value(config, key) != _value(_DEFAULTS, key):
                raise ConfigError(
                    f"{key} conflicts with {cond} = {_value(config, cond)}: it is read only "
                    f"when {cond} = {value}, so its inline value would be ignored",
                    key=key,
                )
    # later rows first, so missing coefficients name their kind, not problem.name
    for cond, value, keys in reversed(_READ_WHEN):
        needed = [key for key in keys if key not in unread and _value(_DEFAULTS, key) is None]
        if any(_value(config, key) is None for key in needed):
            *rest, last = needed
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"{cond} = {value} requires {listed}", key=cond)
    unknown = set(config.mc_checks) - set(KNOWN_CHECKS)
    if unknown:
        raise ConfigError(f"unknown mc.checks entries: {sorted(unknown)}", key="mc.checks")


def render_config(config: ExperimentConfig) -> str:
    """Canonical text rendering; parse_config(render_config(c)) == c."""
    return "".join(f"{key} = {value}\n" for key, value in config_echo(config).items())


def config_echo(config: ExperimentConfig) -> dict:
    """Resolved configuration as a plain dict for embedding in outputs."""
    values = ((key, getattr(config, attr)) for key, (attr, _) in KEY_TABLE.items())
    return {key: _render(value) for key, value in values if value is not None}


def build_experiment(config: ExperimentConfig):
    """The one place a validated config becomes an experiment.

    Returns ``(problem, schedule, resolved, mc)``: the problem, the schedule
    as configured, the ``ResolvedAlgorithm`` that runs, and the ``MCConfig``
    carrying the start and the checkpoint grid. Every ConfigError it raises
    names a key.
    """
    problem = build_problem(config)
    schedule = StepSchedule(beta0=config.step_beta0, b=config.step_b,
                            gamma0=config.step_gamma0, a=config.step_a, regime=config.step_regime)
    try:
        resolved = resolve_algorithm(problem, schedule, config.run_algorithm)
    except ConfigError as exc:
        raise ConfigError(
            f"run.algorithm = {config.run_algorithm}: {exc}", key="run.algorithm"
        ) from exc
    theta0, mu0 = _start(config, problem)
    grid = checkpoint_indices(config.run_n_final, config.run_checkpoints_per_decade)
    mc = MCConfig(
        replications=config.mc_replications, n_final=config.run_n_final,
        base_seed=config.mc_base_seed, tol_rel=config.mc_tol_rel, tol_cross=config.mc_tol_cross,
        track_decomposition=config.run_track_decomposition, checks=config.mc_checks,
        theta0=theta0, mu0=mu0, checkpoints=tuple(int(n) for n in grid),
    )
    return problem, schedule, resolved, mc


def build_problem(config: ExperimentConfig) -> ProblemSpec:
    """The problem a validated config describes. Its unread keys hold their
    defaults, so each model takes the keys of its kind as they stand. An array
    key whose shape does not fit the problem's dimensions is a ConfigError
    naming it (``_check_shapes``).
    """
    custom = config.problem_name == "custom"
    if custom:  # the row counts of the diagonal blocks set the dimensions
        d, d_prime = (len(q) if isinstance(q, list) and q else 1
                      for q in (config.problem_q11, config.problem_q22))
    else:
        problem = library_problem(config.problem_name)
        d, d_prime = problem.d, problem.d_prime
    _check_shapes(config, d, d_prime)
    if custom:
        problem = ProblemSpec(
            q11=config.problem_q11, q12=config.problem_q12,
            q21=config.problem_q21, q22=config.problem_q22,
            theta_star=config.problem_theta_star, mu_star=config.problem_mu_star,
            noise=_custom_noise(config),
            residual=NonlinearResidual(
                kind=config.problem_residual,
                coeff_fast=config.problem_residual_coeff_fast,
                coeff_slow=config.problem_residual_coeff_slow,
                clamp_radius=config.problem_residual_clamp,
            ),
        )
    noise = replace(problem.noise, distribution=config.problem_noise,
                    moment_order=config.problem_moment_order)
    bias = BiasModel(kind=config.problem_bias, coeff_fast=config.problem_bias_coeff_fast,
                     coeff_slow=config.problem_bias_coeff_slow, rho=config.problem_bias_rho)
    return replace(problem, noise=noise, bias=bias)


def _custom_noise(config: ExperimentConfig) -> NoiseModel:
    """The custom noise model; a covariance it rejects names ``problem.noise_cov``."""
    try:
        return NoiseModel(cov=config.problem_noise_cov)
    except ValueError as exc:
        raise ConfigError(f"problem.noise_cov: {exc}", key="problem.noise_cov") from exc


def _check_shapes(config: ExperimentConfig, d: int, d_prime: int) -> None:
    """Each array key that is set has the shape a d+d' problem gives it."""
    dim = d + d_prime
    for key, shape in (
        ("problem.q11", (d, d)), ("problem.q22", (d_prime, d_prime)),
        ("problem.q12", (d, d_prime)), ("problem.q21", (d_prime, d)),
        ("problem.noise_cov", (dim, dim)),
        ("problem.theta_star", (d,)), ("problem.mu_star", (d_prime,)),
        ("run.theta0_offset", (d,)), ("run.mu0_offset", (d_prime,)),
        ("problem.bias_coeff_fast", (d,)), ("problem.bias_coeff_slow", (d_prime,)),
        ("problem.residual_coeff_fast", (d, dim, dim)),
        ("problem.residual_coeff_slow", (d_prime, dim, dim)),
    ):
        value = _value(config, key)
        try:
            fits = value is None or np.asarray(value, dtype=float).shape == shape
        except (TypeError, ValueError):  # ragged, or not numbers
            fits = False
        if not fits:
            expected = f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"
            raise ConfigError(f"{key}: expected {expected}, got {value}", key=key)


def _start(config: ExperimentConfig, problem: ProblemSpec):
    """(theta0, mu0) from the run offsets, or None where no offset is set.

    A start the engine's divergence guard would flag before any step is a
    ConfigError naming the key that set the larger block: its offset, or else
    its root.
    """
    theta0, mu0 = (
        None if offset is None else root + np.asarray(offset, dtype=float)
        for offset, root in ((config.run_theta0_offset, problem.theta_star),
                             (config.run_mu0_offset, problem.mu_star))
    )
    x, d = _initial_iterate(problem, theta0, mu0), problem.d
    if _first_diverged(x[None], d) >= 0:
        fast = np.abs(x[:d]).max() >= np.abs(x[d:]).max()
        block, start = ("theta", theta0) if fast else ("mu", mu0)
        key = f"problem.{block}_star" if start is None else f"run.{block}0_offset"
        raise ConfigError(
            f"{key}: the start lies beyond the divergence guard, "
            f"max|theta| + max|mu| > {DIVERGENCE_GUARD:g}",
            key=key,
        )
    return theta0, mu0
