"""Experiment configuration: line-oriented text format and builders.

The format is UTF-8, one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored. Parsing is strict: unknown keys,
duplicate keys, type mismatches and out-of-range step exponents are errors
naming the offending line. The fully resolved configuration (defaults
applied) is echoed into every output file for provenance.

Matrix- and vector-valued keys take JSON arrays, e.g.
``problem.q11 = [[-1.3, 0.4], [-0.3, -1.1]]``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .engine import ALGORITHMS
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


def _validate(config: ExperimentConfig) -> None:
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
    if config.step_beta0 <= 0 or config.step_gamma0 <= 0:
        raise ConfigError("step scales beta0 and gamma0 must be positive (A3)")
    if config.step_regime not in REGIMES:
        raise ConfigError(f"unknown step.regime {config.step_regime!r}", key="step.regime")
    if config.run_algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown run.algorithm {config.run_algorithm!r}", key="run.algorithm"
        )
    if config.problem_noise not in (GAUSSIAN, BOUNDED_UNIFORM):
        raise ConfigError(
            f"unknown problem.noise {config.problem_noise!r}", key="problem.noise"
        )
    if config.problem_name not in LIBRARY_NAMES and config.problem_name != "custom":
        raise ConfigError(
            f"unknown problem.name {config.problem_name!r} "
            f"(library: {', '.join(LIBRARY_NAMES)}, or 'custom' with inline blocks)",
            key="problem.name",
        )
    inline_keys = [config.problem_q11, config.problem_q12, config.problem_q21,
                   config.problem_q22, config.problem_noise_cov]
    if config.problem_name == "custom" and any(v is None for v in inline_keys):
        raise ConfigError(
            "problem.name = custom requires problem.q11..q22, problem.noise_cov, "
            "problem.theta_star and problem.mu_star",
            key="problem.name",
        )
    if config.problem_name != "custom" and any(v is not None for v in inline_keys):
        raise ConfigError(
            "inline problem blocks conflict with a library problem.name; "
            "use problem.name = custom",
            key="problem.name",
        )
    unknown = set(config.mc_checks) - set(KNOWN_CHECKS)
    if unknown:
        raise ConfigError(f"unknown mc.checks entries: {sorted(unknown)}", key="mc.checks")
    if config.mc_replications < 2:
        raise ConfigError("mc.replications must be at least 2", key="mc.replications")


def render_config(config: ExperimentConfig) -> str:
    """Canonical text rendering; parse_config(render_config(c)) == c."""
    return "".join(f"{key} = {value}\n" for key, value in config_echo(config).items())


def config_echo(config: ExperimentConfig) -> dict:
    """Resolved configuration as a plain dict for embedding in outputs."""
    values = ((key, getattr(config, attr)) for key, (attr, _) in KEY_TABLE.items())
    return {key: _render(value) for key, value in values if value is not None}


def build_problem(config: ExperimentConfig) -> ProblemSpec:
    if config.problem_name != "custom":
        problem = library_problem(config.problem_name)
        if (
            config.problem_bias == "zero"
            and config.problem_moment_order == math.inf
            and config.problem_noise == GAUSSIAN
        ):
            return problem
        bias = _build_bias(config)
        noise = NoiseModel(
            cov=problem.noise.cov,
            distribution=config.problem_noise,
            moment_order=config.problem_moment_order,
        )
        return ProblemSpec(
            q11=problem.q11, q12=problem.q12, q21=problem.q21, q22=problem.q22,
            theta_star=problem.theta_star, mu_star=problem.mu_star,
            noise=noise, residual=problem.residual, bias=bias, name=problem.name,
        )
    if config.problem_theta_star is None or config.problem_mu_star is None:
        raise ConfigError("custom problem requires problem.theta_star and problem.mu_star")
    noise = NoiseModel(
        cov=np.asarray(config.problem_noise_cov, dtype=float),
        distribution=config.problem_noise,
        moment_order=config.problem_moment_order,
    )
    residual = NonlinearResidual()
    if config.problem_residual == "quadratic_form":
        residual = NonlinearResidual(
            kind="quadratic_form",
            coeff_fast=config.problem_residual_coeff_fast,
            coeff_slow=config.problem_residual_coeff_slow,
            clamp_radius=config.problem_residual_clamp,
        )
    elif config.problem_residual != "none":
        raise ConfigError(
            f"unknown problem.residual {config.problem_residual!r}",
            key="problem.residual",
        )
    return ProblemSpec(
        q11=config.problem_q11,
        q12=config.problem_q12,
        q21=config.problem_q21,
        q22=config.problem_q22,
        theta_star=config.problem_theta_star,
        mu_star=config.problem_mu_star,
        noise=noise,
        residual=residual,
        bias=_build_bias(config),
        name="custom",
    )


def _build_bias(config: ExperimentConfig) -> BiasModel:
    if config.problem_bias == "zero":
        return BiasModel()
    if config.problem_bias == "power_decay":
        return BiasModel(
            kind="power_decay",
            coeff_fast=config.problem_bias_coeff_fast,
            coeff_slow=config.problem_bias_coeff_slow,
            rho=config.problem_bias_rho,
        )
    raise ConfigError(f"unknown problem.bias {config.problem_bias!r}", key="problem.bias")


def build_schedule(config: ExperimentConfig) -> StepSchedule:
    try:
        return StepSchedule(
            beta0=config.step_beta0,
            b=config.step_b,
            gamma0=config.step_gamma0,
            a=config.step_a,
            regime=config.step_regime,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_mc(config: ExperimentConfig) -> MCConfig:
    from .engine import checkpoint_indices

    grid = checkpoint_indices(config.run_n_final, config.run_checkpoints_per_decade)
    return MCConfig(
        replications=config.mc_replications,
        n_final=config.run_n_final,
        base_seed=config.mc_base_seed,
        algorithm=config.run_algorithm,
        tol_rel=config.mc_tol_rel,
        tol_cross=config.mc_tol_cross,
        track_decomposition=config.run_track_decomposition,
        checks=config.mc_checks,
        checkpoints=tuple(int(n) for n in grid),
    )


def initial_iterates(config: ExperimentConfig, problem: ProblemSpec):
    """(theta0, mu0) from the run offsets, or None where no offset is set."""
    theta0 = mu0 = None
    if config.run_theta0_offset is not None:
        theta0 = problem.theta_star + np.asarray(config.run_theta0_offset, dtype=float)
    if config.run_mu0_offset is not None:
        mu0 = problem.mu_star + np.asarray(config.run_mu0_offset, dtype=float)
    return theta0, mu0
