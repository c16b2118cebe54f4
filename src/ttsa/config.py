"""Experiment configuration: line-oriented text format and builders.

The format is UTF-8, one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored. Parsing is strict: unknown keys,
duplicate keys and type mismatches are errors naming the offending line;
out-of-range values, and keys set where nothing reads them (``_READ_WHEN``),
are errors naming the key.

A key the text does not set takes a default that follows the condition keys
(``_defaults``): a library problem fixes ``problem.residual`` and
``problem.residual_clamp`` to its own residual, and ``run.algorithm =
matricial`` fixes ``step.b``, ``step.beta0``, ``step.gamma0`` and
``step.regime`` to the schedule it runs. Such a key may be set only to that
value. The fully resolved configuration is echoed into every output file for
provenance, so the echo is the experiment that ran.

Matrix- and vector-valued keys take JSON arrays, e.g.
``problem.q11 = [[-1.3, 0.4], [-0.3, -1.1]]``.

The schedule rules (A3) live in ``StepSchedule``, the Monte Carlo rules in
``MCConfig``, and the shape, covariance, bias and residual rules in the
problem models: parsing builds the first two and ``build_problem`` the
problem (``_build``), and a field a model rejects is the error ``<key>:
<the model's message>``, naming the key that set it.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .engine import (
    ALGORITHMS, AVERAGED, DIVERGENCE_GUARD, MATRICIAL, STANDARD, _first_diverged,
    _initial_iterate, checkpoint_indices, matricial_schedule, resolve_algorithm,
)
from .errors import ConfigError, DimensionError
from .montecarlo import MCConfig
from .problems import (
    BIAS_KINDS,
    BOUNDED_UNIFORM,
    GAUSSIAN,
    LIBRARY_NAMES,
    RESIDUAL_KINDS,
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
    """A rectangular array of numbers, a number, or null for unset: the models
    check shapes, but cannot name the key of an array they cannot read."""
    try:
        value = json.loads(
            text, parse_float=_finite_json_number, parse_constant=_finite_json_number
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"expected a JSON array, got {text!r}") from exc
    try:  # a ragged array raises; null, true, "1" or an integer past 2^64 are not numbers
        numbers = value is None or np.asarray(value).dtype.kind in "iuf"
    except ValueError:
        numbers = False
    if not numbers:
        raise ValueError(f"expected a rectangular array of numbers, got {text}")
    return value


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


# a default that a model field also holds is read from that field
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
    problem_noise: str = NoiseModel.distribution
    problem_moment_order: float = NoiseModel.moment_order
    problem_bias: str = BiasModel.kind
    problem_bias_rho: float = BiasModel.rho
    problem_bias_coeff_fast: list | None = None
    problem_bias_coeff_slow: list | None = None
    problem_residual: str = NonlinearResidual.kind
    problem_residual_coeff_fast: list | None = None
    problem_residual_coeff_slow: list | None = None
    problem_residual_clamp: float = NonlinearResidual.clamp_radius

    step_a: float = 0.6
    step_b: float = 0.8
    step_beta0: float = 2.0
    step_gamma0: float = 1.0
    step_regime: str = "plain"

    run_n_final: int = 100000
    run_seed: int = 20240701
    run_algorithm: str = "standard"
    run_track_decomposition: bool = MCConfig.track_decomposition
    run_theta0_offset: list | None = None
    run_mu0_offset: list | None = None
    run_checkpoints_per_decade: int = 8

    mc_replications: int = 2000
    mc_base_seed: int = 20240701
    mc_tol_rel: float = MCConfig.tol_rel
    mc_tol_cross: float = MCConfig.tol_cross
    mc_checks: tuple = MCConfig.checks
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
    """Parse configuration text into a fully resolved ExperimentConfig.

    A key the text does not set takes its value from ``_defaults``, which
    follow the problem and the algorithm the text chose.
    """
    given: dict[str, object] = {}
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
        attr, parser = entry
        if attr in given:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", line=lineno, key=key)
        try:
            given[attr] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}", line=lineno, key=key) from exc
    defaults = _defaults(replace(ExperimentConfig(), **given))
    config = replace(defaults, **given)
    _validate(config, defaults)
    return config


def _defaults(config: ExperimentConfig) -> ExperimentConfig:
    """The value of every key that ``config``'s condition keys leave to default.

    These are the ``ExperimentConfig()`` values, except that a library
    problem brings its own residual kind and clamp radius, and the matricial
    algorithm its own schedule, ``matricial_schedule(step.a)``. So a key its
    condition leaves unread holds, and echoes, the value that runs.
    """
    overlay: dict[str, object] = {}
    if config.problem_name in LIBRARY_NAMES:
        residual = library_problem(config.problem_name).residual
        overlay.update(problem_residual=residual.kind,
                       problem_residual_clamp=residual.clamp_radius)
    if config.run_algorithm == MATRICIAL:
        schedule = _build(matricial_schedule, {"a": "step.a"}, config)
        overlay.update(step_beta0=schedule.beta0, step_b=schedule.b,
                       step_gamma0=schedule.gamma0, step_regime=schedule.regime)
    return replace(ExperimentConfig(), **overlay)


# the allowed values of each enumerated key
_CHOICES = {
    "problem.name": (*LIBRARY_NAMES, "custom"),
    "problem.noise": (GAUSSIAN, BOUNDED_UNIFORM),
    "problem.bias": BIAS_KINDS,
    "problem.residual": RESIDUAL_KINDS,
    "step.regime": REGIMES,
    "run.algorithm": ALGORITHMS,
}
# (key, values, the keys read only when key is one of values): a key is read
# when every row listing it holds. A read key whose default is None must be
# set, and an unread key must keep its default (``_defaults``): the echo would
# show a value no builder used.
_READ_WHEN = (
    ("problem.name", ("custom",), (
        "problem.q11", "problem.q12", "problem.q21", "problem.q22", "problem.noise_cov",
        "problem.theta_star", "problem.mu_star", "problem.residual",
        "problem.residual_coeff_fast", "problem.residual_coeff_slow", "problem.residual_clamp",
    )),
    ("problem.residual", ("quadratic_form",),
     ("problem.residual_coeff_fast", "problem.residual_coeff_slow", "problem.residual_clamp")),
    ("problem.bias", ("power_decay",),
     ("problem.bias_coeff_fast", "problem.bias_coeff_slow", "problem.bias_rho")),
    # only the standard clt verdict bounds the cross block
    ("run.algorithm", (STANDARD,), ("mc.tol_cross",)),
    # the matricial algorithm runs its own schedule
    ("run.algorithm", (STANDARD, AVERAGED),
     ("step.b", "step.beta0", "step.gamma0", "step.regime")),
)


def _value(config: ExperimentConfig, key: str):
    return getattr(config, KEY_TABLE[key][0])


def _validate(config: ExperimentConfig, defaults: ExperimentConfig) -> None:
    """Range and consistency checks; ``defaults`` are ``_defaults(config)``."""
    for key, allowed in _CHOICES.items():
        value = _value(config, key)
        if value not in allowed:
            raise ConfigError(f"unknown {key} {value!r} (one of: {', '.join(allowed)})", key=key)
    unread = set()
    for cond, values, keys in _READ_WHEN:
        if _value(config, cond) in values:
            continue
        unread.update(keys)
        for key in keys:
            if _value(config, key) != _value(defaults, key):
                raise ConfigError(
                    f"{key} conflicts with {cond} = {_value(config, cond)}: it is read only "
                    f"when {cond} = {' or '.join(values)}, so its inline value would be ignored",
                    key=key,
                )
    _build(StepSchedule, _SCHEDULE_KEYS, config)
    if config.run_algorithm == MATRICIAL and config.run_track_decomposition:
        raise ConfigError(
            "run.track_decomposition: decomposition tracking applies to the plain "
            "iteration only, not to run.algorithm = matricial",
            key="run.track_decomposition",
        )
    _build(MCConfig, _MC_KEYS, config)
    # checkpoint_indices' bound, as the grid is built only with the experiment
    if not config.run_checkpoints_per_decade > 0:
        raise ConfigError("run.checkpoints_per_decade must be greater than 0, got "
                          f"{config.run_checkpoints_per_decade}", key="run.checkpoints_per_decade")
    if config.run_seed < 0:  # a seed of numpy's SeedSequence
        raise ConfigError(f"run.seed must be non-negative, got {config.run_seed}", key="run.seed")
    # later rows first, so missing coefficients name their kind, not problem.name
    for cond, _, keys in reversed(_READ_WHEN):
        needed = [key for key in keys if key not in unread and _value(defaults, key) is None]
        if any(_value(config, key) is None for key in needed):
            *rest, last = needed
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"{cond} = {_value(config, cond)} requires {listed}", key=cond)


# the key that sets each field of a model, which a rejection of the field names
_SCHEDULE_KEYS = {name: f"step.{name}" for name in ("beta0", "b", "gamma0", "a", "regime")}
_MC_KEYS = {
    "replications": "mc.replications", "n_final": "run.n_final", "base_seed": "mc.base_seed",
    "tol_rel": "mc.tol_rel", "tol_cross": "mc.tol_cross",
    "track_decomposition": "run.track_decomposition", "checks": "mc.checks",
}
# a nested model's field is "<model>.<field>", as ProblemSpec names it
_PROBLEM_KEYS = {
    **{name: f"problem.{name}" for name in ("q11", "q12", "q21", "q22", "theta_star", "mu_star")},
    "noise.cov": "problem.noise_cov", "noise.distribution": "problem.noise",
    "noise.moment_order": "problem.moment_order",
    "bias.kind": "problem.bias", "bias.rho": "problem.bias_rho",
    "residual.kind": "problem.residual", "residual.clamp_radius": "problem.residual_clamp",
    **{f"{model}.{name}": f"problem.{model}_{name}"
       for model in ("bias", "residual") for name in ("coeff_fast", "coeff_slow")},
}


@contextmanager
def _naming(keys: dict[str, str]):
    """A field a model rejects inside is a ConfigError naming the key ``keys`` maps it to."""
    try:
        yield
    except (ConfigError, DimensionError) as exc:
        key = keys[exc.key]
        raise ConfigError(f"{key}: {exc}", key=key) from exc


def _build(model, keys: dict[str, str], config: ExperimentConfig, nested: str = "", **extra):
    """``model`` built from ``extra`` and the keys ``keys`` maps its fields to.
    ``nested``, e.g. "bias.", picks a nested model's rows; a field still dotted
    is a nested model's, which ``extra`` may hold."""
    keys = {name.removeprefix(nested): key for name, key in keys.items() if name.startswith(nested)}
    with _naming(keys):
        return model(**{name: _value(config, key) for name, key in keys.items() if "." not in name},
                     **extra)


def render_config(config: ExperimentConfig) -> str:
    """Canonical text rendering; parse_config(render_config(c)) == c."""
    return "".join(f"{key} = {value}\n" for key, value in config_echo(config).items())


def config_echo(config: ExperimentConfig) -> dict:
    """Resolved configuration as a plain dict for embedding in outputs."""
    values = ((key, getattr(config, attr)) for key, (attr, _) in KEY_TABLE.items())
    return {key: _render(value) for key, value in values if value is not None}


def build_experiment(config: ExperimentConfig):
    """The one place a validated config becomes an experiment.

    Returns ``(problem, resolved, mc)``: the problem, the ``ResolvedAlgorithm``
    that runs, and the ``MCConfig`` carrying the start and the checkpoint
    grid. The config's ``step.*`` keys are the schedule that runs, since the
    matricial algorithm fixes them (``_defaults``). Every ConfigError it
    raises names a key.
    """
    problem = build_problem(config)
    schedule = _build(StepSchedule, _SCHEDULE_KEYS, config)
    try:
        resolved = resolve_algorithm(problem, schedule, config.run_algorithm)
    except ConfigError as exc:
        raise ConfigError(
            f"run.algorithm = {config.run_algorithm}: {exc}", key="run.algorithm"
        ) from exc
    theta0, mu0 = _start(config, problem)
    grid = checkpoint_indices(config.run_n_final, config.run_checkpoints_per_decade)
    mc = _build(MCConfig, _MC_KEYS, config, theta0=theta0, mu0=mu0,
                checkpoints=tuple(int(n) for n in grid))
    return problem, resolved, mc


def build_problem(config: ExperimentConfig) -> ProblemSpec:
    """The problem a validated config describes. Its unread keys hold their
    defaults, so each model takes the keys of its kind as they stand, and a
    field a model rejects is a ConfigError naming its key (``_PROBLEM_KEYS``).
    """
    bias = _build(BiasModel, _PROBLEM_KEYS, config, "bias.")
    if config.problem_name == "custom":
        noise = _build(NoiseModel, _PROBLEM_KEYS, config, "noise.")
        problem = _build(ProblemSpec, _PROBLEM_KEYS, config, noise=noise)
        if config.problem_residual == "quadratic_form":
            # fit to the blocks first: the residual alone cannot tell which tensor is wrong
            with _naming(_PROBLEM_KEYS):
                problem.check_coeffs("residual", config.problem_residual_coeff_fast,
                                     config.problem_residual_coeff_slow)
        residual = _build(NonlinearResidual, _PROBLEM_KEYS, config, "residual.")
    else:
        problem = library_problem(config.problem_name)
        noise = replace(problem.noise, distribution=config.problem_noise,
                        moment_order=config.problem_moment_order)
        residual = problem.residual
    with _naming(_PROBLEM_KEYS):
        return replace(problem, noise=noise, bias=bias, residual=residual)


def _start(config: ExperimentConfig, problem: ProblemSpec):
    """(theta0, mu0) from the run offsets, or None where no offset is set.

    An offset must have its root's shape: a shorter one would broadcast. A
    start the engine's divergence guard would flag before any step is a
    ConfigError naming the key that set the larger block: its offset, or else
    its root.
    """
    starts = []
    for key, root in (("run.theta0_offset", problem.theta_star),
                      ("run.mu0_offset", problem.mu_star)):
        offset = _value(config, key)
        if offset is not None and np.shape(offset) != root.shape:
            raise ConfigError(f"{key}: expected length {len(root)}, got {offset}", key=key)
        starts.append(None if offset is None else root + np.asarray(offset, dtype=float))
    theta0, mu0 = starts
    x, d = _initial_iterate(problem, theta0, mu0), problem.d
    if _first_diverged(x[None], d) >= 0:  # which leaves |x| in x
        fast = x[:d].max() >= x[d:].max()
        block, start = ("theta", theta0) if fast else ("mu", mu0)
        key = f"problem.{block}_star" if start is None else f"run.{block}0_offset"
        raise ConfigError(
            f"{key}: the start lies beyond the divergence guard, "
            f"max|theta| + max|mu| > {DIVERGENCE_GUARD:g}",
            key=key,
        )
    return theta0, mu0
