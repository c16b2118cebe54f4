"""Each rule on a key's value lives in one model only.

Config checks the ``step.*``, ``run.n_final``, ``run.track_decomposition``
and ``mc.*`` keys by building StepSchedule and MCConfig, and the
``problem.*`` keys by building ProblemSpec and its NoiseModel, BiasModel and
NonlinearResidual. So at each boundary of a rule config and the model agree:
both accept, or both reject and the config error names the key that sets the
field the model rejects.
"""
import math
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ttsa import MCConfig, StepSchedule
from ttsa.config import (
    _MC_KEYS, _PROBLEM_KEYS, _SCHEDULE_KEYS, KEY_TABLE, build_experiment, parse_config,
)
from ttsa.engine import initial_state
from ttsa.errors import ConfigError, DimensionError
from ttsa.problems import BiasModel, NoiseModel, NonlinearResidual, ProblemSpec, library_problem

MINIMAL = "problem.name = linear-2x2\n"

# each key to (model, field) through the tables config builds the models by
_FIELD_OF = {key: (model, field)
             for model, keys in ((StepSchedule, _SCHEDULE_KEYS), (MCConfig, _MC_KEYS))
             for field, key in keys.items()}

# (key, text) on either side of each rule, over MINIMAL's defaults: a = b =
# 0.8, b = 0.8, beta0 = 2, gamma0 = 1, and no tracking
_BOUNDARIES = [
    ("step.a", "0.5"), ("step.a", "0.8"), ("step.a", "0.79"),
    ("step.b", "1.0"), ("step.b", "1.0000001"),
    ("step.beta0", "0"), ("step.beta0", "inf"), ("step.beta0", "1e-300"),
    ("step.gamma0", "0"), ("step.gamma0", "inf"), ("step.gamma0", "1e300"),
    ("mc.replications", "1"), ("mc.replications", "2"),
    ("run.n_final", "0"), ("run.n_final", "1"),
    ("mc.base_seed", "-1"), ("mc.base_seed", "0"),
    ("mc.tol_rel", "0"), ("mc.tol_rel", "inf"), ("mc.tol_rel", "1e-300"),
    ("mc.tol_cross", "0"), ("mc.tol_cross", "inf"), ("mc.tol_cross", "1e300"),
    ("mc.checks", "slopes,slopes"), ("mc.checks", "slopes,normality"),
    ("mc.checks", "negligibility"), ("mc.checks", "clt,slopes,lil"),
]


def _model_fields(keys):
    """The model's fields as the MINIMAL config sets them."""
    config = parse_config(MINIMAL)
    return {field: getattr(config, KEY_TABLE[key][0]) for field, key in keys.items()}


@pytest.mark.parametrize("key, text", _BOUNDARIES)
def test_parse_config_and_the_model_agree_at_the_boundary(key, text):
    model, field = _FIELD_OF[key]
    value = KEY_TABLE[key][1](text)  # the value config hands the model
    keys = _SCHEDULE_KEYS if model is StepSchedule else _MC_KEYS
    try:
        model(**{**_model_fields(keys), field: value})
    except ConfigError as exc:
        named = keys[exc.key]  # the key that set the field the model rejects
        with pytest.raises(ConfigError) as err:
            parse_config(f"{MINIMAL}{key} = {text}\n")
        assert err.value.key == named
        assert str(err.value) == f"{named}: {exc}"
    else:
        assert getattr(parse_config(f"{MINIMAL}{key} = {text}\n"), KEY_TABLE[key][0]) == value


CUSTOM_1X1 = """
problem.name = custom
problem.theta_star = [0.0]
problem.mu_star = [0.0]
problem.q11 = [[-2.0]]
problem.q12 = [[1.0]]
problem.q21 = [[1.0]]
problem.q22 = [[-1.0]]
problem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]
"""
POWER_DECAY = (f"{MINIMAL}problem.bias = power_decay\nproblem.bias_coeff_fast = [0.5, 0.5]\n"
               "problem.bias_coeff_slow = [-0.5, -0.5]\n")
QUADRATIC = (f"{CUSTOM_1X1}problem.residual = quadratic_form\n"
             "problem.residual_coeff_fast = [[[0.1, 0.0], [0.0, 0.1]]]\n"
             "problem.residual_coeff_slow = [[[0.0, 0.1], [0.1, 0.0]]]\n")
# (start, key, rejected, accepted): values on either side of a problem rule
# that a model holds alone; the psd tolerance is 1e-10 max(1, ||Gamma||_F),
# about 2e-9 here
_PROBLEM_BOUNDARIES = [
    (POWER_DECAY, "problem.bias_rho", "0", "1e-300"),
    (POWER_DECAY, "problem.bias_rho", "-1", "inf"),
    (POWER_DECAY, "problem.bias_coeff_fast", "[[0.5, 0.5]]", "[0.5, -0.5]"),
    (QUADRATIC, "problem.residual_clamp", "0", "1e-300"),
    (QUADRATIC, "problem.residual_clamp", "-0.0", "inf"),
    (CUSTOM_1X1, "problem.noise_cov", "[[-2.1e-9, 0.0], [0.0, 20.0]]",
     "[[-1.9e-9, 0.0], [0.0, 20.0]]"),
    (CUSTOM_1X1, "problem.noise_cov", "[[1.0, 1e-3], [0.0, 1.0]]", "[[1.0, 5e-11], [0.0, 1.0]]"),
    (CUSTOM_1X1, "problem.noise_cov", "[[1.0, 0.0, 0.0]]", "[[2.0, 0.0], [0.0, 2.0]]"),
    (CUSTOM_1X1, "problem.theta_star", "[[0.0]]", "[1.0]"),
    (CUSTOM_1X1, "problem.mu_star", "0.0", "[0.5]"),
    (CUSTOM_1X1, "problem.q11", "[[-2.0, 0.0]]", "[[2.0]]"),
    (CUSTOM_1X1, "problem.q21", "[[1.0], [0.0]]", "[[0.0]]"),
]


def _setting(start: str, key: str, text: str) -> str:
    """``start`` with ``key = text`` in place of any line that sets ``key``."""
    lines = [line for line in start.splitlines() if line.partition(" = ")[0] != key]
    return "\n".join([*lines, f"{key} = {text}"]) + "\n"


def _model_verdict(problem: ProblemSpec, model: str, field: str, value):
    """The field that setting ``field`` of ``problem``'s nested ``model`` (or
    of the problem, for "") to ``value`` rejects, as ``_PROBLEM_KEYS`` names
    it, with the error; None if accepted."""
    try:  # the problem with the one field changed, its nested model rebuilt
        if model:
            replace(problem, **{model: replace(getattr(problem, model), **{field: value})})
        else:
            replace(problem, **{field: value})
    except (ConfigError, DimensionError) as exc:
        # a nested model names its own field, ProblemSpec the nested one
        return exc.key if "." in exc.key or not model else f"{model}.{exc.key}", exc
    return None


@pytest.mark.parametrize("start, key, rejected, accepted", _PROBLEM_BOUNDARIES,
                         ids=[f"{key}={bad}|{good}" for _, key, bad, good in _PROBLEM_BOUNDARIES])
def test_build_and_the_problem_models_agree_at_the_boundary(start, key, rejected, accepted):
    problem = build_experiment(parse_config(start))[0]
    model, _, field = next(name for name, k in _PROBLEM_KEYS.items() if k == key).rpartition(".")
    name, exc = _model_verdict(problem, model, field, KEY_TABLE[key][1](rejected))
    named = _PROBLEM_KEYS[name]  # the key that set the field the model rejects
    with pytest.raises(ConfigError) as err:
        build_experiment(parse_config(_setting(start, key, rejected)))
    assert err.value.key == named
    assert str(err.value) == f"{named}: {exc}"

    value = KEY_TABLE[key][1](accepted)
    assert _model_verdict(problem, model, field, value) is None
    built = build_experiment(parse_config(_setting(start, key, accepted)))[0]
    got = getattr(getattr(built, model) if model else built, field)
    if key == "problem.noise_cov":  # the model keeps the symmetric part
        value = 0.5 * (np.asarray(value) + np.asarray(value).T)
    np.testing.assert_array_equal(got, value)


def test_negligibility_is_accepted_with_tracking():
    # the other side of the boundary ("mc.checks", "negligibility") above
    text = f"{MINIMAL}mc.checks = negligibility\nrun.track_decomposition = true\n"
    assert parse_config(text).mc_checks == ("negligibility",)


_START = partial(initial_state, library_problem("scalar-coupled"))
# fields each model accepts, which a row of the test below changes
_VALID = {
    StepSchedule: {"beta0": 2.0, "b": 0.8, "gamma0": 1.0, "a": 0.6},
    MCConfig: {"replications": 2, "n_final": 10, "base_seed": 0},
    NoiseModel: {"cov": np.eye(2)},
    BiasModel: {"kind": "power_decay", "coeff_fast": [0.5], "coeff_slow": [-0.5]},
    NonlinearResidual: {"kind": "quadratic_form", "coeff_fast": np.zeros((1, 2, 2)),
                        "coeff_slow": np.zeros((1, 2, 2))},
    ProblemSpec: {"q11": [[-2.0]], "q12": [[1.0]], "q21": [[1.0]], "q22": [[-1.0]],
                  "theta_star": [0.0], "mu_star": [0.0], "noise": NoiseModel(cov=np.eye(2))},
    _START: {},
}


@pytest.mark.parametrize("model, fields, field, error", [
    (StepSchedule, {"a": 0.4}, "a", ConfigError),
    (StepSchedule, {"a": 1.5}, "a", ConfigError),
    (StepSchedule, {"a": 0.9}, "a", ConfigError),  # above b
    (StepSchedule, {"b": 1.5}, "b", ConfigError),
    (StepSchedule, {"a": 1.5, "b": 1.5}, "b", ConfigError),  # b is blamed when it is out of (0, 1]
    (StepSchedule, {"beta0": -1.0}, "beta0", ConfigError),
    (StepSchedule, {"gamma0": math.inf}, "gamma0", ConfigError),
    (StepSchedule, {"regime": "fast"}, "regime", ConfigError),
    (MCConfig, {"replications": 1}, "replications", ConfigError),
    (MCConfig, {"n_final": 0}, "n_final", ConfigError),
    (MCConfig, {"base_seed": -1}, "base_seed", ConfigError),
    (MCConfig, {"tol_rel": math.nan}, "tol_rel", ConfigError),
    (MCConfig, {"tol_cross": 0.0}, "tol_cross", ConfigError),
    (MCConfig, {"checks": ("normality",)}, "checks", ConfigError),
    (MCConfig, {"checks": ("negligibility",)}, "track_decomposition", ConfigError),
    (NoiseModel, {"cov": [[1.0, 2.0], [2.0, 1.0]]}, "cov", ConfigError),  # not psd
    (NoiseModel, {"cov": [[1.0, 0.0]]}, "cov", DimensionError),
    (NoiseModel, {"cov": [[1.0], [0.0, 1.0]]}, "cov", ConfigError),  # ragged
    (NoiseModel, {"cov": [[1.0, 0.0], [0.0, math.inf]]}, "cov", ConfigError),
    (NoiseModel, {"distribution": "cauchy"}, "distribution", ConfigError),
    (BiasModel, {"kind": "linear"}, "kind", ConfigError),
    (BiasModel, {"rho": 0.0}, "rho", ConfigError),
    (BiasModel, {"rho": math.nan}, "rho", ConfigError),
    (BiasModel, {"coeff_slow": None}, "coeff_slow", ConfigError),
    (BiasModel, {"coeff_fast": [[0.5]]}, "coeff_fast", DimensionError),
    (BiasModel, {"coeff_slow": [["a"]]}, "coeff_slow", ConfigError),
    (NonlinearResidual, {"kind": "cubic"}, "kind", ConfigError),
    (NonlinearResidual, {"clamp_radius": 0.0}, "clamp_radius", ConfigError),
    (NonlinearResidual, {"coeff_fast": None}, "coeff_fast", ConfigError),
    (NonlinearResidual, {"coeff_slow": np.zeros((1, 2))}, "coeff_slow", DimensionError),
    (NonlinearResidual, {"coeff_fast": np.zeros((1, 3, 3))}, "coeff_fast", DimensionError),
    (NonlinearResidual, {"kind": "custom"}, "custom_fn", ConfigError),
    (ProblemSpec, {"q11": [[-2.0, 0.0]]}, "q11", DimensionError),
    (ProblemSpec, {"q22": [[math.inf]]}, "q22", ConfigError),
    (ProblemSpec, {"q12": [[1.0, 2.0]]}, "q12", DimensionError),
    (ProblemSpec, {"q21": 3.0}, "q21", DimensionError),
    (ProblemSpec, {"theta_star": [[0.0]]}, "theta_star", DimensionError),  # not flattened
    (ProblemSpec, {"mu_star": [0.0, 1.0]}, "mu_star", DimensionError),
    (ProblemSpec, {"noise": NoiseModel(cov=np.eye(3))}, "noise.cov", DimensionError),
    (ProblemSpec, {"bias": BiasModel(kind="power_decay", coeff_fast=[0.5], coeff_slow=[0.5, 0.5])},
     "bias.coeff_slow", DimensionError),
    # the tensors stack to (3, 3, 3), which fits no 1+1 problem
    (ProblemSpec, {"residual": NonlinearResidual(kind="quadratic_form",
                                                 coeff_fast=np.zeros((1, 3, 3)),
                                                 coeff_slow=np.zeros((2, 3, 3)))},
     "residual.coeff_fast", DimensionError),
    (_START, {"theta0": [[0.0]]}, "theta0", DimensionError),
    (_START, {"mu0": [0.0, 1.0]}, "mu0", DimensionError),
])
def test_each_model_rejection_names_its_field(model, fields, field, error):
    with pytest.raises(error) as err:
        model(**{**_VALID[model], **fields})
    assert err.value.key == field
    assert isinstance(err.value, ValueError)  # callers that catch ValueError still do


def _readme_config_blocks():
    """The code blocks of README's "Configuration format" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration format\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```\n(.*?)^```$", section, flags=re.S | re.M)


def test_readme_has_config_blocks():
    assert len(_readme_config_blocks()) >= 4


@pytest.mark.parametrize("block", _readme_config_blocks())
def test_each_readme_config_block_parses_and_builds(block):
    build_experiment(parse_config(block))
