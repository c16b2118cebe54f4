"""The schedule and Monte Carlo rules live in StepSchedule and MCConfig only.

Config checks the ``step.*``, ``run.n_final``, ``run.track_decomposition``
and ``mc.*`` keys by building the two models, so at each boundary of a rule
``parse_config`` and the model agree: both accept, or both reject and the
config error names the key that sets the field the model rejects.
"""
import math

import pytest

from ttsa import MCConfig, StepSchedule
from ttsa.config import _MC_KEYS, _SCHEDULE_KEYS, KEY_TABLE, parse_config
from ttsa.errors import ConfigError

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


def test_negligibility_is_accepted_with_tracking():
    # the other side of the boundary ("mc.checks", "negligibility") above
    text = f"{MINIMAL}mc.checks = negligibility\nrun.track_decomposition = true\n"
    assert parse_config(text).mc_checks == ("negligibility",)


@pytest.mark.parametrize("model, fields, field", [
    (StepSchedule, {"a": 0.4}, "a"),
    (StepSchedule, {"a": 1.5}, "a"),
    (StepSchedule, {"a": 0.9}, "a"),  # above b
    (StepSchedule, {"b": 1.5}, "b"),
    (StepSchedule, {"a": 1.5, "b": 1.5}, "b"),  # b is blamed when it is out of (0, 1]
    (StepSchedule, {"beta0": -1.0}, "beta0"),
    (StepSchedule, {"gamma0": math.inf}, "gamma0"),
    (StepSchedule, {"regime": "fast"}, "regime"),
    (MCConfig, {"replications": 1}, "replications"),
    (MCConfig, {"n_final": 0}, "n_final"),
    (MCConfig, {"base_seed": -1}, "base_seed"),
    (MCConfig, {"tol_rel": math.nan}, "tol_rel"),
    (MCConfig, {"tol_cross": 0.0}, "tol_cross"),
    (MCConfig, {"checks": ("normality",)}, "checks"),
    (MCConfig, {"checks": ("negligibility",)}, "track_decomposition"),
])
def test_each_model_rejection_names_its_field(model, fields, field):
    valid = ({"beta0": 2.0, "b": 0.8, "gamma0": 1.0, "a": 0.6} if model is StepSchedule
             else {"replications": 2, "n_final": 10, "base_seed": 0})
    with pytest.raises(ConfigError) as err:
        model(**{**valid, **fields})
    assert err.value.key == field
    assert isinstance(err.value, ValueError)  # callers that catch ValueError still do
