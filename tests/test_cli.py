import math
import os
import re
import stat
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttsa import StepSchedule, cli, engine, library_problem, optimal_gains, stability_gap
from ttsa.config import (
    _CHOICES,
    _READ_WHEN,
    KEY_TABLE,
    _defaults,
    ExperimentConfig,
    build_experiment,
    build_problem,
    config_echo,
    parse_config,
    render_config,
)
from ttsa.engine import DECOMP_KEYS
from ttsa.errors import ConfigError
from ttsa.montecarlo import KNOWN_CHECKS
from ttsa.problems import LIBRARY_NAMES
from ttsa.reports import ARTIFACT_VERSION, read_report

MINIMAL = "problem.name = linear-2x2\n"

FAST_MC = """
problem.name = scalar-coupled
step.a = 0.6
step.b = 0.8
step.beta0 = 1.0
step.gamma0 = 1.0
run.n_final = 2000
mc.replications = 16
mc.base_seed = 5
mc.checks = clt
mc.tol_rel = 2.0
mc.tol_cross = 2.0
"""


# Values the format carries: floats finite or infinite, rectangular JSON arrays
# of finite numbers, and one-line strings without surrounding whitespace.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _matrices(min_rows, max_rows, max_cols):
    """Rectangular arrays of numbers, as ``_parse_json`` requires."""
    shapes = st.tuples(st.integers(min_rows, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(lambda shape: st.lists(
        st.lists(_FINITE, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


_BY_TYPE = {
    "float": st.floats(allow_nan=False),
    "int": st.integers(),
    "bool": st.booleans(),
    "str": st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).filter(
        lambda text: text == text.strip()
    ),
    "list | None": st.one_of(
        st.none(),
        st.lists(_FINITE, max_size=4),
        _matrices(min_rows=0, max_rows=3, max_cols=3),
    ),
    "tuple": st.lists(st.sampled_from(KNOWN_CHECKS), max_size=6, unique=True).map(tuple),
}
# Keys parse_config validates, drawn from their valid values.
_POSITIVE = st.floats(min_value=0.0, exclude_min=True)
# step scales and tolerances must also be finite; a decay rate or clamp may not
_FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BY_NAME = {
    **{KEY_TABLE[key][0]: st.sampled_from(allowed) for key, allowed in _CHOICES.items()},
    "step_beta0": _FINITE_POSITIVE,
    "step_gamma0": _FINITE_POSITIVE,
    "problem_bias_rho": _POSITIVE,
    "problem_residual_clamp": _POSITIVE,
    "mc_tol_rel": _FINITE_POSITIVE,
    "mc_tol_cross": _FINITE_POSITIVE,
    "run_n_final": st.integers(min_value=1),
    "run_checkpoints_per_decade": st.integers(min_value=1),
    "mc_replications": st.integers(min_value=2),
    "run_seed": st.integers(min_value=0),
    "mc_base_seed": st.integers(min_value=0),
}


@st.composite
def experiment_configs(draw):
    """An ExperimentConfig that passes validation, drawn over every key."""
    values = {
        f.name: draw(_BY_NAME.get(f.name, _BY_TYPE[f.type])) for f in fields(ExperimentConfig)
    }
    exponent = st.floats(min_value=0.5, max_value=1.0, exclude_min=True)
    a, b = sorted((draw(exponent), draw(exponent)))
    assume(a < b)
    values.update(step_a=a, step_b=b)
    if "negligibility" in values["mc_checks"]:  # it reads the tracked decomposition
        values["run_track_decomposition"] = True
    assume(not (values["run_algorithm"] == "matricial" and values["run_track_decomposition"]))
    defaults, conditional, unread = _defaults(ExperimentConfig(**values)), set(), set()
    for cond, allowed, keys in _READ_WHEN:  # in order: a row may reset a later row's condition
        attrs = {KEY_TABLE[key][0] for key in keys}
        conditional |= attrs
        if values[KEY_TABLE[cond][0]] not in allowed:  # unread keys keep their defaults
            unread |= attrs
            values.update((attr, getattr(defaults, attr)) for attr in attrs)
    array = _matrices(min_rows=1, max_rows=2, max_cols=2)
    for attr in sorted(conditional - unread):  # read keys without a default are set
        if values[attr] is None:
            values[attr] = draw(array)
    return ExperimentConfig(**values)


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.problem_name == "linear-2x2"
        assert config.step_a == 0.6
        assert config.mc_replications == 2000
        assert config.run_algorithm == "standard"

    def test_range_error_on_b(self):
        with pytest.raises(ConfigError, match="A3"):
            parse_config("step.b = 1.5\n")

    def test_ordering_error(self):
        with pytest.raises(ConfigError, match="ordering"):
            parse_config("step.a = 0.7\nstep.b = 0.6\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("step.alpha = 0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("step.a = 0.6\nstep.a = 0.7\n")

    def test_type_mismatch_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("# comment\nrun.n_final = soon\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("key", ["mc.tol_rel", "problem.moment_order", "step.beta0"])
    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
    def test_nan_rejected_naming_the_key(self, key, text):
        with pytest.raises(ConfigError, match="NaN") as err:
            parse_config(f"{key} = {text}\n")
        assert err.value.key == key
        assert key in str(err.value)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "key, template",
        [
            ("run.theta0_offset", "[{}, 0.0]"),
            ("problem.q11", "[[-1.0, {}], [0.0, -1.0]]"),
            ("problem.bias_coeff_fast", "[1.0, {}]"),
        ],
        ids=["offset", "q_block", "bias_coefficient"],
    )
    def test_non_finite_json_rejected_naming_the_key(self, key, template, constant):
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config(f"problem.name = custom\n{key} = {template.format(constant)}\n")
        assert err.value.key == key
        assert key in str(err.value)

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# hello\n\nproblem.name = scalar-coupled\n")
        assert config.problem_name == "scalar-coupled"

    def test_inline_conflicts_with_library(self):
        with pytest.raises(ConfigError, match="inline"):
            parse_config("problem.name = linear-2x2\nproblem.q11 = [[-1.0]]\n")

    def test_custom_requires_blocks(self):
        with pytest.raises(ConfigError, match="custom"):
            parse_config("problem.name = custom\n")

    @pytest.mark.parametrize("line", [
        "problem.theta_star = [5.0, 5.0]",
        "problem.mu_star = [5.0, 5.0]",
        "problem.residual = quadratic_form",
        "problem.residual_coeff_fast = [1.0]",
        "problem.residual_coeff_slow = [1.0]",
    ])
    def test_library_problem_rejects_the_keys_it_would_ignore(self, line):
        key = line.partition(" = ")[0]
        with pytest.raises(ConfigError, match="inline") as err:
            parse_config(f"{MINIMAL}{line}\n")
        assert err.value.key == key
        assert key in str(err.value)

    @pytest.mark.parametrize("missing", ["problem.theta_star", "problem.mu_star"])
    def test_custom_requires_the_root_at_parse(self, missing):
        lines = [
            "problem.name = custom", "problem.theta_star = [0.0]", "problem.mu_star = [0.0]",
            "problem.q11 = [[-1.0]]", "problem.q12 = [[0.0]]", "problem.q21 = [[0.0]]",
            "problem.q22 = [[-1.0]]", "problem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]",
        ]
        text = "".join(f"{line}\n" for line in lines if not line.startswith(missing))
        with pytest.raises(ConfigError, match="theta_star and problem.mu_star") as err:
            parse_config(text)
        assert err.value.key == "problem.name"

    def test_round_trip_default(self):
        config = parse_config(MINIMAL)
        assert parse_config(render_config(config)) == config

    def test_round_trip_custom_problem(self):
        text = """
problem.name = custom
problem.theta_star = [0.0]
problem.mu_star = [0.0]
problem.q11 = [[-2.0]]
problem.q12 = [[1.0]]
problem.q21 = [[1.0]]
problem.q22 = [[-1.0]]
problem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]
problem.noise = bounded_uniform
problem.moment_order = -inf
problem.bias = power_decay
problem.bias_coeff_fast = [0.5]
problem.bias_coeff_slow = [-0.5]
problem.bias_rho = inf
step.a = 0.55
step.b = 0.9
run.algorithm = averaged
step.regime = averaging
mc.checks = clt,slopes
run.track_decomposition = true
"""
        config = parse_config(text)
        assert parse_config(render_config(config)) == config
        assert config.mc_checks == ("clt", "slopes")
        assert config.problem_moment_order == -math.inf
        assert config.problem_bias_rho == math.inf

    @settings(deadline=None)
    @given(config=experiment_configs())
    def test_round_trip_property(self, config):
        assert parse_config(render_config(config)) == config

    def test_build_custom_problem(self):
        config = parse_config(
            "problem.name = custom\n"
            "problem.theta_star = [0.0]\n"
            "problem.mu_star = [0.0]\n"
            "problem.q11 = [[-2.0]]\n"
            "problem.q12 = [[1.0]]\n"
            "problem.q21 = [[1.0]]\n"
            "problem.q22 = [[-1.0]]\n"
            "problem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]\n"
        )
        problem = build_problem(config)
        assert problem.fast_matrix()[0, 0] == pytest.approx(-1.0)

    def test_build_mc_uses_checkpoint_grid(self):
        config = parse_config("run.n_final = 1000\nrun.checkpoints_per_decade = 4\n")
        _, _, mc = build_experiment(config)
        assert mc.checkpoints[-1] == 1000
        assert len(mc.checkpoints) <= 14

    def test_echo_covers_all_set_keys(self):
        config = parse_config(MINIMAL)
        echo = config_echo(config)
        assert echo["problem.name"] == "linear-2x2"
        assert "step.a" in echo


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


def blocks_1x1(q11, q12, q21, q22):
    """CUSTOM_1X1 with the blocks q11, q12, q21 and q22."""
    text = CUSTOM_1X1
    for name, old, new in (("q11", -2.0, q11), ("q12", 1.0, q12), ("q21", 1.0, q21),
                           ("q22", -1.0, q22)):
        text = text.replace(f"{name} = [[{old}]]", f"{name} = [[{new}]]")
    return text


QUADRATIC_1X1 = """
problem.residual = quadratic_form
problem.residual_coeff_fast = [[[0.1, 0.0], [0.0, 0.1]]]
problem.residual_coeff_slow = [[[0.0, 0.1], [0.1, 0.0]]]
problem.residual_clamp = 3.0
"""


def power_decay(d):
    """Bias lines for a d+d problem."""
    return (f"problem.bias = power_decay\nproblem.bias_coeff_fast = {[0.5] * d}\n"
            f"problem.bias_coeff_slow = {[-0.5] * d}\nproblem.bias_rho = 0.8\n")


# Valid starts for the no-silent-key property: each library problem and a
# custom 1+1 problem, with the zero and the power_decay bias, the custom one
# also with and without the quadratic_form residual; the averaged, matricial
# and decomposition-tracking runs of the benchmark workloads; and the custom
# problem with every model and both offsets.
_STARTS = [
    *(f"problem.name = {name}\n{bias}" for name in LIBRARY_NAMES
      for bias in ("", power_decay(1 if name == "scalar-coupled" else 2))),
    *(f"{CUSTOM_1X1}{bias}{residual}" for bias in ("", power_decay(1))
      for residual in ("", QUADRATIC_1X1)),
    "problem.name = quadratic-2x2\nstep.beta0 = 2.0\nstep.gamma0 = 2.0\nstep.regime = averaging\n"
    "run.algorithm = averaged\nrun.n_final = 2000\nmc.checks = clt,averaged_blocks\n",
    f"{MINIMAL}run.algorithm = matricial\n",
    f"{MINIMAL}step.b = 0.95\nstep.a = 0.55\nstep.beta0 = 2.0\nstep.gamma0 = 2.0\n"
    "run.track_decomposition = true\nrun.n_final = 4000\nmc.replications = 400\n"
    "mc.checks = negligibility\n",
    f"{CUSTOM_1X1}{power_decay(1)}{QUADRATIC_1X1}run.theta0_offset = [0.5]\n"
    "run.mu0_offset = [-0.5]\n",
]
# Keys the CLI reads outside build_experiment, so no built field shows them.
_CLI_KEYS = {
    "run.seed",  # run and decompose seed their one trajectory with it
    "mc.dump_samples",  # montecarlo writes montecarlo_samples.csv when it is set
    "output.directory",  # where every command writes by default
}
_BUILT_KEYS = [key for key in KEY_TABLE if key not in _CLI_KEYS]
# Rules over two keys: a change to either may be rejected naming the other.
_CROSS_KEYS = (
    ("step.a", "step.b"),  # 1/2 < a < b (A3)
    ("run.algorithm", "step.regime"),  # the averaged algorithm needs averaging (A'3)
    ("run.algorithm", "step.b"),  # and averaging needs b < 1 (A'3)
    ("run.algorithm", "run.track_decomposition"),  # matricial is not tracked
    ("mc.checks", "run.track_decomposition"),  # negligibility reads the tracked parts
)
# The array keys whose shape problem.name sets (ProblemSpec and config._start).
_SHAPED_BY_NAME = {
    "run.theta0_offset", "run.mu0_offset", "problem.bias_coeff_fast", "problem.bias_coeff_slow",
    "problem.residual_coeff_fast", "problem.residual_coeff_slow",
}


def _may_name(key):
    """The keys a rejection of a change to ``key`` may name."""
    names = {key, *(other for pair in _CROSS_KEYS if key in pair for other in pair)}
    # a changed condition may leave the keys it governs unread instead
    names.update(k for cond, _, keys in _READ_WHEN if cond == key for k in keys)
    if key == "problem.name":  # another problem may not fit the set array keys
        names |= _SHAPED_BY_NAME
    return names


def _shape(key, d, d_prime):
    """Shape of an array-valued key for a d+d' problem."""
    dim = d + d_prime
    return {
        "q11": (d, d), "q12": (d, d_prime), "q21": (d_prime, d), "q22": (d_prime, d_prime),
        "noise_cov": (dim, dim), "theta_star": (d,), "mu_star": (d_prime,),
        "bias_coeff_fast": (d,), "bias_coeff_slow": (d_prime,),
        "residual_coeff_fast": (d, dim, dim), "residual_coeff_slow": (d_prime, dim, dim),
        "theta0_offset": (d,), "mu0_offset": (d_prime,),
    }[key.partition(".")[2]]


def _other_value(draw, key, current, problem):
    """A valid value for ``key`` other than ``current``, of the same type and shape."""
    if key in _CHOICES:
        return draw(st.sampled_from([v for v in _CHOICES[key] if v != current]))
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        value = draw(st.integers(min_value=1, max_value=1000))
    elif key in ("step.a", "step.b"):  # exponents: 1/2 < a < b <= 1
        value = draw(st.floats(min_value=0.5, max_value=1.0, exclude_min=True))
    elif isinstance(current, float):
        value = draw(st.floats(min_value=0.01, max_value=100.0))
    elif isinstance(current, tuple):
        checks = st.lists(st.sampled_from(KNOWN_CHECKS), min_size=1, max_size=3, unique=True)
        value = tuple(draw(checks))
    else:
        shape = _shape(key, problem.d, problem.d_prime)
        if key == "problem.noise_cov":  # a covariance: symmetric and positive
            diagonal = draw(st.lists(st.floats(0.1, 10.0), min_size=shape[0], max_size=shape[0]))
            value = np.diag(diagonal).tolist()
        else:
            entries = st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False)
            size = math.prod(shape)
            flat = draw(st.lists(entries, min_size=size, max_size=size))
            value = np.reshape(flat, shape).tolist()
    assume(value != current)
    return value


def _same(a, b):
    """Field-by-field equality of built experiments, exact on arrays."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestNoSilentKeys:
    """A key that parses is read: changing it moves the built experiment, or
    the config is rejected naming the key (``_may_name``)."""

    @settings(deadline=None, max_examples=300)
    @given(start=st.sampled_from(_STARTS), key=st.sampled_from(_BUILT_KEYS), data=st.data())
    def test_changing_a_key_changes_the_experiment_or_is_rejected(self, start, key, data):
        config = parse_config(start)
        experiment = build_experiment(config)
        attr = KEY_TABLE[key][0]
        value = _other_value(data.draw, key, getattr(config, attr), experiment[0])
        changed = replace(config, **{attr: value})
        try:
            rebuilt = build_experiment(parse_config(render_config(changed)))
        except ConfigError as err:
            assert err.key in _may_name(key), str(err)
        else:
            assert not _same(rebuilt, experiment), f"{key} = {value!r} was not read"

    @pytest.mark.parametrize("text", [
        "problem.name = quadratic-2x2\nproblem.residual_clamp = 0.5\n",
        f"{MINIMAL}problem.bias_coeff_fast = [1.0, 1.0]\n",
        f"{MINIMAL}problem.bias_coeff_slow = [1.0, 1.0]\n",
        f"{MINIMAL}problem.bias_rho = 3.0\n",
        f"{CUSTOM_1X1}problem.bias_rho = 3.0\n",
        f"{CUSTOM_1X1}problem.residual_coeff_fast = [[[0.1, 0.0], [0.0, 0.1]]]\n",
        f"{CUSTOM_1X1}problem.residual_clamp = 0.5\n",
        "problem.name = quadratic-2x2\nstep.regime = averaging\nrun.algorithm = averaged\n"
        "mc.tol_cross = 0.5\n",
        f"{MINIMAL}run.algorithm = matricial\nmc.tol_cross = 0.5\n",
        # a library problem runs its own residual, and matricial its own schedule
        "problem.name = quadratic-2x2\nproblem.residual_clamp = 10.0\n",
        f"{MINIMAL}run.algorithm = matricial\nstep.b = 0.9\n",
        f"{MINIMAL}run.algorithm = matricial\nstep.beta0 = 7.0\n",
        f"{MINIMAL}run.algorithm = matricial\nstep.gamma0 = 5.0\n",
        f"{MINIMAL}run.algorithm = matricial\nstep.regime = averaging\n",
    ])
    def test_a_key_its_condition_leaves_unread_is_rejected(self, text):
        key = text.splitlines()[-1].partition(" = ")[0]
        with pytest.raises(ConfigError, match="read only when") as err:
            parse_config(text)
        assert err.value.key == key and key in str(err.value)

    @pytest.mark.parametrize("text, key, required", [
        (f"{MINIMAL}problem.bias = power_decay\n", "problem.bias",
         "problem.bias_coeff_fast and problem.bias_coeff_slow"),
        (f"{CUSTOM_1X1}problem.residual = quadratic_form\n", "problem.residual",
         "problem.residual_coeff_fast and problem.residual_coeff_slow"),
    ])
    def test_a_read_key_without_a_default_is_required(self, text, key, required):
        with pytest.raises(ConfigError, match=required) as err:
            parse_config(text)
        assert err.value.key == key

    @pytest.mark.parametrize("key, allowed", list(_CHOICES.items()))
    def test_enumerated_keys_take_their_choices_only(self, key, allowed):
        with pytest.raises(ConfigError, match=f"unknown {key} 'foo'") as err:
            parse_config(f"{key} = foo\n")
        assert err.value.key == key
        assert ", ".join(allowed) in str(err.value)


_README = Path(__file__).resolve().parents[1] / "README.md"


def _echoed_schedule(echo):
    """The StepSchedule that the echoed step.* keys describe."""
    return StepSchedule(beta0=float(echo["step.beta0"]), b=float(echo["step.b"]),
                        gamma0=float(echo["step.gamma0"]), a=float(echo["step.a"]),
                        regime=echo["step.regime"])


class TestEchoIsWhatRuns:
    """The configuration echoed into every output is the experiment that ran:
    its step.* keys are the schedule that runs, and a library problem's
    residual keys are its residual."""

    @settings(deadline=None)
    @given(config=experiment_configs())
    def test_any_config(self, config):
        echo = config_echo(config)
        schedule = _echoed_schedule(echo)
        if config.run_algorithm == "averaged":  # else resolve_algorithm rejects it
            assume(schedule.regime == "averaging" and schedule.b < 1.0)
        # the schedule that runs does not depend on the problem, only the gains do
        resolved = engine.resolve_algorithm(
            library_problem("linear-2x2"), schedule, config.run_algorithm)
        assert resolved.schedule == schedule
        if config.problem_name in LIBRARY_NAMES:
            residual = library_problem(config.problem_name).residual
            assert echo["problem.residual"] == residual.kind
            assert float(echo["problem.residual_clamp"]) == residual.clamp_radius

    @pytest.mark.parametrize("start", [
        *_STARTS,
        f"{MINIMAL}run.algorithm = matricial\nstep.a = 0.85\n",
        "problem.name = quadratic-2x2\nrun.algorithm = matricial\n",
    ])
    def test_built_experiment(self, start):
        config = parse_config(start)
        problem, resolved, _ = build_experiment(config)
        echo = config_echo(config)
        assert _echoed_schedule(echo) == resolved.schedule
        if config.problem_name in LIBRARY_NAMES:
            assert echo["problem.residual"] == problem.residual.kind
            assert float(echo["problem.residual_clamp"]) == problem.residual.clamp_radius

    @pytest.mark.parametrize("text", [
        "problem.name = quadratic-2x2\nproblem.residual = quadratic_form\n"
        "problem.residual_clamp = 5.0\n",
        f"{MINIMAL}run.algorithm = matricial\nstep.b = 1.0\nstep.beta0 = 1.0\n"
        "step.gamma0 = 1.0\nstep.regime = plain\n",
    ])
    def test_a_config_equal_to_its_echo_parses(self, text):
        config = parse_config(text)
        assert parse_config(render_config(config)) == config


class TestReadme:
    def test_every_config_block_parses(self):
        text = _README.read_text(encoding="utf-8")
        section = text.split("\n## Configuration format\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"^```\n(.*?)^```$", section, flags=re.S | re.M)
        assert len(blocks) >= 3
        for block in blocks:
            # the format has whole-line comments only: a trailing one is read as the value
            assert all("#" not in line for line in block.splitlines() if line[:1] != "#")
            parse_config(block)


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_valid_library_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_b_one_low_beta0_exits_one_citing_condition(self, tmp_path, capsys):
        # scalar-coupled has Lambda(H) = 1, so beta0 = 0.4 < 0.5 fails
        text = (
            "problem.name = scalar-coupled\n"
            "step.b = 1.0\nstep.beta0 = 0.4\nstep.a = 0.6\n"
        )
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "A3(ii)" in out

    def test_moment_order_failure_cited(self, tmp_path, capsys):
        text = "problem.name = scalar-coupled\nproblem.moment_order = 3.0\nstep.a = 0.6\n"
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", path]) == 1
        assert "A4(iii)" in capsys.readouterr().out

    @pytest.mark.parametrize("cov", ["[[-5e-10, 0.0], [0.0, 20.0]]", "[[1.0, 5e-11], [0.0, 1.0]]"])
    def test_noise_cov_within_the_psd_tolerance_runs_and_validates(self, tmp_path, capsys, cov):
        # a negative eigenvalue of -5e-10 and an asymmetry of 5e-11 are inside
        # the tolerance 1e-10 max(1, ||Gamma||_F) of the one rule for a noise
        # covariance, linalg.is_psd, which the noise model and validate share
        text = CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", cov) + "run.n_final = 20\n"
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", path]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        assert cli.main(["run", "--config", path, "--output", str(tmp_path / "t.csv")]) == 0

    def test_ordering_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "step.a = 0.7\nstep.b = 0.6\n")
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "A3" in err

    @pytest.mark.parametrize("text", [
        # 1/(2 beta0) < Lambda(H) fails by an ulp where beta0 > 1/(2 Lambda(H)) held
        f"{MINIMAL}step.b = 1.0\nstep.beta0 = 0.4610801709623106\n",
        # Lambda(H) = 0 and Lambda(H) = -0.5, where 1/(2 Lambda(H)) is no threshold
        blocks_1x1(-1.0, 1.0, 1.0, -1.0) + "step.b = 1.0\n",
        blocks_1x1(0.5, 0.0, 0.0, -1.0) + "step.b = 1.0\n",
    ])
    def test_b_one_condition_fails_at_or_without_a_threshold(self, tmp_path, capsys, text):
        path = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", "--config", path]) == 1
        assert "[FAIL] A3(ii) beta0 condition: b = 1 requires" in capsys.readouterr().out

    @pytest.mark.parametrize("beta0", [
        # two ulps above 1/(2 Lambda(H)) = 0.4610801709623106, and 1e-10 above it
        0.46108017096231063, 0.4610801709623106 * (1 + 1e-10),
    ])
    def test_theory_names_a3_when_its_margin_is_too_small_to_solve(self, tmp_path, capsys,
                                                                  beta0):
        # validate passes A3(ii), but the shifted Lyapunov system is too
        # ill-conditioned to solve; theory names the assumption and its margin
        path = write_config(tmp_path, f"{MINIMAL}step.b = 1.0\nstep.beta0 = {beta0!r}\n")
        assert cli.main(["validate", "--config", path]) == 0
        assert "[PASS] A3(ii)" in capsys.readouterr().out
        lam = stability_gap(library_problem("linear-2x2").fast_matrix())
        assert cli.main(["theory", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: A3(ii) beta0 condition holds by too small a margin")
        assert f"1/(2*beta0) = {1.0 / (2.0 * beta0)!r} vs Lambda(H) = {lam!r}" in err
        assert f"margin {lam - 1.0 / (2.0 * beta0):.3g}" in err

    def test_a_zero_lambda_h_prints_as_zero(self, tmp_path, capsys):
        # H = 0 has a zero abscissa, so a stability gap of +0.0, never "-0"
        path = write_config(tmp_path, blocks_1x1(-1.0, 1.0, 1.0, -1.0) + "step.b = 1.0\n")
        assert cli.main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] A2(ii) Lambda(H) > 0: Lambda(H) = 0\n" in out
        assert "with Lambda(H) > 0; Lambda(H) = 0\n" in out
        assert "-0" not in out

    def test_singular_q22_fails_a2_and_theory_names_it(self, tmp_path, capsys):
        path = write_config(tmp_path, blocks_1x1(-1.0, 1.0, 1.0, 0.0) + "run.n_final = 20\n")
        assert cli.main(["validate", "--config", path]) == 1
        assert "[FAIL] A2(ii) Lambda(H) > 0: Q22 is singular" in capsys.readouterr().out
        for command in ("theory", "montecarlo"):
            assert cli.main([command, "--config", path, "--output", str(tmp_path / "out")]) == 2
            assert "A2(ii)" in capsys.readouterr().err


class TestValidateMatricial:
    """``validate`` checks the schedule and gains the matricial algorithm runs:
    b = 1, beta0 = gamma0 = 1, with gains A = -H^-1."""

    MATRICIAL = f"{MINIMAL}run.algorithm = matricial\n"

    def test_bias_decay_is_checked_against_b_one(self, tmp_path, capsys):
        path = write_config(tmp_path, self.MATRICIAL + power_decay(2).replace("0.8", "0.45"))
        assert cli.main(["validate", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] A4(iv) bias decay: requires rho > b/2 = 0.5; rho = 0.45" in out

    def test_b_one_condition_reads_the_gained_gap(self, tmp_path, capsys):
        problem = library_problem("linear-2x2")
        threshold = 1.0 / (2.0 * stability_gap(optimal_gains(problem).fast @ problem.fast_matrix()))
        path = write_config(tmp_path, self.MATRICIAL)
        assert cli.main(["validate", "--config", path]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "A3(ii)" in l)
        assert line == (f"[PASS] A3(ii) beta0 condition: b = 1 requires "
                        f"beta0 > 1/(2*Lambda(A H)) = {threshold:.6g}; beta0 = 1.0")

    def test_a_above_the_standard_default_b(self, tmp_path, capsys):
        path = write_config(tmp_path, self.MATRICIAL + "step.a = 0.85\n")
        assert cli.main(["validate", "--config", path]) == 0
        assert "1/2 < a=0.85 < b=1.0 <= 1" in capsys.readouterr().out


_COMMANDS = ("validate", "theory", "run", "decompose", "montecarlo")
# residual tensors of three 3x3 slices stack to (3, 3, 3), which fits no 1+1 problem
_SLICE_3X3 = "[[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]"


class TestBadStart:
    """Setups that cannot start a run exit 2 before any step, naming the key."""

    def test_offset_of_wrong_length(self, tmp_path, capsys):
        text = "problem.name = scalar-coupled\nrun.theta0_offset = [1.0, 2.0]\n"
        path = write_config(tmp_path, text)
        for command in _COMMANDS:
            out = str(tmp_path / "out")
            assert cli.main([command, "--config", path, "--output", out]) == 2
            err = capsys.readouterr().err
            assert "run.theta0_offset" in err and "expected length 1" in err

    @pytest.mark.parametrize("text, key", [
        ("problem.name = scalar-coupled\nrun.theta0_offset = [1e308]\n", "run.theta0_offset"),
        ("problem.name = scalar-coupled\nrun.mu0_offset = [1e308]\n", "run.mu0_offset"),
        # the default offset starts near the root, so the root is at fault
        ("problem.name = custom\nproblem.theta_star = [2e9]\nproblem.mu_star = [0.0]\n"
         "problem.q11 = [[-1.0]]\nproblem.q12 = [[0.0]]\nproblem.q21 = [[0.0]]\n"
         "problem.q22 = [[-1.0]]\nproblem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]\n",
         "problem.theta_star"),
    ])
    def test_start_beyond_the_divergence_guard(self, tmp_path, capsys, text, key):
        path = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in _COMMANDS:
                out = str(tmp_path / "out")
                assert cli.main([command, "--config", path, "--output", out]) == 2
                err = capsys.readouterr().err
                assert key in err and "1e+09" in err

    @pytest.mark.parametrize("text, key", [
        ("problem.name = quadratic-2x2\nproblem.residual_clamp = 0.5\n", "problem.residual_clamp"),
        (f"{MINIMAL}problem.bias_coeff_fast = [1.0, 1.0]\n", "problem.bias_coeff_fast"),
        (f"{MINIMAL}problem.bias_rho = 3.0\n", "problem.bias_rho"),
        (f"{MINIMAL}problem.bias = power_decay\n", "problem.bias"),
        (f"{MINIMAL}problem.residual = foo\n", "problem.residual"),
        (f"{MINIMAL}run.n_final = 0\n", "run.n_final"),
        (f"{MINIMAL}run.n_final = -5\n", "run.n_final"),
        (f"{MINIMAL}run.checkpoints_per_decade = 0\n", "run.checkpoints_per_decade"),
        (f"{MINIMAL}run.checkpoints_per_decade = -2\n", "run.checkpoints_per_decade"),
        (f"{CUSTOM_1X1}{QUADRATIC_1X1}".replace("= 3.0", "= -1.0"), "problem.residual_clamp"),
        (f"{MINIMAL}{power_decay(2)}".replace("= 0.8", "= 0"), "problem.bias_rho"),
        (f"{MINIMAL}step.beta0 = -1.0\n", "step.beta0"),
        (f"{MINIMAL}step.gamma0 = 0\n", "step.gamma0"),
        (f"{MINIMAL}mc.tol_rel = -1.0\n", "mc.tol_rel"),
        (f"{MINIMAL}mc.tol_cross = 0\n", "mc.tol_cross"),
        # an infinite step scale overflows the steps; an infinite tolerance
        # makes its gate vacuous
        (f"{MINIMAL}run.n_final = 200\nstep.beta0 = inf\n", "step.beta0"),
        (f"{MINIMAL}step.gamma0 = inf\n", "step.gamma0"),
        (f"{MINIMAL}mc.tol_rel = inf\n", "mc.tol_rel"),
        (f"{MINIMAL}mc.tol_cross = inf\n", "mc.tol_cross"),
        (f"{MINIMAL}mc.base_seed = -1\n", "mc.base_seed"),
        (f"{MINIMAL}run.seed = -5\n", "run.seed"),
        # one verdict per check: a repeated check would be written once
        (f"{MINIMAL}mc.checks = slopes,slopes\n", "mc.checks"),
        # the averaging label alone is not the averaging regime: A'3 needs b < 1
        (f"{MINIMAL}step.regime = averaging\nstep.b = 1.0\nrun.algorithm = averaged\n",
         "run.algorithm"),
        # a key the library problem or the matricial algorithm fixes
        ("problem.name = quadratic-2x2\nproblem.residual_clamp = 10.0\n", "problem.residual_clamp"),
        (f"{MINIMAL}run.algorithm = matricial\nstep.beta0 = 7.0\n", "step.beta0"),
        (f"{MINIMAL}run.algorithm = matricial\nstep.regime = averaging\n", "step.regime"),
        (f"{MINIMAL}run.algorithm = matricial\nstep.b = 0.9\n", "step.b"),
        ("problem.name = scalar-coupled\nrun.theta0_offset = [1.0, 2.0]\n", "run.theta0_offset"),
        ("problem.name = scalar-coupled\nproblem.bias = power_decay\n"
         "problem.bias_coeff_fast = [0.5, 0.5]\nproblem.bias_coeff_slow = [0.5]\n",
         "problem.bias_coeff_fast"),
        (f"{CUSTOM_1X1}problem.residual = quadratic_form\n"
         f"problem.residual_coeff_fast = [{_SLICE_3X3}]\n"
         f"problem.residual_coeff_slow = [{_SLICE_3X3}, {_SLICE_3X3}]\n",
         "problem.residual_coeff_fast"),
        # misfit custom blocks, which ProblemSpec rejects
        (CUSTOM_1X1.replace("q12 = [[1.0]]", "q12 = [[1.0, 2.0]]"), "problem.q12"),
        (CUSTOM_1X1.replace("theta_star = [0.0]", "theta_star = [0.5, 1.0]"),
         "problem.theta_star"),
        (CUSTOM_1X1.replace("q11 = [[-2.0]]", "q11 = [[-2.0, 1.0]]"), "problem.q11"),
        (CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", f"{np.eye(3).tolist()}"),
         "problem.noise_cov"),
        (CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.0], [0.0]]"),
         "problem.noise_cov"),
        # an offset that would broadcast, a root that would flatten, and arrays
        # that are ragged, not numbers, or not an array
        (f"{MINIMAL}run.theta0_offset = [1.0]\n", "run.theta0_offset"),
        (CUSTOM_1X1.replace("theta_star = [0.0]", "theta_star = [[0.0]]"), "problem.theta_star"),
        (CUSTOM_1X1.replace("q12 = [[1.0]]", "q12 = [[1.0], [2.0, 3.0]]"), "problem.q12"),
        (CUSTOM_1X1.replace("q12 = [[1.0]]", 'q12 = [["a"]]'), "problem.q12"),
        (CUSTOM_1X1.replace("q11 = [[-2.0]]", "q11 = 3"), "problem.q11"),
        # a covariance NoiseModel rejects: not symmetric, then not PSD
        (CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.5], [0.0, 1.0]]"),
         "problem.noise_cov"),
        (CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.0], [0.0, -1.0]]"),
         "problem.noise_cov"),
        # finite entries whose Frobenius norm overflows, so is_psd has no tolerance
        (CUSTOM_1X1.replace("[[1.0, 0.0], [0.0, 1.0]]", "[[1e308, 0.0], [0.0, 1e308]]"),
         "problem.noise_cov"),
    ])
    def test_config_error_names_the_key(self, tmp_path, capsys, text, key):
        path = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in _COMMANDS:
                out = str(tmp_path / "out")
                assert cli.main([command, "--config", path, "--output", out]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and key in err

    def test_negligibility_without_decomposition_tracking(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "run.n_final = 20\nmc.checks = negligibility\n")
        for command in _COMMANDS:
            out = str(tmp_path / "out")
            assert cli.main([command, "--config", path, "--output", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: run.track_decomposition")

    def test_matricial_with_decomposition_tracking(self, tmp_path, capsys):
        text = MINIMAL + "run.algorithm = matricial\nrun.track_decomposition = true\n"
        path = write_config(tmp_path, text)
        for command in _COMMANDS:
            out = str(tmp_path / "out")
            assert cli.main([command, "--config", path, "--output", out]) == 2
            err = capsys.readouterr().err
            assert "run.track_decomposition" in err and "plain iteration only" in err

    def test_averaged_on_a_plain_schedule(self, tmp_path, capsys):
        text = MINIMAL + "run.n_final = 20\nrun.algorithm = averaged\n"
        path = write_config(tmp_path, text)
        for command in _COMMANDS:
            out = str(tmp_path / "out")
            assert cli.main([command, "--config", path, "--output", out]) == 2
            assert "averaging regime" in capsys.readouterr().err


class TestTheoryCommand:
    def test_prints_and_writes(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        out_file = str(tmp_path / "theory.json")
        assert cli.main(["theory", "--config", path, "--output", out_file]) == 0
        printed = capsys.readouterr().out
        assert "Sigma_theta" in printed
        payload = read_report(out_file)
        assert payload["kind"] == "theory"
        fast_cov = np.array(payload["theory"]["fast_cov"])
        assert fast_cov.shape == (2, 2)

    def test_matricial_predicts_what_montecarlo_checks(self, tmp_path, capsys):
        text = (MINIMAL + "run.algorithm = matricial\nrun.n_final = 20\n"
                "mc.replications = 2\nmc.checks = clt\n")
        path = write_config(tmp_path, text)
        theory_file, mc_file = str(tmp_path / "theory.json"), str(tmp_path / "mc.json")
        assert cli.main(["theory", "--config", path, "--output", theory_file]) == 0
        cli.main(["montecarlo", "--config", path, "--output", mc_file])
        predicted = read_report(mc_file)["predicted"]
        theory = read_report(theory_file)["theory"]
        for key in ("fast_cov", "slow_cov", "optimal_fast_cov", "optimal_slow_cov",
                    "averaged_cov"):
            assert theory[key] == predicted[key], key

    def test_averaged_on_a_plain_schedule_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "run.algorithm = averaged\n")
        assert cli.main(["theory", "--config", path]) == 2
        assert "averaging regime" in capsys.readouterr().err

    def test_zero_lambda_h_names_a2_not_a_singular_matrix(self, tmp_path, capsys):
        path = write_config(tmp_path, blocks_1x1(-1.0, 1.0, 1.0, -1.0))  # H = 0, b = 0.8
        assert cli.main(["theory", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "A2(ii)" in err and "singular" not in err

    @pytest.mark.parametrize("text, commands, block", [
        # validate passes; G needs Q11 inverted, which no assumption names
        (blocks_1x1(0.0, 1.0, -1.0, -1.0), ("theory", "montecarlo"), "Q11"),
        # the tracked decomposition reads H and Q12 Q22^-1
        (blocks_1x1(-1.0, 1.0, 1.0, 0.0) + "run.track_decomposition = true\n",
         ("run", "decompose"), "Q22"),
    ])
    def test_a_singular_block_is_named_with_what_needs_it(self, tmp_path, capsys, text,
                                                         commands, block):
        path = write_config(tmp_path, text + "run.n_final = 20\n")
        for command in commands:
            assert cli.main([command, "--config", path, "--output", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert f"{block} is singular" in err and "needs its inverse" in err


class TestRunCommand:
    def test_writes_trace_csv(self, tmp_path, capsys):
        text = MINIMAL + "run.n_final = 100\nrun.seed = 3\n"
        path = write_config(tmp_path, text)
        out_file = str(tmp_path / "trace.csv")
        assert cli.main(["run", "--config", path, "--output", out_file]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        header = lines[header_idx].split(",")
        assert header[:3] == ["n", "theta_1", "theta_2"]
        assert any(l.startswith("# config.problem.name=") for l in lines)
        # constant field count, 17-significant-digit round trip
        for row in lines[header_idx + 1 :]:
            fields = row.split(",")
            assert len(fields) == len(header)
        last = lines[-1].split(",")
        assert int(last[0]) == 100
        value = float(last[1])
        assert format(value, ".17g") == last[1]

    def test_decompose_adds_norm_columns(self, tmp_path):
        text = MINIMAL + "run.n_final = 50\n"
        path = write_config(tmp_path, text)
        out_file = str(tmp_path / "dec.csv")
        assert cli.main(["decompose", "--config", path, "--output", out_file]) == 0
        lines = (tmp_path / "dec.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert "martingale_fast_norm" in header
        assert "remainder_slow_norm" in header

    def test_run_reads_the_tracking_key(self, tmp_path, capsys):
        norms = [f"{key}_norm" for key in DECOMP_KEYS]
        for flag, expected in (("false", []), ("true", norms)):
            text = MINIMAL + f"run.n_final = 50\nrun.track_decomposition = {flag}\n"
            path = write_config(tmp_path, text)
            out_file = tmp_path / f"trace_{flag}.csv"
            assert cli.main(["run", "--config", path, "--output", str(out_file)]) == 0
            lines = out_file.read_text().splitlines()
            header = next(l for l in lines if not l.startswith("#")).split(",")
            assert header[9:] == expected  # n, theta, mu, theta_bar, mu_bar: 9 columns

    def test_divergent_run_exits_one(self, tmp_path, capsys):
        text = (
            "problem.name = custom\n"
            "problem.theta_star = [0.0]\nproblem.mu_star = [0.0]\n"
            "problem.q11 = [[-40.0]]\nproblem.q12 = [[0.0]]\n"
            "problem.q21 = [[0.0]]\nproblem.q22 = [[-40.0]]\n"
            "problem.noise_cov = [[0.01, 0.0], [0.0, 0.01]]\n"
            "step.beta0 = 2.0\nstep.gamma0 = 2.0\n"
            "run.n_final = 200\n"
        )
        path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", path, "--output", str(tmp_path / "t.csv")]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_divergent_run_prints_the_last_finite_state(self, tmp_path, capsys):
        # the error line names the index before the divergence and the
        # iterate there, which is inside the guard
        text = (
            "problem.name = custom\n"
            "problem.theta_star = [0.5]\nproblem.mu_star = [-0.25]\n"
            "problem.q11 = [[3.0]]\nproblem.q12 = [[0.0]]\n"
            "problem.q21 = [[0.0]]\nproblem.q22 = [[-1.0]]\n"
            "problem.noise_cov = [[1.0, 0.0], [0.0, 1.0]]\n"
            "step.beta0 = 1.0\nstep.gamma0 = 1.0\n"
            "run.n_final = 3000\n"
        )
        path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", path, "--output", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"error: replication 0 diverged at index (\d+); x at index (\d+) = \[(.*)\]\n", err
        )
        assert found, err
        assert int(found[2]) == int(found[1]) - 1
        theta, mu = (float(v) for v in found[3].split(","))
        assert abs(theta) + abs(mu) <= engine.DIVERGENCE_GUARD < 2 * abs(theta)


class TestMonteCarloCommand:
    def test_report_written_and_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_MC)
        out_file = str(tmp_path / "mc.json")
        code = cli.main(["montecarlo", "--config", path, "--output", out_file])
        assert code == 0
        payload = read_report(out_file)
        assert payload["kind"] == "montecarlo"
        assert payload["valid"]

    def test_byte_identical_apart_from_timestamp(self, tmp_path):
        path = write_config(tmp_path, FAST_MC)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli.main(["montecarlo", "--config", path, "--output", str(out_a)]) == 0
        assert cli.main(["montecarlo", "--config", path, "--output", str(out_b)]) == 0
        lines_a = out_a.read_text().splitlines()
        lines_b = out_b.read_text().splitlines()
        assert lines_a[0].startswith("# generated")
        assert lines_a[1:] == lines_b[1:]

    def test_offsets_move_the_start(self, tmp_path):
        # at n = 1 every replication sits at its start, so the scaled mean is
        # the theta offset over sqrt(beta0) and mu's default unit offset over
        # sqrt(gamma0)
        text = FAST_MC.replace("step.beta0 = 1.0", "step.beta0 = 2.0")
        path = write_config(tmp_path, text + "run.theta0_offset = [3.0]\n")
        out_file = str(tmp_path / "mc.json")
        assert cli.main(["montecarlo", "--config", path, "--output", out_file]) == 0
        checkpoints = read_report(out_file)["checkpoints"]
        assert checkpoints["n"][0] == 1
        np.testing.assert_allclose(
            checkpoints["scaled_mean"][0], [3.0 / math.sqrt(2.0), 1.0], rtol=1e-12
        )

    def test_failed_verdict_exits_one(self, tmp_path):
        text = FAST_MC.replace("mc.tol_rel = 2.0", "mc.tol_rel = 1e-6").replace(
            "mc.tol_cross = 2.0", "mc.tol_cross = 1e-6"
        )
        path = write_config(tmp_path, text)
        out_file = str(tmp_path / "mc.json")
        assert cli.main(["montecarlo", "--config", path, "--output", out_file]) == 1

    def test_divergent_report_has_one_failing_verdict_per_check(self, tmp_path):
        # stable drift, steps far too large for it: the ensemble blows up
        text = (
            "problem.name = custom\n"
            "problem.theta_star = [0.0]\nproblem.mu_star = [0.0]\n"
            "problem.q11 = [[-40.0]]\nproblem.q12 = [[0.0]]\n"
            "problem.q21 = [[0.0]]\nproblem.q22 = [[-40.0]]\n"
            "problem.noise_cov = [[0.01, 0.0], [0.0, 0.01]]\n"
            "step.beta0 = 2.0\nstep.gamma0 = 2.0\n"
            "run.n_final = 200\n"
            "mc.replications = 4\nmc.base_seed = 1\nmc.checks = slopes,lil\n"
        )
        path = write_config(tmp_path, text)
        out_file = str(tmp_path / "mc.json")
        assert cli.main(["montecarlo", "--config", path, "--output", out_file]) == 1
        payload = read_report(out_file)
        assert not payload["valid"]
        assert payload["mc"]["checks"] == ["slopes", "lil"]
        assert [v["name"] for v in payload["verdicts"]] == ["slopes", "lil"]
        div = payload["divergence"]
        diagnostic = f"replication {div['replication']} diverged at index {div['step']}"
        for verdict in payload["verdicts"]:
            assert not verdict["passed"]
            assert verdict["details"] == {"diagnostic": diagnostic}

    def test_samples_dump(self, tmp_path):
        text = FAST_MC + "mc.dump_samples = true\noutput.directory = " + str(tmp_path) + "\n"
        path = write_config(tmp_path, text)
        out_file = str(tmp_path / "mc.json")
        assert cli.main(["montecarlo", "--config", path, "--output", out_file]) == 0
        samples = (tmp_path / "montecarlo_samples.csv").read_text().splitlines()
        header = next(l for l in samples if not l.startswith("#"))
        assert header.split(",")[0] == "replication"
        assert len(samples) >= 16


class TestReportCommand:
    def test_renders_stored_report(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_MC)
        out_file = str(tmp_path / "mc.json")
        cli.main(["montecarlo", "--config", path, "--output", out_file])
        capsys.readouterr()
        assert cli.main(["report", out_file]) == 0
        out = capsys.readouterr().out
        assert "monte carlo report" in out
        assert "overall:" in out

    def test_plots_bundle(self, tmp_path, capsys):
        path = write_config(tmp_path, FAST_MC)
        out_file = str(tmp_path / "mc.json")
        cli.main(["montecarlo", "--config", path, "--output", out_file])
        plots_dir = tmp_path / "plots"
        assert cli.main(["report", out_file, "--plots", str(plots_dir)]) == 0
        files = sorted(os.listdir(plots_dir))
        assert any(f.endswith(".gp") for f in files)
        assert any("rms_fast" in f for f in files)
        csv = next(f for f in files if f.endswith("rms_fast.csv"))
        lines = (plots_dir / csv).read_text().splitlines()
        assert lines[0] == "n,value"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("text, missing", [
        ("[1, 2]", "'kind'"),
        ('{"kind": "montecarlo"}', "'mc'"),
        ('{"kind": "montecarlo", "mc": {"replications": 2}}', "'n_final'"),
        ('{"kind": "theory"}', "'theory'"),
        ('{"kind": "validation"}', "'validation'"),
        ('{"kind": "montecarlo", "mc": 5}', "malformed montecarlo report"),
        ("not json", "not a report"),
    ])
    def test_json_that_is_not_a_report_exits_two(self, tmp_path, capsys, text, missing):
        path = tmp_path / "not_a_report.json"
        path.write_text(text + "\n")
        assert cli.main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and missing in err
        assert "Traceback" not in err


class TestArtifactVersion:
    def test_every_artifact_kind_carries_the_version(self, tmp_path, capsys):
        text = FAST_MC + f"mc.dump_samples = true\noutput.directory = {tmp_path}\n"
        path = write_config(tmp_path, text)
        for command in ("validate", "theory", "montecarlo"):
            out = tmp_path / f"{command}.json"
            assert cli.main([command, "--config", path, "--output", str(out)]) == 0
            assert read_report(str(out))["version"] == ARTIFACT_VERSION
        assert cli.main(["run", "--config", path]) == 0
        for name in ("trace.csv", "montecarlo_samples.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert f"# ttsa_version={ARTIFACT_VERSION}" in lines


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_take_the_umask(self, tmp_path, capsys, umask):
        # every file gets mode 0666 less the umask, as ``open`` gives it; a
        # temp file from tempfile.mkstemp is 0600, and the rename keeps that
        path = write_config(tmp_path, FAST_MC + f"output.directory = {tmp_path}\n")
        report, plots = tmp_path / "mc.json", tmp_path / "plots"
        previous = os.umask(umask)
        try:
            assert cli.main(["montecarlo", "--config", path, "--output", str(report)]) == 0
            assert cli.main(["run", "--config", path]) == 0
            assert cli.main(["report", str(report), "--plots", str(plots)]) == 0
        finally:
            os.umask(previous)
        written = [report, tmp_path / "trace.csv", *sorted(plots.iterdir())]
        assert len(written) > 3
        for file in written:
            assert stat.S_IMODE(file.stat().st_mode) == 0o666 & ~umask, file


class TestOutputDirEnv:
    def test_env_var_used_as_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TTSA_OUTPUT_DIR", str(tmp_path))
        path = write_config(tmp_path, MINIMAL + "run.n_final = 20\n")
        assert cli.main(["run", "--config", path]) == 0
        assert (tmp_path / "trace.csv").exists()

    def test_explicit_directory_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TTSA_OUTPUT_DIR", str(tmp_path / "env"))
        config = ExperimentConfig(output_directory=str(tmp_path / "set"))
        assert config.resolved_output_dir() == str(tmp_path / "set")


class TestBuilders:
    def test_schedule_from_config(self):
        config = parse_config("step.a = 0.55\nstep.b = 0.9\nstep.beta0 = 1.5\n")
        _, resolved, _ = build_experiment(config)
        assert resolved.schedule.a == 0.55
        assert resolved.schedule.beta0 == 1.5

    def test_library_problem_with_moment_order_override(self):
        config = parse_config("problem.name = scalar-coupled\nproblem.moment_order = 3.0\n")
        problem = build_problem(config)
        assert problem.noise.moment_order == 3.0
        assert problem.name == "scalar-coupled"

    def test_offsets_applied(self):
        config = parse_config(
            "problem.name = scalar-coupled\nrun.theta0_offset = [2.0]\nrun.mu0_offset = [-1.0]\n"
        )
        problem, _, mc = build_experiment(config)
        assert mc.theta0[0] == problem.theta_star[0] + 2.0
        assert mc.mu0[0] == problem.mu_star[0] - 1.0

    # decompose tracks the decomposition, which the matricial variant rejects
    @pytest.mark.parametrize("command, algorithm", [
        (command, algorithm) for command in _COMMANDS for algorithm in ("standard", "matricial")
        if (command, algorithm) != ("decompose", "matricial")
    ])
    def test_each_command_resolves_the_algorithm_once(
        self, tmp_path, monkeypatch, command, algorithm
    ):
        resolve, calls = engine.resolve_algorithm, []

        def counting(*args, **kwargs):
            calls.append(args)
            return resolve(*args, **kwargs)

        # every name it is bound to in the package, so no caller escapes the count
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ttsa" and vars(module).get("resolve_algorithm") is resolve:
                monkeypatch.setattr(module, "resolve_algorithm", counting)
        text = FAST_MC if algorithm == "standard" else (
            f"{MINIMAL}run.algorithm = matricial\nrun.n_final = 200\nmc.replications = 4\n")
        path = write_config(tmp_path, text)
        out = str(tmp_path / "out")
        assert cli.main([command, "--config", path, "--output", out]) in (0, 1)
        assert len(calls) == 1
