import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttsa import cli
from ttsa.config import (
    ExperimentConfig,
    build_mc,
    build_problem,
    build_schedule,
    config_echo,
    parse_config,
    render_config,
)
from ttsa.engine import ALGORITHMS
from ttsa.errors import ConfigError
from ttsa.montecarlo import KNOWN_CHECKS
from ttsa.problems import BOUNDED_UNIFORM, GAUSSIAN, LIBRARY_NAMES
from ttsa.reports import read_report
from ttsa.schedules import REGIMES

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


# Values the format carries: floats finite or infinite, JSON arrays of finite
# numbers, and one-line strings without surrounding whitespace.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
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
        st.lists(st.lists(_FINITE, min_size=1, max_size=3), max_size=3),
    ),
    "tuple": st.lists(st.sampled_from(KNOWN_CHECKS), max_size=6).map(tuple),
}
# Keys parse_config validates, drawn from their valid values.
_POSITIVE = st.floats(min_value=0.0, exclude_min=True)
_BY_NAME = {
    "problem_noise": st.sampled_from((GAUSSIAN, BOUNDED_UNIFORM)),
    "step_regime": st.sampled_from(REGIMES),
    "run_algorithm": st.sampled_from(ALGORITHMS),
    "step_beta0": _POSITIVE,
    "step_gamma0": _POSITIVE,
    "mc_replications": st.integers(min_value=2),
}
_INLINE = ("problem_q11", "problem_q12", "problem_q21", "problem_q22", "problem_noise_cov")


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
    custom = draw(st.booleans())
    values["problem_name"] = "custom" if custom else draw(st.sampled_from(LIBRARY_NAMES))
    matrix = st.lists(st.lists(_FINITE, min_size=1, max_size=2), min_size=1, max_size=2)
    for name in _INLINE:
        values[name] = draw(matrix) if custom else None
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
problem.moment_order = inf
problem.bias_rho = -inf
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
        assert math.isinf(config.problem_moment_order)
        assert config.problem_bias_rho == -math.inf

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
        mc = build_mc(config)
        assert mc.checkpoints[-1] == 1000
        assert len(mc.checkpoints) <= 14

    def test_echo_covers_all_set_keys(self):
        config = parse_config(MINIMAL)
        echo = config_echo(config)
        assert echo["problem.name"] == "linear-2x2"
        assert "step.a" in echo


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

    def test_ordering_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "step.a = 0.7\nstep.b = 0.6\n")
        assert cli.main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "A3" in err


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
        schedule = build_schedule(config)
        assert schedule.a == 0.55
        assert schedule.beta0 == 1.5

    def test_library_problem_with_moment_order_override(self):
        config = parse_config("problem.name = scalar-coupled\nproblem.moment_order = 3.0\n")
        problem = build_problem(config)
        assert problem.noise.moment_order == 3.0
        assert problem.name == "scalar-coupled"

    def test_offsets_applied(self):
        config = parse_config(
            "problem.name = scalar-coupled\nrun.theta0_offset = [2.0]\nrun.mu0_offset = [-1.0]\n"
        )
        from ttsa.config import initial_iterates

        problem = build_problem(config)
        theta0, mu0 = initial_iterates(config, problem)
        assert theta0[0] == problem.theta_star[0] + 2.0
        assert mu0[0] == problem.mu_star[0] - 1.0
