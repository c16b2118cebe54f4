"""Acceptance suite: every criterion at its frozen tolerance.

The desk-scale ensembles (M = 2000, n = 1e5) are shared module fixtures, so
the whole suite runs in a few minutes. Each criterion prints one PASS line
with its measured numbers (visible with ``pytest -s`` or on failure).
"""
import time

import numpy as np
import pytest

from ttsa import (
    MCConfig,
    StepSchedule,
    clt_verdict,
    initial_state,
    library_problem,
    linalg,
    resolve_algorithm,
    run_monte_carlo,
    step,
)
from ttsa.errors import ConfigError, InfeasibleError
from ttsa.linalg import invert, mat_exp
from ttsa.montecarlo import rel_frobenius
from ttsa.theory import fast_error_cov, slow_error_cov

from conftest import scalar_spec
from oracles import kron_lyapunov, random_hurwitz, random_psd, taylor_expm

N_FINAL = 10**5
M = 2000


@pytest.fixture(scope="module")
def linear_report():
    problem = library_problem("linear-2x2")
    schedule = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
    mc = MCConfig(
        replications=M,
        n_final=N_FINAL,
        base_seed=20240701,
        checks=("clt", "slopes", "lil"),
    )
    start = time.time()
    report = run_monte_carlo(problem, resolve_algorithm(problem, schedule, "standard"), mc)
    report.diagnostics["wall_seconds"] = time.time() - start
    return report


@pytest.fixture(scope="module")
def quad_report():
    problem = library_problem("quadratic-2x2")
    schedule = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6, regime="averaging")
    mc = MCConfig(
        replications=M,
        n_final=N_FINAL,
        base_seed=20240702,
        tol_rel=0.15,
        checks=("clt", "averaged_blocks"),
    )
    return run_monte_carlo(problem, resolve_algorithm(problem, schedule, "averaged"), mc)


@pytest.fixture(scope="module")
def matricial_report():
    problem = library_problem("linear-2x2")
    schedule = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
    mc = MCConfig(
        replications=M,
        n_final=N_FINAL,
        base_seed=20240703,
        checks=("clt",),
    )
    return run_monte_carlo(problem, resolve_algorithm(problem, schedule, "matricial"), mc)


@pytest.fixture(scope="module")
def decomposition_report():
    problem = library_problem("linear-2x2")
    schedule = StepSchedule(beta0=2.0, b=0.95, gamma0=2.0, a=0.55)
    mc = MCConfig(
        replications=400,
        n_final=N_FINAL,
        base_seed=20240704,
        track_decomposition=True,
        checks=("negligibility",),
    )
    return run_monte_carlo(problem, resolve_algorithm(problem, schedule, "standard"), mc)


def test_criterion_1_matrix_kernel_suite():
    start = time.time()
    rng = np.random.default_rng(20240710)
    worst_residual = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        a = random_hurwitz(rng, dim)
        q = random_psd(rng, dim)
        sol = linalg.solve_lyapunov(a, q)
        residual = np.linalg.norm(a @ sol + sol @ a.T + q, "fro") / max(
            1.0, np.linalg.norm(q, "fro")
        )
        oracle_gap = np.linalg.norm(sol - kron_lyapunov(a, q), "fro") / max(
            1.0, np.linalg.norm(sol, "fro")
        )
        worst_residual = max(worst_residual, residual)
        worst_oracle = max(worst_oracle, oracle_gap)
    assert worst_residual <= 1e-10
    assert worst_oracle <= 1e-8

    worst_exp = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        a = rng.normal(size=(dim, dim))
        a *= rng.uniform(0.05, 1.0) / np.linalg.norm(a, 2)
        expected = taylor_expm(a)
        err = np.linalg.norm(linalg.mat_exp(a) - expected, "fro") / np.linalg.norm(
            expected, "fro"
        )
        worst_exp = max(worst_exp, err)
    assert worst_exp <= 1e-12

    elapsed = time.time() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 (kernel suite): PASS residual<={worst_residual:.2e}, "
        f"oracle gap<={worst_oracle:.2e}, expm<={worst_exp:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_scalar_closed_forms():
    # h = 1 (fast matrix -1), effective fast noise 2, slow q = 1, w = 1
    problem = scalar_spec(-2.0, 1.0, 1.0, -1.0)
    below = fast_error_cov(problem, StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6))
    assert abs(below[0, 0] - 1.0) <= 1e-12
    beta0 = 2.0
    at_one = fast_error_cov(problem, StepSchedule(beta0=beta0, b=1.0, gamma0=1.0, a=0.6))
    assert abs(at_one[0, 0] - 2.0 / (2.0 - 1.0 / beta0)) <= 1e-12
    slow = slow_error_cov(problem)
    assert abs(slow[0, 0] - 0.5) <= 1e-12
    with pytest.raises(InfeasibleError, match="A3"):
        fast_error_cov(problem, StepSchedule(beta0=0.5, b=1.0, gamma0=1.0, a=0.6))
    print("ACCEPTANCE 2 (scalar closed forms): PASS all at 1e-12, infeasibility raised")


def test_criterion_3_linear_clt_desk_scale(linear_report):
    verdict = linear_report.verdict("clt")
    details = verdict.details
    assert linear_report.valid
    assert details["fast_rel_error"] <= 0.15
    assert details["slow_rel_error"] <= 0.15
    assert details["cross_error"] <= 0.10
    assert verdict.passed
    wall = linear_report.diagnostics["wall_seconds"]
    assert wall < 300.0
    print(
        f"ACCEPTANCE 3 (joint CLT, linear): PASS fast {details['fast_rel_error']:.3f}, "
        f"slow {details['slow_rel_error']:.3f}, cross {details['cross_error']:.3f}, "
        f"{wall:.0f}s"
    )


def test_criterion_4_quadratic_clt(quad_report):
    # same trajectories as the averaged run; the step-scaled view carries the
    # nonlinear joint CLT at its wider tolerance
    joint = np.zeros((4, 4))
    joint[:2, :2] = quad_report.predicted["fast_cov"]
    joint[2:, 2:] = quad_report.predicted["slow_cov"]
    verdict = clt_verdict(
        quad_report.curves["scaled_cov"][-1], joint, (2, 2), tol_rel=0.20, tol_cross=0.10
    )
    assert quad_report.valid
    assert verdict.passed
    print(
        f"ACCEPTANCE 4 (joint CLT, quadratic): PASS fast "
        f"{verdict.details['fast_rel_error']:.3f}, slow "
        f"{verdict.details['slow_rel_error']:.3f}, cross "
        f"{verdict.details['cross_error']:.3f}"
    )


def test_criterion_5_averaged_clt(quad_report, linear_report):
    joint = quad_report.verdict("clt")
    blocks = quad_report.verdict("averaged_blocks")
    assert joint.passed
    assert blocks.passed
    assert joint.details["joint_rel_error"] <= 0.15
    assert blocks.details["fast_rel_error"] <= 0.15
    assert blocks.details["slow_rel_error"] <= 0.15
    # convergence trend of the averaged covariance toward the prediction,
    # on the nonlinear run and on the linear one
    err_ref = err_final = None
    for report in (quad_report, linear_report):
        ref = int(np.argmin(np.abs(report.curves["n"] - 1000)))
        pred = report.predicted["averaged_cov"]
        err_ref = rel_frobenius(report.curves["avg_scaled_cov"][ref], pred)
        err_final = rel_frobenius(report.curves["avg_scaled_cov"][-1], pred)
        assert err_final < err_ref
    print(
        f"ACCEPTANCE 5 (averaged CLT): PASS joint {joint.details['joint_rel_error']:.3f}, "
        f"blocks {blocks.details['fast_rel_error']:.3f}/"
        f"{blocks.details['slow_rel_error']:.3f}, trend {err_ref:.3f}->{err_final:.3f}"
    )


def test_criterion_6_strong_rates(linear_report):
    slopes = linear_report.verdict("slopes")
    lil = linear_report.verdict("lil")
    assert slopes.passed
    assert abs(slopes.details["fast_slope"] - (-0.4)) <= 0.07
    assert abs(slopes.details["slow_slope"] - (-0.3)) <= 0.07
    assert lil.passed
    assert lil.details["fast_fraction"] >= 0.95
    assert lil.details["slow_fraction"] >= 0.95
    print(
        f"ACCEPTANCE 6 (strong rates): PASS slopes {slopes.details['fast_slope']:.3f}/"
        f"{slopes.details['slow_slope']:.3f}, lil fractions "
        f"{lil.details['fast_fraction']:.3f}/{lil.details['slow_fraction']:.3f}"
    )


def test_criterion_7_decomposition_structure(decomposition_report):
    # recursion vs direct-sum agreement on a short run
    problem = library_problem("linear-2x2")
    schedule = StepSchedule(beta0=2.0, b=0.95, gamma0=2.0, a=0.55)
    rng = np.random.default_rng(77)
    state = initial_state(problem, track_decomposition=True)
    k_fast = problem.q12 @ invert(problem.q22)
    h = problem.fast_matrix()
    n_last = 50
    vs, ws = [], []
    for n in range(1, n_last + 1):
        draws = problem.noise.draw(rng, ())
        v, w = draws[:2], draws[2:]
        state = step(problem, schedule, state, (v, w))
        vs.append(v)
        ws.append(w)
    u = np.cumsum(schedule.beta_array(n_last))
    s = np.cumsum(schedule.gamma_array(n_last))
    lf = sum(
        mat_exp((u[-1] - u[k - 1]) * h)
        @ (schedule.beta(k) * (vs[k - 1] - k_fast @ ws[k - 1]))
        for k in range(1, n_last + 1)
    )
    ls = sum(
        mat_exp((s[-1] - s[k - 1]) * problem.q22) @ (schedule.gamma(k) * ws[k - 1])
        for k in range(1, n_last + 1)
    )
    gap_f = np.linalg.norm(state.martingale_fast - lf)
    gap_s = np.linalg.norm(state.martingale_slow - ls)
    assert gap_f <= 1e-10
    assert gap_s <= 1e-10

    # full-scale trend: medians halve (and better) over two decades
    verdict = decomposition_report.verdict("negligibility")
    details = verdict.details
    assert verdict.passed
    for key in (
        "coupling_fast_over_sqrt_beta_decay",
        "remainder_fast_over_sqrt_beta_decay",
        "remainder_slow_over_sqrt_beta_decay",
    ):
        assert details[key] < 0.5
    assert details["remainder_fast_decreasing_fraction"] >= 0.90
    print(
        f"ACCEPTANCE 7 (decomposition): PASS direct sums {max(gap_f, gap_s):.2e}, decays "
        f"{details['coupling_fast_over_sqrt_beta_decay']:.3f}/"
        f"{details['remainder_fast_over_sqrt_beta_decay']:.3f}/"
        f"{details['remainder_slow_over_sqrt_beta_decay']:.3f}, "
        f"decreasing {details['remainder_fast_decreasing_fraction']:.2f}"
    )


def test_criterion_8_optimal_gain_consistency(matricial_report):
    verdict = matricial_report.verdict("clt")
    assert matricial_report.valid
    assert verdict.passed
    assert verdict.details["fast_rel_error"] <= 0.15
    print(
        f"ACCEPTANCE 8 (optimal gains): PASS fast {verdict.details['fast_rel_error']:.3f} "
        f"(slow informational {verdict.details['slow_rel_error_informational']:.3f})"
    )


def test_criterion_9_determinism_and_validators(tmp_path, capsys):
    from ttsa import cli

    config_text = (
        "problem.name = scalar-coupled\n"
        "run.n_final = 2000\n"
        "mc.replications = 16\n"
        "mc.base_seed = 9\n"
        "mc.tol_rel = 2.0\n"
        "mc.tol_cross = 2.0\n"
    )
    config = tmp_path / "exp.cfg"
    config.write_text(config_text)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["montecarlo", "--config", str(config), "--output", str(out_a)]) == 0
    assert cli.main(["montecarlo", "--config", str(config), "--output", str(out_b)]) == 0
    la, lb = out_a.read_text().splitlines(), out_b.read_text().splitlines()
    assert la[0].startswith("# generated") and la[1:] == lb[1:]

    # ordering violation names A3
    with pytest.raises(ConfigError, match="A3"):
        from ttsa.config import parse_config

        parse_config("step.a = 0.7\nstep.b = 0.6\n")

    # b = 1 with too-small beta0 names A3(ii)
    bad_beta = tmp_path / "beta.cfg"
    bad_beta.write_text("problem.name = scalar-coupled\nstep.b = 1.0\nstep.beta0 = 0.4\n")
    assert cli.main(["validate", "--config", str(bad_beta)]) == 1
    assert "A3(ii)" in capsys.readouterr().out

    # low moment order names A4(iii)
    bad_moment = tmp_path / "moment.cfg"
    bad_moment.write_text("problem.name = scalar-coupled\nproblem.moment_order = 3.0\n")
    assert cli.main(["validate", "--config", str(bad_moment)]) == 1
    assert "A4(iii)" in capsys.readouterr().out
    print(
        "ACCEPTANCE 9 (determinism and validators): PASS byte-identical reports, "
        "A3 / A3(ii) / A4(iii) all cited"
    )
