import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ttsa import (
    BiasModel,
    GainMatrices,
    NoiseModel,
    ProblemSpec,
    StepSchedule,
    checkpoint_indices,
    initial_state,
    matricial_schedule,
    optimal_gains,
    resolve_algorithm,
    run,
    simulate_batch,
    step,
)
import ttsa
from ttsa import linalg
from ttsa.engine import (
    DECOMP_KEYS,
    DIVERGENCE_GUARD,
    _first_diverged,
    _Kernel,
    replication_rng,
)
from ttsa.errors import ConfigError, DivergenceError, SingularMatrixError
from ttsa.linalg import invert, mat_exp
from ttsa.problems import library_problem

from conftest import scalar_spec
from oracles import random_psd


def zero_noise(problem):
    return np.zeros(problem.d), np.zeros(problem.d_prime)


class TestStep:
    def test_root_is_fixed_point(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, theta0=p.theta_star, mu0=p.mu_star)
        new = step(p, schedule, state, zero_noise(p))
        np.testing.assert_array_equal(new.theta, p.theta_star)
        np.testing.assert_array_equal(new.mu, p.mu_star)
        assert new.n == 2

    def test_one_step_arithmetic(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=0.5, b=0.8, gamma0=0.5, a=0.6)
        state = initial_state(p, theta0=[1.0], mu0=[1.0])
        new = step(p, s, state, zero_noise(p))
        assert new.theta[0] == 0.5
        assert new.mu[0] == 0.5

    def test_noise_enters_linearly(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, theta0=p.theta_star, mu0=p.mu_star)
        v = np.array([0.3, -0.2])
        w = np.array([0.1, 0.4])
        new = step(p, schedule, state, (v, w))
        np.testing.assert_allclose(new.theta, p.theta_star + schedule.beta(1) * v, atol=1e-15)
        np.testing.assert_allclose(new.mu, p.mu_star + schedule.gamma(1) * w, atol=1e-15)

    def test_bias_values_added(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        state = initial_state(p, theta0=[0.0], mu0=[0.0])
        new = step(p, s, state, zero_noise(p), bias_values=(np.array([0.25]), np.array([-0.5])))
        assert new.theta[0] == 0.25
        assert new.mu[0] == -0.5

    def test_bias_values_replace_the_model_bias(self):
        base = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        p = ProblemSpec(
            q11=base.q11, q12=base.q12, q21=base.q21, q22=base.q22,
            theta_star=base.theta_star, mu_star=base.mu_star, noise=base.noise,
            bias=BiasModel(kind="power_decay", coeff_fast=[1.0], coeff_slow=[2.0], rho=1.0),
        )
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        state = initial_state(p, theta0=[0.0], mu0=[0.0])
        own = step(p, s, state, zero_noise(p))
        assert (own.theta[0], own.mu[0]) == (1.0, 2.0)  # r_1 = coeff * 1^-1
        given = step(p, s, state, zero_noise(p), bias_values=(np.array([0.25]), np.array([-0.5])))
        assert (given.theta[0], given.mu[0]) == (0.25, -0.5)

    def test_divergent_iterate_raises(self):
        p = scalar_spec(30.0, 0.0, 0.0, 30.0)
        s = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
        state = initial_state(p, theta0=[1.0], mu0=[1.0])
        with pytest.raises(DivergenceError) as err:
            for _ in range(200):
                state = step(p, s, state, zero_noise(p))
        assert err.value.step is not None


class TestMatricialStep:
    def test_identity_gains_reduce_to_plain_step(self, linear_problem):
        p = linear_problem
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        state = initial_state(p)
        v = np.array([0.1, -0.6])
        w = np.array([-0.2, 0.3])
        gains = GainMatrices(fast=np.eye(2), slow=np.eye(2))
        plain = step(p, s, state, (v, w))
        matricial = step(p, matricial_schedule(0.6), state, (v, w), gains=gains)
        np.testing.assert_array_equal(plain.theta, matricial.theta)
        np.testing.assert_array_equal(plain.mu, matricial.mu)

    def test_root_fixed_point(self, linear_problem):
        p = linear_problem
        state = initial_state(p, theta0=p.theta_star, mu0=p.mu_star)
        new = step(p, matricial_schedule(0.6), state, zero_noise(p), gains=optimal_gains(p))
        np.testing.assert_array_equal(new.theta, p.theta_star)

    def test_scalar_optimal_gain_one_shot(self):
        # gain 0.5 on drift -2 theta jumps to the root in one deterministic step
        p = scalar_spec(-2.0, 0.0, 0.0, -0.5)
        state = initial_state(p, theta0=[1.0], mu0=[0.0])
        gains = optimal_gains(p)
        assert gains.fast[0, 0] == pytest.approx(0.5)
        assert gains.slow[0, 0] == pytest.approx(2.0)
        new = step(p, matricial_schedule(0.6), state, zero_noise(p), gains=gains)
        assert new.theta[0] == pytest.approx(0.0, abs=1e-15)

    def test_destabilizing_gains_are_rejected(self, linear_problem):
        # the check simulate_batch makes holds for a single step too
        p = linear_problem
        gains = GainMatrices(fast=-np.eye(2), slow=np.eye(2))
        with pytest.raises(ConfigError, match="fast gain does not stabilize"):
            step(p, matricial_schedule(0.6), initial_state(p), zero_noise(p), gains=gains)


class TestOptimalGains:
    def test_negated_identity(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        gains = optimal_gains(p)
        assert gains.fast[0, 0] == pytest.approx(1.0)

    def test_multiply_back(self, linear_problem):
        gains = optimal_gains(linear_problem)
        prod = gains.fast @ linear_problem.fast_matrix()
        assert np.linalg.norm(prod + np.eye(2), "fro") <= 1e-10

    def test_destabilizing_gain_rejected(self, linear_problem):
        from ttsa.engine import validate_gains

        # A = -I flips the sign of A*H + I/2 into the unstable half plane
        with pytest.raises(ConfigError):
            validate_gains(linear_problem, GainMatrices(fast=-np.eye(2), slow=np.eye(2)))
        with pytest.raises(ConfigError):
            validate_gains(linear_problem, GainMatrices(fast=np.eye(2), slow=-np.eye(2)))


class TestDecomposition:
    def test_zero_noise_keeps_martingale_parts_zero(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, track_decomposition=True)
        for _ in range(20):
            state = step(p, schedule, state, zero_noise(p))
        np.testing.assert_array_equal(state.martingale_fast, np.zeros(2))
        np.testing.assert_array_equal(state.martingale_slow, np.zeros(2))

    def test_first_step_closed_form(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, track_decomposition=True)
        rng = np.random.default_rng(2)
        v = rng.normal(size=2)
        w = rng.normal(size=2)
        state = step(p, schedule, state, (v, w))
        k = p.q12 @ invert(p.q22)
        np.testing.assert_allclose(
            state.martingale_fast, schedule.beta(1) * (v - k @ w), atol=1e-15
        )
        np.testing.assert_allclose(state.martingale_slow, schedule.gamma(1) * w, atol=1e-15)

    def test_tracked_state_starts_at_zero_parts(self, linear_problem, schedule):
        state = initial_state(linear_problem, track_decomposition=True)
        np.testing.assert_array_equal(state.parts, np.zeros(2 * linear_problem.dim))
        for part in ("martingale_fast", "martingale_slow", "coupling_fast", "coupling_slow"):
            np.testing.assert_array_equal(getattr(state, part), np.zeros(2))

    def test_untracked_state_stays_untracked(self, linear_problem, schedule):
        state = initial_state(linear_problem)
        assert state.parts is None
        for _ in range(3):
            state = step(linear_problem, schedule, state, zero_noise(linear_problem))
        assert state.parts is None

    def test_tracked_matricial_step_is_rejected(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, track_decomposition=True)
        with pytest.raises(ConfigError, match="plain iteration only"):
            step(p, matricial_schedule(0.6), state, zero_noise(p), gains=optimal_gains(p))

    def test_recursions_match_direct_sums(self, linear_problem, schedule):
        # the recursive updates must reproduce the exponential-weighted sums
        # they stand for, out to 50 iterations
        p = linear_problem
        n_last = 50
        rng = np.random.default_rng(31)
        state = initial_state(p, track_decomposition=True)
        h = p.fast_matrix()
        k_fast = p.q12 @ invert(p.q22)

        vs, ws, mu_path = [], [], [state.mu.copy()]
        recursive = {}
        for n in range(1, n_last + 1):
            draws = p.noise.draw(rng, ())
            v, w = draws[:2], draws[2:]
            state = step(p, schedule, state, (v, w))
            vs.append(v)
            ws.append(w)
            mu_path.append(state.mu.copy())
            recursive[n + 1] = (
                state.martingale_fast.copy(),
                state.coupling_fast.copy(),
                state.martingale_slow.copy(),
                state.coupling_slow.copy(),
            )

        u = np.cumsum(schedule.beta_array(n_last))
        s = np.cumsum(schedule.gamma_array(n_last))

        def direct(n):
            lf = np.zeros(2)
            cf = np.zeros(2)
            ls = np.zeros(2)
            cs = np.zeros(2)
            fast_parts = {1: (np.zeros(2), np.zeros(2))}
            for kk in range(1, n + 1):
                e_f = mat_exp((u[n - 1] - u[kk - 1]) * h)
                e_s = mat_exp((s[n - 1] - s[kk - 1]) * p.q22)
                beta_k = schedule.beta(kk)
                gamma_k = schedule.gamma(kk)
                xi = vs[kk - 1] - k_fast @ ws[kk - 1]
                lf = lf + e_f @ (beta_k * xi)
                cf = cf + e_f @ (beta_k / gamma_k * (k_fast @ (mu_path[kk] - mu_path[kk - 1])))
                ls = ls + e_s @ (gamma_k * ws[kk - 1])
                lk, ck = fast_parts[kk]
                cs = cs + e_s @ (gamma_k * (p.q21 @ (lk + ck)))
                if kk < n:
                    # fast parts at index kk+1 for the slow coupling sum
                    lf_k = np.zeros(2)
                    cf_k = np.zeros(2)
                    for j in range(1, kk + 1):
                        e_j = mat_exp((u[kk - 1] - u[j - 1]) * h)
                        xi_j = vs[j - 1] - k_fast @ ws[j - 1]
                        lf_k += e_j @ (schedule.beta(j) * xi_j)
                        cf_k += e_j @ (
                            schedule.beta(j)
                            / schedule.gamma(j)
                            * (k_fast @ (mu_path[j] - mu_path[j - 1]))
                        )
                    fast_parts[kk + 1] = (lf_k, cf_k)
            return lf, cf, ls, cs

        for n in (1, 9, 24, n_last):
            got = recursive[n + 1]
            expected = direct(n)
            for got_part, exp_part in zip(got, expected):
                assert np.linalg.norm(got_part - exp_part) <= 1e-10

    def test_consistency_with_iterates(self, linear_problem, schedule):
        # error = martingale + coupling + remainder holds by construction;
        # check the remainder recursion is consistent with the realized path
        p = linear_problem
        trace = run(p, schedule, 200, seed=5, track_decomposition=True,
                    checkpoints=np.arange(1, 201))
        err = np.linalg.norm(trace.theta - p.theta_star, axis=1)
        lhs = trace.decomposition["remainder_fast"]
        assert np.all(lhs <= err + trace.decomposition["martingale_fast"]
                      + trace.decomposition["coupling_fast"] + 1e-12)

    def test_matricial_tracking_rejected(self, linear_problem):
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        with pytest.raises(ConfigError):
            simulate_batch(
                linear_problem, s, 10, base_seed=0, replications=2,
                gains=optimal_gains(linear_problem), track_decomposition=True,
            )


class TestRun:
    def test_single_index_trace(self, linear_problem, schedule):
        trace = run(linear_problem, schedule, 1, seed=3)
        assert trace.ns.tolist() == [1]
        np.testing.assert_allclose(
            trace.theta[0], linear_problem.theta_star + np.ones(2) / math.sqrt(2)
        )

    def test_deterministic(self, linear_problem, schedule):
        a = run(linear_problem, schedule, 500, seed=11)
        b = run(linear_problem, schedule, 500, seed=11)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.theta_bar, b.theta_bar)

    def test_seed_changes_trace(self, linear_problem, schedule):
        a = run(linear_problem, schedule, 500, seed=11)
        b = run(linear_problem, schedule, 500, seed=12)
        assert not np.array_equal(a.theta, b.theta)

    def test_run_equals_batch_replication_zero(self, linear_problem, schedule):
        trace = run(linear_problem, schedule, 700, seed=21)
        batch = simulate_batch(
            linear_problem, schedule, 700, base_seed=21, replications=4
        )
        np.testing.assert_array_equal(trace.theta, batch.theta[:, 0])
        np.testing.assert_array_equal(trace.mu, batch.mu[:, 0])

    def test_replay_oracle(self, linear_problem, schedule):
        # independent straight-line replay of the affine recursion in error
        # coordinates, z_{n+1} = z_n A_n + u_n with A_n = I + Q^T S_n and
        # u_n = xi_{n+1} S_n, on a two-row state, bit-comparable given the
        # identical noise stream: the same products on the same shapes keep
        # the arithmetic identical to the engine's, so the comparison is
        # exact rather than within BLAS rounding
        p = linear_problem
        n_final = 300
        trace = run(p, schedule, n_final, seed=9, checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.draw(replication_rng(9, 0), (n_final - 1,))
        q_t = np.block([[p.q11, p.q12], [p.q21, p.q22]]).T.copy()
        x_star = np.concatenate([p.theta_star, p.mu_star])
        z = np.tile(x_star + np.ones(4) / math.sqrt(2) - x_star, (2, 1))
        path = [z[0] + x_star]
        for n in range(1, n_final):
            steps = np.repeat([schedule.beta(n), schedule.gamma(n)], 2)
            z = z @ (q_t * steps + np.eye(4)) + draws[n - 1] * steps
            path.append(z[0] + x_star)
        path = np.array(path)
        np.testing.assert_array_equal(trace.theta, path[:, :2])
        np.testing.assert_array_equal(trace.mu, path[:, 2:])

    @pytest.mark.parametrize("case", ["linear-2x2", "quadratic-2x2", "matricial", "power_decay"])
    def test_matches_split_block_recursion(self, case, schedule):
        # the split (theta, mu) recursion with four block products, the
        # residual as two einsums, the bias added per block and the gains
        # applied per block: the error-coordinate kernel sums the same terms
        # in another order, so the two agree to rounding
        p = library_problem("quadratic-2x2" if case == "quadratic-2x2" else "linear-2x2")
        gains, gain_f, gain_s, steps = None, np.eye(2), np.eye(2), schedule
        if case == "matricial":
            gains = optimal_gains(p)
            gain_f, gain_s = gains.fast, gains.slow
            steps = matricial_schedule(schedule.a)
        if case == "power_decay":
            p = replace(p, bias=BiasModel(kind="power_decay", coeff_fast=[0.5, -0.3],
                                          coeff_slow=[0.2, 0.4], rho=0.9))
        n_final = 300
        trace = run(p, steps, n_final, seed=9, gains=gains,
                    checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.draw(replication_rng(9, 0), (n_final - 1,))
        theta = p.theta_star + np.ones(2) / math.sqrt(2)
        mu = p.mu_star + np.ones(2) / math.sqrt(2)
        thetas, mus = [theta], [mu]
        for n in range(1, n_final):
            ef, es = theta - p.theta_star, mu - p.mu_star
            x = p.q11 @ ef + p.q12 @ es + draws[n - 1, :2]
            y = p.q21 @ ef + p.q22 @ es + draws[n - 1, 2:]
            if p.residual.kind == "quadratic_form":
                z = np.concatenate([ef, es])
                inside = np.linalg.norm(z) <= p.residual.clamp_radius
                x = x + inside * np.einsum("j,ijk,k->i", z, p.residual.coeff_fast, z)
                y = y + inside * np.einsum("j,ijk,k->i", z, p.residual.coeff_slow, z)
            if p.bias.kind == "power_decay":
                x = x + p.bias.coeff_fast * float(n) ** -p.bias.rho
                y = y + p.bias.coeff_slow * float(n) ** -p.bias.rho
            theta = theta + steps.beta(n) * (gain_f @ x)
            mu = mu + steps.gamma(n) * (gain_s @ y)
            thetas.append(theta)
            mus.append(mu)
        for got, want in ((trace.theta, np.array(thetas)), (trace.mu, np.array(mus))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_reduction_identity_at_every_step(self, linear_problem, schedule):
        # the fast update rewritten through the slow increment: for linear
        # zero-bias problems the two forms agree to rounding
        p = linear_problem
        n_final = 400
        trace = run(p, schedule, n_final, seed=13, checkpoints=np.arange(1, n_final + 1))
        theta, mu = trace.theta, trace.mu
        # the run's noise, replayed from replication 0's stream
        draws = p.noise.draw(replication_rng(13, 0), (n_final - 1,))
        v, w = draws[:, : p.d], draws[:, p.d :]
        h = p.fast_matrix()
        k = p.q12 @ invert(p.q22)
        for n in range(1, n_final):
            beta_n = schedule.beta(n)
            gamma_n = schedule.gamma(n)
            ef = theta[n - 1] - p.theta_star
            lhs = (
                theta[n] - theta[n - 1]
                - beta_n * (h @ ef)
                - beta_n / gamma_n * (k @ (mu[n] - mu[n - 1]))
                - beta_n * (v[n - 1] - k @ w[n - 1])
            )
            assert np.linalg.norm(lhs) <= 1e-10

    def test_average_identity(self, linear_problem, schedule):
        trace = run(linear_problem, schedule, 300, seed=17,
                    checkpoints=np.arange(1, 301))
        for i in range(1, trace.ns.size):
            n = trace.ns[i]
            lhs = trace.theta_bar[i] * n - trace.theta_bar[i - 1] * (n - 1)
            assert np.linalg.norm(lhs - trace.theta[i]) <= 1e-12 * max(
                1.0, n * np.linalg.norm(trace.theta_bar[i])
            )

    def test_terminal_error_within_lil_envelope(self, linear_problem, schedule):
        # frozen after a calibration run; the constant 10 leaves a wide margin
        trace = run(linear_problem, schedule, 10**5, seed=20240705)
        err = np.linalg.norm(trace.theta[-1] - linear_problem.theta_star)
        bound = 10.0 * math.sqrt(trace.beta[-1] * math.log(trace.u[-1]))
        assert err < bound

    def test_divergence_carries_trace_prefix(self):
        p = scalar_spec(30.0, 0.0, 0.0, 30.0)
        s = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
        with pytest.raises(DivergenceError) as err:
            run(p, s, 1000, seed=1)
        assert err.value.trace is not None
        assert err.value.step is not None
        assert err.value.trace.ns.size >= 1

    def test_unknown_algorithm_rejected(self, linear_problem, schedule):
        with pytest.raises(ConfigError):
            resolve_algorithm(linear_problem, schedule, "sgd")

    def test_averaged_requires_averaging_regime(self, linear_problem, schedule):
        # the assumption (A'3), checked where every command resolves its algorithm
        assert schedule.regime == "plain"
        with pytest.raises(ConfigError, match="averaging regime"):
            resolve_algorithm(linear_problem, schedule, "averaged")


class TestRunningSum:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_average_keeps_the_compensated_accuracy(self, linear_problem, schedule, seed):
        # with the root at 0 the path is z itself and n x_bar its running sum.
        # The worst error over the three seeds is 0.8 eps sum|z|; a fold
        # without compensation reaches 2.2 eps, a plain running sum 10 eps
        p = replace(linear_problem, theta_star=np.zeros(2), mu_star=np.zeros(2))
        n_final = 10**5
        trace = run(p, schedule, n_final, seed=seed, checkpoints=np.arange(1, n_final + 1))
        eps = np.finfo(float).eps
        for n in (64, 4096, 65537, n_final):
            path = trace.x[:n]
            for c in range(p.dim):
                exact = math.fsum(path[:, c])
                error = abs(n * trace.x_bar[n - 1, c] - exact)
                assert error <= 2 * eps * np.abs(path[:, c]).sum(), (n, c, error)


class TestCheckpointGrid:
    def test_single(self):
        assert checkpoint_indices(1).tolist() == [1]

    def test_strictly_increasing_ends_at_final(self):
        for n_final in (2, 10, 999, 10**5):
            grid = checkpoint_indices(n_final)
            assert grid[0] == 1
            assert grid[-1] == n_final
            assert np.all(np.diff(grid) > 0)

    def test_density(self):
        grid = checkpoint_indices(10**4, per_decade=8)
        assert 30 <= grid.size <= 36

    def test_equals_the_np_unique_grid(self):
        def reference(n_final, per_decade):
            exps = np.arange(0, per_decade * math.ceil(math.log10(max(n_final, 2))) + 1)
            grid = np.unique(np.rint(10.0 ** (exps / per_decade)).astype(int))
            grid = grid[(grid >= 1) & (grid <= n_final)]
            if grid.size == 0 or grid[-1] != n_final:
                grid = np.append(grid, n_final)
            return grid

        for n_final in [*range(1, 2001), *(10**k for k in range(8))]:
            for per_decade in range(1, 21):
                got = checkpoint_indices(n_final, per_decade).tolist()
                assert got == reference(n_final, per_decade).tolist(), (n_final, per_decade)

    def test_does_not_import_numpy_ma(self):
        # numpy.ma costs about 15 ms of import in every process that loads it
        code = (
            "import sys, ttsa.cli\n"
            "from ttsa.engine import checkpoint_indices\n"
            "checkpoint_indices(4000)\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ttsa.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestNoiseStreams:
    def test_streams_differ_across_replications(self, linear_problem):
        a = replication_rng(5, 0).standard_normal(4)
        b = replication_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_stream_stable_under_batching(self, linear_problem):
        whole = replication_rng(5, 0).standard_normal(12)
        rng = replication_rng(5, 0)
        parts = np.concatenate([rng.standard_normal(5), rng.standard_normal(7)])
        np.testing.assert_array_equal(whole, parts)


def random_problem(d, dp, seed):
    rng = np.random.default_rng(seed)
    q = 0.3 * rng.normal(size=(d + dp, d + dp)) - np.eye(d + dp)
    return ProblemSpec(
        q11=q[:d, :d], q12=q[:d, d:], q21=q[d:, :d], q22=q[d:, d:],
        theta_star=rng.normal(size=d), mu_star=rng.normal(size=dp),
        noise=NoiseModel(cov=random_psd(rng, d + dp) + 0.1 * np.eye(d + dp)),
    )


def assert_same_paths(a, b):
    for name in ("theta", "mu", "theta_bar", "mu_bar"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestDeterminismContracts:
    def test_chunk_size_does_not_change_the_trace(self, linear_problem, schedule):
        # 3585 steps leave a last chunk of one step at chunk sizes 7 and 512;
        # the decomposition tables are built per chunk, so they are covered too
        n_final = 3586
        traces = [
            simulate_batch(linear_problem, schedule, n_final, base_seed=4, replications=3,
                           chunk=chunk, checkpoints=np.arange(1, n_final + 1),
                           track_decomposition=True)
            for chunk in (1, 7, 512)
        ]
        for other in traces[1:]:
            assert_same_paths(traces[0], other)
            for key in DECOMP_KEYS:
                np.testing.assert_array_equal(
                    traces[0].decomposition[key], other.decomposition[key]
                )

    def test_chunk_size_does_not_change_a_matricial_biased_trace(self, linear_problem):
        # the gain product on the innovation block and the per-chunk bias
        # rows must not depend on where a chunk starts or how long it is
        p = replace(linear_problem, bias=BiasModel(
            kind="power_decay", coeff_fast=[0.5, -0.3], coeff_slow=[0.2, 0.4], rho=0.9))
        s = matricial_schedule(0.6)
        n_final = 1030
        traces = [
            simulate_batch(p, s, n_final, base_seed=4, replications=3, chunk=chunk,
                           gains=optimal_gains(p), checkpoints=np.arange(1, n_final + 1))
            for chunk in (1, 7, 512)
        ]
        for other in traces[1:]:
            assert_same_paths(traces[0], other)

    @pytest.mark.parametrize("d, dp", [(1, 1), (2, 2), (3, 3), (4, 1), (12, 12)])
    def test_run_equals_replication_zero(self, d, dp, schedule):
        p = random_problem(d, dp, seed=10 * d + dp)
        trace = run(p, schedule, 700, seed=21, track_decomposition=True)
        batch = simulate_batch(p, schedule, 700, base_seed=21, replications=4,
                               track_decomposition=True)
        assert_same_paths(trace, batch.replication(0))
        for key, val in trace.decomposition.items():
            np.testing.assert_array_equal(val, batch.decomposition[key][:, 0])

    def test_running_sum_folds_at_the_same_indices_at_any_chunk(self, linear_problem, schedule):
        # the sum folds at n = 64, 128 and 192; chunks of 63, 64 and 65 steps put
        # those indices at different places within a chunk
        traces = [
            simulate_batch(linear_problem, schedule, 200, base_seed=4, replications=3,
                           chunk=chunk, checkpoints=np.arange(1, 201))
            for chunk in (1, 63, 64, 65)
        ]
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0].x_bar, other.x_bar)

    def test_replication_unchanged_as_the_batch_grows(self, quadratic_problem, schedule):
        small = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=3)
        large = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=5)
        for r in range(3):
            assert_same_paths(small.replication(r), large.replication(r))


class TestPerStepApi:
    @pytest.mark.parametrize("name", ["linear-2x2", "quadratic-2x2"])
    def test_chained_steps_equal_run(self, name, schedule):
        # step advances a tracked state through the batch's step loop, on
        # the same two-row shapes and noise, so the paths agree bit for bit;
        # the norms are taken over differently shaped arrays and agree to
        # rounding
        p = library_problem(name)
        n_final = 600
        trace = run(p, schedule, n_final, seed=9, track_decomposition=True,
                    checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.draw(replication_rng(9, 0), (n_final - 1,))
        state = initial_state(p, track_decomposition=True)
        paths = {key: [] for key in ("theta", "mu", "theta_bar", "mu_bar")}
        norms = {key: [] for key in DECOMP_KEYS}

        def record():
            for key, path in paths.items():
                path.append(getattr(state, key).copy())
            errors = {"fast": state.theta - p.theta_star, "slow": state.mu - p.mu_star}
            for part, err in errors.items():
                mart = getattr(state, "martingale_" + part)
                coup = getattr(state, "coupling_" + part)
                norms["martingale_" + part].append(np.linalg.norm(mart))
                norms["coupling_" + part].append(np.linalg.norm(coup))
                norms["remainder_" + part].append(np.linalg.norm(err - mart - coup))

        record()
        for xi in draws:
            v, w = xi[: p.d], xi[p.d :]
            state = step(p, schedule, state, (v, w))
            record()
        assert state.n == n_final
        for key, path in paths.items():
            np.testing.assert_array_equal(np.array(path), getattr(trace, key))
        for key, got in norms.items():
            np.testing.assert_allclose(got, trace.decomposition[key], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", ["linear-2x2", "quadratic-2x2"])
    def test_chained_steps_equal_run_matricial(self, name, schedule):
        # the matricial variant is step with its schedule and gains, so it
        # reproduces run with that pair bit for bit too
        p = library_problem(name)
        n_final = 600
        steps, gains = matricial_schedule(schedule.a), optimal_gains(p)
        trace = run(p, steps, n_final, seed=9, gains=gains,
                    checkpoints=np.arange(1, n_final + 1))

        state = initial_state(p)
        x, x_bar = [state.x], [np.concatenate([state.theta_bar, state.mu_bar])]
        for xi in p.noise.draw(replication_rng(9, 0), (n_final - 1,)):
            state = step(p, steps, state, (xi[: p.d], xi[p.d :]), gains=gains)
            x.append(state.x)
            x_bar.append(np.concatenate([state.theta_bar, state.mu_bar]))
        assert state.n == n_final
        np.testing.assert_array_equal(np.array(x), trace.x)
        np.testing.assert_array_equal(np.array(x_bar), trace.x_bar)

    def test_kernel_pieces_are_built_once_per_problem(self, schedule, monkeypatch):
        # per-step callers must not pay for an inversion or H on every call
        p = library_problem("linear-2x2")
        calls = {"invert": 0, "fast_matrix": 0, "mat_exp": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(linalg, "invert", counting("invert", linalg.invert))
        monkeypatch.setattr(
            ProblemSpec, "fast_matrix", counting("fast_matrix", ProblemSpec.fast_matrix)
        )
        monkeypatch.setattr(linalg, "mat_exp", counting("mat_exp", linalg.mat_exp))
        # an untracked step builds no decomposition piece
        step(p, schedule, initial_state(p), zero_noise(p))
        assert calls["fast_matrix"] == calls["mat_exp"] == 0
        state = initial_state(p, track_decomposition=True)
        counts = []
        for _ in range(2):
            state = step(p, schedule, state, zero_noise(p))
            counts.append({key: calls[key] for key in ("invert", "fast_matrix")})
        assert counts[0]["invert"] > 0 and counts[0]["fast_matrix"] == 1
        assert counts[1] == counts[0]
        assert calls["mat_exp"] == 4  # exp(beta H) and exp(gamma Q22) per tracked step

    def test_only_tracking_needs_an_invertible_q22(self, schedule):
        # Q22 = diag(-1, -1e-13) is beyond linalg.invert's condition limit;
        # only the decomposition's H and K need its inverse
        p = ProblemSpec(q11=[[-1.0]], q12=[[0.5, 0.5]], q21=[[0.5], [0.5]],
                        q22=np.diag([-1.0, -1e-13]), theta_star=[0.0], mu_star=[0.0, 0.0],
                        noise=NoiseModel(cov=np.eye(3)))
        assert run(p, schedule, 50, seed=3).ns[-1] == 50
        with pytest.raises(SingularMatrixError):
            run(p, schedule, 50, seed=3, track_decomposition=True)


class TestDivergenceGuard:
    def test_maxima_of_different_replications_do_not_add_up(self):
        # each row has max|theta| + max|mu| = 6e8; the two maxima together
        # would pass the guard, but no single replication does
        x = np.array([[6e8, 0.0, 0.0, 0.0], [0.0, 0.0, 6e8, 0.0]])
        assert _first_diverged(x, 2) == -1

    def test_the_offending_replication_is_named(self):
        x = np.zeros((4, 4))
        x[2] = [6e8, 0.0, -6e8, 0.0]
        assert _first_diverged(x, 2) == 2
        x[1, 3] = np.nan
        assert _first_diverged(x, 2) == 1
        x[0, 0] = np.inf
        assert _first_diverged(x, 2) == 0

    def test_guard_is_inclusive(self):
        x = np.array([[DIVERGENCE_GUARD / 2, 0.0, DIVERGENCE_GUARD / 2, 0.0]] * 2)
        assert _first_diverged(x, 2) == -1


class TestGuardFastPath:
    # the kernel tests sum(z^2) <= (0.49 guard - max|x*|)^2 before the exact
    # per-row guard on z + x*, and must agree with the exact guard everywhere

    @staticmethod
    def kernel(theta_star, mu_star):
        return _Kernel(replace(scalar_spec(-1.0, 0.0, 0.0, -1.0),
                               theta_star=theta_star, mu_star=mu_star))

    def test_root_margin_decides(self):
        # x* alone sums to 8e8; a z of norm 3e8 would pass a test that
        # ignores the root, yet puts both components at 5.5e8
        kernel = self.kernel([4e8], [-4e8])
        z = np.array([[1.5e8, -1.5e8]] * 2)
        assert kernel.first_diverged(z) == 0
        assert kernel.first_diverged(np.array([[1e7, -1e7]] * 2)) == -1
        # exactly at the guard, which is inclusive
        assert kernel.first_diverged(np.array([[1e8, -1e8]] * 2)) == -1

    def test_agrees_with_the_exact_guard(self):
        rng = np.random.default_rng(8)
        for x_star in ([0.0, 0.0], [4e8, -4e8], [6e8, 1.0]):
            kernel = self.kernel(x_star[:1], x_star[1:])
            for scale in (1e6, 1e8, 2.5e8, 5e8, 1e9):
                z = scale * rng.uniform(-1.0, 1.0, size=(5, 2))
                assert kernel.first_diverged(z) == _first_diverged(z + x_star, 1)

    def test_non_finite_rows_are_named(self):
        kernel = self.kernel([0.3], [-0.2])
        z = np.zeros((3, 2))
        z[2, 1] = np.inf
        assert kernel.first_diverged(z) == 2
        z[1, 0] = np.nan
        assert kernel.first_diverged(z) == 1
        z[0, 1] = -np.inf
        assert kernel.first_diverged(z) == 0

    @pytest.mark.parametrize("start", [1e200, 1e308])
    def test_start_far_beyond_the_guard_raises_without_warnings(self, start, schedule):
        # sum(z^2) overflows to inf and takes the exact path; at 1e308 the
        # table product overflows too, and the guard reports the infinite row
        p = library_problem("linear-2x2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = initial_state(p, theta0=[start, start])
            with pytest.raises(DivergenceError) as err:
                step(p, schedule, state, zero_noise(p))
            assert err.value.step == 2
            with pytest.raises(DivergenceError) as err:
                simulate_batch(p, schedule, 10, base_seed=0, replications=3,
                               theta0=[start, start])
            assert (err.value.step, err.value.replication) == (2, 0)
