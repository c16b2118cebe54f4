import math

import numpy as np
import pytest

from ttsa import (
    BiasModel,
    GainMatrices,
    NoiseModel,
    ProblemSpec,
    StepSchedule,
    checkpoint_indices,
    decompose_step,
    initial_decomposition,
    initial_state,
    matricial_step,
    optimal_gains,
    run,
    simulate_batch,
    step,
)
from ttsa import linalg
from ttsa.engine import DECOMP_KEYS, DIVERGENCE_GUARD, _first_diverged, replication_rng
from ttsa.errors import ConfigError, DivergenceError
from ttsa.linalg import invert, mat_exp
from ttsa.problems import library_problem

from conftest import scalar_spec
from oracles import random_psd


def zero_noise(problem):
    return np.zeros(problem.d), np.zeros(problem.d_prime)


class TestStep:
    def test_root_is_fixed_point(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, schedule, theta0=p.theta_star, mu0=p.mu_star)
        new = step(p, schedule, state, zero_noise(p))
        np.testing.assert_array_equal(new.theta, p.theta_star)
        np.testing.assert_array_equal(new.mu, p.mu_star)
        assert new.n == 2

    def test_one_step_arithmetic(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=0.5, b=0.8, gamma0=0.5, a=0.6)
        state = initial_state(p, s, theta0=[1.0], mu0=[1.0])
        new = step(p, s, state, zero_noise(p))
        assert new.theta[0] == 0.5
        assert new.mu[0] == 0.5

    def test_noise_enters_linearly(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, schedule, theta0=p.theta_star, mu0=p.mu_star)
        v = np.array([0.3, -0.2])
        w = np.array([0.1, 0.4])
        new = step(p, schedule, state, (v, w))
        np.testing.assert_allclose(new.theta, p.theta_star + schedule.beta(1) * v, atol=1e-15)
        np.testing.assert_allclose(new.mu, p.mu_star + schedule.gamma(1) * w, atol=1e-15)

    def test_bias_values_added(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        state = initial_state(p, s, theta0=[0.0], mu0=[0.0])
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
        state = initial_state(p, s, theta0=[0.0], mu0=[0.0])
        own = step(p, s, state, zero_noise(p))
        assert (own.theta[0], own.mu[0]) == (1.0, 2.0)  # r_1 = coeff * 1^-1
        given = step(p, s, state, zero_noise(p), bias_values=(np.array([0.25]), np.array([-0.5])))
        assert (given.theta[0], given.mu[0]) == (0.25, -0.5)

    def test_divergent_iterate_raises(self):
        p = scalar_spec(30.0, 0.0, 0.0, 30.0)
        s = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
        state = initial_state(p, s, theta0=[1.0], mu0=[1.0])
        with pytest.raises(DivergenceError) as err:
            for _ in range(200):
                state = step(p, s, state, zero_noise(p))
        assert err.value.step is not None


class TestMatricialStep:
    def test_identity_gains_reduce_to_plain_step(self, linear_problem):
        p = linear_problem
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        state = initial_state(p, s)
        v = np.array([0.1, -0.6])
        w = np.array([-0.2, 0.3])
        gains = GainMatrices(fast=np.eye(2), slow=np.eye(2))
        plain = step(p, s, state, (v, w))
        matricial = matricial_step(p, state, gains, 0.6, (v, w))
        np.testing.assert_array_equal(plain.theta, matricial.theta)
        np.testing.assert_array_equal(plain.mu, matricial.mu)

    def test_root_fixed_point(self, linear_problem):
        p = linear_problem
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        state = initial_state(p, s, theta0=p.theta_star, mu0=p.mu_star)
        new = matricial_step(p, state, optimal_gains(p), 0.6, zero_noise(p))
        np.testing.assert_array_equal(new.theta, p.theta_star)

    def test_scalar_optimal_gain_one_shot(self):
        # gain 0.5 on drift -2 theta jumps to the root in one deterministic step
        p = scalar_spec(-2.0, 0.0, 0.0, -0.5)
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        state = initial_state(p, s, theta0=[1.0], mu0=[0.0])
        gains = optimal_gains(p)
        assert gains.fast[0, 0] == pytest.approx(0.5)
        assert gains.slow[0, 0] == pytest.approx(2.0)
        new = matricial_step(p, state, gains, 0.6, zero_noise(p))
        assert new.theta[0] == pytest.approx(0.0, abs=1e-15)


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
        state = initial_state(p, schedule)
        dstate = initial_decomposition(p)
        for _ in range(20):
            new = step(p, schedule, state, zero_noise(p))
            dstate = decompose_step(
                p, schedule, dstate, zero_noise(p), new.mu - state.mu
            )
            state = new
        np.testing.assert_array_equal(dstate.martingale_fast, np.zeros(2))
        np.testing.assert_array_equal(dstate.martingale_slow, np.zeros(2))

    def test_first_step_closed_form(self, linear_problem, schedule):
        p = linear_problem
        state = initial_state(p, schedule)
        dstate = initial_decomposition(p)
        rng = np.random.default_rng(2)
        v = rng.normal(size=2)
        w = rng.normal(size=2)
        new = step(p, schedule, state, (v, w))
        dstate = decompose_step(p, schedule, dstate, (v, w), new.mu - state.mu)
        k = p.q12 @ invert(p.q22)
        np.testing.assert_allclose(
            dstate.martingale_fast, schedule.beta(1) * (v - k @ w), atol=1e-15
        )
        np.testing.assert_allclose(dstate.martingale_slow, schedule.gamma(1) * w, atol=1e-15)

    def test_recursions_match_direct_sums(self, linear_problem, schedule):
        # the recursive updates must reproduce the exponential-weighted sums
        # they stand for, out to 50 iterations
        p = linear_problem
        n_last = 50
        rng = np.random.default_rng(31)
        state = initial_state(p, schedule)
        dstate = initial_decomposition(p)
        h = p.fast_matrix()
        k_fast = p.q12 @ invert(p.q22)

        vs, ws, mu_path = [], [], [state.mu.copy()]
        recursive = {}
        for n in range(1, n_last + 1):
            draws = p.noise.draw(rng, ())
            v, w = draws[:2], draws[2:]
            new = step(p, schedule, state, (v, w))
            dstate = decompose_step(p, schedule, dstate, (v, w), new.mu - state.mu)
            vs.append(v)
            ws.append(w)
            mu_path.append(new.mu.copy())
            state = new
            recursive[n + 1] = (
                dstate.martingale_fast.copy(),
                dstate.coupling_fast.copy(),
                dstate.martingale_slow.copy(),
                dstate.coupling_slow.copy(),
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
        # independent straight-line replay of the stacked affine recursion on
        # a two-row state, bit-comparable given the identical noise stream:
        # the same products on the same shapes keep the arithmetic identical
        # to the engine's, so the comparison is exact rather than within
        # BLAS rounding
        p = linear_problem
        n_final = 300
        trace = run(p, schedule, n_final, seed=9, checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.draw(replication_rng(9, 0), (n_final - 1,))
        q_t = np.block([[p.q11, p.q12], [p.q21, p.q22]]).T.copy()
        x_star = np.tile(np.concatenate([p.theta_star, p.mu_star]), (2, 1))
        x = x_star + np.ones(4) / math.sqrt(2)
        path = [x[0].copy()]
        for n in range(1, n_final):
            steps = np.repeat([schedule.beta(n), schedule.gamma(n)], 2)
            x = x + ((x - x_star) @ q_t + draws[n - 1]) * steps
            path.append(x[0].copy())
        path = np.array(path)
        np.testing.assert_array_equal(trace.theta, path[:, :2])
        np.testing.assert_array_equal(trace.mu, path[:, 2:])

    @pytest.mark.parametrize("name", ["linear-2x2", "quadratic-2x2"])
    def test_matches_split_block_recursion(self, name, schedule):
        # the split (theta, mu) recursion with four block products and the
        # residual as two einsums: the stacked kernel sums the same terms in
        # another order, so the two agree to rounding
        p = library_problem(name)
        n_final = 300
        trace = run(p, schedule, n_final, seed=9, checkpoints=np.arange(1, n_final + 1))

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
            theta = theta + schedule.beta(n) * x
            mu = mu + schedule.gamma(n) * y
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
            run(linear_problem, schedule, 10, seed=0, algorithm="sgd")


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

    @pytest.mark.parametrize("d, dp", [(1, 1), (2, 2), (3, 3), (4, 1)])
    def test_run_equals_replication_zero(self, d, dp, schedule):
        p = random_problem(d, dp, seed=10 * d + dp)
        trace = run(p, schedule, 700, seed=21, track_decomposition=True)
        batch = simulate_batch(p, schedule, 700, base_seed=21, replications=4,
                               track_decomposition=True)
        assert_same_paths(trace, batch.replication(0))
        for key, val in trace.decomposition.items():
            np.testing.assert_array_equal(val, batch.decomposition[key][:, 0])

    def test_replication_unchanged_as_the_batch_grows(self, quadratic_problem, schedule):
        small = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=3)
        large = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=5)
        for r in range(3):
            assert_same_paths(small.replication(r), large.replication(r))


class TestPerStepApi:
    @pytest.mark.parametrize("name", ["linear-2x2", "quadratic-2x2"])
    def test_chained_steps_equal_run(self, name, schedule):
        # step and decompose_step advance the same stacked state as the batch
        # path, on the same two-row shapes and noise, so the paths agree bit
        # for bit; the norms are taken over differently shaped arrays and
        # agree to rounding
        p = library_problem(name)
        n_final = 600
        trace = run(p, schedule, n_final, seed=9, track_decomposition=True,
                    checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.draw(replication_rng(9, 0), (n_final - 1,))
        state, dstate = initial_state(p, schedule), initial_decomposition(p)
        paths = {key: [] for key in ("theta", "mu", "theta_bar", "mu_bar")}
        norms = {key: [] for key in DECOMP_KEYS}

        def record():
            for key, path in paths.items():
                path.append(getattr(state, key).copy())
            errors = {"fast": state.theta - p.theta_star, "slow": state.mu - p.mu_star}
            for part, err in errors.items():
                mart = getattr(dstate, "martingale_" + part)
                coup = getattr(dstate, "coupling_" + part)
                norms["martingale_" + part].append(np.linalg.norm(mart))
                norms["coupling_" + part].append(np.linalg.norm(coup))
                norms["remainder_" + part].append(np.linalg.norm(err - mart - coup))

        record()
        for xi in draws:
            v, w = xi[: p.d], xi[p.d :]
            new = step(p, schedule, state, (v, w))
            dstate = decompose_step(p, schedule, dstate, (v, w), new.mu - state.mu)
            state = new
            record()
        assert state.n == dstate.n == n_final
        for key, path in paths.items():
            np.testing.assert_array_equal(np.array(path), getattr(trace, key))
        for key, got in norms.items():
            np.testing.assert_allclose(got, trace.decomposition[key], rtol=1e-14, atol=0)

    def test_kernel_pieces_are_built_once_per_problem(self, schedule, monkeypatch):
        # per-step callers must not pay for an inversion or H on every call
        p = library_problem("linear-2x2")
        calls = {"invert": 0, "fast_matrix": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(linalg, "invert", counting("invert", linalg.invert))
        monkeypatch.setattr(
            ProblemSpec, "fast_matrix", counting("fast_matrix", ProblemSpec.fast_matrix)
        )
        state, dstate = initial_state(p, schedule), initial_decomposition(p)
        counts = []
        for _ in range(2):
            new = step(p, schedule, state, zero_noise(p))
            dstate = decompose_step(p, schedule, dstate, zero_noise(p), new.mu - state.mu)
            state = new
            counts.append(dict(calls))
        assert counts[0]["invert"] > 0 and counts[0]["fast_matrix"] == 1
        assert counts[1] == counts[0]


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
