import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ttsa import (
    BiasModel,
    GainMatrices,
    NoiseModel,
    NonlinearResidual,
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
from ttsa import engine, linalg
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

    def test_gains_are_checked_once_per_value(self, monkeypatch):
        # chained steps with equal gains check them once; different or
        # mutated gains are checked again
        p = library_problem("linear-2x2")
        calls = []
        check = engine.validate_gains
        monkeypatch.setattr(engine, "validate_gains",
                            lambda *args: calls.append(1) or check(*args))
        s, gains = matricial_schedule(0.6), optimal_gains(p)
        state = initial_state(p)
        for _ in range(5):
            state = step(p, s, state, zero_noise(p), gains=gains)
        assert len(calls) == 1
        same = GainMatrices(fast=gains.fast.copy(), slow=gains.slow.copy())
        state = step(p, s, state, zero_noise(p), gains=same)
        assert len(calls) == 1
        other = GainMatrices(fast=np.eye(2), slow=np.eye(2))
        state = step(p, s, state, zero_noise(p), gains=other)
        assert len(calls) == 2
        gains.fast[...] = -np.eye(2)
        with pytest.raises(ConfigError, match="fast gain does not stabilize"):
            step(p, s, state, zero_noise(p), gains=gains)
        assert len(calls) == 3

    def test_each_gains_value_keeps_its_kernel(self, monkeypatch):
        # one kernel per gains value: alternating values are checked once
        # each, and equal values share a kernel
        p = library_problem("linear-2x2")
        calls = []
        check = engine.validate_gains
        monkeypatch.setattr(engine, "validate_gains",
                            lambda *args: calls.append(1) or check(*args))
        s, gains = matricial_schedule(0.6), optimal_gains(p)
        other = GainMatrices(fast=np.eye(2), slow=np.eye(2))
        state = initial_state(p)
        for g in (gains, other, gains):
            state = step(p, s, state, zero_noise(p), gains=g)
        assert len(calls) == 2
        same = GainMatrices(fast=gains.fast.copy(), slow=gains.slow.copy())
        assert engine._kernel(p, same) is engine._kernel(p, gains)
        assert engine._kernel(p, other) is not engine._kernel(p, gains)
        assert engine._kernel(p).gainT is None
        assert len(calls) == 2


@pytest.mark.bitwise
class TestGainMap:
    """The steps and the gain multiply the whole observation: the noise, the
    residual and the bias each enter a step as gain(v S) = (v S) G^T."""

    @staticmethod
    def by_hand(p, schedule, state, xi, gT):
        """One step of ``state`` by hand, on the four rows the step loop
        advances: z A + gain(xi S) + gain(rho S) + gain(r S), added in the
        loop's order."""
        n, z = state.n, np.tile(state.z, (4, 1))
        s = np.repeat([schedule.beta(n), schedule.gamma(n)], [p.d, p.d_prime])
        q = np.block([[p.q11, p.q12], [p.q21, p.q22]])
        a = q.T.copy() @ gT * s + np.eye(p.dim)

        def gain(v):  # a row, tiled to a block of four rows
            return np.tile(v, (4, 1)).dot(gT)

        rho = p.residual.evaluate(z)
        return (z.dot(a) + gain(xi * s) + (rho * s).dot(gT) + gain(p.bias.values(n) * s))[0]

    def test_a_matricial_step_maps_each_term(self):
        # each step of a chained path from a far start; a term's rounding
        # shows in the sum only on some steps, so one step would not tell
        p = replace(library_problem("quadratic-2x2"), bias=BiasModel(
            kind="power_decay", coeff_fast=[0.5, -0.3], coeff_slow=[0.2, 0.4], rho=0.8))
        s, gains = matricial_schedule(0.6), optimal_gains(p)
        gT = np.block([[gains.fast, np.zeros((2, 2))], [np.zeros((2, 2)), gains.slow]]).T.copy()
        state = initial_state(p, theta0=[2.0, -1.5], mu0=[1.8, 1.0])
        for xi in np.random.default_rng(3).normal(size=(40, 4)):
            new = step(p, s, state, (xi[:2], xi[2:]), gains=gains)
            np.testing.assert_array_equal(new.z, self.by_hand(p, s, state, xi, gT))
            state = new

    @pytest.mark.parametrize("name", ["quadratic-2x2", "1+2", "9+9"])
    def test_without_gains_the_residual_term_is_rho_times_the_steps(self, name, schedule):
        # the loop multiplies rho by the steps as rows of four states, so at
        # 1+2 a row of that multiply is 12 entries, four states of odd dim 3
        p = residual_problem(name)
        state = replace(initial_state(p), n=7)
        new = step(p, schedule, state, zero_noise(p))
        z = np.tile(state.z, (4, 1))
        s = np.repeat([schedule.beta(7), schedule.gamma(7)], [p.d, p.d_prime])
        a = np.block([[p.q11, p.q12], [p.q21, p.q22]]).T * s + np.eye(p.dim)
        rho = p.residual.evaluate(z)
        np.testing.assert_array_equal(new.z, (z.dot(a) + rho * s)[0])
        # and rho diag(S): each entry of that product has one nonzero term
        np.testing.assert_array_equal(rho * s, rho.dot(np.diag(s)))
        assert engine._kernel(p).gain(rho) is rho

    @pytest.mark.parametrize("matricial", [False, True])
    def test_an_array_the_residual_returns_is_not_modified(self, linear_problem, schedule,
                                                           matricial):
        returned = []

        def fn(z):
            rho = 0.01 * z
            returned.append((rho, rho.copy()))
            return rho

        p = replace(linear_problem, residual=NonlinearResidual(kind="custom", custom_fn=fn))
        s, gains = (matricial_schedule(0.6), optimal_gains(p)) if matricial else (schedule, None)
        simulate_batch(p, s, 20, base_seed=1, replications=3, gains=gains)
        assert len(returned) == 19
        for rho, copy in returned:
            np.testing.assert_array_equal(rho, copy)


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

    @pytest.mark.parametrize(
        "part", ["martingale_fast", "martingale_slow", "coupling_fast", "coupling_slow"]
    )
    def test_untracked_state_names_how_to_track(self, linear_problem, schedule, part):
        p = linear_problem
        for state in (initial_state(p), step(p, schedule, initial_state(p), zero_noise(p))):
            with pytest.raises(ConfigError, match=r"untracked.*track_decomposition=True"):
                getattr(state, part)

    def test_untracked_trace_names_how_to_track(self, linear_problem, schedule):
        trace = run(linear_problem, schedule, 20, seed=1)
        assert trace.parts is None and trace.decomposition is None
        with pytest.raises(ConfigError, match=r"untracked.*track_decomposition=True"):
            trace.martingale_fast

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
            draws = p.noise.apply_factor(p.noise.draw(rng, ()))
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
        # u_n = xi_{n+1} S_n, on a four-row state, bit-comparable given the
        # identical noise stream: the same products on the same shapes keep
        # the arithmetic identical to the engine's, so the comparison is
        # exact rather than within BLAS rounding
        p = linear_problem
        n_final = 300
        trace = run(p, schedule, n_final, seed=9, checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.apply_factor(p.noise.draw(replication_rng(9, 0), (n_final - 1,)))
        q_t = np.block([[p.q11, p.q12], [p.q21, p.q22]]).T.copy()
        x_star = np.concatenate([p.theta_star, p.mu_star])
        z = np.tile(x_star + np.ones(4) / math.sqrt(2) - x_star, (4, 1))
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

        draws = p.noise.apply_factor(p.noise.draw(replication_rng(9, 0), (n_final - 1,)))
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
        draws = p.noise.apply_factor(p.noise.draw(replication_rng(13, 0), (n_final - 1,)))
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

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_a_chunk_below_one_is_rejected(self, linear_problem, schedule, chunk):
        # chunk 0 would never advance, and a negative one failed inside numpy
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            simulate_batch(linear_problem, schedule, 10, base_seed=0, replications=2,
                           chunk=chunk)

    def test_unknown_algorithm_rejected(self, linear_problem, schedule):
        with pytest.raises(ConfigError):
            resolve_algorithm(linear_problem, schedule, "sgd")

    def test_averaged_requires_averaging_regime(self, linear_problem, schedule):
        # the assumption (A'3), checked where every command resolves its algorithm
        assert schedule.regime == "plain"
        with pytest.raises(ConfigError, match="averaging regime"):
            resolve_algorithm(linear_problem, schedule, "averaged")

    def test_averaged_requires_b_below_one(self, linear_problem):
        # the averaging label alone does not make the regime: A'3 needs b < 1
        b_one = StepSchedule(beta0=2.0, b=1.0, gamma0=1.0, a=0.6, regime="averaging")
        with pytest.raises(ConfigError, match="averaging regime"):
            resolve_algorithm(linear_problem, b_one, "averaged")
        below = replace(b_one, b=0.9)
        assert resolve_algorithm(linear_problem, below, "averaged").schedule == below


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

    @pytest.mark.parametrize("per_decade", [0, -3, 2.5])
    def test_per_decade_must_be_an_integer_of_at_least_one(self, per_decade):
        with pytest.raises(ValueError, match="per_decade must be an integer >= 1"):
            checkpoint_indices(1000, per_decade)

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

    @pytest.mark.parametrize("checkpoints, message", [
        ([1.5, 3.9, 10], "integral"),  # once truncated to [1, 3, 10]
        ([1, 5, 3, 10], "increasing"),
        ([0, 5, 10], "increasing"),
        ([1, 5, 9], "end at n_final"),
    ])
    def test_simulate_batch_rejects_bad_checkpoints(self, linear_problem, schedule,
                                                     checkpoints, message):
        with pytest.raises(ValueError, match=message):
            simulate_batch(linear_problem, schedule, 10, base_seed=0, replications=2,
                           checkpoints=checkpoints)

    def test_simulate_batch_takes_integral_floats(self, linear_problem, schedule):
        def ns(checkpoints):
            return simulate_batch(linear_problem, schedule, 10, base_seed=0, replications=2,
                                  checkpoints=checkpoints).ns.tolist()

        assert ns([2.0, 5.0, 10.0]) == ns([2, 5, 10]) == [2, 5, 10]

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

    @pytest.mark.parametrize("replications", [1, 64, 130])
    def test_innovations_are_each_draw_scaled_by_the_steps(self, replications):
        # each replication's unit draws, factored on their own, then scaled:
        # 130 replications fill two scratch groups of 64 and a tail of 2; the
        # rows past the last replication, up to a multiple of 4, repeat the first
        p = random_problem(12, 12, seed=3)
        rng = np.random.default_rng(5)
        draws = rng.standard_normal((replications, 7, p.dim))
        s = rng.uniform(0.1, 1.0, (7, p.dim))
        rows = replications + -replications % 4
        block = _Kernel(p).innovations(np.full((8, rows, p.dim), np.nan),
                                       lambda r, out: np.copyto(out, draws[r]), replications, s)
        assert np.isnan(block[0]).all()  # row 0 is left for the starting state
        expected = np.array([p.noise.apply_factor(e) * s for e in draws]).transpose(1, 0, 2)
        np.testing.assert_array_equal(block[1:, :replications], expected)
        np.testing.assert_array_equal(block[1:, replications:], expected[:, :1].repeat(
            rows - replications, axis=1))


def random_problem(d, dp, seed):
    rng = np.random.default_rng(seed)
    q = 0.3 * rng.normal(size=(d + dp, d + dp)) - np.eye(d + dp)
    return ProblemSpec(
        q11=q[:d, :d], q12=q[:d, d:], q21=q[d:, :d], q22=q[d:, d:],
        theta_star=rng.normal(size=d), mu_star=rng.normal(size=dp),
        noise=NoiseModel(cov=random_psd(rng, d + dp) + 0.1 * np.eye(d + dp)),
    )


def with_quadratic_residual(p):
    """``p`` with a small random quadratic_form residual."""
    coeff = 0.05 * np.random.default_rng(6).normal(size=(p.dim,) * 3)
    return replace(p, residual=NonlinearResidual(kind="quadratic_form", coeff_fast=coeff[: p.d],
                                                 coeff_slow=coeff[p.d :]))


def residual_problem(name):
    """quadratic-2x2, or "d+d'" as ``with_quadratic_residual(random_problem(d, d', 3))``."""
    if name == "quadratic-2x2":
        return library_problem(name)
    d, dp = map(int, name.split("+"))
    return with_quadratic_residual(random_problem(d, dp, seed=3))


def assert_same_paths(a, b):
    for name in ("theta", "mu", "theta_bar", "mu_bar"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.bitwise
class TestDeterminismContracts:
    def test_chunk_size_does_not_change_the_trace(self, linear_problem, schedule):
        # 3585 steps leave a last chunk of one step at chunk sizes 7, 256 and
        # 512; the decomposition tables are built per chunk, so they are
        # covered too
        n_final = 3586
        traces = [
            simulate_batch(linear_problem, schedule, n_final, base_seed=4, replications=3,
                           chunk=chunk, checkpoints=np.arange(1, n_final + 1),
                           track_decomposition=True)
            for chunk in (1, 7, 256, 512)
        ]
        for other in traces[1:]:
            assert_same_paths(traces[0], other)
            for key in DECOMP_KEYS:
                np.testing.assert_array_equal(
                    traces[0].decomposition[key], other.decomposition[key]
                )

    def test_chunk_size_does_not_change_a_matricial_biased_trace(self, linear_problem):
        # the gain product of each scratch group and the per-chunk bias rows
        # must not depend on where a chunk starts or how long it is; at 65
        # replications the last group is one replication, whose product at
        # chunk 1 has one row
        p = replace(linear_problem, bias=BiasModel(
            kind="power_decay", coeff_fast=[0.5, -0.3], coeff_slow=[0.2, 0.4], rho=0.9))
        s = matricial_schedule(0.6)
        n_final = 1030
        traces = [
            simulate_batch(p, s, n_final, base_seed=4, replications=65, chunk=chunk,
                           gains=optimal_gains(p), checkpoints=np.arange(1, n_final + 1))
            for chunk in (1, 7, 256, 512)
        ]
        for other in traces[1:]:
            assert_same_paths(traces[0], other)

    @pytest.mark.parametrize("d, dp", [(1, 1), (2, 2), (3, 3), (4, 1), (9, 9), (12, 12),
                                       (13, 12)])
    def test_run_equals_replication_zero(self, d, dp, schedule):
        # run takes four rows; batches of 2, 5, 64 and 70 take 4, 8, 64 and 72.
        # random_problem(13, 12, 142) diverges within 700 steps
        p = random_problem(d, dp, seed=3 if (d, dp) == (13, 12) else 10 * d + dp)
        trace = run(p, schedule, 700, seed=21, track_decomposition=True)
        for replications in (2, 5, 64, 70):
            batch = simulate_batch(p, schedule, 700, base_seed=21, replications=replications,
                                   track_decomposition=True)
            assert_same_paths(trace, batch.replication(0))
            for key, val in trace.decomposition.items():
                np.testing.assert_array_equal(val, batch.decomposition[key][:, 0])

    @pytest.mark.parametrize("kind", ["quadratic_form", "matricial", "matricial_residual_bias"])
    def test_run_equals_replication_zero_at_9_plus_9(self, kind, schedule):
        # the residual's selection and coefficient products and every product
        # of the gain map: of each scratch group, of the bias rows and of the
        # residual's term on each step; optimal_gains does not stabilize this
        # problem, but (-H^-1, -Q22^-1) does
        p, gains = random_problem(9, 9, seed=3), None
        if kind != "quadratic_form":
            schedule = matricial_schedule(0.6)
            gains = GainMatrices(fast=-invert(p.fast_matrix()), slow=-invert(p.q22))
        if kind != "matricial":
            p = with_quadratic_residual(p)
        if kind == "matricial_residual_bias":
            p = replace(p, bias=BiasModel(kind="power_decay", coeff_fast=np.full(9, 0.5),
                                          coeff_slow=np.full(9, -0.5), rho=0.8))
        every = np.arange(1, 301)
        trace = run(p, schedule, 300, seed=21, gains=gains, checkpoints=every)
        for replications, chunk in ((2, 256), (5, 256), (64, 256), (70, 256), (5, 1), (5, 7)):
            batch = simulate_batch(p, schedule, 300, base_seed=21, replications=replications,
                                   gains=gains, chunk=chunk, checkpoints=every)
            assert_same_paths(trace, batch.replication(0))

    @pytest.mark.parametrize("name", ["quadratic-2x2", "1+2", "9+9"])
    def test_each_residual_row_is_its_own_alone_and_in_any_batch(self, name):
        # every product of the residual goes through rows_dot, so a row of rho
        # has the same bits evaluated alone and in a batch of any size, at any
        # position. One row in 97 lies outside the clamp radius, so some
        # batches take the masked path and others the all-inside one
        residual = residual_problem(name).residual
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2000, residual.coeff_fast.shape[1]))
        z *= 0.5 * residual.clamp_radius / np.linalg.norm(z, axis=1, keepdims=True)
        z[::97] *= 3.0
        alone = np.array([residual.evaluate(row[None])[0] for row in z])
        for size in (*range(1, 10), 63, 64, 65, 2000):
            batches = [residual.evaluate(z[lo : lo + size]) for lo in range(0, len(z), size)]
            np.testing.assert_array_equal(np.concatenate(batches), alone, err_msg=f"{size}")
        assert np.all(alone[::97] == 0.0) and np.all(np.delete(alone, np.s_[::97], 0) != 0.0)

    @pytest.mark.parametrize("name", ["quadratic-2x2", "1+2", "9+9"])
    def test_a_nan_row_leaves_the_clamp_of_the_others(self, name):
        # a NaN fails the all-inside test, so the batch takes the masked path:
        # the row outside the radius gives exactly 0, the rows inside their
        # own bits, and the NaN row whatever it gives, which the engine discards
        residual = residual_problem(name).residual
        z = np.random.default_rng(6).normal(size=(6, residual.coeff_fast.shape[1]))
        z *= 0.5 * residual.clamp_radius / np.linalg.norm(z, axis=1, keepdims=True)
        z[1] *= 3.0
        z[4, 0] = np.nan
        rho = residual.evaluate(z)
        np.testing.assert_array_equal(rho[1], 0.0)
        for r in (0, 2, 3, 5):
            np.testing.assert_array_equal(rho[r], residual.evaluate(z[r : r + 1])[0])
            assert np.all(rho[r] != 0.0)

    @pytest.mark.parametrize("d, dp", [(9, 9), (13, 12), (20, 20)])
    def test_chunk_size_does_not_change_the_trace_at_any_dimension(self, d, dp, schedule):
        # 299 steps leave a last chunk of 5 steps at chunk 7 and of 43 at 256
        p = random_problem(d, dp, seed=3)
        traces = [
            simulate_batch(p, schedule, 300, base_seed=3, replications=3, chunk=chunk,
                           checkpoints=np.arange(1, 301), track_decomposition=True)
            for chunk in (1, 7, 256)
        ]
        for other in traces[1:]:
            assert_same_paths(traces[0], other)
            for key in DECOMP_KEYS:
                np.testing.assert_array_equal(
                    traces[0].decomposition[key], other.decomposition[key]
                )

    @pytest.mark.parametrize("d, track, residual", [(9, True, False), (18, False, False),
                                                    (9, False, True)])
    def test_a_batch_above_the_slab_bound_keeps_each_replication(self, d, track, residual,
                                                                 schedule):
        # 800 rows pass rows x m.size = 10^6 in the decomposition's 36-wide
        # products at 9+9, in the step product at 18+18 and in the residual's
        # (18, 171) selection and (171, 18) coefficient products at 9+9, so
        # linalg.rows_dot splits them into slabs; a batch of 5 takes one
        # product of 8 rows
        p = random_problem(d, d, seed=3)
        p = with_quadratic_residual(p) if residual else p
        small, large = (
            simulate_batch(p, schedule, 40, base_seed=7, replications=replications,
                           checkpoints=np.arange(1, 41), track_decomposition=track)
            for replications in (5, 800)
        )
        for r in range(5):
            assert_same_paths(small.replication(r), large.replication(r))
            for key in DECOMP_KEYS if track else ():
                np.testing.assert_array_equal(small.decomposition[key][:, r],
                                              large.decomposition[key][:, r])

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

    def test_running_sum_between_sparse_checkpoints_is_chunk_independent(
        self, linear_problem, schedule
    ):
        # between checkpoints the sum adds whole stretches of states at once;
        # at chunk 1 every stretch is one step, the step-by-step order
        traces = [
            simulate_batch(linear_problem, schedule, 1000, base_seed=4, replications=3,
                           chunk=chunk)
            for chunk in (1, 7, 100, 256, 512)
        ]
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0].x_bar, other.x_bar)

    def test_replication_unchanged_as_the_batch_grows(self, quadratic_problem, schedule):
        small = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=3)
        large = simulate_batch(quadratic_problem, schedule, 700, base_seed=5, replications=5)
        for r in range(3):
            assert_same_paths(small.replication(r), large.replication(r))

    @pytest.mark.parametrize("matricial", [False, True])
    def test_replications_at_the_group_edges_do_not_depend_on_the_batch(
        self, linear_problem, schedule, matricial
    ):
        # the innovations are built in scratch groups of 64 replications:
        # 63 ends the first, 64 starts the second, alone in a batch of 65, and
        # 129 ends the last group of a batch of 130. 288 steps at chunk 7
        # leave a last chunk of one step. No smaller batch holds replication
        # 129, so chained ``step`` calls on its stream are its reference
        p, n_final, seed = linear_problem, 289, 6
        s, gains = (matricial_schedule(0.6), optimal_gains(p)) if matricial else (schedule, None)

        def batch(replications):
            return simulate_batch(p, s, n_final, base_seed=seed, replications=replications,
                                  chunk=7, gains=gains, checkpoints=np.arange(1, n_final + 1))

        large = batch(130)
        for r, replications in ((63, 64), (63, 65), (64, 65)):
            assert_same_paths(large.replication(r), batch(replications).replication(r))
        state = initial_state(p)
        x = [state.x]
        for xi in p.noise.apply_factor(p.noise.draw(replication_rng(seed, 129), (n_final - 1,))):
            state = step(p, s, state, (xi[: p.d], xi[p.d :]), gains=gains)
            x.append(state.x)
        np.testing.assert_array_equal(large.replication(129).x, np.array(x))

    @pytest.mark.parametrize("distribution", ["gaussian", "bounded_uniform"])
    @pytest.mark.parametrize("size", [(), (1,), (2,), (256,), (3, 5)])
    def test_a_draw_into_a_buffer_is_the_draw(self, linear_problem, distribution, size):
        # the engine draws each replication into a slot of its scratch group;
        # the bits must be those of a fresh draw, one-row draws included
        noise = replace(linear_problem.noise, distribution=distribution)
        scratch = np.full((3, *size, linear_problem.dim), np.nan)
        buf = scratch[1]
        assert noise.draw(replication_rng(8, 0), size, out=buf) is buf
        np.testing.assert_array_equal(buf, noise.draw(replication_rng(8, 0), size))
        assert np.isnan(scratch[[0, 2]]).all()
        # a buffer that is not C-ordered takes the same bits
        strided = np.full((*size, 2, linear_problem.dim), np.nan)[..., 0, :]
        assert noise.draw(replication_rng(8, 0), size, out=strided) is strided
        np.testing.assert_array_equal(strided, buf)

    @pytest.mark.parametrize("matricial", [False, True])
    @pytest.mark.parametrize("distribution", ["gaussian", "bounded_uniform"])
    def test_group_factored_batches_equal_per_replication_steps(
        self, linear_problem, schedule, distribution, matricial
    ):
        # the engine factors the unit draws of a whole scratch group of 64
        # replications in one product; each replication must still be its own
        # draws, factored alone, chained through ``step``. The batch sizes
        # end, start and straddle the groups, and the chunks take the draws
        # one step, seven steps and all steps at a time
        p = replace(linear_problem, noise=replace(linear_problem.noise, distribution=distribution))
        s, gains = (matricial_schedule(0.6), optimal_gains(p)) if matricial else (schedule, None)
        n_final, seed, factor = 30, 4, p.noise.factor()
        x, x_bar = [], []
        for r in range(130):
            e = p.noise.draw(replication_rng(seed, r), (n_final - 1,))
            xi = p.noise.apply_factor(e)
            np.testing.assert_allclose(xi, e @ factor.T, rtol=0, atol=1e-14)  # e F^T
            state = initial_state(p)
            path = [state]
            for row in xi:
                path.append(state := step(p, s, state, (row[: p.d], row[p.d :]), gains=gains))
            x.append([st.x for st in path])
            x_bar.append([np.concatenate([st.theta_bar, st.mu_bar]) for st in path])
        x, x_bar = np.array(x).transpose(1, 0, 2), np.array(x_bar).transpose(1, 0, 2)
        for replications in (1, 63, 64, 65, 129, 130):
            for chunk in (1, 7, 256):
                batch = simulate_batch(p, s, n_final, base_seed=seed, replications=replications,
                                       chunk=chunk, gains=gains,
                                       checkpoints=np.arange(1, n_final + 1))
                np.testing.assert_array_equal(batch.x, x[:, :replications])
                np.testing.assert_array_equal(batch.x_bar, x_bar[:, :replications])


class TestPerStepApi:
    @pytest.mark.bitwise
    @pytest.mark.parametrize("name", ["linear-2x2", "quadratic-2x2"])
    def test_chained_steps_equal_run(self, name, schedule):
        # step advances a tracked state through the batch's step loop, on
        # the same four-row shapes and noise, so the paths agree bit for bit,
        # the errors z and z_bar and the (martingale, coupling) parts the trace
        # stores included, and so do the views state and trace share; the
        # norms are taken over differently shaped arrays and agree to rounding
        p = library_problem(name)
        n_final = 600
        trace = run(p, schedule, n_final, seed=9, track_decomposition=True,
                    checkpoints=np.arange(1, n_final + 1))

        draws = p.noise.apply_factor(p.noise.draw(replication_rng(9, 0), (n_final - 1,)))
        state = initial_state(p, track_decomposition=True)
        paths = {key: [] for key in ("z", "z_bar", "theta", "mu", "theta_bar", "mu_bar", "parts",
                                     "martingale_fast", "martingale_slow",
                                     "coupling_fast", "coupling_slow")}
        norms = {key: [] for key in DECOMP_KEYS}

        def record():
            for key, path in paths.items():
                path.append(getattr(state, key).copy())
            # the remainder is the error as the state holds it, z - martingale - coupling
            errors = {"fast": state.z[: p.d], "slow": state.z[p.d :]}
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

    @pytest.mark.bitwise
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
        for xi in p.noise.apply_factor(p.noise.draw(replication_rng(9, 0), (n_final - 1,))):
            state = step(p, steps, state, (xi[: p.d], xi[p.d :]), gains=gains)
            x.append(state.x)
            x_bar.append(np.concatenate([state.theta_bar, state.mu_bar]))
        assert state.n == n_final
        np.testing.assert_array_equal(np.array(x), trace.x)
        np.testing.assert_array_equal(np.array(x_bar), trace.x_bar)

    def test_kernel_pieces_are_built_once_per_problem(self, schedule, monkeypatch):
        # per-step callers must not pay for an inversion or H on every call
        p = library_problem("linear-2x2")
        calls = {"invert": 0, "fast_matrix": 0, "mat_exp": 0, "exp_basis": 0}

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
        monkeypatch.setattr(linalg, "exp_basis", counting("exp_basis", linalg.exp_basis))
        # an untracked step builds no decomposition piece
        step(p, schedule, initial_state(p), zero_noise(p))
        assert calls["fast_matrix"] == calls["mat_exp"] == calls["exp_basis"] == 0
        state = initial_state(p, track_decomposition=True)
        counts = []
        for _ in range(2):
            state = step(p, schedule, state, zero_noise(p))
            counts.append({key: calls[key] for key in ("invert", "fast_matrix", "exp_basis")})
        assert counts[0]["invert"] > 0 and counts[0]["fast_matrix"] == 1
        assert counts[0]["exp_basis"] == 2  # H and Q22, kept for every later step
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

    def test_the_exact_path_allocates_one_block(self):
        # a diverged chunk of 256 steps of 2000 replications: the exact guard
        # takes |z + x*| in the one array z + x*, beside two per-row maxima
        kernel = _Kernel(library_problem("linear-2x2"))
        w = np.zeros((257, 2000, 4))
        w[100, 7, 0] = 2e9
        z = w[1:].reshape(-1, 4)
        tracemalloc.start()
        try:
            assert kernel.first_diverged(z) == 99 * 2000 + 7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + 2 * len(z) * z.itemsize + 2**16

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


@pytest.mark.bitwise
class TestDivergenceAcrossChunks:
    # z starts at 0 (the start is the root) and grows by 1 + 20 beta_n per
    # step, so it is linear in the noise scale; sigma puts the first crossing
    # of the guard at a chosen index, and the noise decides which replication
    # crosses first. The root is not 0, so the reported state is x, not z.
    N_FINAL, REPLICATIONS, SEED = 600, 5, 11
    SCHEDULE = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)

    @staticmethod
    def problem(sigma, root=(0.5, -0.25), residual=None):
        kwargs = {} if residual is None else {"residual": residual}
        return ProblemSpec(q11=[[20.0]], q12=[[0.0]], q21=[[0.0]], q22=[[-1.0]],
                           theta_star=[root[0]], mu_star=[root[1]],
                           noise=NoiseModel(cov=sigma**2 * np.eye(2)), **kwargs)

    @classmethod
    def sigma_crossing_at(cls, index):
        """The noise scale whose first crossing of the guard is at ``index``:
        the guard over the geometric mean of the unit-noise path's largest
        |theta| + |mu| at index - 1 and index, a margin of about 6% each way."""
        unit = simulate_batch(cls.problem(1e-100, root=(0.0, 0.0)), cls.SCHEDULE, index,
                              base_seed=cls.SEED, replications=cls.REPLICATIONS,
                              theta0=[0.0], mu0=[0.0], checkpoints=[index - 1, index])
        size = np.abs(unit.theta).max(axis=(1, 2)) + np.abs(unit.mu).max(axis=(1, 2))
        return 1e-100 * DIVERGENCE_GUARD / math.sqrt(size[0] * size[1])

    @classmethod
    def per_step(cls, p):
        """Chained ``step`` calls per replication: the first (index, replication),
        the state before it, and every replication's x at indices 1, 2, ..."""
        first, paths = None, []
        for r in range(cls.REPLICATIONS):
            state, path = initial_state(p, theta0=p.theta_star, mu0=p.mu_star), []
            rng = replication_rng(cls.SEED, r)
            draws = p.noise.apply_factor(p.noise.draw(rng, (cls.N_FINAL - 1,)))
            try:
                for xi in draws:
                    path.append(state.x)
                    state = step(p, cls.SCHEDULE, state, (xi[:1], xi[1:]))
            except DivergenceError as exc:
                if first is None or exc.step < first[0]:
                    first = exc.step, r, state.x
            paths.append(path)
        return first, paths

    @classmethod
    def batch(cls, p, chunk, track=False):
        with pytest.raises(DivergenceError) as err:
            simulate_batch(p, cls.SCHEDULE, cls.N_FINAL, base_seed=cls.SEED,
                           replications=cls.REPLICATIONS, chunk=chunk,
                           theta0=p.theta_star, mu0=p.mu_star,
                           checkpoints=np.arange(1, cls.N_FINAL + 1),
                           track_decomposition=track)
        return err.value

    # 64: a fold index, and the last step of a chunk of 7; 300: inside a
    # chunk of 7 and of 512; 513: the last step of the first chunk of 512.
    # Every index is the last step of a chunk of 1
    @pytest.mark.parametrize("index", [64, 300, 513])
    def test_divergence_is_located_alike_at_any_chunk(self, index):
        p = self.problem(self.sigma_crossing_at(index))
        (step_n, replication, last_state), paths = self.per_step(p)
        assert step_n == index
        errors = [self.batch(p, chunk, track=index == 300) for chunk in (1, 7, 512)]
        for err in errors:
            assert (err.step, err.replication) == (step_n, replication)
            np.testing.assert_array_equal(err.last_state, last_state)
            trace = err.trace
            np.testing.assert_array_equal(trace.ns, np.arange(1, index))
            for r in range(self.REPLICATIONS):
                np.testing.assert_array_equal(trace.x[:, r], paths[r][: index - 1])
            np.testing.assert_array_equal(trace.x_bar, errors[0].trace.x_bar)
            if index == 300:
                for key in DECOMP_KEYS:
                    np.testing.assert_array_equal(trace.decomposition[key],
                                                  errors[0].trace.decomposition[key])

    def test_a_tie_names_the_lowest_replication(self):
        # with near-zero noise every replication follows one path from an
        # offset start, so all of them cross the guard at the same index; a
        # zero theta* keeps the tiny offset representable
        index, unit_offset = 300, 1e-100
        unit = simulate_batch(self.problem(1e-200, root=(0.0, 0.0)), self.SCHEDULE, index,
                              base_seed=self.SEED, replications=1, theta0=[unit_offset],
                              mu0=[0.0], checkpoints=[index - 1, index])
        size = np.abs(unit.theta).max(axis=(1, 2)) + np.abs(unit.mu).max(axis=(1, 2))
        p = self.problem(1e-200, root=(0.0, -0.25))
        theta0 = [unit_offset * DIVERGENCE_GUARD / math.sqrt(size[0] * size[1])]
        for chunk in (1, 7, 256):
            with pytest.raises(DivergenceError) as err:
                simulate_batch(p, self.SCHEDULE, self.N_FINAL, base_seed=self.SEED,
                               replications=self.REPLICATIONS, chunk=chunk,
                               theta0=theta0, mu0=p.mu_star,
                               checkpoints=np.arange(1, self.N_FINAL + 1))
            err = err.value
            assert (err.step, err.replication) == (index, 0)
            x = err.trace.x[-1]
            np.testing.assert_allclose(x, np.broadcast_to(x[0], x.shape), rtol=1e-12)
            np.testing.assert_array_equal(err.last_state, x[0])

    def test_an_earlier_crossing_of_a_later_replication_is_named(self):
        # at index 100 a later replication crosses first and a lower one two
        # steps after it, inside one chunk of 7 and of 256: the guard names
        # the earliest index, and the lowest replication only within it
        p = self.problem(self.sigma_crossing_at(100))
        (step_n, replication, last_state), paths = self.per_step(p)
        crossings = [len(path) + 1 for path in paths]
        assert step_n == 100 and replication > 0
        assert any(step_n < n <= 106 for n in crossings[:replication])
        for chunk in (1, 7, 256):
            err = self.batch(p, chunk)
            assert (err.step, err.replication) == (step_n, replication)
            np.testing.assert_array_equal(err.last_state, last_state)
            np.testing.assert_array_equal(err.trace.ns, np.arange(1, step_n))
            for r in range(self.REPLICATIONS):
                np.testing.assert_array_equal(err.trace.x[:, r], paths[r][: step_n - 1])

    def test_a_residual_problem_is_located_alike_at_any_chunk(self):
        # a custom residual of zeros leaves the path as it is, so the
        # divergence is where the linear problem's is. The guard runs once
        # per chunk, so rho also sees the rows after a divergence; they are
        # discarded with what it returns for them
        sigma = self.sigma_crossing_at(300)
        linear = self.batch(self.problem(sigma), 512)
        p = self.problem(sigma, residual=NonlinearResidual(kind="custom", custom_fn=np.zeros_like))
        for chunk in (1, 7, 512):
            err = self.batch(p, chunk)
            assert (err.step, err.replication) == (linear.step, linear.replication)
            np.testing.assert_array_equal(err.last_state, linear.last_state)

    def test_a_quadratic_residual_is_located_as_chained_steps_locate_it(self):
        # the clamp radius lies below the guard, so within a chunk some rows
        # are outside it before the divergence: the clamp zeroes their rho
        # and multiplies the others by one, and the diverged rows pass
        # through it too
        c = 1e-6
        residual = NonlinearResidual(kind="quadratic_form", coeff_fast=[[[c, 0.0], [0.0, c]]],
                                     coeff_slow=[[[0.0, c], [c, 0.0]]], clamp_radius=1e7)
        p = self.problem(self.sigma_crossing_at(300), residual=residual)
        (step_n, replication, last_state), paths = self.per_step(p)
        assert step_n < 300  # the residual moves the divergence
        for chunk in (1, 7, 512):
            err = self.batch(p, chunk)
            assert (err.step, err.replication) == (step_n, replication)
            np.testing.assert_array_equal(err.last_state, last_state)
            np.testing.assert_array_equal(err.trace.ns, np.arange(1, step_n))
            for r in range(self.REPLICATIONS):
                np.testing.assert_array_equal(err.trace.x[:, r], paths[r][: step_n - 1])
