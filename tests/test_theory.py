import numpy as np
import pytest

from ttsa import (
    NoiseModel,
    ProblemSpec,
    StepSchedule,
    averaged_covariance,
    fast_error_cov,
    matricial_schedule,
    optimal_covariances,
    slow_error_cov,
    theory_report,
)
from ttsa.errors import InfeasibleError
from ttsa.theory import coupling_blocks

from conftest import scalar_spec
from oracles import quadrature_lyapunov


def make_schedule(b, beta0=1.0):
    return StepSchedule(beta0=beta0, b=b, gamma0=1.0, a=0.6)


class TestFastErrorCov:
    def test_scalar_below_one(self):
        # h = 1, effective fast noise 2, no shift for b < 1: 2/(2*1) = 1
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        out = fast_error_cov(p, make_schedule(0.8))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_b_one_shifted(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        beta0 = 0.8
        out = fast_error_cov(p, make_schedule(1.0, beta0=beta0))
        assert out[0, 0] == pytest.approx(2.0 / (2.0 - 1.0 / beta0), rel=1e-12)

    def test_b_one_infeasible_names_condition(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)  # Lambda(H) = 1, needs beta0 > 0.5
        with pytest.raises(InfeasibleError, match="A3"):
            fast_error_cov(p, make_schedule(1.0, beta0=0.5))

    def test_beta0_independent_below_one(self, linear_problem):
        a = fast_error_cov(linear_problem, make_schedule(0.8, beta0=0.1))
        b = fast_error_cov(linear_problem, make_schedule(0.8, beta0=50.0))
        np.testing.assert_array_equal(a, b)

    def test_matches_quadrature(self, linear_problem):
        from ttsa.linalg import stability_gap

        h = linear_problem.fast_matrix()
        got = fast_error_cov(linear_problem, make_schedule(0.8))
        oracle = quadrature_lyapunov(
            h, linear_problem.fast_noise_cov(), gap=stability_gap(h)
        )
        assert np.linalg.norm(got - oracle, "fro") <= 1e-6

    def test_shift_vanishes_for_large_beta0(self):
        # scalar instances: Sigma(b=1, beta0) decreases to Sigma(b<1) as beta0 grows
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        limit = fast_error_cov(p, make_schedule(0.8))[0, 0]
        gaps = [
            fast_error_cov(p, make_schedule(1.0, beta0=beta0))[0, 0] - limit
            for beta0 in (2.0, 20.0, 200.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestSlowErrorCov:
    def test_scalar_closed_form(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.5, gamma=np.diag([1.0, 0.9]))
        assert slow_error_cov(p)[0, 0] == pytest.approx(0.9 / 3.0, abs=1e-14)

    def test_zero_noise_gives_zero(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0, gamma=np.diag([1.0, 0.0]))
        assert slow_error_cov(p)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_quadrature(self, linear_problem):
        from ttsa.linalg import stability_gap

        got = slow_error_cov(linear_problem)
        oracle = quadrature_lyapunov(
            linear_problem.q22,
            linear_problem.noise_block(1, 1),
            gap=stability_gap(linear_problem.q22),
        )
        assert np.linalg.norm(got - oracle, "fro") <= 1e-6

    def test_unstable_q22_rejected(self):
        p = scalar_spec(-2.0, 0.0, 0.0, 0.5)
        with pytest.raises(InfeasibleError):
            slow_error_cov(p)


class TestOptimalCovariances:
    def test_scalar(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        fast, slow = optimal_covariances(p)
        assert fast[0, 0] == pytest.approx(2.0 / 1.0, abs=1e-12)  # Gf / h^2 = 2/1
        assert slow[0, 0] == pytest.approx(1.25 / 0.25, abs=1e-12)  # Gs / g^2

    def test_negated_identity_returns_noise_cov(self):
        rng = np.random.default_rng(4)
        g22 = np.eye(2)
        s = rng.normal(size=(2, 2))
        gamma = np.block([[s @ s.T + np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), g22]])
        p = ProblemSpec(
            q11=-np.eye(2), q12=np.zeros((2, 2)), q21=np.zeros((2, 2)), q22=-np.eye(2),
            theta_star=[0, 0], mu_star=[0, 0], noise=NoiseModel(cov=gamma),
        )
        fast, _ = optimal_covariances(p)
        np.testing.assert_allclose(fast, gamma[:2, :2], atol=1e-12)

    def test_gain_lyapunov_consistency(self, linear_problem):
        # with the optimal gain, the gain-shaped Lyapunov equation returns the
        # same matrix as the closed form
        from ttsa.linalg import invert

        h_inv = invert(linear_problem.fast_matrix())
        via_lyapunov = fast_error_cov(linear_problem, matricial_schedule(0.6), -h_inv)
        closed_form, _ = optimal_covariances(linear_problem)
        assert np.linalg.norm(via_lyapunov - closed_form, "fro") <= 1e-10


class TestAveragedCovariance:
    def test_decoupled_scalar(self):
        p = scalar_spec(-2.0, 0.0, 0.0, -4.0, gamma=np.diag([3.0, 8.0]))
        out = averaged_covariance(p)
        np.testing.assert_allclose(out, np.diag([3.0 / 4.0, 8.0 / 16.0]), atol=1e-12)

    def test_zero_noise(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0, gamma=np.zeros((2, 2)))
        np.testing.assert_allclose(averaged_covariance(p), np.zeros((2, 2)), atol=1e-15)

    def test_diagonal_blocks_equal_optimal(self, linear_problem, quadratic_problem):
        for p in (linear_problem, quadratic_problem):
            out = averaged_covariance(p)
            fast, slow = optimal_covariances(p)
            np.testing.assert_allclose(out[: p.d, : p.d], fast, atol=1e-12)
            np.testing.assert_allclose(out[p.d :, p.d :], slow, atol=1e-12)

    def test_swap_symmetry(self, linear_problem):
        # exchanging the roles of the two components permutes the covariance
        p = linear_problem
        perm = np.zeros((4, 4))
        perm[:2, 2:] = np.eye(2)
        perm[2:, :2] = np.eye(2)
        swapped = ProblemSpec(
            q11=p.q22, q12=p.q21, q21=p.q12, q22=p.q11,
            theta_star=p.mu_star, mu_star=p.theta_star,
            noise=NoiseModel(cov=perm @ p.noise.cov @ perm.T),
        )
        np.testing.assert_allclose(
            averaged_covariance(swapped),
            perm @ averaged_covariance(p) @ perm.T,
            atol=1e-12,
        )

    def test_block_matrices_shapes(self, linear_problem):
        dmat, pmat = coupling_blocks(linear_problem)
        assert dmat.shape == (4, 4)
        np.testing.assert_array_equal(pmat[np.diag_indices(4)], np.ones(4))


class TestTheoryReport:
    def test_all_covariances_symmetric_psd(self, linear_problem, schedule):
        report = theory_report(linear_problem, schedule)
        for mat in (
            report.fast_cov,
            report.slow_cov,
            report.optimal_fast_cov,
            report.optimal_slow_cov,
            report.averaged_cov,
        ):
            assert np.linalg.norm(mat - mat.T, "fro") <= 1e-12
            assert np.linalg.eigvalsh(mat).min() >= -1e-10

    def test_lyapunov_residuals(self, linear_problem, schedule):
        report = theory_report(linear_problem, schedule)
        h = report.fast_matrix
        res_fast = h @ report.fast_cov + report.fast_cov @ h.T + report.fast_noise_cov
        assert np.linalg.norm(res_fast, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(report.fast_noise_cov, "fro")
        )
        q22 = linear_problem.q22
        g22 = linear_problem.noise_block(1, 1)
        res_slow = q22 @ report.slow_cov + report.slow_cov @ q22.T + g22
        assert np.linalg.norm(res_slow, "fro") <= 1e-10 * max(1.0, np.linalg.norm(g22, "fro"))

    def test_round_trips_to_dict(self, linear_problem, schedule):
        report = theory_report(linear_problem, schedule)
        d = report.as_dict()
        np.testing.assert_allclose(np.array(d["averaged_cov"]), report.averaged_cov)
