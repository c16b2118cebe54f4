import itertools
import re

import numpy as np
import pytest

from ttsa import (
    BiasModel,
    GainMatrices,
    NoiseModel,
    NonlinearResidual,
    ProblemSpec,
    StepSchedule,
    matricial_schedule,
    resolve_algorithm,
    theory_report,
    validate_problem,
)
from ttsa import linalg
from ttsa.engine import validate_gains
from ttsa.errors import ConfigError, DimensionError, InfeasibleError, SingularMatrixError
from ttsa.problems import library_problem

from conftest import scalar_spec


class TestDerivedMatrices:
    def test_fast_matrix_zero_coupling(self):
        p = scalar_spec(-2.0, 0.0, 0.0, -1.0)
        assert p.fast_matrix()[0, 0] == -2.0
        assert p.slow_matrix()[0, 0] == -1.0

    def test_fast_matrix_scalar(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        assert p.fast_matrix()[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert p.slow_matrix()[0, 0] == pytest.approx(-0.5, abs=1e-14)

    def test_block_with_negated_identity(self):
        rng = np.random.default_rng(0)
        q11 = rng.normal(size=(2, 2)) - 3 * np.eye(2)
        q12 = rng.normal(size=(2, 2))
        q21 = rng.normal(size=(2, 2))
        noise = NoiseModel(cov=np.eye(4))
        p = ProblemSpec(
            q11=q11, q12=q12, q21=q21, q22=-np.eye(2),
            theta_star=[0, 0], mu_star=[0, 0], noise=noise,
        )
        np.testing.assert_allclose(p.fast_matrix(), q11 + q12 @ q21, atol=1e-12)
        p2 = ProblemSpec(
            q11=-np.eye(2), q12=q12, q21=q21, q22=q11,
            theta_star=[0, 0], mu_star=[0, 0], noise=noise,
        )
        np.testing.assert_allclose(p2.slow_matrix(), q11 + q21 @ q12, atol=1e-12)

    def test_singular_block_rejected(self):
        p = scalar_spec(-2.0, 1.0, 1.0, 0.0)
        with pytest.raises(SingularMatrixError):
            p.fast_matrix()
        p2 = scalar_spec(0.0, 1.0, 1.0, -1.0)
        with pytest.raises(SingularMatrixError):
            p2.slow_matrix()

    def test_kept_structure_is_read_only_and_a_failure_is_not_kept(self):
        p = library_problem("linear-2x2")
        for derived in (p.fast_matrix(), p.slow_matrix(), p.fast_noise_cov(), p.slow_noise_cov()):
            with pytest.raises(ValueError, match="read-only"):
                derived[0, 0] = 0.0
        singular = scalar_spec(-2.0, 1.0, 1.0, 0.0)
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match="Q22 is singular"):
                singular.fast_noise_cov()


class TestNoiseCovariances:
    def test_fast_cov_zero_coupling_is_block(self):
        gamma = np.array([[1.5, 0.0], [0.0, 0.7]])
        p = scalar_spec(-2.0, 0.0, 0.0, -1.0, gamma=gamma)
        assert p.fast_noise_cov()[0, 0] == 1.5
        assert p.slow_noise_cov()[0, 0] == 0.7

    def test_fast_cov_scalar_substitution(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        assert p.fast_noise_cov()[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_slow_cov_scalar_mirror(self):
        p = scalar_spec(-2.0, 1.0, 1.0, -1.0)
        # Gamma22 + Q21^2 Gamma11 / Q11^2 with unit noise blocks
        assert p.slow_noise_cov()[0, 0] == pytest.approx(1.0 + 0.25, abs=1e-14)

    def test_monte_carlo_oracle(self, linear_problem):
        # the defining expectations: sample covariance of the transformed
        # innovations over 1e6 draws, within 1%
        p = linear_problem
        rng = np.random.default_rng(123)
        draws = p.noise.apply_factor(p.noise.draw(rng, (10**6,)))
        v, w = draws[:, : p.d], draws[:, p.d :]
        k_fast = p.q12 @ np.linalg.inv(p.q22)
        k_slow = p.q21 @ np.linalg.inv(p.q11)
        fast = v - w @ k_fast.T
        slow = w - v @ k_slow.T
        emp_fast = fast.T @ fast / fast.shape[0]
        emp_slow = slow.T @ slow / slow.shape[0]
        for emp, pred in ((emp_fast, p.fast_noise_cov()), (emp_slow, p.slow_noise_cov())):
            assert np.linalg.norm(emp - pred, "fro") <= 0.01 * np.linalg.norm(pred, "fro")

    def test_covariance_psd_and_symmetric(self, linear_problem, quadratic_problem):
        for p in (linear_problem, quadratic_problem):
            for cov in (p.fast_noise_cov(), p.slow_noise_cov()):
                assert np.linalg.norm(cov - cov.T, "fro") <= 1e-12
                assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_draw_statistics(self, linear_problem):
        p = linear_problem
        rng = np.random.default_rng(77)
        n = 10**6
        draws = p.noise.apply_factor(p.noise.draw(rng, (n,)))
        mean = draws.mean(axis=0)
        std_err = np.sqrt(np.diag(p.noise.cov) / n)
        assert np.all(np.abs(mean) <= 3.0 * std_err)
        emp = draws.T @ draws / n
        cov_se = np.sqrt((np.outer(np.diag(p.noise.cov), np.diag(p.noise.cov))
                          + p.noise.cov**2) / n)
        assert np.all(np.abs(emp - p.noise.cov) <= 3.0 * cov_se + 1e-12)

    def test_bounded_uniform_matches_covariance(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        noise = NoiseModel(cov=cov, distribution="bounded_uniform")
        rng = np.random.default_rng(5)
        draws = noise.apply_factor(noise.draw(rng, (200_000,)))
        emp = draws.T @ draws / draws.shape[0]
        assert np.linalg.norm(emp - cov, "fro") <= 0.02
        assert np.abs(draws).max() <= np.sqrt(3) * np.abs(noise.factor()).sum(axis=1).max() + 1e-9

    def test_one_row_draws_match_longer_draws(self, linear_problem):
        # a replication's noise must not depend on how its stream is split
        noise = linear_problem.noise
        whole = noise.apply_factor(noise.draw(np.random.default_rng(3), (6,)))
        rng = np.random.default_rng(3)
        parts = [noise.apply_factor(noise.draw(rng, size)).reshape(-1, 4)
                 for size in ((), (), (), (1,), (2,))]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("distribution", ["gaussian", "bounded_uniform"])
    def test_draws_are_unit_and_apply_factor_correlates_them(self, linear_problem,
                                                             distribution):
        noise = NoiseModel(cov=linear_problem.noise.cov, distribution=distribution)
        e = noise.draw(np.random.default_rng(4), (200_000,))
        assert np.abs(e.T @ e / len(e) - np.eye(4)).max() <= 0.02
        np.testing.assert_allclose(noise.apply_factor(e), e @ noise.factor().T, rtol=0,
                                   atol=1e-14)

    def test_draw_reuses_the_construction_factor(self, monkeypatch):
        noise = NoiseModel(cov=[[1.0, 0.3], [0.3, 0.5]])
        monkeypatch.setattr(NoiseModel, "factor", lambda self: pytest.fail("factorized again"))
        assert noise.apply_factor(noise.draw(np.random.default_rng(0), (4,))).shape == (4, 2)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValueError, match="symmetric positive semidefinite"):
            NoiseModel(cov=[[1.0, 0.5], [0.0, 1.0]])

    def test_asymmetry_within_the_tolerance_of_is_psd_is_accepted(self):
        # 5e-11 is inside is_psd's 1e-10 max(1, ||Gamma||_F), the one rule for
        # a noise covariance; the covariance kept is the symmetric part
        cov = np.eye(4)
        cov[0, 1] = 5e-11
        assert linalg.is_psd(cov)
        np.testing.assert_array_equal(NoiseModel(cov=cov).cov, 0.5 * (cov + cov.T))

    def test_indefinite_cov_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(cov=[[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("low, accepted", [(-1.9e-9, True), (-2.1e-9, False)])
    def test_psd_boundary_is_the_one_of_is_psd(self, low, accepted):
        # the tolerance is 1e-10 ||Gamma||_F, about 2e-9 here, for both rules
        cov = [[low, 0.0], [0.0, 20.0]]
        assert linalg.is_psd(cov) is accepted
        if accepted:
            NoiseModel(cov=cov)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                NoiseModel(cov=cov)


class TestDrift:
    def test_zero_at_root(self, quadratic_problem):
        f, g = quadratic_problem.drift(quadratic_problem.theta_star, quadratic_problem.mu_star)
        assert np.linalg.norm(f) == 0.0
        assert np.linalg.norm(g) == 0.0

    def test_unit_vector_extracts_columns(self, linear_problem):
        p = linear_problem
        f, g = p.drift(p.theta_star + np.array([1.0, 0.0]), p.mu_star)
        np.testing.assert_allclose(f, p.q11[:, 0], atol=1e-15)
        np.testing.assert_allclose(g, p.q21[:, 0], atol=1e-15)

    def test_linear_kind_is_affine(self, linear_problem):
        p = linear_problem
        rng = np.random.default_rng(9)
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        f_uv, _ = p.drift(p.theta_star + u + v, p.mu_star)
        f_u, _ = p.drift(p.theta_star + u, p.mu_star)
        f_v, _ = p.drift(p.theta_star + v, p.mu_star)
        f_0, _ = p.drift(p.theta_star, p.mu_star)
        np.testing.assert_allclose(f_uv - f_u - f_v + f_0, 0.0, atol=1e-12)

    def test_quadratic_residual_second_order(self, quadratic_problem):
        # halving the offset must shrink the nonlinear part by 4x
        p = quadratic_problem
        direction = np.array([0.6, -0.8])
        lin = library_problem("linear-2x2")

        def residual_norm(eps):
            f, _ = p.drift(p.theta_star + eps * direction, p.mu_star)
            f_lin, _ = lin.drift(p.theta_star + eps * direction, p.mu_star)
            return np.linalg.norm(f - f_lin)

        r1, r2 = residual_norm(1e-3), residual_norm(5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=1e-3)

    def test_residual_clamped_outside_radius(self, quadratic_problem):
        p = quadratic_problem
        lin = library_problem("linear-2x2")
        far = p.theta_star + np.array([100.0, 0.0])
        f, _ = p.drift(far, p.mu_star)
        f_lin, _ = lin.drift(far, p.mu_star)
        np.testing.assert_array_equal(f, f_lin)

    def test_dimension_mismatch(self, linear_problem):
        with pytest.raises(DimensionError):
            linear_problem.drift([1.0, 2.0, 3.0], linear_problem.mu_star)

    def test_custom_residual_hook(self):
        def hook(z):
            return np.stack([0.1 * z[:, 0] ** 2, np.zeros(len(z))], axis=1)

        p = scalar_spec(
            -2.0, 0.0, 0.0, -1.0,
            residual=NonlinearResidual(kind="custom", custom_fn=hook),
        )
        f, g = p.drift([2.0], [0.0])
        assert f[0] == pytest.approx(-4.0 + 0.4)
        assert g[0] == 0.0


def einsum_residual(residual, z):
    """The residual as two einsums over the coefficient tensors: the reference
    the packed pairwise form is checked against."""
    inside = (np.linalg.norm(z, axis=-1) <= residual.clamp_radius)[:, None]
    return (
        np.einsum("bj,ijk,bk->bi", z, residual.coeff_fast, z) * inside,
        np.einsum("bj,ijk,bk->bi", z, residual.coeff_slow, z) * inside,
    )


class TestQuadraticResidual:
    def test_library_problem_is_linear_2x2_plus_a_residual(self):
        quad, lin = library_problem("quadratic-2x2"), library_problem("linear-2x2")
        for attr in ("q11", "q12", "q21", "q22", "theta_star", "mu_star"):
            np.testing.assert_array_equal(getattr(quad, attr), getattr(lin, attr))
        np.testing.assert_array_equal(quad.noise.cov, lin.noise.cov)
        assert quad.noise.distribution == lin.noise.distribution
        assert quad.residual.kind == "quadratic_form"

    @pytest.mark.parametrize("source", ["library", "random"])
    def test_matches_einsum_formula(self, source):
        if source == "library":
            residual, d, dim = library_problem("quadratic-2x2").residual, 2, 4
        else:
            d, dim = 3, 5
            rng = np.random.default_rng(11)
            residual = NonlinearResidual(
                kind="quadratic_form",
                coeff_fast=rng.normal(size=(d, dim, dim)),
                coeff_slow=rng.normal(size=(dim - d, dim, dim)),
                clamp_radius=2.0,
            )
        radius = residual.clamp_radius
        rng = np.random.default_rng(12)
        dirs = rng.normal(size=(40, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        inside = dirs * rng.uniform(0.0, 0.5, size=(40, 1)) * radius / np.sqrt(dim)
        on = np.concatenate([radius * np.eye(dim), -radius * np.eye(dim), dirs[:10] * radius])
        outside = dirs * rng.uniform(1.0 + 1e-12, 3.0, size=(40, 1)) * radius
        # the batches below take the all-inside shortcut, hit the radius, and mix
        for z in (inside, on, np.concatenate([inside, on, outside])):
            got = residual.evaluate(z)
            want = np.concatenate(einsum_residual(residual, z), axis=1)
            # relative to |z|^T |C_i| |z|, the scale of the rounding in either form
            coeff = np.abs(np.concatenate([residual.coeff_fast, residual.coeff_slow]))
            scale = np.einsum("bj,ijk,bk->bi", np.abs(z), coeff, np.abs(z))
            assert np.all(np.abs(got - want) <= 1e-14 * scale)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
        assert np.any(np.linalg.norm(on, axis=1) == radius)

    def test_mismatched_tensors_rejected(self):
        with pytest.raises(DimensionError):
            NonlinearResidual(
                kind="quadratic_form",
                coeff_fast=np.zeros((2, 4, 4)),
                coeff_slow=np.zeros((1, 4, 4)),
            )


class TestModelDimensions:
    """Bias and residual coefficients must fit the problem's d+d' dimensions."""

    @pytest.mark.parametrize("model", [
        BiasModel(kind="power_decay", coeff_fast=[0.5, 0.5], coeff_slow=[0.5]),
        BiasModel(kind="power_decay", coeff_fast=[0.5], coeff_slow=[0.5, 0.5]),
        # the slices stack to (3, 3, 3), which no 1+1 problem fits
        NonlinearResidual(kind="quadratic_form", coeff_fast=np.zeros((1, 3, 3)),
                          coeff_slow=np.zeros((2, 3, 3))),
        NonlinearResidual(kind="quadratic_form", coeff_fast=np.zeros((2, 2, 2)),
                          coeff_slow=np.zeros((0, 2, 2))),
    ])
    def test_misfit_coefficients_rejected(self, model):
        field = "bias" if isinstance(model, BiasModel) else "residual"
        with pytest.raises(DimensionError, match="must have shapes"):
            scalar_spec(-1.0, 0.0, 0.0, -1.0, **{field: model})

    def test_fitting_coefficients_accepted(self):
        bias = BiasModel(kind="power_decay", coeff_fast=[0.5], coeff_slow=[-0.5])
        residual = NonlinearResidual(kind="quadratic_form", coeff_fast=np.zeros((1, 2, 2)),
                                     coeff_slow=np.zeros((1, 2, 2)))
        problem = scalar_spec(-1.0, 0.0, 0.0, -1.0, bias=bias, residual=residual)
        assert problem.bias is bias and problem.residual is residual


class TestValidateProblem:
    def test_library_passes(self, linear_problem, schedule):
        report = validate_problem(linear_problem, schedule)
        assert report.passed
        names = [c.name for c in report.checks]
        assert any("A2(ii)" in n for n in names)
        assert any("A4(iii)" in n for n in names)

    def test_scalar_b_below_one_passes(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=1.0, b=0.9, gamma0=1.0, a=0.6)
        assert validate_problem(p, s).passed

    def test_b_one_small_beta0_fails_with_named_condition(self):
        # Lambda(H) = 0.4 requires beta0 > 1.25
        p = scalar_spec(-0.4, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        report = validate_problem(p, s)
        assert not report.passed
        assert any("A3(ii)" in c.name for c in report.failures())

    def test_low_moment_order_fails(self):
        p = scalar_spec(-1.0, 0.0, 0.0, -1.0, gamma=np.eye(2))
        p = ProblemSpec(
            q11=p.q11, q12=p.q12, q21=p.q21, q22=p.q22,
            theta_star=p.theta_star, mu_star=p.mu_star,
            noise=NoiseModel(cov=np.eye(2), moment_order=3.0),
        )
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        report = validate_problem(p, s)
        assert not report.passed
        assert any("A4(iii)" in c.name for c in report.failures())

    @pytest.mark.parametrize("scale", [0.4, 0.6, 1.0, 3.0])
    def test_gained_b_one_condition_is_the_gain_test(self, linear_problem, scale):
        # with beta0 = 1, beta0 > 1/(2 Lambda(A H)) holds iff A H + I/2 is Hurwitz
        gains = GainMatrices(fast=-scale * np.linalg.inv(linear_problem.fast_matrix()),
                             slow=np.eye(2))
        report = validate_problem(linear_problem, matricial_schedule(0.6), gains)
        check = next(c for c in report.checks if c.name.startswith("A3(ii)"))
        assert "Lambda(A H)" in check.detail
        try:
            validate_gains(linear_problem, gains)
        except ConfigError:
            assert check.status == "fail"
        else:
            assert check.status == "pass"

    @pytest.mark.parametrize("slow", [1.0, -1.0, 0.0])
    def test_gained_slow_condition_is_the_gain_test(self, linear_problem, slow):
        # the slow iterate is driven by A Q22: validate fails, and theory
        # refuses by name, exactly the slow gains that validate_gains rejects
        gains = GainMatrices(fast=-np.linalg.inv(linear_problem.fast_matrix()),
                             slow=slow * np.eye(2))
        schedule = matricial_schedule(0.6)
        report = validate_problem(linear_problem, schedule, gains)
        if slow > 0:
            validate_gains(linear_problem, gains)
            assert report.passed
            theory_report(linear_problem, schedule, gains)
            return
        with pytest.raises(ConfigError, match="slow gain does not stabilize"):
            validate_gains(linear_problem, gains)
        assert [c.name for c in report.failures()] == ["A2(ii) Lambda(A Q22) > 0"]
        with pytest.raises(InfeasibleError, match=r"^A2\(ii\) Lambda\(A Q22\) > 0 violated"):
            theory_report(linear_problem, schedule, gains)

    @pytest.mark.parametrize("b", [0.8, 1.0])
    @pytest.mark.parametrize("beta0", [0.25, 0.5, 1.25, 2.0])
    def test_theory_refuses_exactly_what_validate_fails(self, b, beta0):
        # the A2(ii) and A3(ii) items are one decision: theory_report raises on the
        # first of them that validate fails, and only then
        schedule = StepSchedule(beta0=beta0, b=b, gamma0=1.0, a=0.6)
        for q in itertools.product((-2.0, -1.0, -0.4, 0.0, 0.5), repeat=4):
            p = scalar_spec(*q)
            failed = [c.name for c in validate_problem(p, schedule).failures()
                      if c.name.startswith(("A2(ii)", "A3(ii)"))]
            if failed:
                with pytest.raises(InfeasibleError, match=f"^{re.escape(failed[0])} violated"):
                    theory_report(p, schedule)
            elif q[0] == 0.0:  # G needs Q11 inverted, which no assumption names
                with pytest.raises(SingularMatrixError, match="^Q11 is singular"):
                    theory_report(p, schedule)
            else:
                theory_report(p, schedule)

    def test_the_structure_is_derived_once(self, monkeypatch):
        names, invert = [], linalg.invert

        def counted(a, name="matrix"):
            names.append(name)
            return invert(a, name)

        monkeypatch.setattr(linalg, "invert", counted)
        p = library_problem("linear-2x2")
        schedule = StepSchedule(beta0=2.0, b=0.8, gamma0=2.0, a=0.6)
        for _ in range(2):
            resolved = resolve_algorithm(p, schedule, "matricial")
            for pair in ((schedule, None), (resolved.schedule, resolved.gains)):
                validate_problem(p, *pair)
                theory_report(p, *pair)
        assert len(names) <= 4, names

    def test_zero_coupling_identities(self):
        gamma = np.diag([1.4, 0.9])
        p = scalar_spec(-2.0, 0.0, 0.0, -1.5, gamma=gamma)
        assert p.fast_matrix()[0, 0] == p.q11[0, 0]
        assert p.slow_matrix()[0, 0] == p.q22[0, 0]
        assert p.fast_noise_cov()[0, 0] == gamma[0, 0]
        assert p.slow_noise_cov()[0, 0] == gamma[1, 1]


class TestBiasValidation:
    def test_plain_regime_threshold(self):
        from ttsa import BiasModel

        base = scalar_spec(-1.0, 0.0, 0.0, -1.0)

        def with_rho(rho):
            return ProblemSpec(
                q11=base.q11, q12=base.q12, q21=base.q21, q22=base.q22,
                theta_star=base.theta_star, mu_star=base.mu_star, noise=base.noise,
                bias=BiasModel(kind="power_decay", coeff_fast=[0.1], coeff_slow=[0.1], rho=rho),
            )

        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        assert validate_problem(with_rho(0.41), s).passed
        assert not validate_problem(with_rho(0.39), s).passed

    def test_averaging_regime_threshold(self):
        from ttsa import BiasModel
        from ttsa.schedules import AVERAGING

        base = scalar_spec(-1.0, 0.0, 0.0, -1.0)
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6, regime=AVERAGING)

        def with_rho(rho):
            return ProblemSpec(
                q11=base.q11, q12=base.q12, q21=base.q21, q22=base.q22,
                theta_star=base.theta_star, mu_star=base.mu_star, noise=base.noise,
                bias=BiasModel(kind="power_decay", coeff_fast=[0.1], coeff_slow=[0.1], rho=rho),
            )

        assert validate_problem(with_rho(0.51), s).passed
        assert not validate_problem(with_rho(0.45), s).passed
