import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ttsa
from ttsa import (
    GainMatrices,
    MCConfig,
    StepSchedule,
    clt_verdict,
    negligibility_curves,
    rate_slope,
    resolve_algorithm,
    run_monte_carlo,
    sample_covariance,
    simulate_batch,
)
from ttsa import linalg
from ttsa.errors import ConfigError, DegenerateDataError, DivergenceError
from ttsa.montecarlo import _nanmedian, rel_frobenius
from ttsa.reports import render_montecarlo

from conftest import scalar_spec


def _assert_signed_margins(verdicts):
    """A gated verdict's margin is positive when it failed and negative when
    it passed; 0 passes, except against the strict negligibility halving
    bound. A verdict without a margin failed for lack of data."""
    for v in verdicts:
        margin = v.details.get("margin")
        if margin is None:
            assert not v.passed and "diagnostic" in v.details, v
        elif margin != 0.0:
            assert v.passed == (margin < 0.0), v
        elif v.name != "negligibility":
            assert v.passed, v


@pytest.fixture(autouse=True)
def _every_verdict_signed(monkeypatch):
    """Check the margin sign rule on every verdict the tests here produce."""
    def checked(fn, verdicts_of):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            _assert_signed_margins(verdicts_of(out))
            return out
        return wrapper

    monkeypatch.setitem(globals(), "run_monte_carlo",
                        checked(run_monte_carlo, lambda report: report.verdicts))
    monkeypatch.setitem(globals(), "clt_verdict", checked(clt_verdict, lambda v: [v]))


class TestSampleCovariance:
    def test_two_point_example(self):
        mean, cov = sample_covariance([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(mean, [0.0, 0.0])
        np.testing.assert_array_equal(cov, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_samples_give_zero(self):
        x = np.tile([0.3, -0.7], (5, 1))
        _, cov = sample_covariance(x)
        np.testing.assert_array_equal(cov, np.zeros((2, 2)))

    @pytest.mark.parametrize("samples", [[[1.0, 2.0]], np.zeros((3, 1, 2))])
    def test_too_few_samples(self, samples):
        with pytest.raises(ValueError):
            sample_covariance(samples)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("dim", [4, 18])
    @pytest.mark.parametrize("m", [2, 3, 2000])
    def test_a_stack_equals_its_slices(self, m, dim):
        # the harness takes every checkpoint's moments in one call on the
        # (checkpoint, replication, dim) stack; each slice must keep the bits
        # of a call on it alone, and an empty stack (a divergence before the
        # first checkpoint) gives empty results
        rng = np.random.default_rng(m + dim)
        for k in (0, 1, 28):
            x = rng.normal(size=(k, m, dim)) * np.exp(rng.normal(size=(k, 1, dim)))
            mean, cov = sample_covariance(x)
            assert mean.shape == (k, dim) and cov.shape == (k, dim, dim)
            for i in range(k):
                mean_i, cov_i = sample_covariance(x[i])
                np.testing.assert_array_equal(mean[i], mean_i)
                np.testing.assert_array_equal(cov[i], cov_i)

    def test_known_generator(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        rng = np.random.default_rng(12)
        n = 10**6
        x = rng.standard_normal((n, 2)) @ np.linalg.cholesky(cov).T
        mean, emp = sample_covariance(x)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(mean) <= 3 * se_mean)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) <= 3 * se_cov)

    def test_translation_moves_mean_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        mean1, cov1 = sample_covariance(x)
        mean2, cov2 = sample_covariance(x + 5.0)
        np.testing.assert_allclose(mean2, mean1 + 5.0, atol=1e-12)
        np.testing.assert_allclose(cov2, cov1, atol=1e-12)

    def test_canonical_order_restores_exactly(self):
        # completion order must not matter: summaries keyed by replication
        # index and aggregated in canonical order are bitwise stable
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 4))
        mean, cov = sample_covariance(x)
        by_rep = {r: x[r] for r in rng.permutation(64)}
        restored = np.array([by_rep[r] for r in sorted(by_rep)])
        mean2, cov2 = sample_covariance(restored)
        np.testing.assert_array_equal(mean, mean2)
        np.testing.assert_array_equal(cov, cov2)

    def test_median_is_permutation_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=501)
        assert np.median(x) == np.median(rng.permutation(x))


class TestCltVerdict:
    def setup_method(self):
        self.pred = np.diag([2.0, 1.0, 0.5, 0.25])

    def test_exact_match_passes(self):
        v = clt_verdict(self.pred, self.pred, (2, 2), tol_rel=1e-12, tol_cross=1e-12)
        assert v.passed
        assert v.details["fast_rel_error"] == 0.0

    def test_doubled_blocks_fail(self):
        v = clt_verdict(2.0 * self.pred, self.pred, (2, 2), tol_rel=0.15, tol_cross=0.1)
        assert not v.passed
        assert v.details["fast_rel_error"] == pytest.approx(1.0)

    def test_cross_block_gate(self):
        emp = self.pred.copy()
        emp[0, 2] = emp[2, 0] = 0.5
        v = clt_verdict(emp, self.pred, (2, 2), tol_rel=0.15, tol_cross=0.1)
        assert not v.passed
        assert v.details["cross_error"] > 0.1

    def test_zero_predicted_block_diagnostic(self):
        pred = self.pred.copy()
        pred[2:, 2:] = 0.0
        emp = self.pred.copy()
        v = clt_verdict(emp, pred, (2, 2), tol_rel=0.15, tol_cross=0.1)
        assert not v.passed
        assert "slow_diagnostic" in v.details

    def test_meta_simulation_calibration(self):
        # tolerance 0.15 holds for >= 99% of M = 2000 ensembles with the true
        # covariance; frozen from the calibration run
        joint = np.array(
            [
                [0.32, 0.06, 0.0, 0.0],
                [0.06, 0.23, 0.0, 0.0],
                [0.0, 0.0, 0.37, 0.09],
                [0.0, 0.0, 0.09, 0.20],
            ]
        )
        chol = np.linalg.cholesky(joint + 1e-12 * np.eye(4))
        rng = np.random.default_rng(999)
        passes = 0
        meta = 200
        for _ in range(meta):
            x = rng.standard_normal((2000, 4)) @ chol.T
            _, cov = sample_covariance(x)
            passes += clt_verdict(cov, joint, (2, 2), 0.15, 0.10).passed
        assert passes / meta >= 0.99


class TestRateSlope:
    def test_exact_power_law(self):
        ns = np.logspace(2, 5, 25)
        slope = rate_slope(ns, ns**-0.4)
        assert slope == pytest.approx(-0.4, abs=1e-12)

    def test_constant_curve(self):
        ns = np.logspace(2, 5, 25)
        assert rate_slope(ns, np.ones(25)) == pytest.approx(0.0, abs=1e-12)

    def test_log_corrected_curve(self):
        # n^-0.3 sqrt(log n) fits shallower than -0.3; value frozen from the
        # synthetic-curve oracle run
        ns = np.logspace(3, 5, 17)
        slope = rate_slope(ns, 2.0 * ns**-0.3 * np.sqrt(np.log(ns)))
        assert -0.26 < slope < -0.23

    def test_zero_rms_degenerate(self):
        ns = np.logspace(2, 5, 10)
        rms = ns**-0.4
        rms[4] = 0.0
        with pytest.raises(DegenerateDataError):
            rate_slope(ns, rms)

    def test_needs_enough_span(self):
        with pytest.raises(ValueError):
            rate_slope([10.0, 20.0, 40.0, 80.0], [1.0, 0.5, 0.25, 0.125])


class TestNegligibilityCurves:
    def test_requires_tracking(self, linear_problem, schedule):
        trace = simulate_batch(
            linear_problem, schedule, 100, base_seed=1, replications=3
        )
        with pytest.raises(ConfigError):
            negligibility_curves(trace)

    def test_zero_noise_degenerate_case(self, schedule):
        # without noise the martingale parts vanish identically; ratio curves
        # against them are undefined (NaN), the step-scale curves remain
        p = scalar_spec(-2.0, 0.5, 0.5, -1.0, gamma=np.zeros((2, 2)))
        trace = simulate_batch(
            p, schedule, 200, base_seed=3, replications=2, track_decomposition=True
        )
        curves = negligibility_curves(trace)
        assert np.all(np.isnan(curves["coupling_fast_over_martingale"][1:]))
        assert np.all(np.isfinite(curves["remainder_fast_over_sqrt_beta"]))

    def test_curves_have_checkpoint_length(self, linear_problem, schedule):
        trace = simulate_batch(
            linear_problem, schedule, 500, base_seed=5, replications=8,
            track_decomposition=True,
        )
        curves = negligibility_curves(trace)
        for values in curves.values():
            assert values.shape == trace.ns.shape


class TestNanMedian:
    def test_equals_np_nanmedian(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            rows, width = int(rng.integers(1, 6)), int(rng.integers(2, 701))
            values = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-5, 5, (rows, width))
            values[rng.random((rows, width)) < rng.random()] = np.nan
            if rng.random() < 0.3:
                values[0] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
                want = np.nanmedian(values, axis=1)
            np.testing.assert_array_equal(_nanmedian(values, axis=1), want)

    def test_decomposition_report_does_not_import_numpy_ma(self):
        # numpy.ma costs about 15 ms of import in every process that loads it
        code = (
            "import sys\n"
            "from ttsa import (MCConfig, StepSchedule, library_problem, resolve_algorithm,\n"
            "                  run_monte_carlo)\n"
            "mc = MCConfig(replications=8, n_final=2000, base_seed=1,\n"
            "              track_decomposition=True, checks=('negligibility',))\n"
            "s = StepSchedule(beta0=2.0, b=0.95, gamma0=2.0, a=0.55)\n"
            "p = library_problem('linear-2x2')\n"
            "report = run_monte_carlo(p, resolve_algorithm(p, s, 'standard'), mc)\n"
            "assert report.negligibility\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ttsa.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestRunMonteCarlo:
    def test_degenerate_single_index(self, linear_problem, schedule):
        mc = MCConfig(replications=2, n_final=1, base_seed=0, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        assert report.valid
        assert report.curves["n"].tolist() == [1]
        # both replications start at the same point: zero covariance
        np.testing.assert_array_equal(report.curves["scaled_cov"][0], np.zeros((4, 4)))

    def test_a_lil_window_without_a_ratio_is_lack_of_data(self, linear_problem):
        # u_n = sum of beta stays below 1 (about 0.16 at n = 1000), so log u_n
        # and every LIL ratio are undefined: no fractions, no margin, no warning
        schedule = StepSchedule(beta0=0.01, b=0.8, gamma0=0.01, a=0.6)
        mc = MCConfig(replications=20, n_final=1000, base_seed=1, checks=("lil",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_monte_carlo(
                linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        assert report.curves["u"][-1] < 1.0
        assert report.lil_stability == {}
        assert [v.as_dict() for v in report.verdicts] == [
            {"name": "lil", "passed": False, "details": {"diagnostic": "not enough checkpoints"}}]

    @pytest.mark.parametrize("algorithm, regime, checks", [
        ("standard", "plain", ("clt",)),
        ("averaged", "averaging", ("clt", "averaged_blocks")),
        ("matricial", "plain", ("clt",)),
    ])
    def test_zero_noise_covariance_collapses(self, schedule, algorithm, regime, checks):
        # every covariance verdict compares a zero block with a zero prediction
        p = scalar_spec(-2.0, 0.5, 0.5, -1.0, gamma=np.zeros((2, 2)))
        mc = MCConfig(replications=4, n_final=5000, base_seed=0, checks=checks)
        resolved = resolve_algorithm(p, replace(schedule, regime=regime), algorithm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_monte_carlo(p, resolved, mc)
        assert np.linalg.norm(report.curves["scaled_cov"][-1]) <= 1e-20
        assert report.passed, [v.as_dict() for v in report.verdicts]

    def test_reproducible_bitwise(self, linear_problem, schedule):
        mc = MCConfig(replications=8, n_final=2000, base_seed=7,
                      checks=("clt",), track_decomposition=True)
        a = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        b = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_averaged_requires_averaging_regime(self, linear_problem, schedule):
        mc = MCConfig(replications=4, n_final=100, base_seed=0)
        with pytest.raises(ConfigError):
            run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "averaged"), mc)

    @staticmethod
    def _divergent_report(schedule, checkpoints=None):
        """The report of an ensemble that diverges, and its trace prefix.

        Stable drift but steps far too large for it: the iteration blows up
        numerically while the predicted covariances stay well defined.
        """
        p = scalar_spec(-30.0, 0.0, 0.0, -30.0)
        mc = MCConfig(replications=3, n_final=100, base_seed=1, checks=("clt",),
                      checkpoints=checkpoints)
        with pytest.raises(DivergenceError) as err:
            simulate_batch(p, schedule, 100, base_seed=1, replications=3,
                           checkpoints=checkpoints)
        report = run_monte_carlo(p, resolve_algorithm(p, schedule, "standard"), mc)
        assert not report.valid
        assert not report.passed
        assert report.divergence is not None
        assert report.divergence["step"] is not None
        # the report keeps the checkpoints reached before the divergence
        prefix = err.value.trace.ns
        np.testing.assert_array_equal(report.curves["n"], prefix)
        back = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert back["checkpoints"]["n"] == prefix.tolist()
        assert set(back["checkpoints"]) == set(report.curves)
        assert "INVALID: replication" in render_montecarlo(back)
        # the record holds the diverged replication's last finite iterate
        record = np.array(back["divergence"]["last_state"])
        assert record.dtype == float and np.array_equal(record, err.value.last_state)
        return report, err.value

    def test_divergence_recorded_and_invalidates(self, schedule):
        report, exc = self._divergent_report(schedule)
        assert 0 < report.curves["n"][-1] < exc.step

    def test_divergence_before_the_first_checkpoint(self, schedule):
        report, exc = self._divergent_report(schedule, checkpoints=(50, 100))
        assert exc.step < 50
        assert report.curves["n"].size == 0

    @pytest.mark.bitwise
    def test_divergence_record_holds_the_last_finite_state(self, schedule):
        report, exc = self._divergent_report(schedule)
        div = report.divergence
        assert (div["replication"], div["step"]) == (exc.replication, exc.step)
        assert np.all(np.isfinite(div["last_state"]))
        line = render_montecarlo(json.loads(json.dumps(report.as_dict()))).splitlines()[2]
        assert line == (f"INVALID: replication {exc.replication} diverged at index {exc.step}; "
                        f"x at index {exc.step - 1} = {exc.last_state.tolist()}")

    def test_matricial_uses_implied_schedule(self, linear_problem, schedule):
        mc = MCConfig(replications=4, n_final=500, base_seed=2, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "matricial"), mc)
        assert report.schedule["b"] == 1.0
        assert report.schedule["beta0"] == 1.0
        assert report.schedule["a"] == schedule.a

    def test_destabilizing_gains_rejected_before_any_theory(
        self, linear_problem, schedule, monkeypatch
    ):
        calls = []
        solve = linalg.solve_lyapunov

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(linalg, "solve_lyapunov", counting)
        gains = GainMatrices(fast=-np.eye(2), slow=np.eye(2))  # A*H + I/2 unstable
        mc = MCConfig(replications=4, n_final=100, base_seed=2, checks=())
        with pytest.raises(ConfigError, match="fast gain does not stabilize"):
            run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "matricial", gains), mc)
        assert calls == []

    def test_predictions_present(self, linear_problem, schedule):
        mc = MCConfig(replications=4, n_final=100, base_seed=2, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        for key in ("fast_cov", "slow_cov", "optimal_fast_cov",
                    "optimal_slow_cov", "averaged_cov"):
            assert key in report.predicted

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            MCConfig(replications=2, n_final=10, base_seed=0, checks=("normality",))

    def test_negligibility_without_tracking_rejected(self):
        with pytest.raises(ConfigError, match="track_decomposition"):
            MCConfig(replications=2, n_final=10, base_seed=0, checks=("negligibility",))

    @pytest.mark.parametrize("name, value", [("tol_rel", math.inf), ("tol_rel", math.nan),
                                             ("tol_cross", -1.0), ("tol_cross", 0.0)])
    def test_a_tolerance_that_decides_no_gate_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            MCConfig(replications=2, n_final=10, base_seed=0, **{name: value})

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            MCConfig(replications=2, n_final=10, base_seed=-1)

    def test_repeated_check_rejected(self):
        # each check writes one verdict, so verdicts match checks one to one
        with pytest.raises(ConfigError, match="repeated checks"):
            MCConfig(replications=2, n_final=10, base_seed=0, checks=("slopes", "slopes"))

    @pytest.mark.parametrize("name, value", [("replications", 2.5), ("n_final", 10.5),
                                             ("base_seed", 1.5)])
    def test_a_non_integral_count_or_seed_rejected_naming_the_field(self, name, value):
        # run_monte_carlo would fail late on it, with no word of the field
        counts = {"replications": 2, "n_final": 10, "base_seed": 0, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be .* and integral") as err:
            MCConfig(**counts)
        assert err.value.key == name
        MCConfig(**{**counts, name: np.int64(math.ceil(value))})  # numpy integers are integers

    def test_kurtosis_diagnostic_soft(self, linear_problem, schedule):
        mc = MCConfig(replications=64, n_final=200, base_seed=3, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        assert "kurtosis_max_dev_scaled" in report.diagnostics
        assert report.passed  # diagnostics never gate

    def test_scaled_covariance_tracks_prediction_midscale(self, linear_problem, schedule):
        # coarse accuracy check at modest scale; the tight desk-scale gates
        # live in the acceptance suite
        mc = MCConfig(replications=300, n_final=20000, base_seed=11, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        final_cov = report.curves["scaled_cov"][-1]
        rel = rel_frobenius(final_cov[:2, :2], report.predicted["fast_cov"])
        assert rel < 0.35


class TestVerdictMargins:
    @pytest.mark.parametrize("algorithm, regime, checks", [
        ("standard", "plain", ("clt", "slopes", "lil", "negligibility")),
        ("averaged", "averaging", ("clt", "averaged_blocks")),
        ("matricial", "plain", ("clt",)),
    ])
    @pytest.mark.parametrize("tol", [1e-6, 10.0])
    def test_every_gated_verdict_has_its_margin(
        self, linear_problem, schedule, algorithm, regime, checks, tol
    ):
        mc = MCConfig(replications=16, n_final=2000, base_seed=4, tol_rel=tol, tol_cross=tol,
                      track_decomposition="negligibility" in checks, checks=checks)
        resolved = resolve_algorithm(linear_problem, replace(schedule, regime=regime), algorithm)
        report = run_monte_carlo(linear_problem, resolved, mc)
        assert [v.name for v in report.verdicts] == list(checks)
        clt = report.verdict("clt").details
        errors = [value for key, value in clt.items() if key.endswith(("_rel_error", "cross_error"))]
        bounds = [clt["tol_cross"] if key == "cross_error" else tol
                  for key in clt if key.endswith(("_rel_error", "cross_error"))]
        # the largest excess over the gated quantities: every error here but
        # the matricial slow block, which is informational
        assert clt["margin"] == max(e - b for e, b in zip(errors, bounds))
        assert (clt["margin"] > 0) == (tol < 1.0)
        for verdict in report.verdicts:
            assert math.isfinite(verdict.details["margin"])


class TestReportShape:
    def test_as_dict_serializes(self, linear_problem, schedule):
        mc = MCConfig(replications=4, n_final=300, base_seed=5,
                      checks=("clt",), track_decomposition=True)
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        payload = report.as_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["kind"] == "montecarlo"
        assert len(back["checkpoints"]["n"]) == report.curves["n"].size
        assert back["verdicts"][0]["name"] == "clt"

    def test_final_samples_available_for_dump(self, linear_problem, schedule):
        mc = MCConfig(replications=4, n_final=50, base_seed=5, checks=())
        report = run_monte_carlo(linear_problem, resolve_algorithm(linear_problem, schedule, "standard"), mc)
        assert report.final_scaled.shape == (4, 4)
