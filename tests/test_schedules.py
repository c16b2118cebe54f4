import math

import numpy as np
import pytest

from ttsa import StepSchedule, validate_schedule
from ttsa.schedules import AVERAGING


class TestStepValues:
    def test_beta_inverse_decade(self):
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        assert s.beta(10) == pytest.approx(0.1, abs=1e-15)

    def test_gamma_at_one(self):
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=2.0, a=0.6)
        assert s.gamma(1) == 2.0

    def test_beta_power_of_two(self):
        s = StepSchedule(beta0=0.5, b=0.75, gamma0=1.0, a=0.6)
        assert s.beta(16) == pytest.approx(0.0625, abs=1e-15)

    def test_index_zero_rejected(self):
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        with pytest.raises(ValueError):
            s.beta(0)
        with pytest.raises(ValueError):
            s.gamma(0)
        with pytest.raises(ValueError):
            s.partial_sums(0)

    def test_constructor_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            StepSchedule(beta0=1.0, b=1.5, gamma0=1.0, a=0.6)
        with pytest.raises(ValueError):
            StepSchedule(beta0=1.0, b=0.6, gamma0=1.0, a=0.7)
        with pytest.raises(ValueError):
            StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.4)
        with pytest.raises(ValueError):
            StepSchedule(beta0=-1.0, b=0.8, gamma0=1.0, a=0.6)
        # an infinite scale makes every step infinite
        with pytest.raises(ValueError, match="finite"):
            StepSchedule(beta0=math.inf, b=0.8, gamma0=1.0, a=0.6)
        with pytest.raises(ValueError, match="finite"):
            StepSchedule(beta0=1.0, b=0.8, gamma0=math.inf, a=0.6)

    def test_averaging_with_b_one_is_constructible(self):
        # rejected by the validator, not the constructor
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6, regime=AVERAGING)
        assert s.b == 1.0


class TestPartialSums:
    def test_first_index(self):
        s = StepSchedule(beta0=0.7, b=0.8, gamma0=1.3, a=0.6)
        assert s.partial_sums(1) == (0.7, 1.3)

    def test_harmonic_prefix(self):
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6)
        u, _ = s.partial_sums(3)
        assert u == pytest.approx(11.0 / 6.0, abs=1e-15)

    def test_integral_comparison_large_n(self):
        # u_n approaches beta0 * n^(1-b)/(1-b); at b = 0.6, n = 1e6 the gap
        # from the constant offset is ~0.3%
        s = StepSchedule(beta0=1.0, b=0.6, gamma0=1.0, a=0.55)
        u, _ = s.partial_sums(10**6)
        approx = (10**6) ** 0.4 / 0.4
        assert abs(u - approx) / approx <= 0.005

    def test_matches_fsum(self):
        s = StepSchedule(beta0=2.0, b=0.8, gamma0=1.5, a=0.6)
        n = 10**5
        u, sg = s.partial_sums(n)
        assert abs(u - math.fsum(s.beta_array(n).tolist())) <= 1e-12 * u
        assert abs(sg - math.fsum(s.gamma_array(n).tolist())) <= 1e-12 * sg

    def test_running_sums_increasing(self):
        s = StepSchedule(beta0=1.0, b=0.9, gamma0=1.0, a=0.6)
        u, _ = s.partial_sum_arrays(500)
        assert np.all(np.diff(u) > 0)


class TestInvariants:
    def test_ratio_monotone_when_a_below_b(self):
        s = StepSchedule(beta0=3.0, b=0.8, gamma0=0.5, a=0.6)
        ratio = s.beta_array(1999) / s.gamma_array(1999)
        assert np.all(np.diff(ratio) < 0)
        assert ratio[-1] < ratio[0]

    def test_step_ratio_expansion(self):
        # beta_n/beta_{n+1} = 1 + b/n + O(1/n^2) with the stated constant
        s = StepSchedule(beta0=1.0, b=0.8, gamma0=1.0, a=0.6)
        for n in range(10, 2000, 37):
            lhs = abs(s.beta(n) / s.beta(n + 1) - 1.0 - s.b / n)
            assert lhs <= 2.0 * s.b**2 / n**2


class TestValidateSchedule:
    def test_passes_below_one(self):
        s = StepSchedule(beta0=0.1, b=0.8, gamma0=1.0, a=0.6)
        assert validate_schedule(s, lambda_h=1.0).passed

    def test_b_one_needs_large_beta0(self):
        s = StepSchedule(beta0=0.4, b=1.0, gamma0=1.0, a=0.6)
        report = validate_schedule(s, lambda_h=1.0)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert any("A3(ii)" in name for name in names)

    def test_b_one_with_large_beta0_passes(self):
        s = StepSchedule(beta0=0.6, b=1.0, gamma0=1.0, a=0.6)
        assert validate_schedule(s, lambda_h=1.0).passed

    def test_averaging_regime_rejects_b_one(self):
        s = StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=0.6, regime=AVERAGING)
        report = validate_schedule(s, lambda_h=2.0)
        assert not report.passed
        assert any("A'3" in c.name for c in report.failures())
