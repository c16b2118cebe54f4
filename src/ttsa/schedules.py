"""Power-law step-size schedules and their admissibility checks.

A schedule is the pair of sequences beta_n = beta0 * n^(-b) for the fast
iterate and gamma_n = gamma0 * n^(-a) for the slow one, with
1/2 < a < b <= 1. Iteration indices start at n = 1 (n = 0 would make the
power law singular; the state before any step is labelled n = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .validation import ValidationReport

PLAIN = "plain"  # 1/2 < a < b <= 1
AVERAGING = "averaging"  # 1/2 < a < b < 1, required by the averaged CLT
REGIMES = (PLAIN, AVERAGING)

_CHUNK = 65536


def _comp_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums of ``x``, restarted every ``_CHUNK`` terms.

    ``np.cumsum`` adds one term at a time, so within a chunk a partial sum is
    off by at most about (_CHUNK - 1) u times the sum of the magnitudes of its
    terms, u = 2^-53. The chunk totals are carried with math.fsum, so those
    errors add without compounding, and every output is within about
    (_CHUNK + 1) u sum_{j<=i} |x_j| (7e-12 relative for positive steps) of the
    exact partial sum, however many terms there are.
    """
    out = np.empty_like(x)
    totals: list[float] = []
    offset = 0.0
    for i in range(0, x.size, _CHUNK):
        seg = np.cumsum(x[i : i + _CHUNK])
        out[i : i + _CHUNK] = seg + offset
        totals.append(float(seg[-1]))
        offset = math.fsum(totals)
    return out


@dataclass(frozen=True)
class StepSchedule:
    beta0: float
    b: float
    gamma0: float
    a: float
    regime: str = PLAIN

    def __post_init__(self):  # a rejection names its field
        a, b = self.a, self.b
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}, expected one of {REGIMES}",
                              key="regime")
        if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
            raise ConfigError(f"step exponents out of range: need 1/2 < a < b <= 1 (A3); "
                              f"got a={a}, b={b}", key="a" if 0.0 < b <= 1.0 else "b")
        if not 0.5 < a < b:
            raise ConfigError(f"step exponent ordering violated: need 1/2 < a < b (A3); "
                              f"got a={a}, b={b}", key="a")
        for name in ("beta0", "gamma0"):  # an infinite scale makes every step infinite
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite (A3), "
                                  f"got {getattr(self, name)}", key=name)

    def beta(self, n: int) -> float:
        """Fast step beta0 * n^(-b).

        Evaluated through numpy's power kernel so scalar queries agree
        bitwise with the vectorized arrays the engine consumes.
        """
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return float((self.beta0 * np.asarray([float(n)]) ** (-self.b))[0])

    def gamma(self, n: int) -> float:
        """Slow step gamma0 * n^(-a)."""
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return float((self.gamma0 * np.asarray([float(n)]) ** (-self.a))[0])

    def beta_array(self, n: int) -> np.ndarray:
        """beta_1 .. beta_n as a vector."""
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return self.beta0 * np.arange(1, n + 1, dtype=float) ** (-self.b)

    def gamma_array(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return self.gamma0 * np.arange(1, n + 1, dtype=float) ** (-self.a)

    def partial_sum_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Running sums u_k = sum(beta_1..beta_k) and s_k analogously, k = 1..n."""
        return _comp_cumsum(self.beta_array(n)), _comp_cumsum(self.gamma_array(n))

    def partial_sums(self, n: int) -> tuple[float, float]:
        """(u_n, s_n), the step sums up to and including index n."""
        u, s = self.partial_sum_arrays(n)
        return float(u[-1]), float(s[-1])


def _a3_holds(beta0: float, gap: float) -> bool:
    """A3(ii) at b = 1: 1/(2 beta0) < ``gap``, the stability gap of the matrix
    that drives the fast iterate (H, or A H under gains A). The one form of
    the rule; it divides by beta0 > 0 alone, so a gap <= 0 fails it."""
    return 1.0 / (2.0 * beta0) < gap


def validate_schedule(
    schedule: StepSchedule, lambda_h: float | None, fast: str = "H"
) -> ValidationReport:
    """Check the schedule against the stability gap of the fast matrix.

    ``lambda_h`` is the stability gap (positive when Hurwitz) of the matrix
    that drives the fast iterate, named ``fast`` in the report: H, or A H
    under gains A; None when that matrix is undefined. Structural constraints
    are enforced at construction and re-reported here; the b = 1 case
    additionally requires A3(ii), beta0 > 1 / (2 * lambda_h), decided by
    ``_a3_holds`` (so an undefined or non-positive gap fails it), and the
    averaging regime requires b strictly below 1.
    """
    report = ValidationReport()
    report.add(
        "A3(i) exponents",
        True,
        f"1/2 < a={schedule.a} < b={schedule.b} <= 1, beta0={schedule.beta0}, "
        f"gamma0={schedule.gamma0}",
    )
    if schedule.b == 1.0:
        need = f"b = 1 requires beta0 > 1/(2*Lambda({fast}))"
        if lambda_h is None:
            detail = f"{need}, and {fast} is undefined"
        elif lambda_h > 0:
            detail = f"{need} = {0.5 / lambda_h:.6g}; beta0 = {schedule.beta0}"
        else:
            detail = f"{need} with Lambda({fast}) > 0; Lambda({fast}) = {lambda_h:.6g}"
        ok = lambda_h is not None and _a3_holds(schedule.beta0, lambda_h)
        report.add("A3(ii) beta0 condition", ok, detail)
    else:
        report.add("A3(ii) beta0 condition", True, "not applicable (b < 1)")
    if schedule.regime == AVERAGING:
        report.add(
            "A'3 averaging regime",
            schedule.b < 1.0,
            f"averaging requires b < 1; b = {schedule.b}",
        )
    return report
