"""Predicted asymptotic covariances, computed from first principles.

Every integral formula is evaluated through its Lyapunov-equation
characterization; quadrature exists only as a test oracle. The b = 1
indicator on the fast schedule is taken exactly from the schedule, with no
tolerance around b = 1. The matricial variant is the plain recursion with
gain matrices, so it has no formulas of its own: its I/2 is that b = 1 shift
at beta0 = 1.

The theory decides no stability rule of its own. ``theory_report`` refuses
exactly the (problem, schedule, gains) whose ``validate_problem`` report
fails an A2(ii) or A3(ii) item, before it inverts anything, by reading the
same checks (``problems._stability_checks``). The structure it reads (H, G,
their inverses, the couplings and the effective noises) is the one
``ProblemSpec`` derives and keeps.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .engine import GainMatrices
from .errors import InfeasibleError
from .problems import ProblemSpec, _stability_checks
from .schedules import StepSchedule, validate_schedule
from .validation import ValidationReport


def fast_error_cov(
    problem: ProblemSpec, schedule: StepSchedule, gain: np.ndarray | None = None
) -> np.ndarray:
    """Asymptotic covariance of the beta-scaled fast error.

    Solves [A H + shift I] S + S [.]^T = -A Gamma_fast A^T with the gain A
    (the identity by default) and shift = 1/(2 beta0) when b = 1, zero
    otherwise. It raises InfeasibleError when the A3(ii) item of
    ``validate_schedule`` on Lambda(A H) fails, the one A3(ii) rule. Otherwise
    the Lyapunov solver's own Hurwitz check is the only check;
    ``theory_report`` has already refused a problem failing A2(ii).
    """
    fast = "H" if gain is None else "A H"
    drift, noise = _with_gain(problem.fast_matrix(), problem.fast_noise_cov(), gain, "fast gain")
    _refuse(validate_schedule(schedule, linalg.stability_gap(drift), fast), "A3(ii)")
    shift = 1.0 / (2.0 * schedule.beta0) if schedule.b == 1.0 else 0.0
    return linalg.solve_lyapunov(drift + shift * np.eye(problem.d), noise)


def slow_error_cov(problem: ProblemSpec, gain: np.ndarray | None = None) -> np.ndarray:
    """Asymptotic covariance of the gamma-scaled slow error.

    Solves (A Q22) S + S (.)^T = -A Gamma22 A^T with the gain A (the identity
    by default). A Q22 must be Hurwitz, the A2(ii) test, which the Lyapunov
    solver makes; ``theory_report`` has already refused a problem whose Q22
    fails it.
    """
    drift, noise = _with_gain(problem.q22, problem.noise_block(1, 1), gain, "slow gain")
    return linalg.solve_lyapunov(drift, noise)


def _refuse(report: ValidationReport, *items: str) -> None:
    """Raise InfeasibleError naming the first failed check of ``report`` whose
    name starts with one of ``items``."""
    failed = [c for c in report.failures() if c.name.startswith(items)]
    if failed:
        raise InfeasibleError(f"{failed[0].name} violated: {failed[0].detail}")


def _with_gain(drift, noise, gain, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(A M, A Gamma A^T) for the gain A, or (M, Gamma) unchanged without one."""
    if gain is None:
        return drift, noise
    a = linalg.as_square(gain, name)
    rhs = a @ noise @ a.T
    return a @ drift, 0.5 * (rhs + rhs.T)


def optimal_covariances(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The efficiency targets (H^-1 Gf H^-T, G^-1 Gs G^-T).

    These are the best achievable sqrt(n)-CLT covariances for the fast and
    slow components respectively.
    """
    h_inv, g_inv = problem._component(0).inverse, problem._component(1).inverse
    fast = h_inv @ problem.fast_noise_cov() @ h_inv.T
    slow = g_inv @ problem.slow_noise_cov() @ g_inv.T
    return 0.5 * (fast + fast.T), 0.5 * (slow + slow.T)


def coupling_blocks(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The block matrices D = diag(H^-1, G^-1) and P = [[I, -Q12 Q22^-1],
    [-Q21 Q11^-1, I]] entering the averaged covariance."""
    d, dp = problem.d, problem.d_prime
    fast, slow = problem._component(0), problem._component(1)
    dmat = np.zeros((d + dp, d + dp))
    dmat[:d, :d] = fast.inverse
    dmat[d:, d:] = slow.inverse
    pmat = np.eye(d + dp)
    # (-Q12) Q22^-1 rather than -K: a zero entry of the two differs in sign
    pmat[:d, d:] = -problem.q12 @ fast.block_inverse
    pmat[d:, :d] = -problem.q21 @ slow.block_inverse
    return dmat, pmat


def averaged_covariance(problem: ProblemSpec) -> np.ndarray:
    """Joint sqrt(n)-CLT covariance D P Gamma P^T D^T of the averaged pair.

    Its diagonal blocks coincide with the optimal covariances, which is the
    asymptotic-efficiency statement for the averaged algorithm.
    """
    dmat, pmat = coupling_blocks(problem)
    out = dmat @ pmat @ problem.noise.cov @ pmat.T @ dmat.T
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class TheoryReport:
    """Every covariance the theory predicts for a validated problem, schedule and gains."""

    fast_matrix: np.ndarray          # H
    slow_matrix: np.ndarray          # G
    fast_noise_cov: np.ndarray       # Gamma of V - Q12 Q22^-1 W
    slow_noise_cov: np.ndarray       # Gamma of W - Q21 Q11^-1 V
    fast_cov: np.ndarray             # beta-scaled fast error covariance
    slow_cov: np.ndarray             # gamma-scaled slow error covariance
    optimal_fast_cov: np.ndarray
    optimal_slow_cov: np.ndarray
    averaged_cov: np.ndarray
    d_block: np.ndarray
    p_block: np.ndarray

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


def theory_report(
    problem: ProblemSpec, schedule: StepSchedule, gains: GainMatrices | None = None
) -> TheoryReport:
    """The one assembly of the predictions, for the schedule and gains that
    ``engine.resolve_algorithm`` returns.

    Raises InfeasibleError naming the first A2(ii) or A3(ii) item that
    ``validate_problem`` fails for the same arguments, before any inversion:
    both read ``problems._stability_checks``. A'3 is not part of this gate.
    """
    _refuse(_stability_checks(problem, schedule, gains), "A2(ii)", "A3(ii)")
    fast_gain, slow_gain = (None, None) if gains is None else (gains.fast, gains.slow)
    opt_fast, opt_slow = optimal_covariances(problem)
    dmat, pmat = coupling_blocks(problem)
    return TheoryReport(
        fast_matrix=problem.fast_matrix(),
        slow_matrix=problem.slow_matrix(),
        fast_noise_cov=problem.fast_noise_cov(),
        slow_noise_cov=problem.slow_noise_cov(),
        fast_cov=fast_error_cov(problem, schedule, fast_gain),
        slow_cov=slow_error_cov(problem, slow_gain),
        optimal_fast_cov=opt_fast,
        optimal_slow_cov=opt_slow,
        averaged_cov=averaged_covariance(problem),
        d_block=dmat,
        p_block=pmat,
    )
