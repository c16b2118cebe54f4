"""Predicted asymptotic covariances, computed from first principles.

Every integral formula is evaluated through its Lyapunov-equation
characterization; quadrature exists only as a test oracle. The b = 1
indicator on the fast schedule is taken exactly from the schedule, with no
tolerance around b = 1. The matricial variant is the plain recursion with
gain matrices, so it has no formulas of its own: its I/2 is that b = 1 shift
at beta0 = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .engine import GainMatrices
from .errors import InfeasibleError
from .problems import ProblemSpec
from .schedules import StepSchedule


def fast_error_cov(
    problem: ProblemSpec, schedule: StepSchedule, gain: np.ndarray | None = None
) -> np.ndarray:
    """Asymptotic covariance of the beta-scaled fast error.

    Solves [A H + shift I] S + S [.]^T = -A Gamma_fast A^T with the gain A
    (the identity by default) and shift = 1/(2 beta0) when b = 1, zero
    otherwise. Without a gain the shifted matrix must be Hurwitz; for b = 1
    that is exactly the beta0 > 1/(2 Lambda(H)) admissibility condition.
    With one, the Lyapunov solver's own Hurwitz check is the only check.
    """
    h = problem.fast_matrix()
    shift = 1.0 / (2.0 * schedule.beta0) if schedule.b == 1.0 else 0.0
    if gain is None:
        gap = linalg.stability_gap(h)
        if gap <= 0.0:
            raise InfeasibleError(
                f"A2(ii) violated: fast matrix is not Hurwitz (Lambda(H) = {gap:.6g})"
            )
        if shift >= gap:
            raise InfeasibleError(
                "A3(ii) violated: b = 1 requires beta0 > 1/(2*Lambda(H)) "
                f"= {1.0 / (2.0 * gap):.6g} (beta0 = {schedule.beta0}, "
                f"Lambda(H) = {gap:.6g})"
            )
    drift, noise = _with_gain(h, problem.fast_noise_cov(), gain, "fast gain")
    return linalg.solve_lyapunov(drift + shift * np.eye(problem.d), noise)


def slow_error_cov(problem: ProblemSpec, gain: np.ndarray | None = None) -> np.ndarray:
    """Asymptotic covariance of the gamma-scaled slow error.

    Solves (A Q22) S + S (.)^T = -A Gamma22 A^T with the gain A (the identity
    by default). Without a gain Q22 must be Hurwitz; with one, the Lyapunov
    solver's own Hurwitz check is the only check.
    """
    if gain is None and not linalg.is_hurwitz(problem.q22):
        raise InfeasibleError(
            "A2(ii) violated: Q22 is not Hurwitz "
            f"(Lambda(Q22) = {linalg.stability_gap(problem.q22):.6g})"
        )
    drift, noise = _with_gain(problem.q22, problem.noise_block(1, 1), gain, "slow gain")
    return linalg.solve_lyapunov(drift, noise)


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
    h_inv = linalg.invert(problem.fast_matrix())
    g_inv = linalg.invert(problem.slow_matrix())
    fast = h_inv @ problem.fast_noise_cov() @ h_inv.T
    slow = g_inv @ problem.slow_noise_cov() @ g_inv.T
    return 0.5 * (fast + fast.T), 0.5 * (slow + slow.T)


def coupling_blocks(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The block matrices D = diag(H^-1, G^-1) and P = [[I, -Q12 Q22^-1],
    [-Q21 Q11^-1, I]] entering the averaged covariance."""
    d, dp = problem.d, problem.d_prime
    h_inv = linalg.invert(problem.fast_matrix())
    g_inv = linalg.invert(problem.slow_matrix())
    dmat = np.zeros((d + dp, d + dp))
    dmat[:d, :d] = h_inv
    dmat[d:, d:] = g_inv
    pmat = np.eye(d + dp)
    pmat[:d, d:] = -problem.q12 @ linalg.invert(problem.q22)
    pmat[d:, :d] = -problem.q21 @ linalg.invert(problem.q11)
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
    ``engine.resolve_algorithm`` returns."""
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
