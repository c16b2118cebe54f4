"""Two-time-scale root-finding problems.

A problem bundles the local Jacobian blocks of the drift pair (f, g) around
the root, an optional nonlinear residual, the innovation noise model, and a
deterministic bias model. From the blocks it derives the structural matrices
used everywhere else: the Schur complements that govern each component's
error dynamics and the effective noise covariances of the fast and slow
innovations.

Drift model around the root (theta*, mu*), valid inside the residual's clamp
radius:

    f(theta, mu) = Q11 (theta - theta*) + Q12 (mu - mu*) + rho_f
    g(theta, mu) = Q21 (theta - theta*) + Q22 (mu - mu*) + rho_g

with rho the residual (zero for linear problems, O(norm^2) for the quadratic
kind).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionError
from .schedules import AVERAGING, StepSchedule, validate_schedule
from .validation import ValidationReport

GAUSSIAN = "gaussian"
BOUNDED_UNIFORM = "bounded_uniform"

_SQRT3 = math.sqrt(3.0)


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != dim:
        raise DimensionError(f"{name} must have length {dim}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class NonlinearResidual:
    """Nonlinear part of the drift, evaluated on stacked centered states.

    ``evaluate`` takes the batch z = (theta - theta*, mu - mu*) of shape
    (B, d+d') and returns rho = (rho_f, rho_g) in the same layout and shape.
    kind "none" is the linear problem. kind "quadratic_form" gives, per output
    component i, z^T C_i z, clamped to zero outside ``clamp_radius`` so the
    local model cannot destabilize far starts. kind "custom" delegates to
    ``custom_fn(z) -> rho`` with the same shapes.
    """

    kind: str = "none"
    coeff_fast: np.ndarray | None = None  # (d, d+d', d+d')
    coeff_slow: np.ndarray | None = None  # (d', d+d', d+d')
    clamp_radius: float = 10.0
    custom_fn: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("none", "quadratic_form", "custom"):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        if self.clamp_radius <= 0:
            raise ValueError("clamp_radius must be positive")
        if self.kind == "quadratic_form":
            if self.coeff_fast is None or self.coeff_slow is None:
                raise ValueError("quadratic_form residual needs both coefficient tensors")
            object.__setattr__(self, "coeff_fast", np.asarray(self.coeff_fast, dtype=float))
            object.__setattr__(self, "coeff_slow", np.asarray(self.coeff_slow, dtype=float))
            coeff = np.concatenate([self.coeff_fast, self.coeff_slow])
            dim = coeff.shape[0]
            if coeff.shape != (dim, dim, dim):
                raise DimensionError(
                    "quadratic_form coefficient tensors must stack to shape "
                    f"(d+d', d+d', d+d'), got {coeff.shape}"
                )
            # Row j holds C_ijk at column i*dim + k, so (z @ stacked)[b, i*dim + k]
            # is sum_j z_j C_ijk: one matmul serves every output component.
            stacked = np.ascontiguousarray(coeff.transpose(1, 0, 2)).reshape(dim, dim * dim)
            object.__setattr__(self, "_stacked", stacked)
        if self.kind == "custom" and self.custom_fn is None:
            raise ValueError("custom residual needs a callable")

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Stacked residual for a (B, d+d') batch of centered states."""
        if self.kind == "none":
            return np.zeros_like(z)
        if self.kind == "custom":
            return self.custom_fn(z)
        b, dim = z.shape
        rho = np.einsum("bik,bk->bi", (z @ self._stacked).reshape(b, dim, dim), z)
        # ||z|| <= sqrt(dim) max|z_i|; with a margin far above rounding, every
        # row is inside and the clamp would multiply by one
        if not math.sqrt(dim) * np.abs(z).max() <= 0.999 * self.clamp_radius:
            rho *= (np.linalg.norm(z, axis=-1) <= self.clamp_radius)[:, None]
        return rho

    def curvature_constant(self) -> float:
        """Constant c with ||residual|| <= c * ||z||^2 inside the clamp radius."""
        if self.kind != "quadratic_form":
            return 0.0
        c_f = sum(np.linalg.norm(c, 2) ** 2 for c in self.coeff_fast)
        c_s = sum(np.linalg.norm(c, 2) ** 2 for c in self.coeff_slow)
        return float(math.sqrt(c_f + c_s))


@dataclass(frozen=True)
class NoiseModel:
    """Joint innovation model for the stacked (V, W) noise.

    Draws are independent across iterations and mean zero by construction,
    which realizes the martingale-difference contract. ``moment_order`` is
    the conditional moment order the noise is declared to possess; both
    built-in distributions have all moments, so it defaults to infinity and
    exists to exercise the validator.
    """

    cov: np.ndarray
    distribution: str = GAUSSIAN
    moment_order: float = math.inf

    def __post_init__(self):
        cov = linalg.as_square(np.asarray(self.cov, dtype=float), "noise covariance")
        if linalg.frobenius(cov - cov.T) > 1e-12 * max(1.0, linalg.frobenius(cov)):
            raise ValueError("noise covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        if linalg.min_eigenvalue_sym(cov) < -1e-10 * max(1.0, linalg.frobenius(cov)):
            raise ValueError("noise covariance must be positive semidefinite")
        if self.distribution not in (GAUSSIAN, BOUNDED_UNIFORM):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factor", self.factor())

    def factor(self) -> np.ndarray:
        """Matrix F with F F^T equal to the covariance.

        Factorizes on every call; ``draw`` reuses the factor computed once at
        construction.
        """
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.cov)
            return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    def draw(self, rng: np.random.Generator, size: tuple[int, ...]) -> np.ndarray:
        """Unit-variance base draws of the given shape scaled to the covariance.

        A draw of one row is scaled as two identical rows: a one-row product
        would run as a matrix-vector kernel, which rounds differently from the
        matrix-matrix kernel of longer draws, and a replication's noise must
        not depend on how its stream is split into draws.
        """
        dim = self.cov.shape[0]
        if self.distribution == GAUSSIAN:
            z = rng.standard_normal(size + (dim,))
        else:
            z = rng.uniform(-_SQRT3, _SQRT3, size + (dim,))
        if z.size == dim:
            return (np.tile(z.reshape(1, dim), (2, 1)) @ self._factor.T)[0].reshape(z.shape)
        return z @ self._factor.T


@dataclass(frozen=True)
class BiasModel:
    """Deterministic observation bias r_n added to the drift observations.

    kind "zero" is the default. kind "power_decay" gives
    r_n = coeff * n^(-rho) per component; the validators certify the decay
    rate against the regime in use (rho > b/2 for the plain CLT, rho > 1/2
    for averaging). ``values(n)`` returns r_n = (r_f, r_g) stacked like the
    state, shape (d+d',), from coefficients stacked once at construction;
    for kind "zero" it is the scalar 0.0.
    """

    kind: str = "zero"
    coeff_fast: np.ndarray | None = None
    coeff_slow: np.ndarray | None = None
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "power_decay"):
            raise ValueError(f"unknown bias kind {self.kind!r}")
        if self.kind == "power_decay":
            if self.coeff_fast is None or self.coeff_slow is None:
                raise ValueError("power_decay bias needs both coefficient vectors")
            if self.rho <= 0:
                raise ValueError("bias decay exponent must be positive")
            object.__setattr__(self, "coeff_fast", np.asarray(self.coeff_fast, dtype=float))
            object.__setattr__(self, "coeff_slow", np.asarray(self.coeff_slow, dtype=float))
            object.__setattr__(self, "_coeff", np.concatenate([self.coeff_fast, self.coeff_slow]))

    def values(self, n: int) -> np.ndarray | float:
        if self.kind == "zero":
            return 0.0
        return self._coeff * float(n) ** (-self.rho)

    def is_zero(self) -> bool:
        return self.kind == "zero"


def _check_coeffs(name: str, model, fast: tuple, slow: tuple) -> None:
    """A bias or residual model's fast and slow coefficients have these shapes."""
    got = (model.coeff_fast.shape, model.coeff_slow.shape)
    if got != (fast, slow):
        raise DimensionError(f"{name} must have shapes {fast} and {slow}, got {got[0]} and {got[1]}")


@dataclass(frozen=True)
class ProblemSpec:
    q11: np.ndarray
    q12: np.ndarray
    q21: np.ndarray
    q22: np.ndarray
    theta_star: np.ndarray
    mu_star: np.ndarray
    noise: NoiseModel
    residual: NonlinearResidual = field(default_factory=NonlinearResidual)
    bias: BiasModel = field(default_factory=BiasModel)
    name: str = "custom"

    def __post_init__(self):
        q11 = linalg.as_square(self.q11, "Q11")
        q22 = linalg.as_square(self.q22, "Q22")
        d, dp = q11.shape[0], q22.shape[0]
        q12 = linalg.as_matrix(self.q12, "Q12")
        q21 = linalg.as_matrix(self.q21, "Q21")
        if q12.shape != (d, dp):
            raise DimensionError(f"Q12 must have shape {(d, dp)}, got {q12.shape}")
        if q21.shape != (dp, d):
            raise DimensionError(f"Q21 must have shape {(dp, d)}, got {q21.shape}")
        if self.noise.cov.shape != (d + dp, d + dp):
            raise DimensionError(
                f"noise covariance must have shape {(d + dp, d + dp)}, "
                f"got {self.noise.cov.shape}"
            )
        dim = d + dp
        if self.bias.kind == "power_decay":
            _check_coeffs("bias coefficients", self.bias, (d,), (dp,))
        if self.residual.kind == "quadratic_form":
            _check_coeffs("residual tensors", self.residual, (d, dim, dim), (dp, dim, dim))
        object.__setattr__(self, "q11", q11)
        object.__setattr__(self, "q12", q12)
        object.__setattr__(self, "q21", q21)
        object.__setattr__(self, "q22", q22)
        object.__setattr__(self, "theta_star", _as_vector(self.theta_star, d, "theta_star"))
        object.__setattr__(self, "mu_star", _as_vector(self.mu_star, dp, "mu_star"))

    @property
    def d(self) -> int:
        return self.q11.shape[0]

    @property
    def d_prime(self) -> int:
        return self.q22.shape[0]

    @property
    def dim(self) -> int:
        return self.d + self.d_prime

    @property
    def x_star(self) -> np.ndarray:
        """The root (theta*, mu*) in the stacked layout of the iterate."""
        return np.concatenate([self.theta_star, self.mu_star])

    # noise covariance blocks, in the (V, W) stacking order
    def noise_block(self, row: int, col: int) -> np.ndarray:
        d = self.d
        sl = (slice(0, d), slice(d, self.dim))
        return self.noise.cov[sl[row]][:, sl[col]]

    def fast_matrix(self) -> np.ndarray:
        """Schur complement Q11 - Q12 Q22^{-1} Q21 driving the fast error."""
        return self.q11 - self.q12 @ linalg.invert(self.q22) @ self.q21

    def slow_matrix(self) -> np.ndarray:
        """Schur complement Q22 - Q21 Q11^{-1} Q12 driving the slow error."""
        return self.q22 - self.q21 @ linalg.invert(self.q11) @ self.q12

    def fast_noise_cov(self) -> np.ndarray:
        """Covariance of the effective fast innovation V - Q12 Q22^{-1} W."""
        k = self.q12 @ linalg.invert(self.q22)
        g11, g12 = self.noise_block(0, 0), self.noise_block(0, 1)
        g21, g22 = self.noise_block(1, 0), self.noise_block(1, 1)
        out = g11 + k @ g22 @ k.T - g12 @ k.T - k @ g21
        return 0.5 * (out + out.T)

    def slow_noise_cov(self) -> np.ndarray:
        """Covariance of the effective slow innovation W - Q21 Q11^{-1} V."""
        k = self.q21 @ linalg.invert(self.q11)
        g11, g12 = self.noise_block(0, 0), self.noise_block(0, 1)
        g21, g22 = self.noise_block(1, 0), self.noise_block(1, 1)
        out = g22 + k @ g11 @ k.T - g21 @ k.T - k @ g12
        return 0.5 * (out + out.T)

    def drift(self, theta, mu) -> tuple[np.ndarray, np.ndarray]:
        """(f, g) at the given state; accepts single vectors or (B, dim) batches."""
        theta = np.asarray(theta, dtype=float)
        mu = np.asarray(mu, dtype=float)
        single = theta.ndim == 1
        if theta.shape[-1] != self.d or mu.shape[-1] != self.d_prime:
            raise DimensionError(
                f"state dimensions {(theta.shape[-1], mu.shape[-1])} do not match "
                f"problem dimensions {(self.d, self.d_prime)}"
            )
        ef = np.atleast_2d(theta) - self.theta_star
        es = np.atleast_2d(mu) - self.mu_star
        rho = self.residual.evaluate(np.concatenate([ef, es], axis=-1))
        f = ef @ self.q11.T + es @ self.q12.T + rho[:, : self.d]
        g = ef @ self.q21.T + es @ self.q22.T + rho[:, self.d :]
        if single:
            return f[0], g[0]
        return f, g


def validate_problem(problem: ProblemSpec, schedule: StepSchedule) -> ValidationReport:
    """Run every machine-checkable assumption and report pass/fail per item.

    Failures never raise; they are entries in the returned report. Overall
    pass means no checkable item failed; items that can only be asserted
    (almost-sure convergence, the martingale-difference property) are
    recorded as notes.
    """
    report = ValidationReport()

    report.note(
        "A1 almost-sure convergence",
        "asserted by construction for library problems (clamped local model, "
        "Hurwitz blocks); not machine-checkable",
    )

    f0, g0 = problem.drift(problem.theta_star, problem.mu_star)
    root_norm = float(np.linalg.norm(f0) + np.linalg.norm(g0))
    report.add("A2(i) root", root_norm == 0.0, f"|f|+|g| at the root = {root_norm:.3g}")
    if problem.residual.kind == "quadratic_form":
        report.add(
            "A2(i) residual bound",
            True,
            f"quadratic residual with curvature constant "
            f"{problem.residual.curvature_constant():.6g}, clamp radius "
            f"{problem.residual.clamp_radius}",
        )

    gap_h = linalg.stability_gap(problem.fast_matrix())
    gap_q22 = linalg.stability_gap(problem.q22)
    report.add(
        "A2(ii) Lambda(H) > 0", gap_h > 0, f"Lambda(H) = {gap_h:.6g}"
    )
    report.add(
        "A2(ii) Lambda(Q22) > 0", gap_q22 > 0, f"Lambda(Q22) = {gap_q22:.6g}"
    )

    report.extend(validate_schedule(schedule, gap_h))

    report.note(
        "A4(i) martingale differences",
        "draws are independent of the past and mean zero by construction",
    )
    cov = problem.noise.cov
    report.add(
        "A4(ii) noise covariance",
        linalg.is_psd(cov),
        "Gamma symmetric positive semidefinite",
    )
    g22_gap = linalg.min_eigenvalue_sym(problem.noise_block(1, 1))
    report.add(
        "A4(ii) slow noise block",
        g22_gap > 0,
        f"Gamma22 min eigenvalue = {g22_gap:.6g} (needed for a nondegenerate "
        "slow covariance)",
    )
    m = problem.noise.moment_order
    threshold = 2.0 / schedule.a
    report.add(
        "A4(iii) moment order",
        m > threshold,
        f"needs m > 2/a = {threshold:.6g}; recorded m = {m}",
    )

    if problem.bias.is_zero():
        report.add("A4(iv) bias decay", True, "zero bias")
    else:
        rho = problem.bias.rho
        if schedule.regime == AVERAGING:
            report.add(
                "A'4 bias decay",
                rho > 0.5,
                f"averaging requires rho > 1/2; rho = {rho}",
            )
        else:
            report.add(
                "A4(iv) bias decay",
                rho > schedule.b / 2.0,
                f"requires rho > b/2 = {schedule.b / 2.0}; rho = {rho}",
            )
    return report


def _linear_2x2_blocks():
    # Fixed library instance: moderately coupled, comfortably Hurwitz blocks.
    q11 = np.array([[-1.3, 0.4], [-0.3, -1.1]])
    q12 = np.array([[0.5, -0.2], [0.1, 0.4]])
    q21 = np.array([[0.3, 0.1], [-0.2, 0.35]])
    q22 = np.array([[-1.2, 0.5], [-0.2, -1.4]])
    return q11, q12, q21, q22


def _linear_2x2_noise() -> NoiseModel:
    # Cross-covariance aligned with the coupling, Gamma12 = Q12 Q22^{-1} Gamma22,
    # so the effective fast innovation V - Q12 Q22^{-1} W is uncorrelated with W.
    # This keeps the slowest finite-n covariance bias terms out of the desk-scale
    # runs while leaving the couplings themselves strong.
    _, q12, _, q22 = _linear_2x2_blocks()
    g22 = np.array([[0.8, 0.2], [0.2, 0.6]])
    s = np.array([[0.7, 0.15], [0.15, 0.5]])
    k = q12 @ np.linalg.inv(q22)
    g12 = k @ g22
    g11 = k @ g22 @ k.T + s
    cov = np.block([[g11, g12], [g12.T, g22]])
    return NoiseModel(cov=cov)


def _quadratic_tensors(d: int, dim: int, scale: float, seed: int) -> np.ndarray:
    # Fixed symmetric coefficient pattern; small enough that the linear part
    # dominates inside the clamp radius.
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=(d, dim, dim))
    t = 0.5 * (t + np.transpose(t, (0, 2, 1)))
    return scale * t


def library_problem(name: str) -> ProblemSpec:
    """Built-in test problems with fixed, documented constants.

    "scalar-coupled": d = d' = 1 with closed forms for every derived
    quantity. "linear-2x2": the workhorse 2+2-dimensional linear problem.
    "quadratic-2x2": the same blocks plus a clamped quadratic residual.
    """
    if name == "scalar-coupled":
        return ProblemSpec(
            q11=[[-2.0]],
            q12=[[1.0]],
            q21=[[1.0]],
            q22=[[-1.0]],
            theta_star=[0.5],
            mu_star=[-0.25],
            noise=NoiseModel(cov=np.eye(2)),
            name=name,
        )
    if name == "linear-2x2":
        q11, q12, q21, q22 = _linear_2x2_blocks()
        return ProblemSpec(
            q11=q11,
            q12=q12,
            q21=q21,
            q22=q22,
            theta_star=[0.3, -0.2],
            mu_star=[-0.1, 0.4],
            noise=_linear_2x2_noise(),
            name=name,
        )
    if name == "quadratic-2x2":
        residual = NonlinearResidual(
            kind="quadratic_form",
            coeff_fast=_quadratic_tensors(2, 4, 0.08, seed=20240611),
            coeff_slow=_quadratic_tensors(2, 4, 0.06, seed=20240612),
            clamp_radius=5.0,
        )
        return replace(library_problem("linear-2x2"), residual=residual, name=name)
    raise ValueError(f"unknown library problem {name!r}")


LIBRARY_NAMES = ("scalar-coupled", "linear-2x2", "quadratic-2x2")
