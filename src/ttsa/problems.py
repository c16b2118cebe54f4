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
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError, SingularMatrixError
from .schedules import AVERAGING, StepSchedule, validate_schedule
from .validation import ValidationReport

if TYPE_CHECKING:
    from .engine import GainMatrices

GAUSSIAN = "gaussian"
BOUNDED_UNIFORM = "bounded_uniform"
BIAS_KINDS = ("zero", "power_decay")
RESIDUAL_KINDS = ("none", "quadratic_form")  # NonlinearResidual also takes "custom"

_SQRT3 = math.sqrt(3.0)


def _array(value, key: str, shape) -> np.ndarray:
    """``value`` as a finite float array of ``shape``, a tuple, or of that
    many dimensions, an int. A rejection names the field ``key``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise ConfigError(f"{key} must be an array of numbers, got {value!r}", key=key) from exc
    if (arr.ndim if isinstance(shape, int) else arr.shape) != shape:
        want = f"{shape} dimensions" if isinstance(shape, int) else f"shape {shape}"
        raise DimensionError(f"{key} must have {want}, got shape {arr.shape}", key=key)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key} contains non-finite entries", key=key)
    return arr


def _coeffs(model, ndim: int) -> None:
    """Set a bias or residual ``model``'s two coefficient arrays, of ``ndim`` dimensions."""
    for name in ("coeff_fast", "coeff_slow"):
        if getattr(model, name) is None:
            raise ConfigError(f"{model.kind} needs both coefficient arrays", key=name)
        object.__setattr__(model, name, _array(getattr(model, name), name, ndim))


@dataclass(frozen=True)
class NonlinearResidual:
    """Nonlinear part of the drift, evaluated on stacked centered states.

    ``evaluate`` takes the batch z = (theta - theta*, mu - mu*) of shape
    (B, d+d') and returns rho = (rho_f, rho_g) in the same layout and shape.
    kind "none" is the linear problem. kind "quadratic_form" gives, per output
    component i, z^T C_i z, clamped to zero outside ``clamp_radius`` so the
    local model cannot destabilize far starts. kind "custom" delegates to
    ``custom_fn(z) -> rho`` with the same shapes. Row i of rho must depend on
    row i of z alone: the engine guards divergence once per chunk, so it may
    evaluate rows past a divergence (huge, infinite or NaN) under
    ``np.errstate`` and discards what they give.
    """

    kind: str = "none"
    coeff_fast: np.ndarray | None = None  # (d, d+d', d+d')
    coeff_slow: np.ndarray | None = None  # (d', d+d', d+d')
    clamp_radius: float = 10.0
    custom_fn: Callable | None = None

    def __post_init__(self):  # a rejection names its field
        if self.kind not in (*RESIDUAL_KINDS, "custom"):
            raise ConfigError(f"unknown residual kind {self.kind!r}", key="kind")
        if not self.clamp_radius > 0:
            raise ConfigError(f"clamp_radius must be positive, got {self.clamp_radius}",
                              key="clamp_radius")
        if self.kind == "quadratic_form":
            _coeffs(self, 3)
            fast, slow = self.coeff_fast, self.coeff_slow
            dim = len(fast) + len(slow)
            if fast.shape[1:] != (dim, dim) or slow.shape[1:] != (dim, dim):
                raise DimensionError(
                    "quadratic_form coefficient tensors must stack to shape (d+d', d+d', d+d'), "
                    f"got {fast.shape} and {slow.shape}",
                    key="coeff_fast" if fast.shape[1:] != (dim, dim) else "coeff_slow")
            coeff = np.concatenate([fast, slow])
            # Row j holds C_ijk at column i*dim + k, so (z @ stacked)[b, i*dim + k]
            # is sum_j z_j C_ijk: one matmul serves every output component.
            stacked = np.ascontiguousarray(coeff.transpose(1, 0, 2)).reshape(dim, dim * dim)
            object.__setattr__(self, "_stacked", stacked)
        if self.kind == "custom" and self.custom_fn is None:
            raise ConfigError("custom residual needs a callable", key="custom_fn")

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Stacked residual for a (B, d+d') batch of centered states."""
        if self.kind == "none":
            return np.zeros_like(z)
        if self.kind == "custom":
            return self.custom_fn(z)
        zc = linalg.rows_dot(z, self._stacked).reshape(*z.shape, -1)
        rho = np.einsum("bik,bk->bi", zc, z)
        # ||z|| <= sqrt(dim) max|z_i|; with a margin far above rounding, every
        # row is inside and the clamp would multiply by one
        if not math.sqrt(z.shape[1]) * np.abs(z).max() <= 0.999 * self.clamp_radius:
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

    An innovation is xi = e F^T: ``draw`` gives the unit-variance draws e,
    standard normal or uniform on [-sqrt 3, sqrt 3] per entry, and
    ``apply_factor`` correlates them by the factor F of the covariance,
    F F^T = cov. Draws are independent across iterations and mean zero by
    construction, which realizes the martingale-difference contract.
    ``moment_order`` is the conditional moment order the noise is declared to
    possess; both built-in distributions have all moments, so it defaults to
    infinity and exists to exercise the validator.
    """

    cov: np.ndarray
    distribution: str = GAUSSIAN
    moment_order: float = math.inf

    def __post_init__(self):  # a rejection names its field
        cov = _array(self.cov, "cov", 2)
        if cov.shape[0] != cov.shape[1]:
            raise DimensionError(f"cov must be square, got shape {cov.shape}", key="cov")
        with np.errstate(over="ignore"):  # is_psd's tolerance needs a finite norm
            if not math.isfinite(linalg.frobenius(cov)):
                raise ConfigError("cov is too large: its Frobenius norm overflows", key="cov")
        if not linalg.is_psd(cov):
            raise ConfigError("noise covariance must be symmetric positive semidefinite",
                              key="cov")
        cov = 0.5 * (cov + cov.T)
        if self.distribution not in (GAUSSIAN, BOUNDED_UNIFORM):
            raise ConfigError(f"unknown noise distribution {self.distribution!r}",
                              key="distribution")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factorT", self.factor().T.copy())  # C-ordered, for rows_dot

    def factor(self) -> np.ndarray:
        """Matrix F with F F^T equal to the covariance.

        Factorizes on every call; ``apply_factor`` reuses the factor computed
        once at construction.
        """
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(self.cov)
            return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    def draw(self, rng: np.random.Generator, size: tuple[int, ...],
             out: np.ndarray | None = None) -> np.ndarray:
        """The unit-variance draws e of shape ``size + (dim,)``, uncorrelated;
        ``apply_factor`` turns them into innovations.

        They are written into ``out`` when it is given, and ``out`` is
        returned; the bits do not depend on it. Gaussian draws go straight into
        a C-ordered ``out``; any other draw is made fresh and copied.
        """
        shape = (*size, self.cov.shape[0])
        if self.distribution == GAUSSIAN:
            if out is not None and out.flags.c_contiguous:
                return rng.standard_normal(shape, out=out)
            e = rng.standard_normal(shape)
        else:
            e = rng.uniform(-_SQRT3, _SQRT3, shape)
        if out is None:
            return e
        out[...] = e
        return out

    def apply_factor(self, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The innovations e F^T of unit draws e, of shape (..., dim), by one
        ``linalg.rows_dot``, into ``out`` when it is given.

        Each row rounds alike at every row count, so a replication's noise does
        not depend on how its stream is split into draws, nor on how many
        replications' draws are factored together.
        """
        dim = self.cov.shape[0]
        xi = linalg.rows_dot(e.reshape(-1, dim), self._factorT, out)
        return xi.reshape(e.shape) if out is None else out


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

    def __post_init__(self):  # a rejection names its field
        if self.kind not in BIAS_KINDS:
            raise ConfigError(f"unknown bias kind {self.kind!r}", key="kind")
        if self.kind == "power_decay":
            if not self.rho > 0:
                raise ConfigError(f"bias decay exponent must be positive, got {self.rho}",
                                  key="rho")
            _coeffs(self, 1)
            object.__setattr__(self, "_coeff", np.concatenate([self.coeff_fast, self.coeff_slow]))

    def values(self, n: int) -> np.ndarray | float:
        if self.kind == "zero":
            return 0.0
        return self._coeff * float(n) ** (-self.rho)

    def is_zero(self) -> bool:
        return self.kind == "zero"


class _Component:
    """The coupled structure of one component, derived from the blocks once per
    problem (``ProblemSpec._component``).

    The fast component (side 0) eliminates mu through Q22, the slow one
    (side 1) theta through Q11. With i the side and j the other one,
    ``block_inverse`` is Q_jj^-1, ``coupling`` K = Q_ij Q_jj^-1, ``matrix``
    the Schur complement Q_ii - K Q_ji (H or G), ``noise_cov`` the covariance
    of the effective innovation (V - K W for the fast one), and ``inverse``
    the matrix's inverse, derived on first use. Every array is read-only. A
    block that ``linalg.invert`` rejects raises SingularMatrixError naming it
    and what needs it; a failure is not kept, so every later call raises
    again.
    """

    def __init__(self, problem: ProblemSpec, side: int):
        i, j = side, 1 - side
        q = ((problem.q11, problem.q12), (problem.q21, problem.q22))
        g = problem.noise_block
        self.name = ("H = Q11 - Q12 Q22^-1 Q21", "G = Q22 - Q21 Q11^-1 Q12")[i]
        try:
            self.block_inverse = linalg.invert(q[j][j], f"Q{j + 1}{j + 1}")
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{exc}; {self.name} needs its inverse") from None
        k = self.coupling = q[i][j] @ self.block_inverse
        out = g(i, i) + k @ g(j, j) @ k.T - g(i, j) @ k.T - k @ g(j, i)
        self.matrix, self.noise_cov = q[i][i] - k @ q[j][i], 0.5 * (out + out.T)
        for kept in (self.block_inverse, k, self.matrix, self.noise_cov):
            kept.flags.writeable = False

    @cached_property  # a raise stores nothing
    def inverse(self) -> np.ndarray:
        inverse = linalg.invert(self.matrix, self.name)
        inverse.flags.writeable = False
        return inverse


@dataclass(frozen=True)
class ProblemSpec:
    """The blocks, root and models of a problem, and the structure derived from them.

    The structure is derived once: each component's coupling, Schur
    complement, effective noise and inverse (``_Component``) is built on
    first use and kept on the problem, as ``engine._kernel`` keeps kernels.
    ``fast_matrix``, ``slow_matrix``, ``fast_noise_cov``, ``slow_noise_cov``,
    the theory's optimal and averaged covariances, the optimal gains and the
    tracked decomposition all read it, so ``linalg.invert`` runs at most four
    times per problem: on Q22, Q11, H and G. The kept arrays are read-only.
    """

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

    def __post_init__(self):  # a rejection names its field, a nested model's as "bias.rho"
        d, dp = (len(_array(getattr(self, name), name, 2)) for name in ("q11", "q22"))
        for name, shape in (("q11", (d, d)), ("q22", (dp, dp)), ("q12", (d, dp)),
                            ("q21", (dp, d)), ("theta_star", (d,)), ("mu_star", (dp,))):
            object.__setattr__(self, name, _array(getattr(self, name), name, shape))
        if self.noise.cov.shape != (self.dim,) * 2:
            raise DimensionError(f"noise.cov must have shape {(self.dim,) * 2}, "
                                 f"got shape {self.noise.cov.shape}", key="noise.cov")
        if self.bias.kind == "power_decay":
            self.check_coeffs("bias", self.bias.coeff_fast, self.bias.coeff_slow)
        if self.residual.kind == "quadratic_form":
            self.check_coeffs("residual", self.residual.coeff_fast, self.residual.coeff_slow)

    def check_coeffs(self, model: str, fast, slow) -> None:
        """The "bias" or "residual" ``model``'s coefficients fit the problem: d
        and d' entries, or slices of (d+d')x(d+d'); a misfit names the field."""
        tail = () if model == "bias" else (self.dim, self.dim)
        want = ((self.d, *tail), (self.d_prime, *tail))
        got = (np.shape(fast), np.shape(slow))
        if got != want:
            name = "coeff_fast" if got[0] != want[0] else "coeff_slow"
            raise DimensionError(f"{model} coefficients must have shapes {want[0]} and {want[1]}, "
                                 f"got {got[0]} and {got[1]}", key=f"{model}.{name}")

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

    def _component(self, side: int) -> _Component:
        """The fast (0) or slow (1) ``_Component``, derived on first use and kept."""
        kept = vars(self).setdefault("_components", {})  # past the frozen __setattr__
        if side not in kept:
            kept[side] = _Component(self, side)
        return kept[side]

    def fast_matrix(self) -> np.ndarray:
        """Schur complement Q11 - Q12 Q22^{-1} Q21 driving the fast error."""
        return self._component(0).matrix

    def slow_matrix(self) -> np.ndarray:
        """Schur complement Q22 - Q21 Q11^{-1} Q12 driving the slow error."""
        return self._component(1).matrix

    def fast_noise_cov(self) -> np.ndarray:
        """Covariance of the effective fast innovation V - Q12 Q22^{-1} W."""
        return self._component(0).noise_cov

    def slow_noise_cov(self) -> np.ndarray:
        """Covariance of the effective slow innovation W - Q21 Q11^{-1} V."""
        return self._component(1).noise_cov

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


def validate_problem(
    problem: ProblemSpec, schedule: StepSchedule, gains: GainMatrices | None = None
) -> ValidationReport:
    """Run every machine-checkable assumption and report pass/fail per item.

    ``(schedule, gains)`` is the pair that runs, as ``step``,
    ``simulate_batch`` and ``theory_report`` take it. Its A2(ii) and A3
    items are ``_stability_checks``, the one decision on A2(ii) and A3(ii)
    that ``theory_report`` refuses from.

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

    report.extend(_stability_checks(problem, schedule, gains))

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


def _stability_checks(
    problem: ProblemSpec, schedule: StepSchedule, gains: GainMatrices | None = None
) -> ValidationReport:
    """The A2(ii) items and the schedule's A3 items (``validate_schedule``),
    the one decision on A2(ii) and A3(ii): ``validate_problem`` reports them,
    and ``theory_report`` refuses exactly the (problem, schedule, gains) that
    fail one of the A2(ii) and A3(ii) items, naming the first.

    With gains A, the fast iterate is driven by A H, so the b = 1 condition
    reads Lambda(A H): with beta0 = 1 it is the fast rule of
    ``validate_gains``. The slow iterate is driven by A Q22, so one more
    A2(ii) item asks that it be Hurwitz, the slow rule of ``validate_gains``.
    H needs Q22 inverted; when ``linalg.invert`` rejects Q22, the A2(ii) item
    on H fails saying so, and so does A3(ii) at b = 1.
    """
    report = ValidationReport()
    try:
        h = problem.fast_matrix()
    except SingularMatrixError as exc:
        gap = None
        report.add("A2(ii) Lambda(H) > 0", False, str(exc))
    else:
        gap = linalg.stability_gap(h)
        report.add("A2(ii) Lambda(H) > 0", gap > 0, f"Lambda(H) = {gap:.6g}")
        if gains is not None:
            gap = linalg.stability_gap(gains.fast @ h)
    gap_q22 = linalg.stability_gap(problem.q22)
    report.add(
        "A2(ii) Lambda(Q22) > 0", gap_q22 > 0, f"Lambda(Q22) = {gap_q22:.6g}"
    )
    if gains is not None:
        gap_slow = linalg.stability_gap(gains.slow @ problem.q22)
        report.add("A2(ii) Lambda(A Q22) > 0", gap_slow > 0,
                   f"Lambda(A Q22) = {gap_slow:.6g}, A the slow gain")
    report.extend(validate_schedule(schedule, gap, "H" if gains is None else "A H"))
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
