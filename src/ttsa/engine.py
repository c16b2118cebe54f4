"""Coupled two-time-scale iteration engine.

Runs the plain fast/slow recursion, the matricial-gain variant, and the
running averages, optionally tracking the martingale / coupling / remainder
decomposition of each error component alongside the main path.

One kernel advances every path, and its state is the stacked iterate
x = (theta, mu) with one row per replication, shape (B, d+d'). One step is

    x_{n+1} = x_n + s_n * (((x_n - x*) Q^T + xi_{n+1} + rho + r_n) G^T)

with Q = [[Q11, Q12], [Q21, Q22]] the full Jacobian, xi = (V, W) the stacked
innovation, rho the residual, r_n the bias, G = blockdiag(A_fast, A_slow) for
the matricial variant (the identity otherwise) and s_n = (beta_n 1_d,
gamma_n 1_d') the per-component step. ``step``, ``matricial_step``, ``run``
and ``simulate_batch`` all go through this kernel.

The trace keeps the same layout: a ``BatchTrace`` holds the checkpointed x
and its running average x_bar as (checkpoint, replication, d+d') arrays, with
theta, mu and their averages as views. ``BatchTrace.replication(r)`` is one
replication's trace with the replication axis dropped; ``run`` returns
replication 0. Checkpoints 1..n_final give the every-step paths.

The kernel never advances fewer than two rows, because a one-row matrix
product runs as a matrix-vector BLAS kernel that rounds differently from the
matrix-matrix kernel of a larger batch; a single trajectory therefore runs as
two identical rows and keeps one.

Replication r of a seed draws from its own counter-based stream, so its path
does not depend on the batch size. Its path does not depend on the chunk
size either, because the noise model scales a one-row draw as two rows. A
single run is exactly replication 0 of a batch with the same seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError, DivergenceError
from .problems import ProblemSpec
from .schedules import AVERAGING, StepSchedule

DIVERGENCE_GUARD = 1e9
_CHUNK = 512
_MIN_ROWS = 2  # the two-row rule of the module docstring

STANDARD = "standard"
AVERAGED = "averaged"
MATRICIAL = "matricial"
ALGORITHMS = (STANDARD, AVERAGED, MATRICIAL)


def replication_rng(base_seed: int, replication: int) -> np.random.Generator:
    """Independent counter-based stream for one replication.

    Philox keyed through SeedSequence(entropy, spawn_key) gives injectively
    derived, splittable streams: replication r of a given base seed always
    sees the same noise regardless of batch size or chunking.
    """
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


def checkpoint_indices(n_final: int, per_decade: int = 8) -> np.ndarray:
    """Geometric checkpoint grid from 1 to n_final, final index included."""
    if n_final < 1:
        raise ValueError("n_final must be >= 1")
    exps = np.arange(0, per_decade * math.ceil(math.log10(max(n_final, 2))) + 1)
    grid = np.unique(np.rint(10.0 ** (exps / per_decade)).astype(int))
    grid = grid[(grid >= 1) & (grid <= n_final)]
    if grid.size == 0 or grid[-1] != n_final:
        grid = np.append(grid, n_final)
    return grid


def default_offsets(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm initial offsets from the root."""
    d, dp = problem.d, problem.d_prime
    return np.ones(d) / math.sqrt(d), np.ones(dp) / math.sqrt(dp)


@dataclass(frozen=True)
class GainMatrices:
    """Premultiplier gains for the matricial 1/n-fast variant."""

    fast: np.ndarray
    slow: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fast", linalg.as_square(self.fast, "fast gain"))
        object.__setattr__(self, "slow", linalg.as_square(self.slow, "slow gain"))


def validate_gains(problem: ProblemSpec, gains: GainMatrices) -> None:
    """Raise unless the gains stabilize the matricial iteration."""
    if gains.fast.shape[0] != problem.d or gains.slow.shape[0] != problem.d_prime:
        raise DimensionError("gain dimensions do not match the problem")
    m = gains.fast @ problem.fast_matrix() + 0.5 * np.eye(problem.d)
    if not linalg.is_hurwitz(m):
        raise ConfigError("fast gain does not stabilize: A*H + I/2 is not Hurwitz")
    if not linalg.is_hurwitz(gains.slow @ problem.q22):
        raise ConfigError("slow gain does not stabilize: A*Q22 is not Hurwitz")


def optimal_gains(problem: ProblemSpec) -> GainMatrices:
    """The efficiency-optimal gains (-H^-1, -G^-1)."""
    gains = GainMatrices(
        fast=-linalg.invert(problem.fast_matrix()),
        slow=-linalg.invert(problem.slow_matrix()),
    )
    validate_gains(problem, gains)
    return gains


def matricial_schedule(a: float) -> StepSchedule:
    """The step schedule implied by the matricial variant: 1/n fast, n^-a slow."""
    return StepSchedule(beta0=1.0, b=1.0, gamma0=1.0, a=a)


@dataclass(frozen=True)
class ResolvedAlgorithm:
    """An algorithm with the schedule that actually runs and its gains.

    ``gains`` is None except for the matricial variant.
    """

    algorithm: str
    schedule: StepSchedule
    gains: GainMatrices | None = None


def resolve_algorithm(
    problem: ProblemSpec,
    schedule: StepSchedule,
    algorithm: str,
    gains: GainMatrices | None = None,
) -> ResolvedAlgorithm:
    """The one place an algorithm name becomes a schedule and gains.

    The averaged algorithm needs a schedule in the averaging regime (A'3).
    The matricial one replaces the schedule with its implied one and
    defaults to the optimal gains; the others ignore ``gains``.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if algorithm == AVERAGED and schedule.regime != AVERAGING:
        raise ConfigError(
            "averaged algorithm requires a schedule in the averaging regime (A'3)"
        )
    if algorithm != MATRICIAL:
        return ResolvedAlgorithm(algorithm, schedule)
    return ResolvedAlgorithm(
        algorithm,
        matricial_schedule(schedule.a),
        gains if gains is not None else optimal_gains(problem),
    )


@dataclass(frozen=True)
class SAState:
    """One trajectory's state at iteration index n (indices start at 1).

    ``x`` is the stacked iterate (theta, mu), whose first ``d`` components are
    the fast ones, and (``x_sum``, ``x_comp``) its compensated running sum, so
    the averages stay accurate over long runs. ``theta``, ``mu``,
    ``theta_bar`` and ``mu_bar`` are read-only views of them.
    """

    n: int
    d: int
    x: np.ndarray
    x_sum: np.ndarray
    x_comp: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        return self.x[: self.d]

    @property
    def mu(self) -> np.ndarray:
        return self.x[self.d :]

    @property
    def theta_bar(self) -> np.ndarray:
        return self.x_sum[: self.d] / self.n

    @property
    def mu_bar(self) -> np.ndarray:
        return self.x_sum[self.d :] / self.n


def _initial_iterate(problem: ProblemSpec, theta0, mu0) -> np.ndarray:
    """The stacked starting point (theta_1, mu_1)."""
    off_f, off_s = default_offsets(problem)
    theta = np.array(theta0, dtype=float) if theta0 is not None else problem.theta_star + off_f
    mu = np.array(mu0, dtype=float) if mu0 is not None else problem.mu_star + off_s
    if theta.shape != (problem.d,) or mu.shape != (problem.d_prime,):
        raise DimensionError("initial iterates do not match the problem dimensions")
    return np.concatenate([theta, mu])


def initial_state(
    problem: ProblemSpec,
    schedule: StepSchedule,
    theta0=None,
    mu0=None,
) -> SAState:
    x = _initial_iterate(problem, theta0, mu0)
    return SAState(n=1, d=problem.d, x=x, x_sum=x.copy(), x_comp=np.zeros_like(x))


@dataclass(frozen=True)
class DecompositionState:
    """Error decomposition companions at index n.

    ``martingale_*`` carries the CLT (the noise-driven leading part),
    ``coupling_*`` the averaged cross-component part. ``parts`` stacks them
    as one ``_DecompKernel`` row, (martingale, coupling) in the (fast, slow)
    layout of the state, and the four attributes are read-only views of it.
    The remainders are never stored; they are the differences
    error - martingale - coupling. All parts start at zero at n = 1.
    """

    n: int
    d: int
    parts: np.ndarray

    @property
    def martingale_fast(self) -> np.ndarray:
        return self.parts.reshape(2, -1)[0, : self.d]

    @property
    def martingale_slow(self) -> np.ndarray:
        return self.parts.reshape(2, -1)[0, self.d :]

    @property
    def coupling_fast(self) -> np.ndarray:
        return self.parts.reshape(2, -1)[1, : self.d]

    @property
    def coupling_slow(self) -> np.ndarray:
        return self.parts.reshape(2, -1)[1, self.d :]


def initial_decomposition(problem: ProblemSpec) -> DecompositionState:
    return DecompositionState(n=1, d=problem.d, parts=np.zeros(2 * problem.dim))


def _once(problem: ProblemSpec, build):
    """``build(problem)``, computed on the first call and kept on the problem.

    ProblemSpec is frozen, so pieces derived from it stay valid for its
    lifetime; ``NoiseModel`` keeps its factor the same way. Per-step callers
    such as ``step`` then pay for no inversion or block assembly.
    """
    pieces = vars(problem).get(build.__name__)
    if pieces is None:
        pieces = build(problem)
        object.__setattr__(problem, build.__name__, pieces)
    return pieces


def _kernel_pieces(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The root x* = (theta*, mu*) and the transposed full Jacobian Q^T."""
    q = np.block([[problem.q11, problem.q12], [problem.q21, problem.q22]])
    return problem.x_star, q.T.copy()


class _Kernel:
    """Precomputed pieces of one advance of the stacked state."""

    def __init__(self, problem: ProblemSpec, rows: int, gains: GainMatrices | None = None):
        x_star, self.qT = _once(problem, _kernel_pieces)
        # one row per state row: a same-shape subtraction is far cheaper than
        # broadcasting a short vector across the rows
        self.x_star = np.tile(x_star, (rows, 1))
        self.residual = None if problem.residual.kind == "none" else problem.residual
        self.bias = None if problem.bias.is_zero() else problem.bias
        self.gainT = None
        if gains is not None:
            gain = np.zeros_like(self.qT)
            gain[: problem.d, : problem.d] = gains.fast
            gain[problem.d :, problem.d :] = gains.slow
            self.gainT = gain.T.copy()

    def advance(self, x, xi, n, steps, bias=None):
        """The rows of x_{n+1}; a given stacked ``bias`` replaces the model's r_n."""
        e = x - self.x_star
        obs = e @ self.qT
        obs += xi
        if self.residual is not None:
            obs += self.residual.evaluate(e)
        if bias is None and self.bias is not None:
            bias = self.bias.values(n)
        if bias is not None:
            obs += bias
        if self.gainT is not None:
            obs = obs @ self.gainT
        obs *= steps
        return x + obs


def _first_diverged(x: np.ndarray, d: int) -> int:
    """Index of the first row that diverged, or -1.

    A row diverges when it is non-finite or when max|theta| + max|mu| of that
    row exceeds the guard. 2 max|x| bounds that sum for every row at once, so
    the common case costs one pass and one reduction. A sum that overflows
    is infinite, so beyond the guard.
    """
    a = np.abs(x)
    if np.maximum.reduce(a, axis=None) <= 0.5 * DIVERGENCE_GUARD:
        return -1
    with np.errstate(over="ignore"):
        bad = ~(a[:, :d].max(axis=1) + a[:, d:].max(axis=1) <= DIVERGENCE_GUARD)
    return int(np.argmax(bad)) if bad.any() else -1


def _step_sizes(d: int, dp: int, beta, gamma) -> np.ndarray:
    """Per-component steps (beta_n 1_d, gamma_n 1_d'), one row per index."""
    return np.repeat(np.stack([beta, gamma], axis=-1), (d, dp), axis=-1)


class _DecompKernel:
    """Recursive updates of the decomposition parts, stacked like the state.

    A state row is (martingale, coupling), each in the (fast, slow) layout of
    x, so one update is  dec @ T1 + xi @ T2 + dx @ T3  with dx = x_{n+1} - x_n:

        martingale' = martingale E^T + (beta (V - W K^T), gamma W)
        coupling'   = coupling E^T + ((beta/gamma) dmu K^T,
                                      gamma (l_f + c_f) Q21^T)

    where E = blockdiag(exp(beta H), exp(gamma Q22)) and K = Q12 Q22^-1, the
    fast component's sensitivity to slow innovations. The coupling's slow
    part consumes the pre-update fast parts. The tables depend on the step
    index only, so ``tables`` builds them for a whole chunk of steps at once.
    """

    def __init__(self, problem: ProblemSpec):
        self.d, self.dim = problem.d, problem.dim
        self.h = problem.fast_matrix()
        self.q22 = problem.q22
        self.q21T = problem.q21.T.copy()
        self.kT = (problem.q12 @ linalg.invert(problem.q22)).T.copy()

    def tables(self, beta: np.ndarray, gamma: np.ndarray):
        """T1, T2 and T3 for the steps (beta[j], gamma[j]), stacked on axis 0."""
        d, dim, span = self.d, self.dim, len(beta)
        b, g = beta[:, None, None], gamma[:, None, None]
        t1 = np.zeros((span, 2 * dim, 2 * dim))
        t2 = np.zeros((span, dim, 2 * dim))
        t3 = np.zeros((span, dim, 2 * dim))
        e_fast = np.stack([linalg.mat_exp(beta_n * self.h).T for beta_n in beta])
        e_slow = np.stack([linalg.mat_exp(gamma_n * self.q22).T for gamma_n in gamma])
        t1[:, :d, :d] = t1[:, dim : dim + d, dim : dim + d] = e_fast
        t1[:, d:dim, d:dim] = t1[:, dim + d :, dim + d :] = e_slow
        t1[:, :d, dim + d :] = t1[:, dim : dim + d, dim + d :] = g * self.q21T
        t2[:, :d, :d] = b * np.eye(d)
        t2[:, d:, :d] = -b * self.kT
        t2[:, d:, d:dim] = g * np.eye(dim - d)
        t3[:, d:, dim : dim + d] = (b / g) * self.kT
        return t1, t2, t3


def _decomp_advance(dec, xi, dx, tables, j):
    """The decomposition rows after step j of ``tables``."""
    t1, t2, t3 = tables
    return dec @ t1[j] + xi @ t2[j] + dx @ t3[j]


def step(
    problem: ProblemSpec,
    schedule: StepSchedule,
    state: SAState,
    noise: tuple[np.ndarray, np.ndarray],
    bias_values: tuple[np.ndarray, np.ndarray] | None = None,
) -> SAState:
    """Advance one trajectory by a single iteration.

    ``noise`` is the freshly drawn innovation pair (V, W); drawing it fresh
    per call is the martingale-difference contract. ``bias_values``, when
    given, is this step's bias pair (r_f, r_g) and replaces the problem's own
    bias model for the step. Raises DivergenceError if the new iterate is
    non-finite or beyond the guard.
    """
    return _single_advance(problem, schedule, state, noise, bias_values, gains=None)


def matricial_step(
    problem: ProblemSpec,
    state: SAState,
    gains: GainMatrices,
    a: float,
    noise: tuple[np.ndarray, np.ndarray],
    bias_values=None,
) -> SAState:
    """Advance the matricial variant: gain/n fast step, gain/n^a slow step."""
    return _single_advance(
        problem, matricial_schedule(a), state, noise, bias_values, gains=gains
    )


def _two_rows(*vectors) -> list[np.ndarray]:
    return [np.tile(v, (_MIN_ROWS, 1)) for v in vectors]


def _stacked(problem: ProblemSpec, pair, name: str) -> np.ndarray:
    """A per-step (fast, slow) pair as one vector in the layout of the state."""
    fast, slow = (np.asarray(part, dtype=float).reshape(-1) for part in pair)
    if fast.shape != (problem.d,) or slow.shape != (problem.d_prime,):
        raise DimensionError(f"{name} dimensions do not match the problem")
    return np.concatenate([fast, slow])


def _single_advance(problem, schedule, state, noise, bias_values, gains):
    n = state.n
    if bias_values is not None:
        bias_values = _stacked(problem, bias_values, "bias")
    x, xi = _two_rows(state.x, _stacked(problem, noise, "noise"))
    steps = _step_sizes(problem.d, problem.d_prime, schedule.beta(n), schedule.gamma(n))
    x = _Kernel(problem, _MIN_ROWS, gains).advance(x, xi, n, steps, bias_values)[:1]
    if _first_diverged(x, problem.d) >= 0:
        raise DivergenceError(
            f"iterate diverged at index {n + 1}", step=n + 1, replication=0
        )
    x_sum, x_comp = _kahan_add(state.x_sum, state.x_comp, x[0])
    return SAState(n=n + 1, d=problem.d, x=x[0], x_sum=x_sum, x_comp=x_comp)


def decompose_step(
    problem: ProblemSpec,
    schedule: StepSchedule,
    dstate: DecompositionState,
    noise: tuple[np.ndarray, np.ndarray],
    mu_delta: np.ndarray,
) -> DecompositionState:
    """Advance the decomposition with the same (V, W) the main step used.

    ``mu_delta`` is the realized slow increment mu_{n+1} - mu_n.
    """
    n = dstate.n
    dec, xi, dx = _two_rows(
        dstate.parts,
        _stacked(problem, noise, "noise"),
        _stacked(problem, (np.zeros(problem.d), mu_delta), "slow increment"),
    )
    tables = _once(problem, _DecompKernel).tables(
        np.array([schedule.beta(n)]), np.array([schedule.gamma(n)])
    )
    dec = _decomp_advance(dec, xi, dx, tables, 0)
    return DecompositionState(n=n + 1, d=problem.d, parts=dec[0])


def _kahan_add(total, comp, term):
    y = term - comp
    t = total + y
    comp_new = (t - total) - y
    return t, comp_new


DECOMP_KEYS = (
    "martingale_fast",
    "coupling_fast",
    "remainder_fast",
    "martingale_slow",
    "coupling_slow",
    "remainder_slow",
)


@dataclass(frozen=True)
class BatchTrace:
    """Checkpointed paths of a replication batch.

    ``x`` and ``x_bar`` are the stacked iterate (theta, mu) and its running
    average, indexed (checkpoint, replication, component) with the first
    ``d`` components the fast ones; ``theta``, ``mu``, ``theta_bar`` and
    ``mu_bar`` are read-only views of them. Norms of the decomposition parts
    are (checkpoint, replication). ``replication(r)`` drops the replication
    axis.
    """

    ns: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    s: np.ndarray
    d: int
    x: np.ndarray
    x_bar: np.ndarray
    decomposition: dict[str, np.ndarray] | None = None

    @property
    def theta(self) -> np.ndarray:
        return self.x[..., : self.d]

    @property
    def mu(self) -> np.ndarray:
        return self.x[..., self.d :]

    @property
    def theta_bar(self) -> np.ndarray:
        return self.x_bar[..., : self.d]

    @property
    def mu_bar(self) -> np.ndarray:
        return self.x_bar[..., self.d :]

    def replication(self, r: int) -> BatchTrace:
        """Replication r's trace, with views into this one's arrays."""
        return replace(
            self,
            x=self.x[:, r],
            x_bar=self.x_bar[:, r],
            decomposition=None if self.decomposition is None else {
                key: val[:, r] for key, val in self.decomposition.items()
            },
        )


def simulate_batch(
    problem: ProblemSpec,
    schedule: StepSchedule,
    n_final: int,
    *,
    base_seed: int,
    replications: int,
    gains: GainMatrices | None = None,
    theta0=None,
    mu0=None,
    track_decomposition: bool = False,
    checkpoints=None,
    chunk: int = _CHUNK,
) -> BatchTrace:
    """Run ``replications`` independent trajectories in lockstep.

    Deterministic for a fixed (base_seed, replications, n_final) triple;
    replication r draws from stream (base_seed, r) regardless of how many
    others run alongside it, and its path depends on neither the batch size
    nor ``chunk``.
    """
    if n_final < 1:
        raise ValueError("n_final must be >= 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if gains is not None:
        validate_gains(problem, gains)
        if track_decomposition:
            raise ConfigError("decomposition tracking applies to the plain iteration only")

    d, dp, dim = problem.d, problem.d_prime, problem.dim
    b = replications
    rows = max(b, _MIN_ROWS)
    kernel = _Kernel(problem, rows, gains)
    dkernel = _once(problem, _DecompKernel) if track_decomposition else None

    beta_arr = schedule.beta_array(n_final)
    gamma_arr = schedule.gamma_array(n_final)
    u_arr, s_arr = schedule.partial_sum_arrays(n_final)

    grid = np.asarray(checkpoints, dtype=int) if checkpoints is not None else checkpoint_indices(n_final)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1 or grid[-1] != n_final:
        raise ValueError("checkpoints must be strictly increasing and end at n_final")
    ckpt_pos = {int(n): i for i, n in enumerate(grid)}
    k = grid.size

    x = np.tile(_initial_iterate(problem, theta0, mu0), (rows, 1))
    xsum, xcomp = x.copy(), np.zeros_like(x)

    dec = np.zeros((rows, 2 * dim)) if track_decomposition else None

    out_x = np.empty((k, b, dim))
    out_xbar = np.empty((k, b, dim))
    out_decomp = {key: np.empty((k, b)) for key in DECOMP_KEYS} if track_decomposition else None

    def record(n: int) -> None:
        i = ckpt_pos.get(n)
        if i is None:
            return
        out_x[i] = x[:b]
        out_xbar[i] = xsum[:b] / n
        if dec is not None:
            mart, coup = dec[:b, :dim], dec[:b, dim:]
            remainder = x[:b] - kernel.x_star[:b] - mart - coup
            for name, part in (("martingale", mart), ("coupling", coup), ("remainder", remainder)):
                out_decomp[name + "_fast"][i] = np.linalg.norm(part[:, :d], axis=1)
                out_decomp[name + "_slow"][i] = np.linalg.norm(part[:, d:], axis=1)

    def trace(m: int) -> BatchTrace:
        """The first m checkpoints."""
        done = grid[:m]
        return BatchTrace(
            ns=done.copy(),
            beta=beta_arr[done - 1],
            gamma=gamma_arr[done - 1],
            u=u_arr[done - 1],
            s=s_arr[done - 1],
            d=d,
            x=out_x[:m],
            x_bar=out_xbar[:m],
            decomposition=None if dec is None else {
                key: val[:m] for key, val in out_decomp.items()
            },
        )

    rngs = [replication_rng(base_seed, r) for r in range(b)]
    record(1)

    n = 1
    # step-major, so each step reads one contiguous (rows, dim) slice
    noise_block = np.empty((chunk, rows, dim))
    while n < n_final:
        span = min(chunk, n_final - n)
        for r in range(b):
            noise_block[:span, r] = problem.noise.draw(rngs[r], (span,))
        noise_block[:span, b:] = noise_block[:span, :1]  # the two-row copy, if any
        beta, gamma = beta_arr[n - 1 : n - 1 + span], gamma_arr[n - 1 : n - 1 + span]
        steps = _step_sizes(d, dp, beta, gamma)
        tables = dkernel.tables(beta, gamma) if dec is not None else None
        for j in range(span):
            xi = noise_block[j]
            x_new = kernel.advance(x, xi, n, steps[j])
            if dec is not None:
                dec = _decomp_advance(dec, xi, x_new - x, tables, j)
            x = x_new
            xsum, xcomp = _kahan_add(xsum, xcomp, x)
            n += 1
            bad = _first_diverged(x, d)
            if bad >= 0:
                raise DivergenceError(
                    f"replication {bad} diverged at index {n}",
                    step=n,
                    replication=bad,
                    trace=trace(int(np.searchsorted(grid, n))),
                )
            record(n)

    return trace(k)


def run(
    problem: ProblemSpec,
    schedule: StepSchedule,
    n_final: int,
    seed: int,
    *,
    algorithm: str = STANDARD,
    gains: GainMatrices | None = None,
    theta0=None,
    mu0=None,
    track_decomposition: bool = False,
    checkpoints=None,
) -> BatchTrace:
    """Run one trajectory and return its checkpointed trace, replication axis dropped.

    Traces are pure functions of (problem, schedule, n_final, seed) and the
    options; the trajectory is identical to replication 0 of a batch with the
    same seed.
    """
    resolved = resolve_algorithm(problem, schedule, algorithm, gains)
    batch = simulate_batch(
        problem,
        resolved.schedule,
        n_final,
        base_seed=seed,
        replications=1,
        gains=resolved.gains,
        theta0=theta0,
        mu0=mu0,
        track_decomposition=track_decomposition,
        checkpoints=checkpoints,
    )
    return batch.replication(0)
