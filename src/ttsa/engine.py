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
gamma_n 1_d') the per-component step. theta and mu are split off only where a
checkpoint or a recorded step needs them. ``step``, ``matricial_step``,
``run`` and ``simulate_batch`` all go through this kernel.

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
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError, DivergenceError
from .problems import ProblemSpec
from .schedules import StepSchedule

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


@dataclass
class SAState:
    """One trajectory's state at iteration index n (indices start at 1).

    Running averages are maintained as compensated sums so theta_bar stays
    accurate over long runs; ``u_n`` and ``s_n`` are the step sums up to and
    including index n.
    """

    n: int
    theta: np.ndarray
    mu: np.ndarray
    theta_sum: np.ndarray
    theta_comp: np.ndarray
    mu_sum: np.ndarray
    mu_comp: np.ndarray
    u_n: float
    s_n: float

    @property
    def theta_bar(self) -> np.ndarray:
        return self.theta_sum / self.n

    @property
    def mu_bar(self) -> np.ndarray:
        return self.mu_sum / self.n


def _initial_iterates(problem: ProblemSpec, theta0, mu0) -> tuple[np.ndarray, np.ndarray]:
    off_f, off_s = default_offsets(problem)
    theta = np.array(theta0, dtype=float) if theta0 is not None else problem.theta_star + off_f
    mu = np.array(mu0, dtype=float) if mu0 is not None else problem.mu_star + off_s
    if theta.shape != (problem.d,) or mu.shape != (problem.d_prime,):
        raise DimensionError("initial iterates do not match the problem dimensions")
    return theta, mu


def initial_state(
    problem: ProblemSpec,
    schedule: StepSchedule,
    theta0=None,
    mu0=None,
) -> SAState:
    theta, mu = _initial_iterates(problem, theta0, mu0)
    return SAState(
        n=1,
        theta=theta,
        mu=mu,
        theta_sum=theta.copy(),
        theta_comp=np.zeros_like(theta),
        mu_sum=mu.copy(),
        mu_comp=np.zeros_like(mu),
        u_n=schedule.beta(1),
        s_n=schedule.gamma(1),
    )


@dataclass
class DecompositionState:
    """Error decomposition companions at index n.

    ``martingale_*`` carries the CLT (the noise-driven leading part),
    ``coupling_*`` the averaged cross-component part. The remainders are
    never stored; they are the differences error - martingale - coupling.
    All four start at zero at n = 1.
    """

    n: int
    martingale_fast: np.ndarray
    coupling_fast: np.ndarray
    martingale_slow: np.ndarray
    coupling_slow: np.ndarray
    last_v: np.ndarray | None = None
    last_w: np.ndarray | None = None

    def remainders(self, theta_err: np.ndarray, mu_err: np.ndarray):
        delta_f = theta_err - self.martingale_fast - self.coupling_fast
        delta_s = mu_err - self.martingale_slow - self.coupling_slow
        return delta_f, delta_s


def initial_decomposition(problem: ProblemSpec) -> DecompositionState:
    return DecompositionState(
        n=1,
        martingale_fast=np.zeros(problem.d),
        coupling_fast=np.zeros(problem.d),
        martingale_slow=np.zeros(problem.d_prime),
        coupling_slow=np.zeros(problem.d_prime),
    )


class _Kernel:
    """Precomputed pieces of one advance of the stacked state."""

    def __init__(self, problem: ProblemSpec, rows: int, gains: GainMatrices | None = None):
        self.d = problem.d
        # one row per state row: a same-shape subtraction is far cheaper than
        # broadcasting a short vector across the rows
        self.x_star = np.tile(np.concatenate([problem.theta_star, problem.mu_star]), (rows, 1))
        q = np.block([[problem.q11, problem.q12], [problem.q21, problem.q22]])
        self.qT = q.T.copy()
        self.residual = None if problem.residual.kind == "none" else problem.residual
        self.bias = None if problem.bias.is_zero() else problem.bias
        self.gainT = None
        if gains is not None:
            gain = np.zeros_like(q)
            gain[: self.d, : self.d] = gains.fast
            gain[self.d :, self.d :] = gains.slow
            self.gainT = gain.T.copy()

    def advance(self, x, xi, n, steps, bias=None):
        """The rows of x_{n+1}; a given ``bias`` pair replaces the model's r_n."""
        d = self.d
        e = x - self.x_star
        obs = e @ self.qT
        obs += xi
        if self.residual is not None:
            obs += np.concatenate(self.residual.evaluate(e[:, :d], e[:, d:]), axis=1)
        if bias is None and self.bias is not None:
            bias = self.bias.values(n, d, x.shape[1] - d)
        if bias is not None:
            obs += np.concatenate(bias, axis=-1)
        if self.gainT is not None:
            obs = obs @ self.gainT
        obs *= steps
        return x + obs


def _first_diverged(x: np.ndarray, d: int) -> int:
    """Index of the first row that diverged, or -1.

    A row diverges when it is non-finite or when max|theta| + max|mu| of that
    row exceeds the guard. 2 max|x| bounds that sum for every row at once, so
    the common case costs one pass and one reduction.
    """
    a = np.abs(x)
    if 2.0 * np.maximum.reduce(a, axis=None) <= DIVERGENCE_GUARD:
        return -1
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
    part consumes the pre-update fast parts.
    """

    def __init__(self, problem: ProblemSpec):
        d, dim = problem.d, problem.dim
        self.d, self.dim = d, dim
        self.h = problem.fast_matrix()
        self.q22 = problem.q22
        self.q21T = problem.q21.T.copy()
        self.kT = (problem.q12 @ linalg.invert(problem.q22)).T.copy()
        self.i_fast, self.i_slow = np.eye(d), np.eye(dim - d)
        self.t1 = np.zeros((2 * dim, 2 * dim))
        self.t2 = np.zeros((dim, 2 * dim))
        self.t3 = np.zeros((dim, 2 * dim))

    def advance(self, dec, xi, dx, beta_n, gamma_n):
        d, dim, t1, t2, t3 = self.d, self.dim, self.t1, self.t2, self.t3
        e_fast = linalg.mat_exp(beta_n * self.h).T
        e_slow = linalg.mat_exp(gamma_n * self.q22).T
        t1[:d, :d] = t1[dim : dim + d, dim : dim + d] = e_fast
        t1[d:dim, d:dim] = t1[dim + d :, dim + d :] = e_slow
        t1[:d, dim + d :] = t1[dim : dim + d, dim + d :] = gamma_n * self.q21T
        t2[:d, :d] = beta_n * self.i_fast
        t2[d:, :d] = -beta_n * self.kT
        t2[d:, d:dim] = gamma_n * self.i_slow
        t3[d:, dim : dim + d] = (beta_n / gamma_n) * self.kT
        return dec @ t1 + xi @ t2 + dx @ t3


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
    return [np.tile(np.asarray(v, dtype=float), (_MIN_ROWS, 1)) for v in vectors]


def _single_advance(problem, schedule, state, noise, bias_values, gains):
    d = problem.d
    v = np.asarray(noise[0], dtype=float).reshape(-1)
    w = np.asarray(noise[1], dtype=float).reshape(-1)
    if v.shape != (d,) or w.shape != (problem.d_prime,):
        raise DimensionError("noise dimensions do not match the problem")
    if bias_values is not None:
        bias_values = tuple(np.asarray(r, dtype=float) for r in bias_values)
    n = state.n
    x, xi = _two_rows(np.concatenate([state.theta, state.mu]), np.concatenate([v, w]))
    steps = _step_sizes(d, problem.d_prime, schedule.beta(n), schedule.gamma(n))
    x = _Kernel(problem, _MIN_ROWS, gains).advance(x, xi, n, steps, bias_values)[:1]
    if _first_diverged(x, d) >= 0:
        raise DivergenceError(
            f"iterate diverged at index {n + 1}", step=n + 1, replication=0
        )
    xsum, xcomp = _kahan_add(
        np.concatenate([state.theta_sum, state.mu_sum]),
        np.concatenate([state.theta_comp, state.mu_comp]),
        x[0],
    )
    return SAState(
        n=n + 1,
        theta=x[0, :d],
        mu=x[0, d:],
        theta_sum=xsum[:d],
        theta_comp=xcomp[:d],
        mu_sum=xsum[d:],
        mu_comp=xcomp[d:],
        u_n=state.u_n + schedule.beta(n + 1),
        s_n=state.s_n + schedule.gamma(n + 1),
    )


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
    n, d, dim = dstate.n, problem.d, problem.dim
    v = np.asarray(noise[0], dtype=float)
    w = np.asarray(noise[1], dtype=float)
    md = np.asarray(mu_delta, dtype=float)
    if v.shape != (d,) or w.shape != (problem.d_prime,) or md.shape != (problem.d_prime,):
        raise DimensionError("decomposition inputs do not match the problem dimensions")
    dec, xi, dx = _two_rows(
        np.concatenate([dstate.martingale_fast, dstate.martingale_slow,
                        dstate.coupling_fast, dstate.coupling_slow]),
        np.concatenate([v, w]),
        np.concatenate([np.zeros(d), md]),
    )
    dec = _DecompKernel(problem).advance(dec, xi, dx, schedule.beta(n), schedule.gamma(n))[0]
    return DecompositionState(
        n=n + 1,
        martingale_fast=dec[:d],
        coupling_fast=dec[dim : dim + d],
        martingale_slow=dec[d:dim],
        coupling_slow=dec[dim + d :],
        last_v=v.copy(),
        last_w=w.copy(),
    )


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


@dataclass
class BatchTrace:
    """Checkpointed paths of a replication batch.

    Arrays are indexed (checkpoint, replication, component); norms of the
    decomposition parts are (checkpoint, replication). ``full`` holds the
    complete per-step paths when step recording was requested.
    """

    ns: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    theta_bar: np.ndarray
    mu_bar: np.ndarray
    decomposition: dict[str, np.ndarray] | None = None
    full: dict[str, np.ndarray] | None = None

    @property
    def replications(self) -> int:
        return self.theta.shape[1]


class TrajectoryTrace:
    """One replication of a batch trace, with the replication axis dropped.

    Every array is a view into ``batch``: the per-checkpoint schedule values
    are the batch's own, the paths are the replication's column.
    """

    def __init__(self, batch: BatchTrace, replication: int = 0):
        r = replication
        self.batch = batch
        self.ns = batch.ns
        self.beta = batch.beta
        self.gamma = batch.gamma
        self.u = batch.u
        self.s = batch.s
        self.theta = batch.theta[:, r]
        self.mu = batch.mu[:, r]
        self.theta_bar = batch.theta_bar[:, r]
        self.mu_bar = batch.mu_bar[:, r]
        self.decomposition = None
        if batch.decomposition is not None:
            self.decomposition = {key: val[:, r] for key, val in batch.decomposition.items()}
        self.full = None
        if batch.full is not None:
            self.full = {key: val[:, r] for key, val in batch.full.items()}


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
    record_steps: bool = False,
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
    dkernel = _DecompKernel(problem) if track_decomposition else None

    beta_arr = schedule.beta_array(n_final)
    gamma_arr = schedule.gamma_array(n_final)
    u_arr, s_arr = schedule.partial_sum_arrays(n_final)

    grid = np.asarray(checkpoints, dtype=int) if checkpoints is not None else checkpoint_indices(n_final)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1 or grid[-1] != n_final:
        raise ValueError("checkpoints must be strictly increasing and end at n_final")
    ckpt_pos = {int(n): i for i, n in enumerate(grid)}
    k = grid.size

    x = np.tile(np.concatenate(_initial_iterates(problem, theta0, mu0)), (rows, 1))
    xsum, xcomp = x.copy(), np.zeros_like(x)

    dec = np.zeros((rows, 2 * dim)) if track_decomposition else None

    out_x = np.empty((k, b, dim))
    out_xbar = np.empty((k, b, dim))
    out_decomp = {key: np.empty((k, b)) for key in DECOMP_KEYS} if track_decomposition else None
    full = None
    if record_steps:
        full_x = np.empty((n_final, b, dim))
        full_xi = np.empty((n_final - 1, b, dim))
        full = {
            "theta": full_x[..., :d],
            "mu": full_x[..., d:],
            "v": full_xi[..., :d],
            "w": full_xi[..., d:],
        }

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

    def trace(m: int, recorded) -> BatchTrace:
        """The first m checkpoints, with the recorded steps if given."""
        done = grid[:m]
        return BatchTrace(
            ns=done.copy(),
            beta=beta_arr[done - 1],
            gamma=gamma_arr[done - 1],
            u=u_arr[done - 1],
            s=s_arr[done - 1],
            theta=out_x[:m, :, :d],
            mu=out_x[:m, :, d:],
            theta_bar=out_xbar[:m, :, :d],
            mu_bar=out_xbar[:m, :, d:],
            decomposition=None if dec is None else {
                key: val[:m] for key, val in out_decomp.items()
            },
            full=recorded,
        )

    rngs = [replication_rng(base_seed, r) for r in range(b)]
    record(1)
    if record_steps:
        full_x[0] = x[:b]

    n = 1
    # step-major, so each step reads one contiguous (rows, dim) slice
    noise_block = np.empty((chunk, rows, dim))
    while n < n_final:
        span = min(chunk, n_final - n)
        for r in range(b):
            noise_block[:span, r] = problem.noise.draw(rngs[r], (span,))
        noise_block[:span, b:] = noise_block[:span, :1]  # the two-row copy, if any
        steps = _step_sizes(d, dp, beta_arr[n - 1 : n - 1 + span], gamma_arr[n - 1 : n - 1 + span])
        for j in range(span):
            xi = noise_block[j]
            x_new = kernel.advance(x, xi, n, steps[j])
            if dec is not None:
                dec = dkernel.advance(dec, xi, x_new - x, beta_arr[n - 1], gamma_arr[n - 1])
            x = x_new
            xsum, xcomp = _kahan_add(xsum, xcomp, x)
            n += 1
            bad = _first_diverged(x, d)
            if bad >= 0:
                raise DivergenceError(
                    f"replication {bad} diverged at index {n}",
                    step=n,
                    replication=bad,
                    trace=trace(int(np.searchsorted(grid, n)), recorded=None),
                )
            if record_steps:
                full_x[n - 1] = x[:b]
                full_xi[n - 2] = xi[:b]
            record(n)

    return trace(k, full)


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
    record_steps: bool = False,
) -> TrajectoryTrace:
    """Run one trajectory and return its checkpointed trace.

    Traces are pure functions of (problem, schedule, n_final, seed) and the
    options; the trajectory is identical to replication 0 of a batch with the
    same seed.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if algorithm == MATRICIAL:
        if gains is None:
            gains = optimal_gains(problem)
        schedule = matricial_schedule(schedule.a)
    batch = simulate_batch(
        problem,
        schedule,
        n_final,
        base_seed=seed,
        replications=1,
        gains=gains if algorithm == MATRICIAL else None,
        theta0=theta0,
        mu0=mu0,
        track_decomposition=track_decomposition,
        checkpoints=checkpoints,
        record_steps=record_steps,
    )
    return TrajectoryTrace(batch)
