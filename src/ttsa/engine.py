"""Coupled two-time-scale iteration engine.

Runs the fast/slow recursion, its matricial-gain variant and the running
averages, optionally tracking the martingale / coupling / remainder
decomposition of each error component alongside the main path.

One kernel advances every path, in error coordinates: its state is
z = x - x* for the stacked iterate x = (theta, mu), one row per replication,
shape (B, d+d'). In z the coupled recursion is affine, with matrices that
depend on the step index alone, so one step is one table product

    z_{n+1} = z_n A_n + u_n  [+ rho(z_n) R_n]  [+ c_n]

with A_n = I + Q^T G^T S_n and R_n = G^T S_n. Q = [[Q11, Q12], [Q21, Q22]] is
the full Jacobian, G = blockdiag(A_fast, A_slow) for the matricial variant
(the identity otherwise) and S_n = diag(beta_n 1_d, gamma_n 1_d') the
per-component step; G and S_n commute. The innovation term
u_n = (xi_{n+1} S_n) G^T is pre-scaled as the noise of a chunk is drawn, the
residual rho enters through R_n, and the bias row c_n = r_n R_n is added per
step. ``simulate_batch`` builds A, R and c once per chunk of steps as stacked
(span, ., .) tables; ``step`` builds one-step tables through the same code.
A tracked run's decomposition tables T1 and T2 (``_Kernel``) are part of the
same step tables. Their problem pieces, H and Q12 Q22^-1, are built on the
first tracked use and kept, so an untracked run never inverts Q22.
The matricial variant is this recursion with the gain G and the schedule
``matricial_schedule(a)``. ``step``, ``run`` and ``simulate_batch`` all take
that (schedule, gains) pair and reject gains that do not stabilize it, and
``resolve_algorithm`` is what turns an algorithm name into it.

One state and one step loop serve every caller. An ``SAState`` holds z, its
running sum and, when the decomposition is tracked, the (martingale,
coupling) ``parts``. ``_Rows`` tiles a state to rows, and its ``advance``
runs a chunk's steps: affine step, divergence guard, decomposition update,
running sum, checkpoint record.

The running sum is blocked: each step adds z to a plain partial sum, which
is folded into a Kahan-compensated total whenever the index n is a multiple
of ``_FOLD`` (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
sections 4.2-4.3). Its error stays below about (_FOLD + 2) u sum_i |z_i|,
u the unit roundoff, whatever n; a plain running sum's bound grows as n u.
The fold indices are absolute, so they do not depend on the chunk, the batch
or how ``step`` calls are chained. ``simulate_batch`` tiles
``initial_state`` to its replications, ``step`` the given state. Never to
fewer than two rows (the two-row rule): a one-row product runs as a
matrix-vector BLAS kernel that rounds differently from the matrix-matrix
kernel of a batch, so a single trajectory runs as two rows and keeps one.

The trace keeps the iterate's layout: a ``BatchTrace`` holds the checkpointed
x = z + x* and its running average x_bar as (checkpoint, replication, d+d')
arrays, with theta, mu and their averages as views. ``BatchTrace.replication(r)``
is one replication's trace with the replication axis dropped; ``run`` returns
replication 0. Checkpoints 1..n_final give the every-step paths.

Replication r of a seed draws from its own counter-based stream, so its path
does not depend on the batch size; nor on the chunk size, because the noise
model scales a one-row draw as two rows and no table entry depends on the
chunk it is built in. A single run is exactly replication 0 of a batch with
the same seed, and chained ``step`` calls reproduce ``run``, decomposition
included; all bit for bit. The batch-size rule needs BLAS to round a row the
same at every row count. In the tests that holds up to d + d' = 24; at 25
(OpenBLAS 0.3.31) ``run`` and replication 0 differ by about 1e-14.
Advancing z rounds differently from advancing x, so the paths agree with the
x recursion to about 1e-13 relative.
"""
from __future__ import annotations

import copy
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
_FOLD = 64  # indices per block of the running sum, see the module docstring

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
    grid = np.rint(10.0 ** (exps / per_decade)).astype(int)
    # the rounded grid never decreases, so a zero step marks a repeat;
    # np.unique would import numpy.ma, about 15 ms of every process's start
    grid = grid[(np.diff(grid, prepend=0) > 0) & (grid <= n_final)]
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
    return GainMatrices(
        fast=-linalg.invert(problem.fast_matrix()),
        slow=-linalg.invert(problem.slow_matrix()),
    )


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
    defaults to the optimal gains; the gains must stabilize it
    (``validate_gains``). The others ignore ``gains``.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if algorithm == AVERAGED and schedule.regime != AVERAGING:
        raise ConfigError(
            "averaged algorithm requires a schedule in the averaging regime (A'3)"
        )
    if algorithm != MATRICIAL:
        return ResolvedAlgorithm(algorithm, schedule)
    gains = gains if gains is not None else optimal_gains(problem)
    validate_gains(problem, gains)
    return ResolvedAlgorithm(algorithm, matricial_schedule(schedule.a), gains)


@dataclass(frozen=True)
class SAState:
    """One trajectory's state at iteration index n (indices start at 1).

    ``z`` is the error x - x* of the stacked iterate x = (theta, mu), whose
    first ``d`` components are the fast ones. Its running sum is
    ``z_sum + z_part``: (``z_sum``, ``z_comp``) is a compensated total of
    whole blocks of ``_FOLD`` indices, and ``z_part`` the plain sum of the
    indices since the last fold, so the averages stay accurate over long runs
    (module docstring). ``x``, ``theta``, ``mu``, ``theta_bar`` and
    ``mu_bar`` are computed from them and the root ``x_star``.

    ``parts`` is None unless the decomposition is tracked. Then it is one
    decomposition row of ``_Kernel``, (martingale, coupling) in the (fast,
    slow) layout of z, with ``martingale_fast`` ... ``coupling_slow`` views
    of it. The martingale carries the CLT (the noise-driven leading part),
    the coupling the averaged cross-component part. The remainders are never
    stored; they are the differences error - martingale - coupling.
    """

    n: int
    d: int
    x_star: np.ndarray
    z: np.ndarray
    z_sum: np.ndarray
    z_comp: np.ndarray
    z_part: np.ndarray
    parts: np.ndarray | None = None

    @property
    def x(self) -> np.ndarray:
        return self.z + self.x_star

    @property
    def theta(self) -> np.ndarray:
        return self.x[: self.d]

    @property
    def mu(self) -> np.ndarray:
        return self.x[self.d :]

    @property
    def theta_bar(self) -> np.ndarray:
        return ((self.z_sum + self.z_part) / self.n + self.x_star)[: self.d]

    @property
    def mu_bar(self) -> np.ndarray:
        return ((self.z_sum + self.z_part) / self.n + self.x_star)[self.d :]

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
    theta0=None,
    mu0=None,
    track_decomposition: bool = False,
) -> SAState:
    """The state at n = 1; tracked decomposition parts start at zero."""
    x_star = _kernel(problem).x_star
    z = _initial_iterate(problem, theta0, mu0) - x_star
    parts = np.zeros(2 * problem.dim) if track_decomposition else None
    return SAState(n=1, d=problem.d, x_star=x_star, z=z, z_sum=z.copy(),
                   z_comp=np.zeros_like(z), z_part=np.zeros_like(z), parts=parts)


def _kernel(problem: ProblemSpec) -> _Kernel:
    """The problem's ``_Kernel``, built on the first call and kept on the problem.

    ProblemSpec is frozen, so pieces derived from it stay valid for its
    lifetime; ``NoiseModel`` keeps its factor the same way. Per-step callers
    such as ``step`` then pay for no inversion or block assembly.
    """
    kernel = vars(problem).get("_kernel")
    if kernel is None:
        kernel = _Kernel(problem)
        object.__setattr__(problem, "_kernel", kernel)
    return kernel


def _step_sizes(d: int, dp: int, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-component steps (beta_n 1_d, gamma_n 1_d'), one row per index."""
    s = np.empty((len(beta), d + dp))
    s[:, :d] = beta[:, None]
    s[:, d:] = gamma[:, None]
    return s


@dataclass(frozen=True)
class _StepTables:
    """The step of a chunk of indices, stacked on axis 0.

    ``s`` holds the steps s_j as (span, dim) rows, ``a`` and ``r`` the
    (span, dim, dim) tables A_j and R_j, and ``c`` the (span, dim) bias rows
    c_j = r_j R_j, or None without a bias. ``t1`` and ``t2`` are the
    (span, 2 dim, 2 dim) decomposition tables T1_j and T2_j of
    ``_Kernel.tables``, or None when the run is not tracked.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    c: np.ndarray | None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None


class _Kernel:
    """The affine step z_{n+1} = z_n A_n + u_n + rho(z_n) R_n + c_n of one algorithm,
    and the decomposition update that a tracked run takes with it.

    A and R are built entry by entry, and c and the gain product of u row by
    row, so no step's entries depend on the chunk they are built in.

    A decomposition row is (martingale, coupling), each in the (fast, slow)
    layout of z, so one update is  dec @ T1 + v @ T2  with v = (u, dx) the
    step's pre-scaled innovation u = (beta V, gamma W) and its increment
    dx = x_{n+1} - x_n of the iterate, taken from x = z + x* (an increment
    of z rounds differently):

        martingale' = martingale E^T + (u_f - (beta/gamma) u_s K^T, u_s)
        coupling'   = coupling E^T + ((beta/gamma) dmu K^T,
                                      gamma (l_f + c_f) Q21^T)

    where E = blockdiag(exp(beta H), exp(gamma Q22)) and K = Q12 Q22^-1, the
    fast component's sensitivity to slow innovations. The coupling's slow
    part consumes the pre-update fast parts. Two products of depth 2 dim
    rather than one of depth 4 dim: BLAS rounds a row the same at any batch
    size only for shallow products. H and K need Q22 invertible, so they are
    built on the first tracked call, and an untracked run never needs it.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.d, self.dp = problem.d, problem.d_prime
        self.x_star = problem.x_star
        self.x_star.flags.writeable = False  # shared by every state it starts
        self.residual = None if problem.residual.kind == "none" else problem.residual
        self.bias = None if problem.bias.is_zero() else problem.bias
        q = np.block([[problem.q11, problem.q12], [problem.q21, problem.q22]])
        self.eye = np.eye(problem.dim)
        self.gainT = None  # G^T, None for the identity
        self.qgT = q.T.copy()  # Q^T G^T
        # Sum z^2 <= bound^2 puts every |x_i| below 0.49 guard + rounding, so
        # max|theta| + max|mu| of every row is within the guard
        bound = 0.49 * DIVERGENCE_GUARD - np.abs(self.x_star).max()
        self.z_sq_max = bound * bound if bound > 0 else -1.0
        self.decomposition = None  # (H, K^T, Q21^T), see ``tables``

    def with_gains(self, gains: GainMatrices | None) -> _Kernel:
        """This kernel for the matricial variant with ``gains``; itself for None.

        Raises unless the gains stabilize the iteration (``validate_gains``).
        """
        if gains is None:
            return self
        validate_gains(self.problem, gains)
        d = self.d
        gain = np.zeros_like(self.eye)
        gain[:d, :d] = gains.fast
        gain[d:, d:] = gains.slow
        kernel = copy.copy(self)
        kernel.gainT = gain.T.copy()
        kernel.qgT = self.qgT @ kernel.gainT
        return kernel

    def tables(self, n: int, beta: np.ndarray, gamma: np.ndarray, biases=None,
               track: bool = False) -> _StepTables:
        """The tables of steps n, n+1, ... with sizes (beta[j], gamma[j]).

        ``biases``, (span, dim) rows, replace the problem's own r_n. With
        ``track``, T1 and T2 of the decomposition update are built too.
        """
        s = _step_sizes(self.d, self.dp, beta, gamma)
        a = self.qgT * s[:, None, :]
        a += self.eye
        r = (self.eye if self.gainT is None else self.gainT) * s[:, None, :]
        if biases is None and self.bias is not None:
            biases = np.stack([self.bias.values(m) for m in range(n, n + len(beta))])
        c = None if biases is None else np.matmul(biases[:, None, :], r)[:, 0]
        if not track:
            return _StepTables(s, a, r, c)
        p = self.problem
        if self.decomposition is None:
            h = p.fast_matrix()
            self.decomposition = h, (p.q12 @ linalg.invert(p.q22)).T.copy(), p.q21.T.copy()
        h, kT, q21T = self.decomposition
        d, dim, q22 = self.d, p.dim, p.q22
        b, g = beta[:, None, None], gamma[:, None, None]
        t = np.zeros((len(beta), 4 * dim, 2 * dim))
        t1, t2 = t[:, : 2 * dim], t[:, 2 * dim :]
        for j, (beta_n, gamma_n) in enumerate(zip(beta, gamma)):
            t1[j, :d, :d] = linalg.mat_exp(beta_n * h).T
            t1[j, d:dim, d:dim] = linalg.mat_exp(gamma_n * q22).T
        t1[:, dim : dim + d, dim : dim + d] = t1[:, :d, :d]
        t1[:, dim + d :, dim + d :] = t1[:, d:dim, d:dim]
        t1[:, :d, dim + d :] = t1[:, dim : dim + d, dim + d :] = g * q21T
        t2[:, :dim, :dim] = self.eye
        t2[:, d:dim, :d] = -(b / g) * kT
        t2[:, dim + d :, dim : dim + d] = (b / g) * kT
        return _StepTables(s, a, r, c, t1, t2)

    def innovations(self, block: np.ndarray, draws, s: np.ndarray) -> np.ndarray:
        """The innovation terms u_j of a chunk, shape (span, rows, dim).

        ``draws`` yields one replication's (span, dim) noise at a time; each
        is scaled by the steps ``s`` as it is copied into ``block``, and rows
        past the last replication repeat the first (the two-row rule).
        """
        r = -1
        for r, xi in enumerate(draws):
            np.multiply(xi, s, out=block[:, r])
        block[:, r + 1 :] = block[:, :1]
        if self.gainT is None:
            return block
        return (block.reshape(-1, block.shape[-1]) @ self.gainT).reshape(block.shape)

    def affine_step(self, z, u, tables: _StepTables, j: int, out: np.ndarray) -> np.ndarray:
        """The rows of z_{n+1} for step j of ``tables``, written into ``out``."""
        z.dot(tables.a[j], out=out)  # ndarray.dot: the same GEMM as @, less dispatch
        out += u
        if self.residual is not None:
            out += self.residual.evaluate(z).dot(tables.r[j])
        if tables.c is not None:
            out += tables.c[j]
        return out

    def first_diverged(self, z: np.ndarray) -> int:
        """``_first_diverged`` of the iterates z + x*, behind a one-dot test.

        A sum of squares that overflows is infinite and takes the exact path.
        """
        if np.vdot(z, z) <= self.z_sq_max:
            return -1
        return _first_diverged(z + self.x_star, self.d)


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


def _kahan_add(total, comp, term, scratch, out) -> None:
    """Add ``term`` to the compensated sum (``total``, ``comp``).

    The new total is written to ``out`` and the new compensation to
    ``comp``; ``scratch`` is overwritten.
    """
    np.subtract(term, comp, out=scratch)
    np.add(total, scratch, out=out)
    np.subtract(out, total, out=comp)
    comp -= scratch


class _Rows:
    """A state tiled to ``rows`` identical rows, and the one step loop.

    Row r is replication r of a batch; a single trajectory is two rows, of
    which the first is kept (the two-row rule of the module docstring).
    """

    def __init__(self, kernel: _Kernel, state: SAState, rows: int):
        if kernel.gainT is not None and state.parts is not None:
            raise ConfigError("decomposition tracking applies to the plain iteration only")
        self.kernel, self.n, self.d = kernel, state.n, state.d
        # one block, not a tile each: per-step callers pay this on every call
        self.z, self.z_sum, self.z_comp, self.z_part = block = np.empty((4, rows, state.z.size))
        block[:] = np.array((state.z, state.z_sum, state.z_comp, state.z_part))[:, None]
        self.parts = None if state.parts is None else state.parts[None].repeat(rows, 0)

    def state(self, r: int) -> SAState:
        """Row r, as views into these rows."""
        return SAState(n=self.n, d=self.d, x_star=self.kernel.x_star, z=self.z[r],
                       z_sum=self.z_sum[r], z_comp=self.z_comp[r], z_part=self.z_part[r],
                       parts=None if self.parts is None else self.parts[r])

    def advance(self, u, tables: _StepTables, marks: dict, record) -> None:
        """Take the steps of a chunk, ``u`` and ``tables`` from ``_Kernel``.

        Each step is the affine step, the guard, the decomposition update and
        the running sum, folded every ``_FOLD`` indices; after a step to index
        n in ``marks``, ``record(marks[n], n, z, z_sum + z_part, parts)`` sees
        the rows. Raises DivergenceError, with no trace, at the first row the
        guard flags.
        """
        kernel, x_star, dim = self.kernel, self.kernel.x_star, self.z.shape[1]
        n, z, zsum, zcomp, zpart = self.n, self.z, self.z_sum, self.z_comp, self.z_part
        dec = self.parts
        z_next, zsum_next, scratch = np.empty((3, *z.shape))
        if dec is not None:
            t1, t2 = tables.t1, tables.t2
            # v = (u, dx), with dx taken from the iterates x = z + x*
            v, x_now, x_new = np.empty_like(dec), z + x_star, np.empty_like(z)
        # an overflow makes a row infinite, and the guard reports it that step
        with np.errstate(over="ignore"):
            for j in range(len(u)):
                kernel.affine_step(z, u[j], tables, j, out=z_next)
                n += 1
                bad = kernel.first_diverged(z_next)
                if bad >= 0:
                    raise DivergenceError(
                        f"replication {bad} diverged at index {n}", step=n, replication=bad
                    )
                if dec is not None:
                    v[:, :dim] = u[j]
                    np.add(z_next, x_star, out=x_new)
                    np.subtract(x_new, x_now, out=v[:, dim:])
                    x_now, x_new = x_new, x_now
                    dec = dec.dot(t1[j])
                    dec += v.dot(t2[j])
                z, z_next = z_next, z
                zpart += z
                if n % _FOLD == 0:
                    _kahan_add(zsum, zcomp, zpart, scratch, out=zsum_next)
                    zsum, zsum_next = zsum_next, zsum
                    zpart.fill(0.0)
                i = marks.get(n)
                if i is not None:
                    record(i, n, z, zsum + zpart, dec)
        self.n, self.z, self.z_sum, self.parts = n, z, zsum, dec


def step(
    problem: ProblemSpec,
    schedule: StepSchedule,
    state: SAState,
    noise: tuple[np.ndarray, np.ndarray],
    bias_values: tuple[np.ndarray, np.ndarray] | None = None,
    gains: GainMatrices | None = None,
) -> SAState:
    """Advance one trajectory by a single iteration.

    ``noise`` is the freshly drawn innovation pair (V, W); drawing it fresh
    per call is the martingale-difference contract. ``bias_values``, when
    given, is this step's bias pair (r_f, r_g) and replaces the problem's own
    bias model for the step. ``schedule`` and ``gains`` are the pair
    ``simulate_batch`` takes: the matricial variant is
    ``matricial_schedule(a)`` with gains, which reject a tracked state with
    ConfigError. A tracked state's decomposition parts advance with it.
    Raises DivergenceError if the new iterate is non-finite or beyond the
    guard.
    """
    n = state.n
    kernel = _kernel(problem).with_gains(gains)
    rows = _Rows(kernel, state, _MIN_ROWS)
    if bias_values is not None:
        bias_values = _stacked(problem, bias_values, "bias")[None]
    beta, gamma = np.array([schedule.beta(n)]), np.array([schedule.gamma(n)])
    tables = kernel.tables(n, beta, gamma, bias_values, track=rows.parts is not None)
    xi = _stacked(problem, noise, "noise")[None]
    u = kernel.innovations(np.empty((1, _MIN_ROWS, problem.dim)), [xi], tables.s)
    rows.advance(u, tables, {}, None)
    return rows.state(0)


def _stacked(problem: ProblemSpec, pair, name: str) -> np.ndarray:
    """A per-step (fast, slow) pair as one vector in the layout of the state."""
    fast, slow = (np.asarray(part, dtype=float).reshape(-1) for part in pair)
    if fast.shape != (problem.d,) or slow.shape != (problem.d_prime,):
        raise DimensionError(f"{name} dimensions do not match the problem")
    return np.concatenate([fast, slow])


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

    d, dim = problem.d, problem.dim
    b = replications
    kernel = _kernel(problem).with_gains(gains)
    x_star = kernel.x_star
    state = initial_state(problem, theta0, mu0, track_decomposition)
    rows = _Rows(kernel, state, max(b, _MIN_ROWS))

    beta_arr = schedule.beta_array(n_final)
    gamma_arr = schedule.gamma_array(n_final)
    u_arr, s_arr = schedule.partial_sum_arrays(n_final)

    grid = np.asarray(checkpoints, dtype=int) if checkpoints is not None else checkpoint_indices(n_final)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1 or grid[-1] != n_final:
        raise ValueError("checkpoints must be strictly increasing and end at n_final")
    ckpt_pos = {int(n): i for i, n in enumerate(grid)}
    k = grid.size

    out_x = np.empty((k, b, dim))
    out_xbar = np.empty((k, b, dim))
    out_decomp = {key: np.empty((k, b)) for key in DECOMP_KEYS} if track_decomposition else None

    def record(i: int, n: int, z, zsum, dec) -> None:
        np.add(z[:b], x_star, out=out_x[i])
        np.add(zsum[:b] / n, x_star, out=out_xbar[i])
        if dec is not None:
            mart, coup = dec[:b, :dim], dec[:b, dim:]
            remainder = out_x[i] - x_star - mart - coup  # the error as states give it
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
            decomposition=None if out_decomp is None else {
                key: val[:m] for key, val in out_decomp.items()
            },
        )

    rngs = [replication_rng(base_seed, r) for r in range(b)]
    record(0, 1, rows.z, rows.z_sum + rows.z_part, rows.parts)

    # step-major, so each step reads one contiguous (rows, dim) slice
    noise_block = np.empty((chunk, len(rows.z), dim))
    while rows.n < n_final:
        n = rows.n
        span = min(chunk, n_final - n)
        beta, gamma = beta_arr[n - 1 : n - 1 + span], gamma_arr[n - 1 : n - 1 + span]
        tables = kernel.tables(n, beta, gamma, track=track_decomposition)
        draws = (problem.noise.draw(rng, (span,)) for rng in rngs)
        u = kernel.innovations(noise_block[:span], draws, tables.s)
        try:
            rows.advance(u, tables, ckpt_pos, record)
        except DivergenceError as exc:
            exc.trace = trace(int(np.searchsorted(grid, exc.step)))
            raise

    return trace(k)


def run(
    problem: ProblemSpec,
    schedule: StepSchedule,
    n_final: int,
    seed: int,
    *,
    gains: GainMatrices | None = None,
    theta0=None,
    mu0=None,
    track_decomposition: bool = False,
    checkpoints=None,
) -> BatchTrace:
    """Run one trajectory and return its checkpointed trace, replication axis dropped.

    ``schedule`` and ``gains`` are the pair ``step`` and ``simulate_batch``
    take, as ``resolve_algorithm`` gives them. Traces are pure functions of
    (problem, schedule, n_final, seed) and the options; the trajectory is
    identical to replication 0 of a batch with the same seed.
    """
    batch = simulate_batch(
        problem,
        schedule,
        n_final,
        base_seed=seed,
        replications=1,
        gains=gains,
        theta0=theta0,
        mu0=mu0,
        track_decomposition=track_decomposition,
        checkpoints=checkpoints,
    )
    return batch.replication(0)
