"""Coupled two-time-scale iteration engine.

Runs the fast/slow recursion, its matricial-gain variant and the running
averages, optionally tracking the martingale / coupling / remainder
decomposition of each error component alongside the main path.

One kernel advances every path, in error coordinates: its state is
z = x - x* for the stacked iterate x = (theta, mu), one row per replication,
shape (B, d+d'). In z the coupled recursion is affine, with matrices that
depend on the step index alone, so one step is one table product

    z_{n+1} = z_n A_n + gain(xi_{n+1} S_n)  [+ gain(rho(z_n) S_n)]  [+ gain(r_n S_n)]

with A_n = I + Q^T G^T S_n and gain(v) = v G^T. Q = [[Q11, Q12], [Q21, Q22]]
is the full Jacobian, G = blockdiag(A_fast, A_slow) for the matricial
variant (the identity otherwise, where gain(v) is v itself) and
S_n = diag(beta_n 1_d, gamma_n 1_d') the per-component step; G and S_n
commute. The steps and the gain multiply the whole observation, so the
noise xi, the residual rho and the bias r enter through one gain map,
``_Kernel.gain``, each already scaled by its steps. The innovation term
u_n = gain(xi_{n+1} S_n) is built as the noise of a chunk is drawn, a
scratch group of ``_GROUP`` replications at a time
(``_Kernel.innovations``): each replication's unit draws e
(``NoiseModel.draw``) go into its slot of the group, the group takes the
noise factor, xi = e F^T, in one product (``NoiseModel.apply_factor``), then
the steps S and the gain. ``step`` is given xi and writes its one row
gain(xi S_n) straight in. The residual's term is mapped on each step, and the
bias row c_n = gain(r_n S_n) is added per step.
``simulate_batch`` builds A and c once per chunk of steps, as stacked
(span, ., .) tables; ``step`` builds one-step tables through the same
code. Each (problem, gains) pair has one ``_Kernel``, built and its gains
checked on first use, then kept on the problem (``_kernel``).
A tracked run's decomposition tables T1 and T2 (``_Kernel``) are part of the
same step tables. Their problem pieces, Q12 Q22^-1 and H from the problem's
one derivation (``ProblemSpec``) and the ``linalg.exp_basis`` of H and of
Q22, are read on the first tracked use and kept, so an untracked run never
inverts Q22.
The matricial variant is this recursion with the gain G and the schedule
``matricial_schedule(a)``. ``step``, ``run`` and ``simulate_batch`` all take
that (schedule, gains) pair and reject gains that do not stabilize it, and
``resolve_algorithm`` is what turns an algorithm name into it.

One state and one step loop serve every caller. An ``SAState`` holds z, its
running sum and, when the decomposition is tracked, the (martingale,
coupling) ``parts``. ``_Rows`` tiles a state to rows, and its ``advance``
runs a chunk's steps in place. The chunk's noise block, (chunk + 1) x rows x
(d+d') doubles and the only array of that size, has one leading row, which
takes the starting z; step j reads row j and overwrites row j + 1, its
innovation u_j, with z_{n+j+1}. IEEE addition commutes, so u_j + z A_j is
z A_j + u_j bit for bit, and the states need no memory beyond the noise. The
per-step loop runs only the step (its affine part, residual and bias row)
and a tracked run's decomposition update, for every problem. Everything
else takes one pass per chunk over the states the loop wrote:

- the divergence guard is one ``_Kernel.first_diverged`` call over them as
  one step-major list of rows, so the first row it flags is the lowest
  replication of the first step holding a diverged row: the (index,
  replication) a guard after every step names. Rows are independent, so the
  rows that have not diverged step as they would without the diverged ones,
  and the steps after a divergence are discarded, including what rho
  returned for the diverged rows;
- the running sum adds them in index order, one ``np.add.reduce`` per
  stretch between fold indices and checkpoints;
- the checkpoint records read them, after the guard.

The running sum is blocked: z is added to a plain partial sum, which is
folded into a Kahan-compensated total whenever the index n is a multiple
of ``_FOLD`` (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
sections 4.2-4.3). Its error stays below about (_FOLD + 2) u sum_i |z_i|,
u the unit roundoff, whatever n; a plain running sum's bound grows as n u.
The fold indices are absolute, so they do not depend on the chunk, the batch
or how ``step`` calls are chained; nor do the sums, because a stretch's
reduction starts from the partial sum (copied into the row before the
stretch) and adds one row after another, as a step-by-step sum would.

``_Rows`` tiles a state to a count of rows: ``simulate_batch`` asks for its
replications, ``step`` for one. It rounds the count up to a multiple of
``linalg.ROW_ALIGN`` = 4, the extra rows repeating row 0, and every product
whose row count depends on the batch or the chunk goes through
``linalg.rows_dot``: the quadratic residual's selection and coefficient
products (``NonlinearResidual``), every product of the gain map and the
noise factor's product (``NoiseModel.apply_factor``), so a replication's xi
rounds alike in a group of any size. The step loop's products (the step and
both decomposition products) go through the ``linalg.row_product`` of their
shape, picked once per chunk. That is the row rule of ``linalg``: each row
of such a product rounds alike at every row count. Everything else is
elementwise, such as the residual's term rho S_n, one multiply of rho viewed
as rows of ``ROW_ALIGN`` states by the steps tiled as many times.

The trace keeps what the state keeps: a ``BatchTrace`` holds the errors z and
their averages z_bar, as the rows hold them, in (checkpoint, replication,
d+d') arrays, and a tracked run's (martingale, coupling) rows ``parts`` in a
(checkpoint, replication, 2(d+d')) one. It shares ``SAState``'s views
(``_IterateViews``), of the iterates and of the four parts, and a checkpoint's
record only copies: the norms are derived (``BatchTrace.decomposition``).
``BatchTrace.replication(r)`` is one replication's trace with the replication
axis dropped; ``run`` returns replication 0. Checkpoints 1..n_final give the
every-step paths.

Replication r of a seed draws from its own counter-based stream, so its path
does not depend on the batch size; nor on the chunk size, because the row
rule rounds each row alike whatever the row count of a product, and no table
entry depends on the chunk it is built in. A single run is exactly
replication 0 of a batch with the same seed, and chained ``step`` calls
reproduce ``run``, decomposition included; all bit for bit, at every
dimension.
Advancing z rounds differently from advancing x, so the paths agree with the
x recursion to about 1e-13 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ConfigError, DimensionError, DivergenceError
from .problems import ProblemSpec, _a2_holds
from .schedules import AVERAGING, StepSchedule, _a3_holds

DIVERGENCE_GUARD = 1e9
_CHUNK = 256
_FOLD = 64  # indices per block of the running sum, see the module docstring
_GROUP = 64  # replications per scratch group in ``_Kernel.innovations``
_NO_MARKS = np.empty(0, dtype=int)

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
    if not isinstance(per_decade, (int, np.integer)) or per_decade < 1:
        raise ValueError(f"per_decade must be an integer >= 1, got {per_decade!r}")
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
    """Raise unless the gains stabilize the matricial iteration.

    The fast rule is A3(ii) at beta0 = 1, 1/2 < Lambda(A H)
    (``schedules._a3_holds``); the slow one is A2(ii) for A Q22,
    Lambda(A Q22) > 0 (``problems._a2_holds``). Validate reports both
    through the same predicates.
    """
    if gains.fast.shape[0] != problem.d or gains.slow.shape[0] != problem.d_prime:
        raise DimensionError("gain dimensions do not match the problem")
    if not _a3_holds(1.0, linalg.stability_gap(gains.fast @ problem.fast_matrix())):
        raise ConfigError("fast gain does not stabilize: Lambda(A*H) <= 1/2, A3(ii) at beta0 = 1")
    if not _a2_holds(linalg.stability_gap(gains.slow @ problem.q22)):
        raise ConfigError("slow gain does not stabilize: A*Q22 is not Hurwitz")


def optimal_gains(problem: ProblemSpec) -> GainMatrices:
    """The efficiency-optimal gains (-H^-1, -G^-1)."""
    return GainMatrices(fast=-problem._component(0).inverse, slow=-problem._component(1).inverse)


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

    The averaged algorithm needs a schedule in the averaging regime, which
    needs b < 1 (A'3).
    The matricial one replaces the schedule with its implied one and
    defaults to the optimal gains; the gains must stabilize it
    (``validate_gains``). The others ignore ``gains``.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if algorithm == AVERAGED and not (schedule.regime == AVERAGING and schedule.b < 1.0):
        raise ConfigError(
            "averaged algorithm requires a schedule in the averaging regime with b < 1 "
            f"(A'3); got regime {schedule.regime}, b = {schedule.b}"
        )
    if algorithm != MATRICIAL:
        return ResolvedAlgorithm(algorithm, schedule)
    gains = gains if gains is not None else optimal_gains(problem)
    validate_gains(problem, gains)
    return ResolvedAlgorithm(algorithm, matricial_schedule(schedule.a), gains)


class _IterateViews:
    """x = z + x* = (theta, mu), x_bar = z_bar + x* and their fast (first ``d``)
    and slow parts, computed on every read; ``[..., :d]`` serves a state's
    (d+d',) vectors and a trace's (checkpoint, replication, d+d') arrays alike.

    The same indexing splits the tracked decomposition ``parts``, (martingale,
    coupling) in the (fast, slow) layout of z, into ``martingale_fast`` ...
    ``coupling_slow``; they raise ConfigError when nothing was tracked."""

    @property
    def x(self) -> np.ndarray:
        return self.z + self.x_star

    @property
    def x_bar(self) -> np.ndarray:
        return self.z_bar + self.x_star

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

    def _split(self) -> np.ndarray:
        """``parts`` with its last axis as (martingale, coupling) rows of d+d'."""
        if self.parts is None:
            raise ConfigError(
                "the decomposition is untracked here; pass track_decomposition=True "
                "to initial_state, run or simulate_batch to read it"
            )
        return self.parts.reshape(*self.parts.shape[:-1], 2, -1)

    @property
    def martingale_fast(self) -> np.ndarray:
        return self._split()[..., 0, : self.d]

    @property
    def martingale_slow(self) -> np.ndarray:
        return self._split()[..., 0, self.d :]

    @property
    def coupling_fast(self) -> np.ndarray:
        return self._split()[..., 1, : self.d]

    @property
    def coupling_slow(self) -> np.ndarray:
        return self._split()[..., 1, self.d :]


@dataclass(frozen=True)
class SAState(_IterateViews):
    """One trajectory's state at iteration index n (indices start at 1).

    ``z`` is the error x - x* of the stacked iterate x = (theta, mu), whose
    first ``d`` components are the fast ones. Its running sum is
    ``z_sum + z_part``: (``z_sum``, ``z_comp``) is a compensated total of
    whole blocks of ``_FOLD`` indices, and ``z_part`` the plain sum of the
    indices since the last fold, so the averages stay accurate over long runs
    (module docstring). ``z_bar`` is that sum over n, and the iterate views
    (``_IterateViews``) add the root ``x_star``.

    ``parts`` is None unless the decomposition is tracked. Then it is one
    decomposition row of ``_Kernel``, (martingale, coupling) in the (fast,
    slow) layout of z, which the views ``martingale_fast`` ...
    ``coupling_slow`` split. The martingale carries the CLT (the noise-driven
    leading part), the coupling the averaged cross-component part. The
    remainders are never stored; they are the differences z - martingale -
    coupling.
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
    def z_bar(self) -> np.ndarray:
        return (self.z_sum + self.z_part) / self.n


def _initial_iterate(problem: ProblemSpec, theta0, mu0) -> np.ndarray:
    """The stacked starting point (theta_1, mu_1)."""
    off_f, off_s = default_offsets(problem)
    theta = np.array(theta0, dtype=float) if theta0 is not None else problem.theta_star + off_f
    mu = np.array(mu0, dtype=float) if mu0 is not None else problem.mu_star + off_s
    for name, start, dim in (("theta0", theta, problem.d), ("mu0", mu, problem.d_prime)):
        if start.shape != (dim,):
            raise DimensionError(f"{name} must have shape {(dim,)}, got {start.shape}", key=name)
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


def _kernel(problem: ProblemSpec, gains: GainMatrices | None = None) -> _Kernel:
    """The ``_Kernel`` of (problem, gains), built on first use and kept on the problem.

    ProblemSpec is frozen, so pieces derived from it stay valid for its
    lifetime; ``NoiseModel`` keeps its factor the same way. One kernel is kept
    per gains value, keyed by the bytes of the gains, so per-step callers such
    as ``step`` pay for no inversion, block assembly or gain check after the
    first call with a value. Gains mutated in place have new bytes, so they are
    checked again.
    """
    kernels = vars(problem).setdefault("_kernels", {})  # past the frozen __setattr__
    key = None if gains is None else (gains.fast.tobytes(), gains.slow.tobytes())
    if key not in kernels:
        kernels[key] = _Kernel(problem, gains)
    return kernels[key]


def _step_sizes(d: int, dp: int, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-component steps (beta_n 1_d, gamma_n 1_d'), one row per index."""
    s = np.empty((len(beta), d + dp))
    s[:, :d] = beta[:, None]
    s[:, d:] = gamma[:, None]
    return s


@dataclass(frozen=True)
class _StepTables:
    """The step of a chunk of indices, stacked on axis 0.

    ``s`` holds the steps s_j as (span, dim) rows, ``a`` the (span, dim, dim)
    tables A_j, and ``c`` the (span, dim) bias rows c_j = gain(r_j S_j), or
    None without a bias. ``t1`` and ``t2`` are the (span, 2 dim, 2 dim)
    decomposition tables T1_j and T2_j of ``_Kernel.tables``, or None when
    the run is not tracked.
    """

    s: np.ndarray
    a: np.ndarray
    c: np.ndarray | None
    t1: np.ndarray | None = None
    t2: np.ndarray | None = None


class _Kernel:
    """The affine step z_{n+1} = z_n A_n + u_n + gain(rho(z_n) S_n) + c_n of one
    algorithm, and the decomposition update that a tracked run takes with it.

    ``gain`` is the one gain map of the noise, the residual and the bias
    (module docstring). A is built entry by entry, and every gain product
    row by row, so no step's entries depend on the chunk they are built in.

    A decomposition row is (martingale, coupling), each in the (fast, slow)
    layout of z, so one update is  dec @ T1 + v @ T2  with v = (u, dx) the
    step's pre-scaled innovation u = (beta V, gamma W) and its increment
    dx = z_{n+1} - z_n, the increment x_{n+1} - x_n of the iterate taken
    from the states:

        martingale' = martingale E^T + (u_f - (beta/gamma) u_s K^T, u_s)
        coupling'   = coupling E^T + ((beta/gamma) dmu K^T,
                                      gamma (l_f + c_f) Q21^T)

    where E = blockdiag(exp(beta H), exp(gamma Q22)) and K = Q12 Q22^-1, the
    fast component's sensitivity to slow innovations. The coupling's slow
    part consumes the pre-update fast parts. It takes two products of depth
    2 dim rather than one of depth 4 dim: the row rule would hold for either,
    but merging them would move the decomposition's rounding, for no
    measured gain. H and K need Q22 invertible, so they are read from the
    problem's derivation on the first tracked call, and an untracked run
    never needs it.
    That call also builds the ``linalg.exp_basis`` of H and of Q22 and keeps
    them, so each step's exp(beta H) and exp(gamma Q22) is
    ``linalg.mat_exp(basis, beta)`` and ``linalg.mat_exp(basis, gamma)``: a
    coefficient dot with the kept powers, whose degree and squarings depend
    on the step size alone, so no entry depends on the chunk it is built in.
    """

    def __init__(self, problem: ProblemSpec, gains: GainMatrices | None = None):
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
        if gains is not None:  # the matricial variant, if the gains stabilize it
            validate_gains(problem, gains)
            zero = np.zeros((self.d, self.dp))
            self.gainT = np.block([[gains.fast, zero], [zero.T, gains.slow]]).T.copy()
            self.qgT = self.qgT @ self.gainT
        # Sum z^2 <= bound^2 puts every |x_i| below 0.49 guard + rounding, so
        # max|theta| + max|mu| of every row is within the guard
        bound = 0.49 * DIVERGENCE_GUARD - np.abs(self.x_star).max()
        self.z_sq_max = bound * bound if bound > 0 else -1.0
        self.decomposition = None  # (basis of H, basis of Q22, K^T, Q21^T), see ``tables``

    def tables(self, n: int, beta: np.ndarray, gamma: np.ndarray, biases=None,
               track: bool = False) -> _StepTables:
        """The tables of steps n, n+1, ... with sizes (beta[j], gamma[j]).

        ``biases``, (span, dim) rows, replace the problem's own r_n. With
        ``track``, T1 and T2 of the decomposition update are built too.
        """
        s = _step_sizes(self.d, self.dp, beta, gamma)
        a = self.qgT * s[:, None, :]
        a += self.eye
        if biases is None and self.bias is not None:
            biases = np.stack([self.bias.values(m) for m in range(n, n + len(beta))])
        c = None if biases is None else self.gain(biases * s)
        if not track:
            return _StepTables(s, a, c)
        p = self.problem
        if self.decomposition is None:
            self.decomposition = (
                linalg.exp_basis(p.fast_matrix()),
                linalg.exp_basis(p.q22),
                p._component(0).coupling.T.copy(),
                p.q21.T.copy(),
            )
        basis_h, basis_q22, kT, q21T = self.decomposition
        d, dim = self.d, p.dim
        b, g = beta[:, None, None], gamma[:, None, None]
        t = np.zeros((len(beta), 4 * dim, 2 * dim))
        t1, t2 = t[:, : 2 * dim], t[:, 2 * dim :]
        for j, (beta_n, gamma_n) in enumerate(zip(beta, gamma)):
            t1[j, :d, :d] = linalg.mat_exp(basis_h, beta_n).T
            t1[j, d:dim, d:dim] = linalg.mat_exp(basis_q22, gamma_n).T
        t1[:, dim : dim + d, dim : dim + d] = t1[:, :d, :d]
        t1[:, dim + d :, dim + d :] = t1[:, d:dim, d:dim]
        t1[:, :d, dim + d :] = t1[:, dim : dim + d, dim + d :] = g * q21T
        t2[:, :dim, :dim] = self.eye
        t2[:, d:dim, :d] = -(b / g) * kT
        t2[:, dim + d :, dim : dim + d] = (b / g) * kT
        return _StepTables(s, a, c, t1, t2)

    def gain(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The gain map v G^T of (rows, dim) rows v, into ``out`` when given, by
        one ``linalg.rows_dot``; without gains (G = I) it is v itself.
        """
        return v if self.gainT is None else linalg.rows_dot(v, self.gainT, out)

    def innovations(self, block: np.ndarray, fill, count: int, s: np.ndarray) -> np.ndarray:
        """Fill rows 1..span of the (span + 1, rows, dim) ``block`` with the
        innovation terms u_j = gain(e_{j+1} F^T S_j) of a chunk, and return the
        block.

        ``fill(r, out)`` writes replication r's (span, dim) unit draws e into
        ``out``, for r in range(count), and ``out`` is a slot of a scratch
        group of ``_GROUP`` replications. Each group then takes the noise
        factor, ``NoiseModel.apply_factor``, in one product into a second
        scratch group, is scaled by the steps ``s`` in one call, takes
        ``gain`` back into the first group, and is copied, transposed, into
        the step-major block. The copy moves each (dim,) row as one raw
        element, so its inner loop is over rows rather than over the dim
        entries of one row. Rows past the last replication repeat the first.
        Row 0 is left for ``_Rows.advance``.
        """
        u = block[1:]
        span, _, dim = u.shape
        noise = self.problem.noise
        row = np.dtype((np.void, u.itemsize * dim))  # one row of dim doubles, as raw bytes
        group, factored = np.empty((2, min(_GROUP, count), span, dim))
        for lo in range(0, count, _GROUP):
            size = min(_GROUP, count - lo)
            for r in range(size):
                fill(lo + r, group[r])
            e, g = group[:size].reshape(-1, dim), factored[:size]
            noise.apply_factor(e, g.reshape(-1, dim))
            g *= s
            g = self.gain(g.reshape(-1, dim), e)
            u.view(row)[:, lo : lo + size, 0] = g.reshape(size, span, dim).view(row)[..., 0].T
        u[:, count:] = u[:, :1]
        return block

    def first_diverged(self, z: np.ndarray) -> int:
        """``_first_diverged`` of the iterates z + x*, behind a one-dot test.

        A sum of squares that overflows is infinite and takes the exact path,
        which allocates one array of the size of z and two of its row count.
        """
        if np.vdot(z, z) <= self.z_sq_max:
            return -1
        return _first_diverged(z + self.x_star, self.d)


def _first_diverged(x: np.ndarray, d: int) -> int:
    """Index of the first row that diverged, or -1; leaves |x| in ``x``.

    A row diverges when it is non-finite or when max|theta| + max|mu| of that
    row exceeds the guard. 2 max|x| bounds that sum for every row at once, so
    the common case costs one pass and one reduction. A sum that overflows
    is infinite, so beyond the guard.
    """
    a = np.abs(x, out=x)
    if np.maximum.reduce(a, axis=None) <= 0.5 * DIVERGENCE_GUARD:
        return -1
    row = a[:, :d].max(axis=1)
    with np.errstate(over="ignore"):
        bad = ~(np.add(row, a[:, d:].max(axis=1), out=row) <= DIVERGENCE_GUARD)
    return int(np.argmax(bad)) if bad.any() else -1


def _kahan_add(total, comp, term, scratch) -> None:
    """Add ``term`` to the compensated sum (``total``, ``comp``) in place.

    ``scratch`` holds two arrays of the shape of ``total`` and is overwritten.
    """
    y, t = scratch
    np.subtract(term, comp, out=y)
    np.add(total, y, out=t)
    np.subtract(t, total, out=comp)
    comp -= y
    total[...] = t


class _Rows:
    """A state tiled to ``count`` identical rows, and the one step loop.

    Row r is replication r of a batch. The count is rounded up to a multiple
    of ``linalg.ROW_ALIGN``, so the step loop's products need no padding; a
    single trajectory runs as four rows and keeps the first (the row rule of
    the module docstring).
    """

    def __init__(self, kernel: _Kernel, state: SAState, count: int):
        rows = count + -count % linalg.ROW_ALIGN
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

    def advance(self, w: np.ndarray, tables: _StepTables, marks: np.ndarray, record) -> None:
        """Take the steps of a chunk in place, ``w`` and ``tables`` from ``_Kernel``.

        ``w`` is the (span + 1, rows, dim) block of ``_Kernel.innovations``.
        Row 0 gets the chunk's starting z, and step j reads row j and
        overwrites row j + 1, its innovation, with z_{n+j+1}; so the loop runs
        only the step and, when tracked, the decomposition update, whose
        increment dx is row j + 1 minus row j. The row and table views, and
        the ``linalg.row_product`` of each product's shape, are made once per
        chunk, so a step pays no call beyond its products. A residual's term
        rho S_j is written into the loop's scratch ``prod``, and its
        ``_Kernel.gain`` into the scratch ``gained``, so the step allocates
        no array for it and never modifies an array rho returns. It is one
        multiply of rho, viewed as rows of ``linalg.ROW_ALIGN`` states, by
        the chunk's steps tiled as many times (built once per chunk): the
        products of rho by s_j, each entry by its own step. The guard
        then makes one ``first_diverged`` call over rows 1..span as one
        step-major list, so the first row it flags, split by ``divmod``, is
        the first step that holds a diverged row and the lowest replication
        within it. Steps
        after a divergence are discarded, so rho may see a diverged row,
        under ``np.errstate``, but nothing it returns for one is kept.

        The running sum and the records then take one pass over the rows the
        guard passed: each stretch between fold indices (multiples of
        ``_FOLD``) and marks is added in index order, starting from z_part,
        which is copied into the row before the stretch. After index
        n = ``marks[i]``, ``record(i, n, z, z_sum + z_part, parts)`` sees the
        rows. Raises DivergenceError, with no trace, at the first row the
        guard flags, after recording the marks before it.
        """
        kernel, n0, span = self.kernel, self.n, len(w) - 1
        residual, s, c = kernel.residual, tables.s, tables.c
        w[0] = self.z
        scratch = np.empty((2, *self.z.shape))
        prod, gained = scratch
        if residual is not None:  # rho S_j as rows of ROW_ALIGN states, a longer inner loop
            # (a broadcast fill costs a one-step chunk about a third of np.tile)
            s_tiled = np.empty((span, linalg.ROW_ALIGN * s.shape[1]))
            s_tiled.reshape(span, linalg.ROW_ALIGN, -1)[...] = s[:, None]
            prod_tiled = prod.reshape(-1, s_tiled.shape[1])
        lo, hi = marks.searchsorted((n0 + 1, n0 + span + 1))  # the chunk's marks
        dec, snaps = self.parts, {}
        if dec is not None:
            t1, t2, dim, marked = tables.t1, tables.t2, w.shape[2], set(marks[lo:hi].tolist())
            v, ddot = np.empty_like(dec), linalg.row_product(len(dec), t1[0].size)  # v = (u, dx)
        stop, bad = span, -1
        ws, a, dot = list(w), list(tables.a), linalg.row_product(w.shape[1], tables.a[0].size)
        # an overflow makes a row infinite, and the guard reports it; the rows
        # after it are discarded, whatever they hold
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(span):
                z, out = ws[j], ws[j + 1]
                if dec is not None:
                    v[:, :dim] = out
                out += dot(z, a[j], prod)  # u_j + z A_j, which rounds as z A_j + u_j
                if residual is not None:
                    rho = residual.evaluate(z).reshape(prod_tiled.shape)
                    np.multiply(rho, s_tiled[j], out=prod_tiled)
                    out += kernel.gain(prod, gained)
                if c is not None:
                    out += c[j]
                if dec is not None:
                    np.subtract(out, z, out=v[:, dim:])
                    dec = ddot(dec, t1[j])
                    dec += ddot(v, t2[j])
                    if n0 + j + 1 in marked:
                        snaps[n0 + j + 1] = dec
            if (flat := kernel.first_diverged(w[1:].reshape(-1, w.shape[2]))) >= 0:
                stop, bad = divmod(flat, w.shape[1])
        if bad >= 0:
            last_state = w[stop, bad] + kernel.x_star
        end = n0 + stop
        hi = marks.searchsorted(end + 1)  # the marks the guard passed
        folds = range(n0 - n0 % _FOLD + _FOLD, end + 1, _FOLD)
        zpart, first, i = self.z_part, 0, lo
        for p in sorted({*folds, *marks[lo:hi].tolist(), end} - {n0}):
            k = p - n0
            w[first] = zpart  # that row is in the sum already, or the chunk's start
            np.add.reduce(w[first : k + 1], axis=0, out=zpart)
            if p % _FOLD == 0:
                _kahan_add(self.z_sum, self.z_comp, zpart, scratch)
                zpart.fill(0.0)
            if i < hi and marks[i] == p:
                record(i, p, w[k], self.z_sum + zpart, snaps.get(p))
                i += 1
            first = k
        self.z[...] = w[stop]
        self.n, self.parts = end, dec
        if bad >= 0:
            raise DivergenceError(
                f"replication {bad} diverged at index {end + 1}", step=end + 1,
                replication=bad, last_state=last_state,
            )


def step(
    problem: ProblemSpec,
    schedule: StepSchedule,
    state: SAState,
    noise: tuple[np.ndarray, np.ndarray],
    bias_values: tuple[np.ndarray, np.ndarray] | None = None,
    gains: GainMatrices | None = None,
) -> SAState:
    """Advance one trajectory by a single iteration.

    ``noise`` is the freshly drawn innovation pair (V, W), with the
    covariance of the problem's noise: the fast and slow parts of
    ``noise.apply_factor(noise.draw(rng, ()))``, where ``simulate_batch``
    draws from replication_rng(seed, r). Drawing it fresh per call is the
    martingale-difference contract. ``bias_values``, when
    given, is this step's bias pair (r_f, r_g) and replaces the problem's own
    bias model for the step. ``schedule`` and ``gains`` are the pair
    ``simulate_batch`` takes: the matricial variant is
    ``matricial_schedule(a)`` with gains, which reject a tracked state with
    ConfigError. A tracked state's decomposition parts advance with it.
    Raises DivergenceError if the new iterate is non-finite or beyond the
    guard.
    """
    n = state.n
    kernel = _kernel(problem, gains)
    rows = _Rows(kernel, state, 1)
    if bias_values is not None:
        bias_values = _stacked(problem, bias_values, "bias")[None]
    beta, gamma = np.array([schedule.beta(n)]), np.array([schedule.gamma(n)])
    tables = kernel.tables(n, beta, gamma, bias_values, track=rows.parts is not None)
    # u = gain(xi S_n) on every row; row 0 is scratch until ``advance`` writes z there
    w = np.empty((2, len(rows.z), problem.dim))
    w[1] = kernel.gain(np.multiply(_stacked(problem, noise, "noise"), tables.s[0], out=w[0]))
    rows.advance(w, tables, _NO_MARKS, None)
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
class BatchTrace(_IterateViews):
    """Checkpointed paths of a replication batch, in the state's coordinates.

    ``z`` and ``z_bar`` are the errors x - x* of the stacked iterate
    (theta, mu) and of its running average, indexed (checkpoint,
    replication, component) with the first ``d`` components the fast ones,
    as the kernel computed them. ``parts``, None unless the decomposition is
    tracked, holds each state's (martingale, coupling) row, indexed
    (checkpoint, replication, 2(d+d')). The views (``_IterateViews``) add the
    root ``x_star`` and split ``parts``, as on an ``SAState``; the norms are
    derived in ``decomposition``. ``replication(r)`` drops the replication
    axis.
    """

    ns: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    s: np.ndarray
    d: int
    x_star: np.ndarray
    z: np.ndarray
    z_bar: np.ndarray
    parts: np.ndarray | None = None

    @property
    def decomposition(self) -> dict[str, np.ndarray] | None:
        """Norms of the fast and slow martingale, coupling and remainder z -
        martingale - coupling, keyed by ``DECOMP_KEYS`` and indexed as ``z``
        less its last axis, computed on every read; None when untracked."""
        if self.parts is None:
            return None
        split = self._split()
        mart, coup = split[..., 0, :], split[..., 1, :]
        norms = {}
        for name, part in (("martingale", mart), ("coupling", coup),
                           ("remainder", self.z - mart - coup)):
            norms[name + "_fast"] = np.linalg.norm(part[..., : self.d], axis=-1)
            norms[name + "_slow"] = np.linalg.norm(part[..., self.d :], axis=-1)
        return norms

    def replication(self, r: int) -> BatchTrace:
        """Replication r's trace, with views into this one's arrays."""
        return replace(self, z=self.z[:, r], z_bar=self.z_bar[:, r],
                       parts=None if self.parts is None else self.parts[:, r])


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
    nor ``chunk``. ``checkpoints``, when given, are integral, strictly
    increasing from 1 and end at ``n_final``; ValueError otherwise.
    """
    if n_final < 1:
        raise ValueError("n_final must be >= 1")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")

    d, dim = problem.d, problem.dim
    b = replications
    kernel = _kernel(problem, gains)
    state = initial_state(problem, theta0, mu0, track_decomposition)
    rows = _Rows(kernel, state, b)

    beta_arr = schedule.beta_array(n_final)
    gamma_arr = schedule.gamma_array(n_final)
    u_arr, s_arr = schedule.partial_sum_arrays(n_final)

    grid = checkpoint_indices(n_final) if checkpoints is None else np.asarray(checkpoints)
    if not np.all(np.isfinite(grid) & (grid == np.round(grid))):  # never truncate one
        raise ValueError("checkpoints must be integral")
    grid = grid.astype(int)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1 or grid[-1] != n_final:
        raise ValueError("checkpoints must be strictly increasing and end at n_final")
    k = grid.size

    out_z = np.empty((k, b, dim))
    out_zbar = np.empty((k, b, dim))
    out_parts = np.empty((k, b, 2 * dim)) if track_decomposition else None

    def record(i: int, n: int, z, zsum, dec) -> None:
        out_z[i] = z[:b]
        np.divide(zsum[:b], n, out=out_zbar[i])
        if dec is not None:
            out_parts[i] = dec[:b]

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
            x_star=kernel.x_star,
            z=out_z[:m],
            z_bar=out_zbar[:m],
            parts=None if out_parts is None else out_parts[:m],
        )

    rngs = [replication_rng(base_seed, r) for r in range(b)]
    record(0, 1, rows.z, rows.z_sum + rows.z_part, rows.parts)

    # step-major, so each step reads one contiguous (rows, dim) slice; row 0
    # holds a chunk's starting z, and each step overwrites its innovation
    noise_block = np.empty((chunk + 1, len(rows.z), dim))
    while rows.n < n_final:
        n = rows.n
        span = min(chunk, n_final - n)
        beta, gamma = beta_arr[n - 1 : n - 1 + span], gamma_arr[n - 1 : n - 1 + span]
        tables = kernel.tables(n, beta, gamma, track=track_decomposition)
        w = kernel.innovations(noise_block[: span + 1],
                               lambda r, out: problem.noise.draw(rngs[r], (span,), out=out),
                               b, tables.s)
        try:
            rows.advance(w, tables, grid, record)
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
