"""Monte Carlo verification harness.

Runs replication ensembles of the coupled iteration, estimates the scaled
error covariances, rate slopes, iterated-logarithm ratio stability, and
decomposition negligibility curves, and compares them with the predicted
covariances. Reports are pure functions of their configuration: replication
r always uses random stream (base_seed, r) and every statistic is computed
from the per-replication arrays in canonical replication order, so
aggregation is insensitive to completion order.

Finite-n trend thresholds (the halving factors, window stability factor and
slope band) are artifact calibrations, not theory constants; reports label
them as such.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import theory
from .engine import (
    ALGORITHMS,
    AVERAGED,
    MATRICIAL,
    STANDARD,
    BatchTrace,
    GainMatrices,
    _step_sizes,
    matricial_schedule,
    optimal_gains,
    simulate_batch,
)
from .errors import ConfigError, DegenerateDataError, DivergenceError
from .problems import ProblemSpec
from .schedules import AVERAGING, StepSchedule

KNOWN_CHECKS = ("clt", "averaged_blocks", "slopes", "lil", "negligibility")

# calibrated trend thresholds, frozen after reference runs
HALVING_FACTOR = 0.5
LIL_STABILITY_FACTOR = 2.0
LIL_STABILITY_MIN_FRACTION = 0.95
SLOPE_TOLERANCE = 0.07
DECREASING_MIN_FRACTION = 0.90


@dataclass(frozen=True)
class MCConfig:
    replications: int
    n_final: int
    base_seed: int
    algorithm: str = STANDARD
    tol_rel: float = 0.15
    tol_cross: float = 0.10
    track_decomposition: bool = False
    checks: tuple[str, ...] = ("clt",)
    gains: GainMatrices | None = None
    theta0: np.ndarray | None = None
    mu0: np.ndarray | None = None
    checkpoints: tuple | None = None

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        if self.n_final < 1:
            raise ValueError("n_final must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")

    def as_dict(self) -> dict:
        return {
            "replications": self.replications,
            "n_final": self.n_final,
            "base_seed": self.base_seed,
            "algorithm": self.algorithm,
            "tol_rel": self.tol_rel,
            "tol_cross": self.tol_cross,
            "track_decomposition": self.track_decomposition,
            "checks": list(self.checks),
        }


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def sample_covariance(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased covariance of row-stacked vectors."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 samples of equal dimension")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return mean, 0.5 * (cov + cov.T)


def rel_frobenius(empirical: np.ndarray, predicted: np.ndarray) -> float:
    return float(
        np.linalg.norm(empirical - predicted, "fro") / np.linalg.norm(predicted, "fro")
    )


def clt_verdict(
    empirical: np.ndarray,
    predicted: np.ndarray,
    dims: tuple[int, int],
    tol_rel: float,
    tol_cross: float,
    name: str = "clt",
) -> Verdict:
    """Blockwise covariance comparison for the joint scaled-error CLT.

    Passes iff each diagonal block matches within ``tol_rel`` relative
    Frobenius error and the normalized cross block is below ``tol_cross``.
    A predicted block with zero norm and a nonzero empirical counterpart is
    an automatic fail.
    """
    d, dp = dims
    e = np.asarray(empirical, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if e.shape != (d + dp, d + dp) or p.shape != (d + dp, d + dp):
        raise ValueError("covariance shapes do not match the block structure")
    details: dict = {"tol_rel": tol_rel, "tol_cross": tol_cross}
    passed = True
    for label, sl in (("fast", slice(0, d)), ("slow", slice(d, d + dp))):
        eb, pb = e[sl, sl], p[sl, sl]
        pnorm = np.linalg.norm(pb, "fro")
        if pnorm == 0.0:
            ok = np.linalg.norm(eb, "fro") == 0.0
            details[f"{label}_rel_error"] = math.inf if not ok else 0.0
            if not ok:
                details[f"{label}_diagnostic"] = (
                    "predicted block is zero but empirical block is not"
                )
            passed &= ok
        else:
            rel = rel_frobenius(eb, pb)
            details[f"{label}_rel_error"] = rel
            passed &= rel <= tol_rel
    denom = math.sqrt(
        np.linalg.norm(p[:d, :d], "fro") * np.linalg.norm(p[d:, d:], "fro")
    )
    if denom == 0.0:
        cross = float(np.linalg.norm(e[:d, d:], "fro"))
        details["cross_diagnostic"] = "predicted diagonal blocks are degenerate"
        ok = cross == 0.0
    else:
        cross = float(np.linalg.norm(e[:d, d:], "fro") / denom)
        ok = cross <= tol_cross
    details["cross_error"] = cross
    passed &= ok
    return Verdict(name=name, passed=bool(passed), details=details)


def rate_slope(ns, rms, window: tuple[float, float] | None = None) -> float:
    """Least-squares slope of log(rms) against log(n) over a trailing window.

    Needs at least 4 points spanning 1.5 decades. Zero RMS anywhere in the
    window is degenerate data.
    """
    ns = np.asarray(ns, dtype=float)
    rms = np.asarray(rms, dtype=float)
    if window is not None:
        keep = (ns >= window[0]) & (ns <= window[1])
        ns, rms = ns[keep], rms[keep]
    if ns.size < 4 or ns.size == 0 or math.log10(ns[-1] / ns[0]) < 1.5:
        raise ValueError("need at least 4 checkpoints spanning 1.5 decades")
    if np.any(rms <= 0.0):
        raise DegenerateDataError("zero RMS inside the fitting window")
    x = np.log(ns)
    y = np.log(rms)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def negligibility_curves(trace: BatchTrace) -> dict[str, np.ndarray]:
    """Per-checkpoint medians of the decomposition ratio curves.

    The coupling and remainder parts are normalized by the step scales they
    must be negligible against: sqrt(beta_n) on the fast side and for both
    remainders, sqrt(gamma_n) for the slow coupling part (which itself is of
    order sqrt(beta_n), so this ratio must fall). Ratios against the
    martingale parts are included for the same checkpoints.
    """
    if trace.decomposition is None:
        raise ConfigError("decomposition tracking was not enabled for this run")
    dec = trace.decomposition
    sqrt_beta = np.sqrt(trace.beta)[:, None]
    sqrt_gamma = np.sqrt(trace.gamma)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        curves = {
            "coupling_fast_over_sqrt_beta": dec["coupling_fast"] / sqrt_beta,
            "remainder_fast_over_sqrt_beta": dec["remainder_fast"] / sqrt_beta,
            "coupling_slow_over_sqrt_gamma": dec["coupling_slow"] / sqrt_gamma,
            "remainder_slow_over_sqrt_beta": dec["remainder_slow"] / sqrt_beta,
            "coupling_fast_over_martingale": dec["coupling_fast"]
            / np.where(dec["martingale_fast"] > 0, dec["martingale_fast"], np.nan),
            "coupling_slow_over_martingale": dec["coupling_slow"]
            / np.where(dec["martingale_slow"] > 0, dec["martingale_slow"], np.nan),
        }
    return {key: _nanmedian_rows(val) for key, val in curves.items()}


@dataclass
class MonteCarloReport:
    problem_name: str
    algorithm: str
    schedule: dict
    config: dict
    valid: bool
    ns: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    s: np.ndarray
    scaled_mean: np.ndarray        # (K, d+d') mean of step-scaled errors
    scaled_cov: np.ndarray         # (K, d+d', d+d')
    avg_scaled_mean: np.ndarray    # sqrt(n)-scaled averaged errors
    avg_scaled_cov: np.ndarray
    rms_fast: np.ndarray
    rms_slow: np.ndarray
    lil_max_fast: np.ndarray
    lil_max_slow: np.ndarray
    predicted: dict
    verdicts: list[Verdict]
    rate_slopes: dict = field(default_factory=dict)
    lil_stability: dict = field(default_factory=dict)
    negligibility: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    divergence: dict | None = None
    final_scaled: np.ndarray | None = None      # (M, d+d'), for optional dumps
    final_avg_scaled: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.valid and all(v.passed for v in self.verdicts)

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "kind": "montecarlo",
            "problem": self.problem_name,
            "algorithm": self.algorithm,
            "schedule": self.schedule,
            "mc": self.config,
            "valid": self.valid,
            "passed": self.passed,
            "divergence": self.divergence,
            "checkpoints": {
                "n": self.ns.tolist(),
                "beta": self.beta.tolist(),
                "gamma": self.gamma.tolist(),
                "u": self.u.tolist(),
                "s": self.s.tolist(),
                "scaled_mean": self.scaled_mean.tolist(),
                "scaled_cov": self.scaled_cov.tolist(),
                "avg_scaled_mean": self.avg_scaled_mean.tolist(),
                "avg_scaled_cov": self.avg_scaled_cov.tolist(),
                "rms_fast": self.rms_fast.tolist(),
                "rms_slow": self.rms_slow.tolist(),
                "lil_max_fast": self.lil_max_fast.tolist(),
                "lil_max_slow": self.lil_max_slow.tolist(),
            },
            "negligibility": {k: v.tolist() for k, v in self.negligibility.items()},
            "rate_slopes": self.rate_slopes,
            "lil_stability": self.lil_stability,
            "predicted": {k: v.tolist() for k, v in self.predicted.items()},
            "verdicts": [v.as_dict() for v in self.verdicts],
            "diagnostics": self.diagnostics,
            "note": "trend thresholds and tolerance bands are artifact "
            "calibrations, frozen after reference runs",
        }


def _kurtosis_deviation(samples: np.ndarray) -> float:
    centered = samples - samples.mean(axis=0)
    var = centered.var(axis=0)
    if not np.any(var > 0):
        return math.nan
    fourth = (centered**4).mean(axis=0)
    kurt = fourth / np.where(var > 0, var**2, np.nan)
    return float(np.nanmax(np.abs(kurt - 3.0)))


def _nanmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise nanmax that returns NaN (without warning) for all-NaN rows."""
    out = np.full(values.shape[0], np.nan)
    has_data = np.isfinite(values).any(axis=1)
    if np.any(has_data):
        out[has_data] = np.nanmax(values[has_data], axis=1)
    return out


def _nanmedian_rows(values: np.ndarray) -> np.ndarray:
    out = np.full(values.shape[0], np.nan)
    has_data = np.isfinite(values).any(axis=1)
    if np.any(has_data):
        out[has_data] = np.nanmedian(values[has_data], axis=1)
    return out


def _window_max(ns, values, lo: float, hi: float) -> np.ndarray:
    keep = (ns > lo) & (ns <= hi)
    if not np.any(keep):
        raise ValueError("empty stability window")
    return np.nanmax(values[keep], axis=0)


def run_monte_carlo(
    problem: ProblemSpec, schedule: StepSchedule, mc: MCConfig
) -> MonteCarloReport:
    """Run the full replication experiment and assemble the report.

    The averaged algorithm requires a schedule in the averaging regime; the
    matricial algorithm replaces the schedule with its implied one (1/n fast
    step, n^-a slow step) and defaults to the optimal gains. A divergent
    replication invalidates the whole report; it is recorded, never dropped.
    """
    gains = None
    run_schedule = schedule
    if mc.algorithm == AVERAGED and schedule.regime != AVERAGING:
        raise ConfigError(
            "averaged algorithm requires a schedule in the averaging regime (A'3)"
        )
    if mc.algorithm == MATRICIAL:
        gains = mc.gains if mc.gains is not None else optimal_gains(problem)
        run_schedule = matricial_schedule(schedule.a)

    predicted = _predictions(problem, run_schedule, mc.algorithm, gains)
    schedule_echo = {
        "beta0": run_schedule.beta0,
        "b": run_schedule.b,
        "gamma0": run_schedule.gamma0,
        "a": run_schedule.a,
        "regime": run_schedule.regime,
    }

    try:
        trace = simulate_batch(
            problem,
            run_schedule,
            mc.n_final,
            base_seed=mc.base_seed,
            replications=mc.replications,
            gains=gains,
            theta0=mc.theta0,
            mu0=mc.mu0,
            track_decomposition=mc.track_decomposition,
            checkpoints=mc.checkpoints,
        )
    except DivergenceError as exc:
        return _invalid_report(problem, mc, schedule_echo, predicted, exc)

    return _aggregate(problem, run_schedule, mc, trace, predicted, schedule_echo)


def _predictions(problem, run_schedule, algorithm, gains) -> dict:
    predicted = {
        "fast_cov": theory.fast_error_cov(problem, run_schedule)
        if algorithm != MATRICIAL
        else theory.gain_fast_cov(problem, gains.fast),
        "slow_cov": theory.slow_error_cov(problem)
        if algorithm != MATRICIAL
        else theory.gain_slow_cov(problem, gains.slow),
    }
    opt_fast, opt_slow = theory.optimal_covariances(problem)
    predicted["optimal_fast_cov"] = opt_fast
    predicted["optimal_slow_cov"] = opt_slow
    predicted["averaged_cov"] = theory.averaged_covariance(problem)
    return predicted


def _invalid_report(problem, mc, schedule_echo, predicted, exc) -> MonteCarloReport:
    empty = np.empty((0,))
    dim = problem.dim
    verdict = Verdict(
        name="clt",
        passed=False,
        details={"diagnostic": f"replication {exc.replication} diverged at index {exc.step}"},
    )
    return MonteCarloReport(
        problem_name=problem.name,
        algorithm=mc.algorithm,
        schedule=schedule_echo,
        config=mc.as_dict(),
        valid=False,
        ns=empty,
        beta=empty,
        gamma=empty,
        u=empty,
        s=empty,
        scaled_mean=np.empty((0, dim)),
        scaled_cov=np.empty((0, dim, dim)),
        avg_scaled_mean=np.empty((0, dim)),
        avg_scaled_cov=np.empty((0, dim, dim)),
        rms_fast=empty,
        rms_slow=empty,
        lil_max_fast=empty,
        lil_max_slow=empty,
        predicted=predicted,
        verdicts=[verdict],
        divergence={"replication": exc.replication, "step": exc.step},
    )


def _aggregate(problem, run_schedule, mc, trace, predicted, schedule_echo) -> MonteCarloReport:
    d, dp, dim = problem.d, problem.d_prime, problem.dim
    k = trace.ns.size

    x_star = problem.x_star
    err = trace.x - x_star
    scaled = err / np.sqrt(_step_sizes(d, dp, trace.beta, trace.gamma))[:, None, :]
    avg_scaled = (trace.x_bar - x_star) * np.sqrt(trace.ns.astype(float))[:, None, None]

    scaled_mean = np.empty((k, dim))
    scaled_cov = np.empty((k, dim, dim))
    avg_mean = np.empty((k, dim))
    avg_cov = np.empty((k, dim, dim))
    for i in range(k):
        scaled_mean[i], scaled_cov[i] = sample_covariance(scaled[i])
        avg_mean[i], avg_cov[i] = sample_covariance(avg_scaled[i])

    norm_f = np.linalg.norm(err[..., :d], axis=2)
    norm_s = np.linalg.norm(err[..., d:], axis=2)
    rms_fast = np.sqrt((norm_f**2).mean(axis=1))
    rms_slow = np.sqrt((norm_s**2).mean(axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.where(trace.u > 1.0, np.log(trace.u), np.nan)
        log_s = np.where(trace.s > 1.0, np.log(trace.s), np.nan)
        lil_f = norm_f / np.sqrt(trace.beta * log_u)[:, None]
        lil_s = norm_s / np.sqrt(trace.gamma * log_s)[:, None]
    lil_max_fast = _nanmax_rows(lil_f)
    lil_max_slow = _nanmax_rows(lil_s)

    negligibility = {}
    decreasing_fraction = None
    if trace.decomposition is not None:
        negligibility = negligibility_curves(trace)
        # per-path decrease is only meaningful across decades, not adjacent
        # grid points, once the remainder sits at its noise floor
        targets = [trace.ns[-1] / 100.0, trace.ns[-1] / 10.0, float(trace.ns[-1])]
        idx = sorted({int(np.argmin(np.abs(trace.ns - t))) for t in targets})
        if len(idx) == 3:
            tail = trace.decomposition["remainder_fast"][idx] / np.sqrt(
                trace.beta[idx]
            )[:, None]
            decreasing_fraction = float(
                np.mean((tail[0] > tail[1]) & (tail[1] > tail[2]))
            )

    report = MonteCarloReport(
        problem_name=problem.name,
        algorithm=mc.algorithm,
        schedule=schedule_echo,
        config=mc.as_dict(),
        valid=True,
        ns=trace.ns,
        beta=trace.beta,
        gamma=trace.gamma,
        u=trace.u,
        s=trace.s,
        scaled_mean=scaled_mean,
        scaled_cov=scaled_cov,
        avg_scaled_mean=avg_mean,
        avg_scaled_cov=avg_cov,
        rms_fast=rms_fast,
        rms_slow=rms_slow,
        lil_max_fast=lil_max_fast,
        lil_max_slow=lil_max_slow,
        predicted=predicted,
        verdicts=[],
        negligibility=negligibility,
        final_scaled=scaled[-1],
        final_avg_scaled=avg_scaled[-1],
    )
    kurt_dev = _kurtosis_deviation(scaled[-1])
    report.diagnostics["kurtosis_max_dev_scaled"] = (
        kurt_dev if math.isfinite(kurt_dev) else None
    )
    report.diagnostics["kurtosis_soft_bound"] = 0.3
    if decreasing_fraction is not None:
        report.diagnostics["remainder_fast_decreasing_fraction"] = decreasing_fraction

    if "slopes" in mc.checks or mc.n_final >= 1000:
        window = (mc.n_final / 100.0, float(mc.n_final))
        try:
            report.rate_slopes = {
                "fast": rate_slope(trace.ns, rms_fast, window),
                "slow": rate_slope(trace.ns, rms_slow, window),
                "window": list(window),
            }
        except (ValueError, DegenerateDataError):
            report.rate_slopes = {}

    if ("lil" in mc.checks or mc.n_final >= 1000) and k >= 3:
        try:
            report.lil_stability = _lil_stability(trace, lil_f, lil_s, mc.n_final)
        except ValueError:
            report.lil_stability = {}

    report.verdicts = _build_verdicts(report, mc, run_schedule, dims=(d, dp))
    return report


def _lil_stability(trace, lil_f, lil_s, n_final) -> dict:
    lo, mid, hi = n_final / 100.0, n_final / 10.0, float(n_final)
    w1_f = _window_max(trace.ns, lil_f, lo, mid)
    w2_f = _window_max(trace.ns, lil_f, mid, hi)
    w1_s = _window_max(trace.ns, lil_s, lo, mid)
    w2_s = _window_max(trace.ns, lil_s, mid, hi)
    return {
        "fast_fraction": float(np.mean(w2_f <= LIL_STABILITY_FACTOR * w1_f)),
        "slow_fraction": float(np.mean(w2_s <= LIL_STABILITY_FACTOR * w1_s)),
        "factor": LIL_STABILITY_FACTOR,
        "windows": [[lo, mid], [mid, hi]],
    }


def _build_verdicts(report, mc, run_schedule, dims) -> list[Verdict]:
    verdicts: list[Verdict] = []
    d, dp = dims
    final_cov = report.scaled_cov[-1]
    final_avg_cov = report.avg_scaled_cov[-1]

    if "clt" in mc.checks:
        if mc.algorithm == STANDARD:
            joint = np.zeros((d + dp, d + dp))
            joint[:d, :d] = report.predicted["fast_cov"]
            joint[d:, d:] = report.predicted["slow_cov"]
            verdicts.append(
                clt_verdict(final_cov, joint, dims, mc.tol_rel, mc.tol_cross)
            )
        elif mc.algorithm == AVERAGED:
            rel = rel_frobenius(final_avg_cov, report.predicted["averaged_cov"])
            verdicts.append(
                Verdict(
                    name="clt",
                    passed=rel <= mc.tol_rel,
                    details={"joint_rel_error": rel, "tol_rel": mc.tol_rel},
                )
            )
        else:  # matricial: the sqrt(n)-scaled fast block carries the efficiency claim
            rel_fast = rel_frobenius(final_cov[:d, :d], report.predicted["fast_cov"])
            rel_slow = rel_frobenius(final_cov[d:, d:], report.predicted["slow_cov"])
            verdicts.append(
                Verdict(
                    name="clt",
                    passed=rel_fast <= mc.tol_rel,
                    details={
                        "fast_rel_error": rel_fast,
                        "slow_rel_error_informational": rel_slow,
                        "tol_rel": mc.tol_rel,
                    },
                )
            )

    if "averaged_blocks" in mc.checks:
        rel_f = rel_frobenius(final_avg_cov[:d, :d], report.predicted["optimal_fast_cov"])
        rel_s = rel_frobenius(final_avg_cov[d:, d:], report.predicted["optimal_slow_cov"])
        verdicts.append(
            Verdict(
                name="averaged_blocks",
                passed=rel_f <= mc.tol_rel and rel_s <= mc.tol_rel,
                details={
                    "fast_rel_error": rel_f,
                    "slow_rel_error": rel_s,
                    "tol_rel": mc.tol_rel,
                },
            )
        )

    if "slopes" in mc.checks:
        if not report.rate_slopes:
            verdicts.append(
                Verdict("slopes", False, {"diagnostic": "not enough checkpoints to fit"})
            )
        else:
            target_f = -run_schedule.b / 2.0
            target_s = -run_schedule.a / 2.0
            dev_f = abs(report.rate_slopes["fast"] - target_f)
            dev_s = abs(report.rate_slopes["slow"] - target_s)
            verdicts.append(
                Verdict(
                    name="slopes",
                    passed=dev_f <= SLOPE_TOLERANCE and dev_s <= SLOPE_TOLERANCE,
                    details={
                        "fast_slope": report.rate_slopes["fast"],
                        "fast_target": target_f,
                        "slow_slope": report.rate_slopes["slow"],
                        "slow_target": target_s,
                        "tolerance": SLOPE_TOLERANCE,
                    },
                )
            )

    if "lil" in mc.checks:
        if not report.lil_stability:
            verdicts.append(
                Verdict("lil", False, {"diagnostic": "not enough checkpoints"})
            )
        else:
            frac_f = report.lil_stability["fast_fraction"]
            frac_s = report.lil_stability["slow_fraction"]
            verdicts.append(
                Verdict(
                    name="lil",
                    passed=frac_f >= LIL_STABILITY_MIN_FRACTION
                    and frac_s >= LIL_STABILITY_MIN_FRACTION,
                    details={
                        "fast_fraction": frac_f,
                        "slow_fraction": frac_s,
                        "min_fraction": LIL_STABILITY_MIN_FRACTION,
                    },
                )
            )

    if "negligibility" in mc.checks:
        verdicts.append(_negligibility_verdict(report))

    return verdicts


def _negligibility_verdict(report) -> Verdict:
    if not report.negligibility:
        return Verdict(
            "negligibility", False, {"diagnostic": "decomposition tracking not enabled"}
        )
    ns = report.ns
    ref = int(np.argmin(np.abs(ns - ns[-1] / 100.0)))
    details: dict = {"reference_n": int(ns[ref]), "final_n": int(ns[-1]),
                     "halving_factor": HALVING_FACTOR}
    passed = True
    for key in (
        "coupling_fast_over_sqrt_beta",
        "remainder_fast_over_sqrt_beta",
        "remainder_slow_over_sqrt_beta",
    ):
        curve = report.negligibility[key]
        ratio = float(curve[-1] / curve[ref]) if curve[ref] > 0 else math.inf
        details[f"{key}_decay"] = ratio
        passed &= ratio < HALVING_FACTOR
    frac = report.diagnostics.get("remainder_fast_decreasing_fraction")
    if frac is not None:
        details["remainder_fast_decreasing_fraction"] = frac
        details["min_decreasing_fraction"] = DECREASING_MIN_FRACTION
        passed &= frac >= DECREASING_MIN_FRACTION
    return Verdict("negligibility", bool(passed), details)
