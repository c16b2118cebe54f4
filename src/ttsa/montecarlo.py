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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import theory
from .engine import AVERAGED, BatchTrace, ResolvedAlgorithm, _step_sizes, simulate_batch
from .errors import ConfigError, DegenerateDataError, DivergenceError
from .problems import ProblemSpec

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
    tol_rel: float = 0.15
    tol_cross: float = 0.10
    track_decomposition: bool = False
    checks: tuple[str, ...] = ("clt",)
    theta0: np.ndarray | None = None
    mu0: np.ndarray | None = None
    checkpoints: tuple | None = None

    def __post_init__(self):  # a rejection names its field
        if "negligibility" in self.checks and not self.track_decomposition:
            raise ConfigError("the negligibility check reads the tracked decomposition, so it "
                              "needs track_decomposition = True", key="track_decomposition")
        for name, low, rule in (("n_final", 1, ">= 1"), ("replications", 2, "at least 2"),
                                ("base_seed", 0, "non-negative")):  # counts, and a seed
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ConfigError(f"{name} must be {rule} and integral, got {value!r}", key=name)
        # an infinite tolerance passes every gate, and a NaN one fails every gate
        for name in ("tol_rel", "tol_cross"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}", key=name)
        unknown = set(self.checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}", key="checks")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:  # each check writes one verdict
            raise ConfigError(f"repeated checks: {repeated}", key="checks")

    def as_dict(self) -> dict:
        """The settings a report echoes: all but the start and the grid."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("theta0", "mu0", "checkpoints")}
        return {**echo, "checks": list(self.checks)}


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def sample_covariance(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased covariance of row-stacked vectors, (M, dim) or a
    stack (..., M, dim) of such sets in one pass; each slice of the results
    has the bits of a call on that slice alone, and an empty stack gives empty
    results."""
    x = np.asarray(samples, dtype=float)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise ValueError("need at least 2 samples of equal dimension")
    mean = x.mean(axis=-2)
    centered = x - mean[..., None, :]
    cov = np.matmul(centered.swapaxes(-1, -2), centered) / (x.shape[-2] - 1)
    return mean, 0.5 * (cov + cov.swapaxes(-1, -2))


def rel_frobenius(empirical: np.ndarray, predicted: np.ndarray) -> float:
    """Relative Frobenius error of ``empirical`` against ``predicted``.

    A zero predicted block gives 0.0 when the empirical block is zero too,
    and inf otherwise.
    """
    pnorm = np.linalg.norm(predicted, "fro")
    if pnorm == 0.0:
        return 0.0 if np.linalg.norm(empirical, "fro") == 0.0 else math.inf
    return float(np.linalg.norm(empirical - predicted, "fro") / pnorm)


def clt_verdict(
    empirical: np.ndarray,
    predicted: np.ndarray,
    dims: tuple[int, int],
    tol_rel: float,
    tol_cross: float,
) -> Verdict:
    """Blockwise covariance comparison for the joint scaled-error CLT.

    Passes iff each diagonal block matches within ``tol_rel`` relative
    Frobenius error (``rel_frobenius``, so a zero predicted block passes only
    a zero empirical one) and the normalized cross block is below
    ``tol_cross``, the bound 0 when the predicted diagonal blocks are
    degenerate.
    """
    d, dp = dims
    e = np.asarray(empirical, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if e.shape != (d + dp, d + dp) or p.shape != (d + dp, d + dp):
        raise ValueError("covariance shapes do not match the block structure")
    details: dict = {"tol_rel": tol_rel, "tol_cross": tol_cross}
    excess = []
    for label, sl in (("fast", slice(0, d)), ("slow", slice(d, d + dp))):
        rel = rel_frobenius(e[sl, sl], p[sl, sl])
        details[f"{label}_rel_error"] = rel
        if rel == math.inf:
            details[f"{label}_diagnostic"] = "predicted block is zero but empirical block is not"
        excess.append(rel - tol_rel)
    denom = math.sqrt(
        np.linalg.norm(p[:d, :d], "fro") * np.linalg.norm(p[d:, d:], "fro")
    )
    if denom == 0.0:
        cross = float(np.linalg.norm(e[:d, d:], "fro"))
        details["cross_diagnostic"] = "predicted diagonal blocks are degenerate"
        excess.append(cross)
    else:
        cross = float(np.linalg.norm(e[:d, d:], "fro") / denom)
        excess.append(cross - tol_cross)
    details["cross_error"] = cross
    return _gated("clt", details, excess)


def _gated(
    name: str, details: dict, excess: Sequence[float], strict: Sequence[float] = ()
) -> Verdict:
    """A verdict that passes iff every ``excess`` is at most 0 and every
    ``strict`` one below 0.

    Each excess is a gated quantity's (value - bound), or (bound - value) for
    a lower bound; ``strict`` holds those of strict bounds. ``details`` gains
    their largest as ``margin``: a positive margin means the verdict failed,
    and a negative one that it passed. A NaN quantity fails its gate and
    leaves no margin.
    """
    margin = float(np.max([*excess, *strict]))
    if not math.isnan(margin):
        details["margin"] = margin
    passed = all(e <= 0.0 for e in excess) and all(e < 0.0 for e in strict)
    return Verdict(name, passed, details)


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
    if ns.size < 4 or math.log10(ns[-1] / ns[0]) < 1.5:
        raise ValueError("need at least 4 checkpoints spanning 1.5 decades")
    if np.any(rms <= 0.0):
        raise DegenerateDataError("zero RMS inside the fitting window")
    x = np.log(ns)
    y = np.log(rms)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def negligibility_curves(trace: BatchTrace, norms: dict | None = None) -> dict[str, np.ndarray]:
    """Per-checkpoint medians of the decomposition ratio curves.

    The coupling and remainder parts are normalized by the step scales they
    must be negligible against: sqrt(beta_n) on the fast side and for both
    remainders, sqrt(gamma_n) for the slow coupling part (which itself is of
    order sqrt(beta_n), so this ratio must fall). Ratios against the
    martingale parts are included for the same checkpoints. ``norms`` is
    ``trace.decomposition``, for a caller that has read it already.
    """
    dec = trace.decomposition if norms is None else norms
    if dec is None:
        raise ConfigError("decomposition tracking was not enabled for this run")
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
    return {key: _nan_rows(_nanmedian, val) for key, val in curves.items()}


@dataclass
class MonteCarloReport:
    """One experiment's record, valid or not.

    ``curves`` holds the per-checkpoint arrays in report order: the grid and
    its steps (n, beta, gamma, u, s), the means and covariances of the
    step-scaled and sqrt(n)-scaled averaged errors, the RMS errors and the
    iterated-logarithm maxima. An invalid report keeps the checkpoints its
    trace reached before the divergence.
    """

    problem_name: str
    algorithm: str
    schedule: dict
    config: dict
    curves: dict
    predicted: dict
    valid: bool = True
    verdicts: list[Verdict] = field(default_factory=list)
    rate_slopes: dict = field(default_factory=dict)
    lil_stability: dict = field(default_factory=dict)
    negligibility: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    divergence: dict | None = None
    final_scaled: np.ndarray | None = None      # (M, d+d'), for optional dumps

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
            "checkpoints": {k: v.tolist() for k, v in self.curves.items()},
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


def _nan_rows(reduce, values: np.ndarray) -> np.ndarray:
    """Row-wise ``reduce`` (nanmax, _nanmedian) that gives NaN, without a
    warning, for rows with no finite value."""
    out = np.full(values.shape[0], np.nan)
    has_data = np.isfinite(values).any(axis=1)
    if np.any(has_data):
        out[has_data] = reduce(values[has_data], axis=1)
    return out


def _nanmedian(values: np.ndarray, axis: int) -> np.ndarray:
    """``np.nanmedian`` by sorting: the mean of the two middle non-NaN entries.

    Equal to it bit for bit, and NaN where every entry is NaN; below 600
    entries np.nanmedian goes through numpy.ma, about 15 ms of import.
    """
    ordered = np.sort(values, axis=axis)  # NaN sorts last
    count = np.sum(~np.isnan(values), axis=axis, keepdims=True)
    lo = np.take_along_axis(ordered, (count - 1) // 2, axis)
    hi = np.take_along_axis(ordered, count // 2, axis)
    return ((lo + hi) / 2).squeeze(axis)


def _window_max(ns, values, lo: float, hi: float) -> np.ndarray:
    """Each column's largest ratio over the checkpoints lo < n <= hi that have
    one; ValueError when none has, e.g. while the LIL normalizer's u_n <= 1."""
    keep = (ns > lo) & (ns <= hi) & ~np.isnan(values).all(axis=1)
    if not np.any(keep):
        raise ValueError("empty stability window")
    return np.nanmax(values[keep], axis=0)


def run_monte_carlo(
    problem: ProblemSpec, resolved: ResolvedAlgorithm, mc: MCConfig
) -> MonteCarloReport:
    """Run the full replication experiment and assemble the report.

    ``resolved`` is the algorithm as ``resolve_algorithm`` fixed it: the
    schedule and gains that run. A divergent replication invalidates the
    whole report; it is recorded, never dropped, and the report keeps the
    checkpoints reached before it.
    """
    predicted = _predictions(problem, resolved)
    try:
        trace = simulate_batch(
            problem,
            resolved.schedule,
            mc.n_final,
            base_seed=mc.base_seed,
            replications=mc.replications,
            gains=resolved.gains,
            theta0=mc.theta0,
            mu0=mc.mu0,
            track_decomposition=mc.track_decomposition,
            checkpoints=mc.checkpoints,
        )
    except DivergenceError as exc:
        report = _aggregate(problem, resolved, mc, exc.trace, predicted)
        report.valid = False
        # the diverged replication's last finite iterate, at index step - 1
        report.divergence = {"replication": exc.replication, "step": exc.step,
                             "last_state": exc.last_state.tolist()}
        diagnostic = f"replication {exc.replication} diverged at index {exc.step}"
        report.verdicts = [  # one failing verdict per check, in the valid order
            Verdict(name, False, {"diagnostic": diagnostic})
            for name in KNOWN_CHECKS if name in mc.checks
        ]
        return report
    return _aggregate(problem, resolved, mc, trace, predicted)


def _predictions(problem, resolved: ResolvedAlgorithm) -> dict:
    """The covariances a report checks, read from the one theory assembly."""
    report = theory.theory_report(problem, resolved.schedule, resolved.gains)
    keys = ("fast_cov", "slow_cov", "optimal_fast_cov", "optimal_slow_cov", "averaged_cov")
    return {key: getattr(report, key) for key in keys}


def _aggregate(problem, resolved, mc, trace, predicted) -> MonteCarloReport:
    """The report of a trace, or of the prefix a divergence left (maybe empty).

    Every trace gets its checkpoint curves; only a trace that reached
    ``mc.n_final`` gets the summaries and verdicts.
    """
    d, dp = problem.d, problem.d_prime
    k = trace.ns.size

    scaled = trace.z / np.sqrt(_step_sizes(d, dp, trace.beta, trace.gamma))[:, None, :]
    avg_scaled = trace.z_bar * np.sqrt(trace.ns.astype(float))[:, None, None]
    scaled_mean, scaled_cov = sample_covariance(scaled)
    avg_mean, avg_cov = sample_covariance(avg_scaled)

    norm_f = np.linalg.norm(trace.z[..., :d], axis=2)
    norm_s = np.linalg.norm(trace.z[..., d:], axis=2)
    rms_fast = np.sqrt((norm_f**2).mean(axis=1))
    rms_slow = np.sqrt((norm_s**2).mean(axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.where(trace.u > 1.0, np.log(trace.u), np.nan)
        log_s = np.where(trace.s > 1.0, np.log(trace.s), np.nan)
        lil_f = norm_f / np.sqrt(trace.beta * log_u)[:, None]
        lil_s = norm_s / np.sqrt(trace.gamma * log_s)[:, None]

    report = MonteCarloReport(
        problem_name=problem.name,
        algorithm=resolved.algorithm,
        schedule=asdict(resolved.schedule),
        config={**mc.as_dict(), "algorithm": resolved.algorithm},
        curves={
            "n": trace.ns,
            "beta": trace.beta,
            "gamma": trace.gamma,
            "u": trace.u,
            "s": trace.s,
            "scaled_mean": scaled_mean,
            "scaled_cov": scaled_cov,
            "avg_scaled_mean": avg_mean,
            "avg_scaled_cov": avg_cov,
            "rms_fast": rms_fast,
            "rms_slow": rms_slow,
            "lil_max_fast": _nan_rows(np.nanmax, lil_f),
            "lil_max_slow": _nan_rows(np.nanmax, lil_s),
        },
        predicted=predicted,
    )
    norms = trace.decomposition  # derived from the tracked parts, so read once
    if norms is not None:
        report.negligibility = negligibility_curves(trace, norms)
    if k == 0 or trace.ns[-1] != mc.n_final:
        return report

    report.final_scaled = scaled[-1]
    kurt_dev = _kurtosis_deviation(scaled[-1])
    report.diagnostics["kurtosis_max_dev_scaled"] = (
        kurt_dev if math.isfinite(kurt_dev) else None
    )
    report.diagnostics["kurtosis_soft_bound"] = 0.3
    if norms is not None:
        # per-path decrease is only meaningful across decades, not adjacent
        # grid points, once the remainder sits at its noise floor
        targets = [trace.ns[-1] / 100.0, trace.ns[-1] / 10.0, float(trace.ns[-1])]
        idx = sorted({int(np.argmin(np.abs(trace.ns - t))) for t in targets})
        if len(idx) == 3:
            tail = norms["remainder_fast"][idx] / np.sqrt(trace.beta[idx])[:, None]
            report.diagnostics["remainder_fast_decreasing_fraction"] = float(
                np.mean((tail[0] > tail[1]) & (tail[1] > tail[2]))
            )

    if "slopes" in mc.checks or mc.n_final >= 1000:
        window = (mc.n_final / 100.0, float(mc.n_final))
        try:
            report.rate_slopes = {
                "fast": rate_slope(trace.ns, rms_fast, window),
                "slow": rate_slope(trace.ns, rms_slow, window),
                "window": list(window),
            }
        except ValueError:  # DegenerateDataError included
            report.rate_slopes = {}

    if ("lil" in mc.checks or mc.n_final >= 1000) and k >= 3:
        try:
            report.lil_stability = _lil_stability(trace, lil_f, lil_s, mc.n_final)
        except ValueError:
            report.lil_stability = {}

    report.verdicts = _build_verdicts(report, mc, resolved, dims=(d, dp))
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


def _build_verdicts(report, mc, resolved, dims) -> list[Verdict]:
    verdicts: list[Verdict] = []
    d, dp = dims
    final_cov = report.curves["scaled_cov"][-1]
    final_avg_cov = report.curves["avg_scaled_cov"][-1]
    pred = report.predicted
    tol = mc.tol_rel

    if "clt" in mc.checks:
        if resolved.algorithm == AVERAGED:
            rel = rel_frobenius(final_avg_cov, pred["averaged_cov"])
            details = {"joint_rel_error": rel, "tol_rel": tol}
            verdicts.append(_gated("clt", details, [rel - tol]))
        elif resolved.gains is None:
            joint = np.zeros((d + dp, d + dp))
            joint[:d, :d] = pred["fast_cov"]
            joint[d:, d:] = pred["slow_cov"]
            verdicts.append(clt_verdict(final_cov, joint, dims, tol, mc.tol_cross))
        else:  # matricial: the sqrt(n)-scaled fast block carries the efficiency claim
            rel_fast = rel_frobenius(final_cov[:d, :d], pred["fast_cov"])
            rel_slow = rel_frobenius(final_cov[d:, d:], pred["slow_cov"])
            details = {"fast_rel_error": rel_fast,
                       "slow_rel_error_informational": rel_slow, "tol_rel": tol}
            verdicts.append(_gated("clt", details, [rel_fast - tol]))

    if "averaged_blocks" in mc.checks:
        rel_f = rel_frobenius(final_avg_cov[:d, :d], pred["optimal_fast_cov"])
        rel_s = rel_frobenius(final_avg_cov[d:, d:], pred["optimal_slow_cov"])
        details = {"fast_rel_error": rel_f, "slow_rel_error": rel_s, "tol_rel": tol}
        verdicts.append(_gated("averaged_blocks", details, [rel_f - tol, rel_s - tol]))

    if "slopes" in mc.checks:
        slopes = report.rate_slopes
        if not slopes:
            details = {"diagnostic": "not enough checkpoints to fit"}
            verdicts.append(Verdict("slopes", False, details))
        else:
            target_f = -resolved.schedule.b / 2.0
            target_s = -resolved.schedule.a / 2.0
            details = {"fast_slope": slopes["fast"], "fast_target": target_f,
                       "slow_slope": slopes["slow"], "slow_target": target_s,
                       "tolerance": SLOPE_TOLERANCE}
            excess = [abs(slopes["fast"] - target_f) - SLOPE_TOLERANCE,
                      abs(slopes["slow"] - target_s) - SLOPE_TOLERANCE]
            verdicts.append(_gated("slopes", details, excess))

    if "lil" in mc.checks:
        if not report.lil_stability:
            verdicts.append(Verdict("lil", False, {"diagnostic": "not enough checkpoints"}))
        else:
            frac_f = report.lil_stability["fast_fraction"]
            frac_s = report.lil_stability["slow_fraction"]
            details = {"fast_fraction": frac_f, "slow_fraction": frac_s,
                       "min_fraction": LIL_STABILITY_MIN_FRACTION}
            excess = [LIL_STABILITY_MIN_FRACTION - frac_f, LIL_STABILITY_MIN_FRACTION - frac_s]
            verdicts.append(_gated("lil", details, excess))

    if "negligibility" in mc.checks:
        verdicts.append(_negligibility_verdict(report))

    return verdicts


def _negligibility_verdict(report) -> Verdict:
    ns = report.curves["n"]
    ref = int(np.argmin(np.abs(ns - ns[-1] / 100.0)))
    details: dict = {"reference_n": int(ns[ref]), "final_n": int(ns[-1]),
                     "halving_factor": HALVING_FACTOR}
    halving = []
    for key in (
        "coupling_fast_over_sqrt_beta",
        "remainder_fast_over_sqrt_beta",
        "remainder_slow_over_sqrt_beta",
    ):
        curve = report.negligibility[key]
        ratio = float(curve[-1] / curve[ref]) if curve[ref] > 0 else math.inf
        details[f"{key}_decay"] = ratio
        halving.append(ratio - HALVING_FACTOR)
    excess = []
    frac = report.diagnostics.get("remainder_fast_decreasing_fraction")
    if frac is not None:
        details["remainder_fast_decreasing_fraction"] = frac
        details["min_decreasing_fraction"] = DECREASING_MIN_FRACTION
        excess.append(DECREASING_MIN_FRACTION - frac)
    return _gated("negligibility", details, excess, strict=halving)
