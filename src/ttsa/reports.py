"""Serialization of traces and reports.

Report files are a single ``# generated <utc timestamp>`` header line
followed by a JSON document; everything after the header is a pure function
of the configuration, so two runs of the same experiment produce
byte-identical files apart from that line. CSV files carry ``# key=value``
provenance lines (artifact version and the resolved configuration) above the
column header, and numbers are rendered with 17 significant digits so they
round-trip losslessly. All writes are atomic (write to a temp file, then
rename).
"""
from __future__ import annotations

import datetime
import json
import os
import tempfile

import numpy as np

from .engine import DECOMP_KEYS, BatchTrace

ARTIFACT_VERSION = "0.1.0"


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _utc_now() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, payload: dict) -> None:
    """Timestamp header line plus a sorted-key JSON body."""
    body = json.dumps(payload, sort_keys=True, indent=1)
    write_text_atomic(path, f"# generated {_utc_now()}\n{body}\n")


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return json.loads("".join(lines))


def provenance_lines(config_echo: dict) -> list[str]:
    lines = [f"# generated {_utc_now()}", f"# ttsa_version={ARTIFACT_VERSION}"]
    lines.extend(f"# config.{key}={value}" for key, value in config_echo.items())
    return lines


def trace_csv(trace: BatchTrace, config_echo: dict) -> str:
    """One replication's checkpointed trace as CSV with provenance header lines."""
    d = trace.d
    dp = trace.x.shape[1] - d
    columns = (
        ["n"]
        + [f"theta_{i + 1}" for i in range(d)]
        + [f"mu_{i + 1}" for i in range(dp)]
        + [f"theta_bar_{i + 1}" for i in range(d)]
        + [f"mu_bar_{i + 1}" for i in range(dp)]
    )
    if trace.decomposition is not None:
        columns += [f"{key}_norm" for key in DECOMP_KEYS]
    lines = provenance_lines(config_echo)
    lines.append(",".join(columns))
    for i, n in enumerate(trace.ns):
        row = [str(int(n))]
        row += [fmt17(x) for x in trace.x[i]]
        row += [fmt17(x) for x in trace.x_bar[i]]
        if trace.decomposition is not None:
            row += [fmt17(trace.decomposition[key][i]) for key in DECOMP_KEYS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def samples_csv(samples: np.ndarray, labels: list[str], config_echo: dict) -> str:
    """Per-replication terminal samples as CSV."""
    lines = provenance_lines(config_echo)
    lines.append(",".join(["replication"] + labels))
    for r, row in enumerate(samples):
        lines.append(",".join([str(r)] + [fmt17(x) for x in row]))
    return "\n".join(lines) + "\n"


def _fmt_matrix(mat, indent: str = "    ") -> str:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return "\n".join(
        indent + "  ".join(f"{x: .10g}" for x in row) for row in arr
    )


def render_theory(payload: dict) -> str:
    t = payload["theory"]
    out = [f"theory report for problem {payload.get('problem', '?')}"]
    labels = [
        ("fast_matrix", "fast drift matrix H = Q11 - Q12 Q22^-1 Q21"),
        ("slow_matrix", "slow drift matrix G = Q22 - Q21 Q11^-1 Q12"),
        ("fast_noise_cov", "effective fast innovation covariance"),
        ("slow_noise_cov", "effective slow innovation covariance"),
        ("fast_cov", "beta-scaled fast error covariance (Sigma_theta)"),
        ("slow_cov", "gamma-scaled slow error covariance (Sigma_mu)"),
        ("optimal_fast_cov", "optimal sqrt(n) fast covariance H^-1 Gf H^-T"),
        ("optimal_slow_cov", "optimal sqrt(n) slow covariance G^-1 Gs G^-T"),
        ("averaged_cov", "averaged-iterate joint covariance D P Gamma P^T D^T"),
    ]
    for key, label in labels:
        out.append(f"{label}:")
        out.append(_fmt_matrix(t[key]))
    return "\n".join(out) + "\n"


def render_validation(payload: dict) -> str:
    out = [f"assumption report for problem {payload.get('problem', '?')}"]
    for check in payload["validation"]["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "asserted": "NOTE"}[check["status"]]
        detail = f": {check['detail']}" if check["detail"] else ""
        out.append(f"[{mark}] {check['name']}{detail}")
    out.append(f"overall: {'PASS' if payload['validation']['passed'] else 'FAIL'}")
    return "\n".join(out) + "\n"


def render_montecarlo(payload: dict) -> str:
    out = [
        f"monte carlo report: problem {payload.get('problem', '?')}, "
        f"algorithm {payload.get('algorithm', '?')}",
        f"replications {payload['mc']['replications']}, "
        f"n_final {payload['mc']['n_final']}, base_seed {payload['mc']['base_seed']}",
    ]
    if not payload.get("valid", False):
        div = payload.get("divergence") or {}
        out.append(
            "INVALID: replication "
            f"{div.get('replication')} diverged at index {div.get('step')}"
        )
        return "\n".join(out) + "\n"
    ckpt = payload["checkpoints"]
    final_n = ckpt["n"][-1]
    out.append(f"final checkpoint n = {final_n}")
    out.append("scaled-error sample covariance at final checkpoint:")
    out.append(_fmt_matrix(ckpt["scaled_cov"][-1]))
    out.append("sqrt(n)-averaged sample covariance at final checkpoint:")
    out.append(_fmt_matrix(ckpt["avg_scaled_cov"][-1]))
    if payload.get("rate_slopes"):
        slopes = payload["rate_slopes"]
        out.append(
            f"rate slopes: fast {slopes['fast']:.4f}, slow {slopes['slow']:.4f} "
            f"over n in {slopes['window']}"
        )
    if payload.get("lil_stability"):
        lil = payload["lil_stability"]
        out.append(
            f"lil window stability fractions: fast {lil['fast_fraction']:.3f}, "
            f"slow {lil['slow_fraction']:.3f}"
        )
    for verdict in payload["verdicts"]:
        mark = "PASS" if verdict["passed"] else "FAIL"
        detail = ", ".join(
            f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in verdict["details"].items()
        )
        out.append(f"[{mark}] {verdict['name']}: {detail}")
    out.append(f"overall: {'PASS' if payload['passed'] else 'FAIL'}")
    return "\n".join(out) + "\n"


def render_report(payload: dict) -> str:
    kind = payload.get("kind")
    if kind == "montecarlo":
        return render_montecarlo(payload)
    if kind == "theory":
        return render_theory(payload)
    if kind == "validation":
        return render_validation(payload)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_plot_bundle(payload: dict, outdir: str, stem: str = "curves") -> list[str]:
    """Per-curve CSVs plus a gnuplot script for a stored Monte Carlo report."""
    if payload.get("kind") != "montecarlo" or not payload.get("valid", False):
        raise ValueError("plot bundle needs a valid montecarlo report")
    ckpt = payload["checkpoints"]
    ns = ckpt["n"]
    curves: dict[str, list[float]] = {
        "rms_fast": ckpt["rms_fast"],
        "rms_slow": ckpt["rms_slow"],
        "lil_max_fast": ckpt["lil_max_fast"],
        "lil_max_slow": ckpt["lil_max_slow"],
    }
    for key, values in payload.get("negligibility", {}).items():
        curves[key] = values
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, values in curves.items():
        path = os.path.join(outdir, f"{stem}_{name}.csv")
        lines = ["n,value"] + [
            f"{int(n)},{fmt17(v)}" for n, v in zip(ns, values) if np.isfinite(v)
        ]
        write_text_atomic(path, "\n".join(lines) + "\n")
        paths.append(path)
    script = [
        "set logscale xy",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'n'",
        "plot \\",
    ]
    script += [
        f"  '{os.path.basename(p)}' using 1:2 with linespoints title "
        f"'{os.path.basename(p)[len(stem) + 1 : -4]}', \\"
        for p in paths
    ]
    script[-1] = script[-1].rstrip(", \\")
    gp = os.path.join(outdir, f"{stem}.gp")
    write_text_atomic(gp, "\n".join(script) + "\n")
    paths.append(gp)
    return paths
