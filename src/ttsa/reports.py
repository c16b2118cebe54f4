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

import numpy as np

from .engine import DECOMP_KEYS, BatchTrace

ARTIFACT_VERSION = "0.2.4"


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
    """Write ``text`` to a temp file beside ``path``, then rename it there. The
    file gets mode 0666 less the umask, as ``open`` gives; the rename keeps it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def body_digest(path: str) -> str:
    """sha256 of everything after the ``# generated <timestamp>`` line of a
    report or CSV file: the part that is a pure function of its config.
    ValueError, naming the file, when the file does not start with that line."""
    import hashlib  # 5-8 ms of import, which no command that writes a file needs

    with open(path, "rb") as handle:
        first, _, body = handle.read().partition(b"\n")
    if not first.startswith(b"# generated "):
        raise ValueError(f"{path}: does not start with a '# generated' line")
    return hashlib.sha256(body).hexdigest()


def read_report(path: str) -> dict:
    """A stored report's payload; ValueError, naming the file, unless it holds a
    JSON object."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    try:
        payload = json.loads("".join(lines))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a report: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a report: its JSON is a {type(payload).__name__}, "
                         "not an object with a 'kind' key")
    return payload


def provenance_lines(config_echo: dict) -> list[str]:
    lines = [f"# generated {_utc_now()}", f"# ttsa_version={ARTIFACT_VERSION}"]
    lines.extend(f"# config.{key}={value}" for key, value in config_echo.items())
    return lines


def trace_csv(trace: BatchTrace, config_echo: dict) -> str:
    """One replication's checkpointed trace as CSV with provenance header lines."""
    d = trace.d
    x, x_bar = trace.x, trace.x_bar  # computed views: read once, not per row
    dp = x.shape[1] - d
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
        row += [fmt17(v) for v in x[i]]
        row += [fmt17(v) for v in x_bar[i]]
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


def _fmt_matrix(mat) -> str:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return "\n".join(
        "    " + "  ".join(f"{x: .10g}" for x in row) for row in arr
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


_FINAL_COVARIANCES = (
    ("scaled_cov", "scaled-error sample covariance"),
    ("avg_scaled_cov", "sqrt(n)-averaged sample covariance"),
)


def render_montecarlo(payload: dict) -> str:
    out = [
        f"monte carlo report: problem {payload.get('problem', '?')}, "
        f"algorithm {payload.get('algorithm', '?')}",
        f"replications {payload['mc']['replications']}, "
        f"n_final {payload['mc']['n_final']}, base_seed {payload['mc']['base_seed']}",
    ]
    ckpt = payload["checkpoints"]
    valid = payload.get("valid", False)
    where = "final checkpoint" if valid else "last checkpoint reached"
    if not valid:
        div = payload.get("divergence") or {}
        step = div.get("step")
        out.append(
            f"INVALID: replication {div.get('replication')} diverged at index {step}; "
            f"x at index {step - 1} = {div.get('last_state')}"
        )
    if ckpt["n"]:
        out.append(f"{where} n = {ckpt['n'][-1]}")
        for key, label in _FINAL_COVARIANCES:
            out.append(f"{label} at {where}:")
            out.append(_fmt_matrix(ckpt[key][-1]))
    if not valid:
        return "\n".join(out) + "\n"
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


def write_plot_bundle(payload: dict, outdir: str) -> list[str]:
    """Per-curve CSVs plus a gnuplot script for a stored Monte Carlo report."""
    stem = "curves"
    if payload.get("kind") != "montecarlo" or not payload.get("valid", False):
        raise ValueError("plot bundle needs a valid montecarlo report")
    ckpt = payload["checkpoints"]
    ns = ckpt["n"]
    names = ("rms_fast", "rms_slow", "lil_max_fast", "lil_max_slow")
    curves = {key: ckpt[key] for key in names}
    curves.update(payload.get("negligibility", {}))
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
