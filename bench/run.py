"""Desk-scale benchmark of ttsa: ns per replication-step on four ensembles.

Usage, from the repository root:

    python3 bench/run.py --workload linear-clt [--seed N] [--seconds 30]
                         [--trace 0|1] [--out results.json]

Each run of the workload is a fresh process that runs the `ttsa` CLI
(`montecarlo` or `run`) on a generated config file, exactly as a user would.
Runs repeat back to back until --seconds have passed; every metric is the
median over the runs after the first, which only warms the caches. With
--trace 0 all runs are untraced and the last line carries the end-to-end
metrics. With --trace 1, untraced and traced runs alternate: the traced ones
wrap each layer's public functions (see spans.py) and the last line carries
the per-layer metrics; the end-to-end metrics of the untraced runs are still
printed above it, with the run's failed share.

The host's speed drifts, so the fixed kernel of reference.py runs before and
after each run, and `wall_s`, `setup_s` and `ns_per_rep_step` are scaled to a
host whose kernel takes `reference.NOMINAL_S`. The unscaled medians are
printed too, and kept in --out.

Every run is checked: a Monte Carlo report must be valid with every gated
verdict passing, a trajectory must have finite rows, the output body (all
after the `# generated` line) must be byte-identical across the runs, and a
traced run must reproduce its work counts exactly. The last line is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 2, with no
result, when the program's sources are not beside the benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, so load comes from a single process and both sides of a
# comparison run with the same setting. Set before numpy is imported here.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import reference  # noqa: E402
from spans import summarize  # noqa: E402
from worker import PROGRAM_MISSING  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60  # a run takes a few seconds; the whole measurement must end in 180
MIN_RUNS = 3  # untraced runs; with tracing, at least two of each kind

# Times scaled to the reference kernel's speed (see reference.py).
SCALED = ("ns_per_rep_step", "wall_s", "setup_s")
END_TO_END_UNITS = {
    "ns_per_rep_step": "ns",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


PER_LAYER_UNITS = {
    "import.self_s": "s",
    "config.self_s": "s",
    "engine.simulate_batch.self_s": "s",
    "engine.simulate_batch.self_ns_per_rep_step": "ns",
    "engine.replication_rng.self_s": "s",
    "engine.replication_rng.calls": "count",
    "problems.noise_draw.self_s": "s",
    "problems.noise_draw.calls": "count",
    "problems.noise_draw.normals": "count",
    "problems.noise_draw.ns_per_normal": "ns",
    "problems.noise_factor.calls": "count",
    "problems.noise_factor.per_draw": "ratio",
    # Layers that only some workloads call are given as shares of the traced
    # wall time, so no time metric reads a constant zero.
    "problems.residual.self_share": "%",
    "problems.residual.calls": "count",
    "linalg.mat_exp.self_share": "%",
    "linalg.mat_exp.calls": "count",
    "linalg.solve_lyapunov.calls": "count",
    "theory.self_share": "%",
    "montecarlo.self_share": "%",
    "montecarlo.sample_covariance.calls": "count",
    "reports.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "%",
    "trace.overhead_s": "s",
}


COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


class ProgramMissing(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(child: dict) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "blas": child.get("blas"),
        "blas_threads": BLAS_ENV,
        "platform": platform.platform(),
    }


def body_digest(path: Path) -> str:
    """sha256 of everything after the `# generated <timestamp>` line."""
    text = path.read_bytes()
    first, _, body = text.partition(b"\n")
    if not first.startswith(b"# generated "):
        raise ValueError("output does not start with a '# generated' line")
    return hashlib.sha256(body).hexdigest()


def check_montecarlo(path: Path, checks: tuple[str, ...]) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    payload = json.loads("\n".join(lines))
    if not payload["valid"]:
        return f"invalid report: divergence {payload['divergence']}"
    names = [v["name"] for v in payload["verdicts"]]
    if sorted(names) != sorted(checks):
        return f"verdicts {names} do not match the requested checks {list(checks)}"
    failing = [v["name"] for v in payload["verdicts"] if not v["passed"]]
    return f"verdicts failed: {failing}" if failing else None


def check_trajectory(path: Path, n_final: int) -> str | None:
    rows = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ][1:]
    for row in rows:
        if not all(math.isfinite(float(x)) for x in row.split(",")):
            return f"non-finite row {row!r}"
    if not rows or int(rows[-1].partition(",")[0]) != n_final:
        return f"the trace does not reach n = {n_final}"
    return None


def layer_metrics(trace: dict, wall: float, workload, n_final: int) -> dict:
    """Per-layer metrics of one traced run, from its spans."""
    spans = trace["spans"]
    items = summarize(spans)
    traced_wall = trace["traced_end"] - spans[0][1]  # spans[0] is the import, from spawn

    def item(name, key):
        return items.get(name, {}).get(key, 0)

    def layer(prefix, key="self_s"):
        return sum(v[key] for k, v in items.items() if k.partition(".")[0] == prefix)

    rep_steps = workload.replications * (n_final - 1)
    normals = item("problems.noise_draw", "units")
    draws = item("problems.noise_draw", "calls")
    explained = sum(v["self_s"] for k, v in items.items() if k != "cli.main")
    return {
        "import.self_s": item("import", "self_s"),
        "config.self_s": layer("config"),
        "engine.simulate_batch.self_s": item("engine.simulate_batch", "self_s"),
        "engine.simulate_batch.self_ns_per_rep_step":
            item("engine.simulate_batch", "self_s") * 1e9 / rep_steps,
        "engine.replication_rng.self_s": item("engine.replication_rng", "self_s"),
        "engine.replication_rng.calls": item("engine.replication_rng", "calls"),
        "problems.noise_draw.self_s": item("problems.noise_draw", "self_s"),
        "problems.noise_draw.calls": draws,
        "problems.noise_draw.normals": normals,
        "problems.noise_draw.ns_per_normal":
            item("problems.noise_draw", "total_s") * 1e9 / normals if normals else 0.0,
        "problems.noise_factor.calls": item("problems.noise_factor", "calls"),
        "problems.noise_factor.per_draw":
            item("problems.noise_factor", "calls") / draws if draws else 0.0,
        "problems.residual.self_share": 100.0 * item("problems.residual", "self_s") / traced_wall,
        "problems.residual.calls": item("problems.residual", "calls"),
        "linalg.mat_exp.self_share": 100.0 * item("linalg.mat_exp", "self_s") / traced_wall,
        "linalg.mat_exp.calls": item("linalg.mat_exp", "calls"),
        "linalg.solve_lyapunov.calls": item("linalg.solve_lyapunov", "calls"),
        "theory.self_share": 100.0 * layer("theory") / traced_wall,
        "montecarlo.self_share": 100.0 * layer("montecarlo") / traced_wall,
        "montecarlo.sample_covariance.calls": item("montecarlo.sample_covariance", "calls"),
        "reports.self_s": layer("reports"),
        "cli.self_s": item("cli.main", "self_s"),
        "trace.wall_s": wall,
        "trace.coverage": 100.0 * explained / traced_wall,
    }


def run_once(workload, n_final: int, config_path: Path, work: Path, index: int, traced: bool) -> dict:
    """Start one fresh process on the workload and check what it wrote."""
    suffix = "json" if workload.command == "montecarlo" else "csv"
    output = work / f"out-{index}.{suffix}"
    spans_path = work / f"spans-{index}.json"
    env = dict(os.environ, **BLAS_ENV)
    t_spawn = time.monotonic()
    args = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), workload.command,
            str(config_path), str(output), repr(t_spawn)]
    if traced:
        args.append(str(spans_path))
    sample = {"traced": traced, "error": None}
    try:
        proc = subprocess.run(args, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sample["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return sample
    sample["wall_s"] = time.monotonic() - t_spawn
    if proc.returncode == PROGRAM_MISSING:
        raise ProgramMissing(proc.stderr.strip())
    if proc.returncode != 0:
        sample["error"] = f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return sample
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["child"] = child
    if child["exit_code"] != 0:
        sample["error"] = f"ttsa {workload.command} exited with {child['exit_code']}"
    if child["setup_end"] is None:
        sample["error"] = sample["error"] or "the simulation was never called"
        return sample
    sample["setup_s"] = child["setup_end"] - t_spawn
    sample["ns_per_rep_step"] = (
        (sample["wall_s"] - sample["setup_s"]) * 1e9 / (workload.replications * (n_final - 1))
    )
    sample["peak_rss_mb"] = child["peak_rss_mb"]
    try:
        sample["digest"] = body_digest(output)
        if workload.command == "montecarlo":
            problem = check_montecarlo(output, workload.checks)
        else:
            problem = check_trajectory(output, n_final)
        sample["error"] = sample["error"] or problem
    except (OSError, ValueError, KeyError) as exc:
        sample["error"] = sample["error"] or f"unreadable output: {exc}"
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        sample["layers"] = layer_metrics(trace, sample["wall_s"], workload, n_final)
        spans_path.unlink()
    output.unlink(missing_ok=True)
    return sample


def scale(sample: dict, ref_s: float) -> None:
    """Scale the run's times to a host whose reference kernel takes NOMINAL_S."""
    sample["ref_s"] = ref_s
    for name in SCALED:
        if name in sample:
            sample["raw_" + name] = sample[name]
            sample[name] *= reference.NOMINAL_S / ref_s


def gate(samples: list[dict], workload, n_final: int) -> None:
    """Mark runs whose output or work counts differ from the others'."""
    digests = [s["digest"] for s in samples if "digest" in s]
    reference = max(set(digests), key=digests.count) if digests else None
    for s in samples:
        if s["error"] is None and s.get("digest") != reference:
            s["error"] = "output body differs from the other runs"
    traced = [s for s in samples if "layers" in s]
    expected = workload.expected_counts(n_final)
    for s in traced:
        counts = {k: s["layers"][k] for k in COUNT_METRICS}
        wrong = {k: (counts[k], v) for k, v in expected.items() if counts[k] != v}
        if s["error"] is None and wrong:
            s["error"] = f"work counts (measured, formula) {wrong}"
        if s["error"] is None and counts != {k: traced[0]["layers"][k] for k in COUNT_METRICS}:
            s["error"] = "work counts differ between traced runs"


def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed: int, n_final: int, seconds: float, traced_mode: bool) -> list[dict]:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        config_path = work / "experiment.cfg"
        config_path.write_text(workload.config_text(seed, n_final), encoding="utf-8")
        samples: list[dict] = []
        start = time.monotonic()
        reference.run_kernel()  # warm-up
        ref_before = reference.run_kernel()
        while True:
            # run 0 warms the caches; with tracing, even runs after it are traced
            traced = traced_mode and len(samples) % 2 == 0 and len(samples) > 0
            samples.append(run_once(workload, n_final, config_path, work, len(samples), traced))
            ref_after = reference.run_kernel()
            scale(samples[-1], (ref_before + ref_after) / 2)
            ref_before = ref_after
            n_traced = sum(s["traced"] for s in samples)
            n_untraced = len(samples) - 1 - n_traced
            if traced_mode:
                enough = n_traced >= 2 and n_untraced >= 2
            else:
                enough = n_untraced >= MIN_RUNS
            # start another run only if it is likely to end in time
            following = traced_mode and len(samples) % 2 == 0
            walls = [s["raw_wall_s"] for s in samples[1:]
                     if s["traced"] == following and "raw_wall_s" in s]
            next_cost = (statistics.median(walls) if walls else 0.0) + ref_after
            if enough and time.monotonic() - start + next_cost > seconds:
                return samples
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-final", type=int, default=None,
                        help="override the workload length (smoke tests)")
    parser.add_argument("--out", default=None,
                        help="merge the detailed result into this JSON file")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ttsa" / "__init__.py").is_file():
        sys.stderr.write(f"error: the ttsa sources are not at {ROOT / 'src'}\n")
        return 2

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    n_final = args.n_final or workload.n_final
    try:
        samples = measure(workload, seed, n_final, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    gate(samples, workload, n_final)

    failed = [s for s in samples if s["error"] is not None]
    # a run that failed a check still measured its time, unless it crashed
    untraced = [s for s in samples[1:] if not s["traced"] and "ns_per_rep_step" in s]
    traced = [s for s in samples if "layers" in s]
    end_to_end = {
        name: dict(summary([s[name] for s in untraced]), unit=unit)
        for name, unit in END_TO_END_UNITS.items() if untraced
    }
    per_layer = {}
    if traced:
        per_layer = {
            # the gate has checked that counts repeat exactly
            name: {"median": value} if name in COUNT_METRICS
            else summary([s["layers"][name] for s in traced])
            for name, value in traced[0]["layers"].items()
        }
        if untraced:
            # both unscaled: the traced wall time comes from the spans
            per_layer["trace.overhead_s"] = {
                "median": per_layer["trace.wall_s"]["median"]
                - statistics.median(s["raw_wall_s"] for s in untraced)
            }

    print(f"# workload {workload.name} seed {seed} n_final {n_final} "
          f"replications {workload.replications} runs {len(samples)} "
          f"(traced {sum(s['traced'] for s in samples)})")
    machine = fingerprint(next((s["child"] for s in samples if "child" in s), {}))
    print("# fingerprint " + json.dumps(machine))
    for s in failed:
        print(f"# FAILED run ({'traced' if s['traced'] else 'untraced'}): {s['error']}")
    for name, m in end_to_end.items():
        print(f"{name} {m['median']!r} {m['unit']} (median of {m['n']}, q1 {m['q1']!r}, q3 {m['q3']!r})")
    if untraced:
        raw = {name: summary([s["raw_" + name] for s in untraced])["median"] for name in SCALED}
        print("# unscaled medians: " + ", ".join(f"{k} {v!r}" for k, v in raw.items())
              + f"; reference kernel median {summary([s['ref_s'] for s in untraced])['median']!r} s"
              + f" (nominal {reference.NOMINAL_S} s)")
    print(f"failed_share {len(failed) / len(samples)!r} ratio ({len(failed)} of {len(samples)} runs)")
    for name, m in per_layer.items():
        print(f"{name} {m['median']!r} {PER_LAYER_UNITS[name]}")

    if args.trace:
        metrics = {name: {"value": per_layer[name]["median"], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items() if name in per_layer}
    else:
        metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in end_to_end.items()}

    if args.out:
        out = Path(args.out)
        results = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        results[f"{workload.name}/trace{args.trace}"] = {
            "seed": seed,
            "n_final": n_final,
            "replications": workload.replications,
            "seconds": args.seconds,
            "fingerprint": machine,
            "attempted": len(samples),
            "failed": len(failed),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "runs": [{k: v for k, v in s.items() if k != "child"} for s in samples],
        }
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
