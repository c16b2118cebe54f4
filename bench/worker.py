"""One benchmark run: a fresh process that runs the `ttsa` CLI once.

Usage: worker.py ROOT COMMAND CONFIG OUTPUT T_SPAWN [SPANS]

T_SPAWN is the parent's monotonic clock just before it started this process.
With SPANS, the layers are traced and the spans are written there as JSON
after the CLI returns. The last line of standard output is a JSON object with
the set-up end time, the CLI's exit code, the peak resident set and the
numpy/BLAS versions. Exit code 3 means the program could not be imported
from ROOT/src.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time

PROGRAM_MISSING = 3


def peak_rss_mb() -> float:
    """Peak resident set of this process alone, in MiB.

    Linux carries the parent's peak into ru_maxrss across fork and exec, and
    the benchmark's parent holds the reference kernel's noise block, so the
    peak is read from VmHWM, which counts this program's memory only.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    root, command, config_path, output_path, t_spawn = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import numpy
        import ttsa
        from ttsa import cli, engine, montecarlo
    except ImportError as exc:
        sys.stderr.write(f"cannot import ttsa from {src}: {exc}\n")
        return PROGRAM_MISSING
    if not os.path.abspath(ttsa.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"ttsa was imported from {ttsa.__file__}, not from {src}\n")
        return PROGRAM_MISSING
    t_imported = time.monotonic()

    recorder = None
    if spans_path:
        import spans

        recorder = spans.Recorder()
        recorder.add("import", float(t_spawn), t_imported)
        spans.install(recorder)

    # Set-up ends at the call into the simulation.
    marks = {}

    def mark_setup(fn):
        def wrapper(*args, **kwargs):
            marks.setdefault("setup_end", time.monotonic())
            return fn(*args, **kwargs)

        return wrapper

    montecarlo.run_monte_carlo = mark_setup(montecarlo.run_monte_carlo)
    engine.run = mark_setup(engine.run)

    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main([command, "--config", config_path, "--output", output_path])
    t_done = time.monotonic()

    if recorder is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"traced_end": t_done, "spans": recorder.spans}, handle)

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    print(json.dumps({
        "exit_code": exit_code,
        "setup_end": marks.get("setup_end"),
        "peak_rss_mb": peak_rss_mb(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
