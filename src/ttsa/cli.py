"""Command-line front end.

Subcommands: validate, theory, run, montecarlo, decompose, report.
Exit codes: 0 success (all checks passed), 1 a verdict or validation failed,
2 usage or configuration error. Diagnostics go to stderr; results to stdout
and to the output files named in the configuration.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import config as cfg
from . import engine, montecarlo, reports, theory
from .errors import ConfigError, DivergenceError
from .problems import validate_problem


def _load(path: str, **settings):
    """The config at ``path`` and the experiment ``cfg.build_experiment``
    builds from it: every command reads a config the same way. ``settings``,
    ``ExperimentConfig`` fields a command fixes, replace the file's values
    before the build, so the build judges them and the echo shows them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    config = replace(cfg.parse_config(text), **settings)
    return config, cfg.build_experiment(config)


def _out_path(config: cfg.ExperimentConfig, override: str | None, default_name: str) -> str:
    if override:
        return override
    return os.path.join(config.resolved_output_dir(), default_name)


def _cmd_validate(args) -> int:
    config, (problem, resolved, _) = _load(args.config)
    report = validate_problem(problem, resolved.schedule, resolved.gains)
    payload = {
        "kind": "validation",
        "problem": problem.name,
        "config": cfg.config_echo(config),
        "validation": report.as_dict(),
        "version": reports.ARTIFACT_VERSION,
    }
    sys.stdout.write(reports.render_validation(payload))
    if args.output:
        reports.write_report(args.output, payload)
    return 0 if report.passed else 1


def _cmd_theory(args) -> int:
    config, (problem, resolved, _) = _load(args.config)
    report = theory.theory_report(problem, resolved.schedule, resolved.gains)
    payload = {
        "kind": "theory",
        "problem": problem.name,
        "config": cfg.config_echo(config),
        "theory": report.as_dict(),
        "version": reports.ARTIFACT_VERSION,
    }
    sys.stdout.write(reports.render_theory(payload))
    if args.output:
        reports.write_report(args.output, payload)
        sys.stdout.write(f"wrote {args.output}\n")
    return 0


def _run_trace(args, default_name: str, **settings) -> int:
    """``run`` and ``decompose``: one trajectory to CSV, with the decomposition
    when ``run.track_decomposition`` asks for it; ``settings`` go to ``_load``."""
    config, (problem, resolved, mc) = _load(args.config, **settings)
    try:
        trace = engine.run(
            problem,
            resolved.schedule,
            mc.n_final,
            config.run_seed,
            gains=resolved.gains,
            theta0=mc.theta0,
            mu0=mc.mu0,
            track_decomposition=mc.track_decomposition,
            checkpoints=mc.checkpoints,
        )
    except DivergenceError as exc:
        state = exc.last_state.tolist()  # the last finite iterate (theta, mu)
        sys.stderr.write(f"error: {exc}; x at index {exc.step - 1} = {state}\n")
        return 1
    path = _out_path(config, args.output, default_name)
    reports.write_text_atomic(path, reports.trace_csv(trace, cfg.config_echo(config)))
    sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_run(args) -> int:
    return _run_trace(args, "trace.csv")


def _cmd_decompose(args) -> int:
    return _run_trace(args, "decompose.csv", run_track_decomposition=True)


def _cmd_montecarlo(args) -> int:
    config, (problem, resolved, mc) = _load(args.config)
    report = montecarlo.run_monte_carlo(problem, resolved, mc)
    payload = report.as_dict()
    payload["config"] = cfg.config_echo(config)
    payload["version"] = reports.ARTIFACT_VERSION
    path = _out_path(config, args.output, "montecarlo.json")
    payload = reports.write_report(path, payload)  # as ``report`` reads it back
    sys.stdout.write(reports.render_montecarlo(payload))
    sys.stdout.write(f"wrote {path}\n")
    if config.mc_dump_samples and report.final_scaled is not None:
        labels = [f"scaled_{i + 1}" for i in range(report.final_scaled.shape[1])]
        samples_path = _out_path(config, None, "montecarlo_samples.csv")
        reports.write_text_atomic(
            samples_path,
            reports.samples_csv(report.final_scaled, labels, cfg.config_echo(config)),
        )
        sys.stdout.write(f"wrote {samples_path}\n")
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    payload = reports.read_report(args.file)
    # an object that is not the report its kind names is bad input, not a bug
    try:
        sys.stdout.write(reports.render_report(payload))
        if args.plots:
            paths = reports.write_plot_bundle(payload, args.plots)
            sys.stdout.write("".join(f"wrote {p}\n" for p in paths))
    except KeyError as exc:
        raise ValueError(f"{args.file}: {payload['kind']} report has no key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{args.file}: malformed {payload['kind']} report: {exc}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttsa",
        description="Two-time-scale stochastic approximation simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("validate", _cmd_validate),
        ("theory", _cmd_theory),
        ("run", _cmd_run),
        ("montecarlo", _cmd_montecarlo),
        ("decompose", _cmd_decompose),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", required=True, help="experiment config file")
        p.add_argument("--output", "-o", default=None, help="output file path")
        p.set_defaults(handler=handler)

    p = sub.add_parser("report", help="render a stored report file")
    p.add_argument("file", help="stored report (JSON with header line)")
    p.add_argument("--plots", default=None, help="write per-curve CSVs and a gnuplot script here")
    p.set_defaults(handler=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
