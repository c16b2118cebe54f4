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


def _load(path: str) -> cfg.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return cfg.parse_config(text)


def _out_path(config: cfg.ExperimentConfig, override: str | None, default_name: str) -> str:
    if override:
        return override
    return os.path.join(config.resolved_output_dir(), default_name)


def _cmd_validate(args) -> int:
    config = _load(args.config)
    problem = cfg.build_problem(config)
    schedule = cfg.build_schedule(config)
    report = validate_problem(problem, schedule)
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
    config = _load(args.config)
    problem = cfg.build_problem(config)
    schedule = cfg.build_schedule(config)
    report = theory.theory_report(problem, schedule)
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


def _simulation(args):
    """Config, problem and schedule of a simulating command, and its initial
    iterates: the one place the run offsets are resolved."""
    config = _load(args.config)
    problem = cfg.build_problem(config)
    schedule = cfg.build_schedule(config)
    return config, problem, schedule, cfg.initial_iterates(config, problem)


def _run_trace(args, track_decomposition: bool, default_name: str) -> int:
    config, problem, schedule, (theta0, mu0) = _simulation(args)
    try:
        trace = engine.run(
            problem,
            schedule,
            config.run_n_final,
            config.run_seed,
            algorithm=config.run_algorithm,
            theta0=theta0,
            mu0=mu0,
            track_decomposition=track_decomposition,
            checkpoints=engine.checkpoint_indices(
                config.run_n_final, config.run_checkpoints_per_decade
            ),
        )
    except DivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    path = _out_path(config, args.output, default_name)
    reports.write_text_atomic(path, reports.trace_csv(trace, cfg.config_echo(config)))
    sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_run(args) -> int:
    return _run_trace(args, track_decomposition=False, default_name="trace.csv")


def _cmd_decompose(args) -> int:
    return _run_trace(args, track_decomposition=True, default_name="decompose.csv")


def _cmd_montecarlo(args) -> int:
    config, problem, schedule, (theta0, mu0) = _simulation(args)
    mc = replace(cfg.build_mc(config), theta0=theta0, mu0=mu0)
    report = montecarlo.run_monte_carlo(problem, schedule, mc)
    payload = report.as_dict()
    payload["config"] = cfg.config_echo(config)
    payload["version"] = reports.ARTIFACT_VERSION
    path = _out_path(config, args.output, "montecarlo.json")
    reports.write_report(path, payload)
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
    sys.stdout.write(reports.render_report(payload))
    if args.plots:
        paths = reports.write_plot_bundle(payload, args.plots)
        sys.stdout.write("".join(f"wrote {p}\n" for p in paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttsa",
        description="Two-time-scale stochastic approximation simulation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, needs_output in (
        ("validate", _cmd_validate, True),
        ("theory", _cmd_theory, True),
        ("run", _cmd_run, True),
        ("montecarlo", _cmd_montecarlo, True),
        ("decompose", _cmd_decompose, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", required=True, help="experiment config file")
        if needs_output:
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
