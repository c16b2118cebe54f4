"""Benchmark workloads: the config text each run hands to the `ttsa` CLI.

Each workload mirrors a desk-scale ensemble at reduced length. The length is
chosen so that every gated verdict passes on every seed tried, and so that
one process takes one to three seconds and a measurement holds about ten.
"""
from __future__ import annotations

from dataclasses import dataclass

# All workloads use the 2+2-dimensional library problems.
DIM = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # `ttsa` subcommand: "montecarlo" or "run"
    default_seed: int
    n_final: int
    replications: int  # trajectories advanced per step; 1 on the `run` path
    lines: tuple[str, ...]
    checks: tuple[str, ...] = ()
    # calls per step of a layer that only this workload exercises
    calls_per_step: tuple[tuple[str, int], ...] = ()

    def config_text(self, seed: int, n_final: int | None = None) -> str:
        lines = [f"# benchmark workload {self.name}", *self.lines]
        lines.append(f"run.n_final = {n_final or self.n_final}")
        if self.command == "montecarlo":
            lines += [
                f"mc.replications = {self.replications}",
                f"mc.checks = {','.join(self.checks)}",
                f"mc.base_seed = {seed}",
            ]
        else:
            lines.append(f"run.seed = {seed}")
        return "\n".join(lines) + "\n"

    def expected_counts(self, n_final: int) -> dict[str, int]:
        """Work counts that every traced run must reproduce exactly."""
        counts = {"problems.noise_draw.normals": self.replications * (n_final - 1) * DIM}
        for span, per_step in self.calls_per_step:
            counts[f"{span}.calls"] = per_step * (n_final - 1)
        return counts


_LINEAR_08_06 = (
    "problem.name = linear-2x2",
    "step.b = 0.8",
    "step.a = 0.6",
    "step.beta0 = 2.0",
    "step.gamma0 = 2.0",
)

WORKLOADS = {
    w.name: w
    for w in (
        # The noise draw is about half of the time, so noise-layer and kernel
        # gains show here at full batch width. The clt verdict is not gated:
        # with 2000 replications its cross block exceeds tol_cross on most
        # seeds at n_final 3e3 and on about a third at 1e4 and 3e4.
        Workload(
            name="linear-clt",
            command="montecarlo",
            default_seed=20240701,
            n_final=4_000,
            replications=2000,
            lines=_LINEAR_08_06,
            checks=("slopes", "lil"),
        ),
        # The only workload with a nonlinear residual (about two thirds of
        # the time) and the only averaged one.
        Workload(
            name="quadratic-averaged",
            command="montecarlo",
            default_seed=20240702,
            n_final=2_000,
            replications=2000,
            lines=(
                "problem.name = quadratic-2x2",
                "step.b = 0.8",
                "step.a = 0.6",
                "step.beta0 = 2.0",
                "step.gamma0 = 2.0",
                "step.regime = averaging",
                "run.algorithm = averaged",
            ),
            checks=("clt", "averaged_blocks"),
            calls_per_step=(("problems.residual", 1),),
        ),
        # Two matrix exponentials per step, at a smaller batch width.
        Workload(
            name="decomposition",
            command="montecarlo",
            default_seed=20240704,
            n_final=4_000,
            replications=400,
            lines=(
                "problem.name = linear-2x2",
                "step.b = 0.95",
                "step.a = 0.55",
                "step.beta0 = 2.0",
                "step.gamma0 = 2.0",
                "run.track_decomposition = true",
            ),
            checks=("negligibility",),
            calls_per_step=(("linalg.mat_exp", 2),),
        ),
        # `ttsa run`: one trajectory, so per-step Python overhead is nearly
        # all of the time; it exposes any fixed per-step or per-segment cost
        # a batch-width optimisation adds. The only workload writing a CSV.
        Workload(
            name="trajectory",
            command="run",
            default_seed=20240701,
            n_final=40_000,
            replications=1,
            lines=_LINEAR_08_06,
        ),
    )
}
