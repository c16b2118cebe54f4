"""Outside-in span recorder for the traced benchmark run.

Wrappers are installed around public `ttsa` functions and methods in every
module namespace that looks the name up, so the program itself is unchanged.
Each call records ``[name, start, end, parent, units]``; ``parent`` is the
index of the enclosing span (-1 for none) and ``units`` a work count taken
from the result (normals drawn, for the noise draw). Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import time

clock = time.monotonic  # system-wide on Linux, so comparable across processes


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """A top-level span measured outside any wrapper, such as start-up."""
        self.spans.append([name, start, end, -1, 0])

    def wrap(self, name: str, fn, units=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if units is not None:
                span[4] = units(out)
            return out

        return wrapper


def _public_functions(module):
    return [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


def install(recorder: Recorder) -> None:
    """Wrap the layers' public entry points; call once, after importing ttsa."""
    from ttsa import cli, config, engine, linalg, montecarlo, problems, reports, theory

    modules = (cli, config, engine, linalg, montecarlo, problems, reports, theory)

    def patch(owner, attr, name, units=None):
        fn = getattr(owner, attr)
        wrapped = recorder.wrap(name, fn, units)
        setattr(owner, attr, wrapped)
        # names imported with `from .x import f` are looked up in the importer
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    patch(cli, "main", "cli.main")
    for module in (config, engine, montecarlo, theory, reports):
        prefix = module.__name__.rpartition(".")[2]
        for attr in _public_functions(module):
            patch(module, attr, f"{prefix}.{attr}")
    # Only the two kernels: the small validation helpers run inside them and
    # in every caller, where a span would cost more than it measures.
    patch(linalg, "mat_exp", "linalg.mat_exp")
    patch(linalg, "solve_lyapunov", "linalg.solve_lyapunov")
    patch(problems.NoiseModel, "draw", "problems.noise_draw", units=lambda out: out.size)
    patch(problems.NoiseModel, "factor", "problems.noise_factor")
    patch(problems.NonlinearResidual, "evaluate", "problems.residual")
    for attr in _public_functions(problems):
        patch(problems, attr, f"problems.{attr}")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and work units.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_total = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, units), children in zip(spans, child_total):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
        entry["units"] += units
    return out
