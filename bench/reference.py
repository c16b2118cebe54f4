"""Reference kernel: a fixed piece of numpy work that gauges the host's speed.

On a shared host the speed of one core drifts by a third or more within a
minute, and CPU time drifts with wall time, so neither can tell a slower
program from a slower host. The benchmark runs this kernel just before and
after each of the program's runs and scales the run's times by ``NOMINAL_S``
over the mean of the two kernel times: they become the times of a host whose
kernel takes ``NOMINAL_S``. The kernel does the kinds of work the program
does: a batched recursion reading a large block of normal draws, with a
quadratic einsum, and a per-step loop over one small vector. It never changes with the program, so a
faster or slower program still moves the scaled times in full.

Run alone, ``python3 bench/reference.py`` prints the kernel's seconds.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.25  # about the kernel's median on the 2-core Xeon host of the seed baseline

_A = np.array([
    [1.0, 0.2, 0.0, 0.1],
    [0.0, 1.0, 0.3, 0.0],
    [0.1, 0.0, 1.0, 0.2],
    [0.0, 0.1, 0.0, 1.0],
])
_Q = np.arange(64, dtype=float).reshape(4, 4, 4) / 640.0


def run_kernel() -> float:
    """Seconds taken by the fixed work; the result is checked, not kept."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(12345))
    factor = np.linalg.cholesky(_A @ _A.T)
    # A block of noise drawn row by row and read one step at a time across
    # the rows, the memory pattern of the program's batched ensembles.
    block = np.empty((2000, 512, 4))
    for row in range(block.shape[0]):
        block[row] = rng.standard_normal((512, 4)) @ factor.T
    x = np.zeros((2000, 4))
    for k in range(1, 513):
        gain = k ** -0.6
        drift = x @ _A.T
        if k % 4 == 0:
            drift += 0.01 * np.einsum("bj,ijk,bk->bi", x, _Q, x)
        x -= gain * drift
        x += gain * block[:, k - 1]
    # A per-step loop over one small vector, the pattern of a single trajectory.
    y = np.zeros(4)
    for k in range(1, 12000):
        gain = k ** -0.6
        y = y - gain * (_A @ y) + gain * rng.standard_normal(4)
    elapsed = time.perf_counter() - start
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise RuntimeError("the reference kernel diverged")
    return elapsed


if __name__ == "__main__":
    print(run_kernel())
