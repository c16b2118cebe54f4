"""Row order of the engine's products: cost and bits of three designs.

Every product of the engine whose row count depends on the batch or the
chunk is a (rows, dim) @ (dim, dim) product. The determinism contracts need
each row to round alike at every row count. This script measures, for a
square right operand:

- the cost of one ``ndarray.dot`` against the stacked form, one
  ``np.matmul`` of the rows padded to a multiple of T and viewed as
  (rows / T, T, dim), for T = 16, 32 and 64;
- the cost of one 16-row slab through ``np.matmul`` and ``ndarray.dot``;
- whether each row's bits are the same at every row count tried, for the
  stacked form and for a plain C-ordered ``dot`` at row counts that are a
  multiple of 4 with rows * dim^2 <= 10^6; and, above that bound, the first
  row count at which a plain ``dot`` rounds a row differently.

Run it with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 results/row_order.py [--quick]
"""
import argparse
import timeit

import numpy as np

BOUND = 10**6  # rows * dim^2 up to which the plain dot keeps its kernel


def best_us(fn, number):
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


def stacked(x, m, t):
    """x @ m as one matmul of (rows / t, t, dim) slabs, rows padded to t."""
    rows, dim = x.shape
    pad = -rows % t
    if pad:
        x = np.concatenate([x, np.zeros((pad, dim))])
    return np.matmul(x.reshape(-1, t, dim), m).reshape(-1, dim)[:rows]


def timings():
    rng = np.random.default_rng(1)
    print("case | one dot | T = 16 | T = 32 | T = 64  (us, best of 7)")
    for dim, rows in ((4, 2000), (4, 400), (8, 400)):
        x, m = rng.normal(size=(rows, dim)), rng.normal(size=(dim, dim))
        out = np.empty_like(x)
        cells = [best_us(lambda: x.dot(m, out=out), 2000)]
        for t in (16, 32, 64):
            xs = np.zeros((-(-rows // t), t, dim))  # the rows, padded to a multiple of t
            xs.reshape(-1, dim)[:rows] = x
            o = np.empty_like(xs)
            cells.append(best_us(lambda: np.matmul(xs, m, out=o), 2000))
        print(f"dim {dim}, B = {rows} | " + " | ".join(f"{c:.1f}" for c in cells))
    x, m = rng.normal(size=(16, 4)), rng.normal(size=(4, 4))
    out = np.empty_like(x)
    slab_matmul = best_us(lambda: np.matmul(x, m, out=out), 20000)
    slab_dot = best_us(lambda: x.dot(m, out=out), 20000)
    print(f"one 16-row slab, dim 4: np.matmul {slab_matmul:.2f} us, ndarray.dot {slab_dot:.2f} us")


def row_counts(limit):
    counts = set(range(4, min(limit, 512) + 1, 4))
    counts.update(int(c) // 4 * 4 for c in np.geomspace(512, limit, 40))
    return sorted(c for c in counts if 4 <= c <= limit)


def reference(x, m, block):
    """Each row of x @ m as a product of ``block`` rows computes it."""
    ref = np.empty((len(x), m.shape[1]))
    for i in range(0, len(x), block):
        ref[i : i + block] = x[i : i + block].dot(m)
    return ref


def check_plain(dims):
    """Plain dot at multiples of 4 up to the bound: the same bits as 4-row products."""
    rng = np.random.default_rng(2)
    bad = []
    for dim in dims:
        limit = BOUND // dim**2 // 4 * 4
        x, m = rng.normal(size=(limit, dim)), rng.normal(size=(dim, dim))
        ref = reference(x, m, 4)
        bad += [(dim, r) for r in row_counts(limit) if not np.array_equal(x[:r].dot(m), ref[:r])]
    print(f"plain dot, multiples of 4 rows up to rows * dim^2 <= 1e6, "
          f"{len(dims)} dims from {dims[0]} to {dims[-1]}:",
          "same bits" if not bad else f"differs at (dim, rows) {bad[:10]}")


def check_stacked(dims, t=16):
    rng = np.random.default_rng(3)
    bad = []
    for dim in dims:
        x, m = rng.normal(size=(2048, dim)), rng.normal(size=(dim, dim))
        ref = stacked(x, m, t)
        bad += [(dim, r) for r in (*range(1, 70), 255, 256, 257, 1000, 2000)
                if not np.array_equal(stacked(x[:r], m, t), ref[:r])]
    print(f"stacked T = {t}, rows 1-69, 255-257, 1000 and 2000, "
          f"{len(dims)} dims from {dims[0]} to {dims[-1]}:",
          "same bits" if not bad else f"differs at (dim, rows) {bad[:10]}")


def switch_points(dims):
    """The first row count above the bound where a plain dot rounds its first
    rows differently from 4-row products."""
    rng = np.random.default_rng(4)
    for dim in dims:
        start = BOUND // dim**2 - 8
        x, m = rng.normal(size=(start + 64, dim)), rng.normal(size=(dim, dim))
        ref = reference(x[:4], m, 4)
        first = next((r for r in range(start, start + 64)
                      if not np.array_equal(x[:r].dot(m)[:4], ref)), None)
        print(f"dim {dim}: rows * dim^2 = 1e6 at {BOUND / dim**2:.0f} rows;"
              f" first differing row count {first}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer dims in the bit checks")
    args = parser.parse_args()
    timings()
    dims = [2, 4, 9, 18, 25, 40, 64] if args.quick else list(range(2, 65))
    check_stacked(dims)
    check_plain(dims)
    switch_points([18, 25, 33])


if __name__ == "__main__":
    main()
