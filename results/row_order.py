"""Row order of the engine's products: the row rule's bit check, and costs.

Every product of the engine whose row count depends on the batch or the
chunk goes through ``ttsa.linalg.rows_dot``. The determinism contracts need
each row of it to round alike at every row count and offset: the row rule.
``rows_dot`` pads its rows to a multiple of 4 and splits them into slabs of
rows x m.size <= 10^6, each one ``ndarray.dot``, because a plain C-ordered
dot keeps its BLAS kernel there. This script checks, for square (dim, dim)
operands and the residual's (dim, dim^2) ones:

- that every run of rows of x gives, through ``rows_dot``, the bits of
  those rows of the whole product: row counts 1 to 70 and a spread of larger
  ones across two slabs, at offsets 0, 1 and 6;
- above the slab bound, the first row count at which a single plain dot
  rounds a row differently from 4-row products (informational).

Without ``--quick`` it also times one ``ndarray.dot`` against the stacked
form that the rule replaced (one ``np.matmul`` of the rows padded to a
multiple of T and viewed as (rows / T, T, dim), for T = 16, 32 and 64).
It exits 1 when a bit check fails. Run it from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 results/row_order.py [--quick]
"""
import argparse
import sys
import timeit

import numpy as np

from ttsa.linalg import ROW_ALIGN, SLAB_SIZE, rows_dot


def best_us(fn, number):
    return min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6


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


def slab_rows(m):
    return max(SLAB_SIZE // m.size // ROW_ALIGN, 1) * ROW_ALIGN


def check_helper(dims):
    """Each run of rows through rows_dot against those rows of the whole
    product; returns the (dim, cols, rows, offset) cases that differ."""
    rng = np.random.default_rng(2)
    bad = []
    for dim in dims:
        for cols in (dim, dim * dim):
            m = rng.normal(size=(dim, cols))
            slab = slab_rows(m)
            x = rng.normal(size=(2 * slab + 12, dim))
            full = rows_dot(x, m)
            counts = {*range(1, 71), *np.geomspace(71, 2 * slab + 6, 24).astype(int)}
            bad += [(dim, cols, r, s) for r in sorted(counts) for s in (0, 1, 6)
                    if not np.array_equal(rows_dot(x[s : s + r], m), full[s : s + r])]
    print(f"rows_dot, row counts 1 to two slabs at offsets 0, 1 and 6, (dim, dim) and "
          f"(dim, dim^2) operands, {len(dims)} dims from {dims[0]} to {dims[-1]}:",
          "same bits" if not bad else f"differs at (dim, cols, rows, offset) {bad[:10]}")
    return bad


def switch_points(dims):
    """The first row count above the bound where a plain dot rounds its first
    rows differently from 4-row products."""
    rng = np.random.default_rng(4)
    for dim in dims:
        start = SLAB_SIZE // dim**2 - 8
        x, m = rng.normal(size=(start + 64, dim)), rng.normal(size=(dim, dim))
        ref = x[:4].dot(m)
        first = next((r for r in range(start, start + 64)
                      if not np.array_equal(x[:r].dot(m)[:4], ref)), None)
        print(f"dim {dim}: rows * dim^2 = 1e6 at {SLAB_SIZE / dim**2:.0f} rows;"
              f" first differing row count of a plain dot {first}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="seven dims in the bit check, and no timings")
    args = parser.parse_args()
    if not args.quick:
        timings()
    dims = [2, 4, 9, 18, 25, 40, 64] if args.quick else list(range(2, 65))
    bad = check_helper(dims)
    switch_points([18, 25, 33])
    if bad:
        print("the row rule does not hold with this BLAS: rows_dot rounds a row "
              "differently at different row counts, so the determinism contracts "
              "(batch size, chunk size, run = replication 0) can fail", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
