"""Dense kernels for small real matrices.

Everything downstream works on plain float64 numpy arrays; these helpers add
the operations the simulation needs beyond numpy itself: spectral-gap
queries, stability tests, a scaling-and-squaring matrix exponential, and a
Lyapunov solver for stationary covariances. All functions are pure and all
inputs are validated to be finite.

The exponential exp(t a) scales t a to 1-norm x <= 0.25 and sums a Taylor
polynomial of the lowest degree q whose tail bound
x^(q+1)/(q+1)! / (1 - x/(q+2)) is at most 2^-53, the unit roundoff; q is at
most 12, and small arguments need far fewer terms. The powers it sums come
from an ``ExpBasis`` of a, which holds (a/2^e)^k for k = 0..12. A caller that
exponentiates one matrix at many values of t builds the basis once, so each
exponential costs one coefficient dot and its squarings (Higham, SIAM J.
Matrix Anal. Appl. 26(4), 2005).

``rows_dot`` is the row rule: every product whose row count depends on a
batch or a chunk goes through it, so that each row rounds alike at every row
count and at every position. BLAS picks its kernel by the shape of a product:
one row runs as a matrix-vector kernel, a row count that is not a multiple of
4 ends in an edge kernel, and a large product switches kernel again. With
OpenBLAS 0.3.31 (DYNAMIC_ARCH, on an AVX-512 Xeon) a plain ``ndarray.dot`` by
a C-ordered matrix m rounds a row alike at every position and row count that
is a multiple of ``ROW_ALIGN`` = 4, as long as rows x m.size <= ``SLAB_SIZE``
= 10^6, at one BLAS thread and at two; ``TestRowsDot`` in
``tests/test_linalg.py`` checks this at every dim from 2 to 64. So
``rows_dot`` splits x into 4-row-aligned slabs under that bound, each written
straight into one result, and takes the rows past the last whole block of
four as the last rows of one more block of four, padded with the rows before
them or, below four rows, with zero rows (Ahrens, Demmel and Nguyen, ACM TOMS
46(3), 2020, fix the order of a reduction the same way).
``row_product`` picks the product of the rule for one shape, so a loop of
products of that shape picks it once.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, SingularMatrixError

# Inverses feed covariance formulas where noise amplification is quadratic,
# so reject anything past this conditioning.
COND_LIMIT = 1e12

ROW_ALIGN = 4  # rows_dot's row counts are multiples of this
SLAB_SIZE = 10**6  # the most rows x m.size of one ndarray.dot in rows_dot

_EXP_THETA = 0.25
# _EXP_LIMITS[q] is the largest double x whose Taylor tail bound
# x^(q+1)/(q+1)! / (1 - x/(q+2)) is at most 2^-53, for degrees q = 0..12;
# the last one exceeds _EXP_THETA, so degree 12 covers every scaled argument.
_EXP_LIMITS = (
    1.1102230246251564e-16,
    1.4901161156840221e-08,
    8.733470225845941e-06,
    0.00022719587095773583,
    0.0016783942945243198,
    0.006562297263423305,
    0.01776452568877372,
    0.0381185112040249,
    0.06993274988239931,
    0.11483164143919657,
    0.17378846225635636,
    0.24723920471146654,
    0.33521266165713876,
)
_EXP_ORDERS = np.arange(len(_EXP_LIMITS), dtype=float)
_EXP_INV_FACTORIALS = np.array([1.0 / math.factorial(k) for k in range(len(_EXP_LIMITS))])


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square float64 matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))


@dataclass(frozen=True)
class SpectralSummary:
    """Real parts of a spectrum, its maximum, and the stability gap.

    ``gap`` is the negated spectral abscissa: positive exactly when every
    eigenvalue has negative real part, and +0.0 for a zero abscissa.
    """

    real_parts: np.ndarray
    abscissa: float
    gap: float


def spectral_summary(a) -> SpectralSummary:
    """Eigenvalue real parts of a square matrix, sorted descending.

    Complex conjugate pairs contribute their real part twice.
    """
    m = as_square(a)
    parts = np.sort(np.linalg.eigvals(m).real)[::-1]
    abscissa = float(parts[0])
    # 0.0 - x, not -x: a zero abscissa gives a gap of +0.0, which prints as 0
    return SpectralSummary(real_parts=parts, abscissa=abscissa, gap=0.0 - abscissa)


def stability_gap(a) -> float:
    """Negated spectral abscissa; positive iff the matrix is Hurwitz."""
    return spectral_summary(a).gap


def is_hurwitz(a, margin: float = 0.0) -> bool:
    """True iff every eigenvalue real part is below ``-margin``."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return stability_gap(a) > margin


@dataclass(frozen=True)
class ExpBasis:
    """The powers of a square matrix that ``mat_exp`` sums, kept for reuse.

    ``norm`` is the 1-norm of a and ``scale`` = 2^e the power of two at or
    above it. ``powers`` holds (a/2^e)^k for k = 0..12, flattened to rows of
    length ``dim``^2; each has 1-norm at most 1, so none overflows.
    """

    dim: int
    norm: float
    scale: float
    powers: np.ndarray


def exp_basis(a) -> ExpBasis:
    """The ``ExpBasis`` of a finite square matrix."""
    m = as_square(a)
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=0).max())  # the 1-norm
    mantissa, e = math.frexp(norm)  # norm = mantissa 2^e, 0.5 <= mantissa < 1
    scale = math.ldexp(1.0, e - 1 if mantissa == 0.5 else e)
    unit = m / scale
    powers = np.empty((len(_EXP_LIMITS), n, n))
    powers[0] = np.eye(n)
    for k in range(1, len(_EXP_LIMITS)):
        np.matmul(powers[k - 1], unit, out=powers[k])
    powers.flags.writeable = False
    return ExpBasis(dim=n, norm=norm, scale=scale, powers=powers.reshape(len(_EXP_LIMITS), n * n))


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t a) by scaling and squaring with a Taylor core.

    ``a`` is a square array or its ``exp_basis``. t a is scaled by 2^-s down
    to 1-norm x = |t| ||a||_1 / 2^s <= 0.25, and the Taylor polynomial of
    degree q, the lowest whose tail bound x^(q+1)/(q+1)! / (1 - x/(q+2)) is
    at most 2^-53, is one dot of the coefficients c^k / k!, c = t 2^e / 2^s,
    with the basis powers (a/2^e)^k, k = 0..q. The result is squared s times.
    q is 12 at x = 0.25 and falls as x shrinks; t = 0 and the zero matrix map
    to the identity exactly. A non-finite t raises ValueError.
    """
    basis = a if isinstance(a, ExpBasis) else exp_basis(a)
    t = float(t)
    norm = abs(t) * basis.norm
    if not math.isfinite(norm):
        raise ValueError(f"exp(t a) needs a finite t ||a||_1, got t = {t!r}")
    squarings = 0 if norm <= _EXP_THETA else math.ceil(math.log2(norm / _EXP_THETA))
    scale = 2.0**squarings
    degree = bisect.bisect_left(_EXP_LIMITS, norm / scale)
    coeffs = (t * basis.scale / scale) ** _EXP_ORDERS[: degree + 1]
    coeffs *= _EXP_INV_FACTORIALS[: degree + 1]
    out = (coeffs @ basis.powers[: degree + 1]).reshape(basis.dim, basis.dim)
    for _ in range(squarings):
        out = out @ out
    return out


def row_product(rows: int, size: int):
    """The product f(x, m, out) of the row rule for a C-ordered x of ``rows``
    rows and an m of ``size`` entries: ``np.ndarray.dot`` where a plain dot
    keeps the rule, at a multiple of ``ROW_ALIGN`` rows with rows x size <=
    ``SLAB_SIZE``, and ``rows_dot`` otherwise. A loop that takes many
    products of one shape picks it once and pays no call per product.
    """
    return np.ndarray.dot if rows % ROW_ALIGN == 0 and rows * size <= SLAB_SIZE else rows_dot


def rows_dot(x: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ m for a (rows, k) x and a C-ordered (k, cols) m, each row rounded
    alike at every row count and position (the row rule of the module
    docstring).

    The rule holds for a C-ordered x: BLAS takes an F-ordered one as a
    transposed operand, whose rows round by the row count. So an x that is
    not C-contiguous is copied to C order first; a C-ordered x pays only the
    flag check.
    The result is written into ``out``, any array of rows x cols entries,
    when it is given, and ``out`` is returned. Each slab is written straight
    into the result: ``out`` itself when it is a C-ordered 2-d array, else
    one fresh array. The rows past the last whole block of four are the last
    rows of one more product of four rows (module docstring): of x's last
    four, written straight into the result's last four, or below four rows of
    one zero-padded block, whose product holds the result.
    """
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(x)
    rows = len(x)
    direct = out is None or out.ndim == 2 and out.flags.c_contiguous  # ndarray.dot writes it
    if direct and row_product(rows, m.size) is np.ndarray.dot:
        return x.dot(m, out=out)
    if rows < ROW_ALIGN:  # the last rows of one block of four, after zero rows
        block = np.zeros((ROW_ALIGN, x.shape[1]))
        block[ROW_ALIGN - rows :] = x
        res = block.dot(m)[ROW_ALIGN - rows :]
    else:
        res = out if direct and out is not None else np.empty((rows, m.shape[1]))
        aligned = rows - rows % ROW_ALIGN
        slab = max(SLAB_SIZE // m.size // ROW_ALIGN, 1) * ROW_ALIGN
        for lo in range(0, aligned, slab):  # each slab straight into res
            x[lo : min(lo + slab, aligned)].dot(m, out=res[lo : min(lo + slab, aligned)])
        if aligned < rows:  # the rest: x's last four, rewriting the rows before them alike
            x[-ROW_ALIGN:].dot(m, out=res[-ROW_ALIGN:])
    if out is not None and res is not out:
        out[...] = res.reshape(out.shape)
    return res if out is None else out


def invert(a, name: str = "matrix") -> np.ndarray:
    """Inverse of a square matrix, rejecting near-singular inputs; a rejection
    names the matrix ``name``."""
    m = as_square(a, name)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            f"{name} is singular to working precision (condition estimate {cond:.3e})"
        )
    return np.linalg.inv(m)


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve ``A S + S A^T = -Q`` for the stationary covariance ``S``.

    ``A`` must be Hurwitz, otherwise the defining integral of ``S`` diverges
    and the equation has no positive semidefinite solution. ``Q`` must be
    symmetric and of matching dimension. Solved densely through the
    Kronecker-vectorized linear system, which is transparent and exact at the
    small dimensions used here.
    """
    m = as_square(a, "A")
    qm = as_square(q, "Q")
    if qm.shape != m.shape:
        raise DimensionError(f"A has shape {m.shape} but Q has shape {qm.shape}")
    if frobenius(qm - qm.T) > 1e-8 * max(1.0, frobenius(qm)):
        raise ValueError("Q must be symmetric")
    if not is_hurwitz(m):
        raise InfeasibleError(
            "A is not Hurwitz (stability gap "
            f"{stability_gap(m):.6g} <= 0); stationary covariance does not exist"
        )
    n = m.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, m) + np.kron(m, eye)
    sol = np.linalg.solve(system, -qm.reshape(-1)).reshape(n, n)
    sol = 0.5 * (sol + sol.T)
    residual = frobenius(m @ sol + sol @ m.T + qm)
    if residual > 1e-10 * max(1.0, frobenius(qm)):
        raise SingularMatrixError(
            f"Lyapunov system too ill-conditioned (residual {residual:.3e})"
        )
    return sol


def min_eigenvalue_sym(a) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(as_square(a))[0])


def is_psd(a) -> bool:
    """Whether ``a`` is symmetric positive semidefinite, both to within
    1e-10 max(1, ||a||_F): the one rule for a noise covariance."""
    m = as_square(a)
    tol = 1e-10 * max(1.0, frobenius(m))
    if frobenius(m - m.T) > tol:
        return False
    return min_eigenvalue_sym(0.5 * (m + m.T)) >= -tol
