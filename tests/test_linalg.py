import bisect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from ttsa import linalg
from ttsa.errors import DimensionError, InfeasibleError, SingularMatrixError

from oracles import kron_lyapunov, quadrature_lyapunov, random_hurwitz, random_psd, taylor_expm


class TestSpectralSummary:
    def test_diagonal(self):
        s = linalg.spectral_summary(np.diag([-2.0, -3.0]))
        assert s.gap == 2.0
        assert s.abscissa == -2.0
        np.testing.assert_allclose(s.real_parts, [-2.0, -3.0])

    def test_pure_rotation_has_zero_gap(self):
        s = linalg.spectral_summary([[0.0, 1.0], [-1.0, 0.0]])
        assert abs(s.gap) < 1e-12
        np.testing.assert_allclose(s.real_parts, [0.0, 0.0], atol=1e-12)

    def test_a_zero_abscissa_is_a_gap_of_plus_zero(self):
        # -0.0 would print as "-0" in a validation line
        for a in (np.zeros((1, 1)), np.zeros((3, 3)), np.diag([0.0, -1.0])):
            assert math.copysign(1.0, linalg.stability_gap(a)) == 1.0

    def test_matches_characteristic_polynomial_roots(self):
        # roots of x^2 + 2x - 1 solved by hand: -1 +- sqrt(2)
        s = linalg.spectral_summary([[-1.0, 4.0], [0.5, -1.0]])
        expected = sorted([-1.0 + math.sqrt(2.0), -1.0 - math.sqrt(2.0)], reverse=True)
        np.testing.assert_allclose(s.real_parts, expected, atol=1e-12)
        assert s.gap == -s.abscissa

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(size=(4, 4))
            sim = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
            conj = sim @ a @ np.linalg.inv(sim)
            np.testing.assert_allclose(
                linalg.spectral_summary(a).real_parts,
                linalg.spectral_summary(conj).real_parts,
                atol=1e-8,
            )

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.spectral_summary(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.spectral_summary([[np.nan, 0.0], [0.0, 1.0]])


class TestIsHurwitz:
    def test_negative_identity(self):
        assert linalg.is_hurwitz(-np.eye(2))

    def test_zero_matrix_is_not(self):
        assert not linalg.is_hurwitz(np.zeros((2, 2)))

    def test_margin(self):
        a = [[-0.1, 1.0], [0.0, -0.1]]
        assert linalg.is_hurwitz(a, margin=0.05)
        assert not linalg.is_hurwitz(a, margin=0.15)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            linalg.is_hurwitz(-np.eye(2), margin=-1.0)


class TestMatExp:
    def test_zero(self):
        np.testing.assert_array_equal(linalg.mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.mat_exp(np.diag([0.3, -1.7]))
        np.testing.assert_allclose(out, np.diag([math.exp(0.3), math.exp(-1.7)]), rtol=1e-14)

    def test_nilpotent(self):
        out = linalg.mat_exp([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            dim = int(rng.integers(1, 6))
            a = rng.normal(size=(dim, dim))
            a *= rng.uniform(0.05, 1.0) / np.linalg.norm(a, 2)
            expected = taylor_expm(a)
            got = linalg.mat_exp(a)
            err = np.linalg.norm(got - expected, "fro") / np.linalg.norm(expected, "fro")
            assert err <= 1e-12

    def test_large_norm_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) * 3.0
            np.testing.assert_allclose(
                linalg.mat_exp(a), scipy.linalg.expm(a), rtol=1e-10, atol=1e-10
            )

    def test_commuting_product_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = np.diag(rng.uniform(-1.0, 1.0, size=3))
            b = np.diag(rng.uniform(-1.0, 1.0, size=3))
            lhs = linalg.mat_exp(a + b)
            rhs = linalg.mat_exp(a) @ linalg.mat_exp(b)
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-12 * np.linalg.norm(lhs, "fro")

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg.mat_exp(np.ones((2, 3)))


_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _tail_bound(x: float, q: int) -> Fraction:
    """Exact value of x^(q+1)/(q+1)! / (1 - x/(q+2)) at the double x."""
    x = Fraction(x)
    return x ** (q + 1) / math.factorial(q + 1) / (1 - x / (q + 2))


def _largest_double_within_bound(q: int) -> float:
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if _tail_bound(mid, q) <= _UNIT_ROUNDOFF:
            lo = mid
        else:
            hi = mid


# 1-norm exactly 1 with every column summed without rounding, so x * _SHAPE
# has 1-norm exactly x for any double x
_SHAPE = np.array([[0.5, -0.5, 0.0], [0.0, 0.5, 1.0], [-0.5, 0.0, 0.0]])


class TestMatExpDegree:
    def test_limits_recomputed_from_the_tail_bound(self):
        recomputed = tuple(_largest_double_within_bound(q) for q in range(13))
        assert linalg._EXP_LIMITS == recomputed

    def test_degree_twelve_covers_the_scaling_threshold(self):
        assert linalg._EXP_LIMITS[11] < linalg._EXP_THETA <= linalg._EXP_LIMITS[12]

    @pytest.mark.parametrize("q", range(13))
    def test_at_and_just_above_each_limit(self, q):
        limit = linalg._EXP_LIMITS[q]
        for x, degree in ((limit, q), (math.nextafter(limit, math.inf), q + 1)):
            a = x * _SHAPE
            assert np.abs(a).sum(axis=0).max() == x
            assert bisect.bisect_left(linalg._EXP_LIMITS, x) == degree
            expected = taylor_expm(a)
            err = np.linalg.norm(linalg.mat_exp(a) - expected, "fro")
            assert err <= 1e-14 * np.linalg.norm(expected, "fro")


def _rel_1norm(got, expected):
    return np.abs(got - expected).sum(axis=0).max() / np.abs(expected).sum(axis=0).max()


def _t_at_limit(limit: float, norm: float) -> float:
    """The largest t > 0 whose product with ``norm`` is at most ``limit``."""
    t = limit / norm
    while t * norm > limit:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) * norm <= limit:
        t = math.nextafter(t, math.inf)
    return t


_BASIS_MATRICES = {
    "1x1": np.array([[-1.0]]),
    "2x2": np.array([[-1.0, 0.5], [0.25, -1.0]]),  # 1-norm 1.5
    "24x24": np.random.default_rng(41).normal(size=(24, 24)) / 8.0,
}


class TestExpBasis:
    @pytest.mark.parametrize("name", _BASIS_MATRICES)
    def test_basis_fields(self, name):
        a = _BASIS_MATRICES[name]
        basis = linalg.exp_basis(a)
        assert basis.norm == np.abs(a).sum(axis=0).max()
        assert math.frexp(basis.scale)[0] == 0.5  # a power of two
        assert basis.norm <= basis.scale < 2.0 * basis.norm
        n = a.shape[0]
        assert basis.powers.shape == (13, n * n)
        np.testing.assert_array_equal(basis.powers[0], np.eye(n).ravel())
        np.testing.assert_array_equal(basis.powers[1], (a / basis.scale).ravel())

    @pytest.mark.parametrize("name", _BASIS_MATRICES)
    @pytest.mark.parametrize("q", range(13))
    def test_at_and_just_above_each_limit(self, name, q):
        a = _BASIS_MATRICES[name]
        basis = linalg.exp_basis(a)
        t = _t_at_limit(linalg._EXP_LIMITS[q], basis.norm)
        for x, degree in ((t, q), (math.nextafter(t, math.inf), q + 1)):
            assert bisect.bisect_left(linalg._EXP_LIMITS, x * basis.norm) == degree
            for signed in (x, -x):
                got = linalg.mat_exp(basis, signed)
                assert _rel_1norm(got, taylor_expm(signed * a)) <= 1e-14

    @pytest.mark.parametrize("name", _BASIS_MATRICES)
    @pytest.mark.parametrize("squarings", range(4))
    def test_squaring_counts(self, name, squarings):
        # |t| ||a||_1 = 0.25 2^s takes s squarings, and just above it s + 1
        a = _BASIS_MATRICES[name]
        basis = linalg.exp_basis(a)
        t = _t_at_limit(linalg._EXP_THETA * 2.0**squarings, basis.norm)
        for x in (t, math.nextafter(t, math.inf), 0.7 * t):
            for signed in (x, -x):
                got = linalg.mat_exp(basis, signed)
                assert _rel_1norm(got, taylor_expm(signed * a)) <= 1e-14

    @pytest.mark.parametrize("name", _BASIS_MATRICES)
    def test_an_array_takes_the_basis_path(self, name):
        a = _BASIS_MATRICES[name]
        basis = linalg.exp_basis(a)
        for t in (1.0, -0.3, 2.5):
            np.testing.assert_array_equal(linalg.mat_exp(a, t), linalg.mat_exp(basis, t))

    @pytest.mark.parametrize("name", _BASIS_MATRICES)
    def test_zero_t_and_zero_matrix_give_the_identity(self, name):
        n = _BASIS_MATRICES[name].shape[0]
        basis = linalg.exp_basis(_BASIS_MATRICES[name])
        zero = linalg.exp_basis(np.zeros((n, n)))
        for t in (0.0, -0.0):
            np.testing.assert_array_equal(linalg.mat_exp(basis, t), np.eye(n))
        for t in (0.0, 1.0, -3.0, 1e300):
            np.testing.assert_array_equal(linalg.mat_exp(zero, t), np.eye(n))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        basis = linalg.exp_basis(_BASIS_MATRICES["2x2"])
        with pytest.raises(ValueError):
            linalg.mat_exp(basis, t)
        with pytest.raises(ValueError):
            linalg.mat_exp(np.zeros((2, 2)), t)


class TestSolveLyapunov:
    def test_half_identity_returns_q(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(linalg.solve_lyapunov(-0.5 * np.eye(2), q), q, atol=1e-12)

    def test_scalar_closed_form(self):
        out = linalg.solve_lyapunov([[-1.5]], [[0.6]])
        np.testing.assert_allclose(out, [[0.6 / 3.0]], rtol=1e-14)

    def test_against_vectorized_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            a = random_hurwitz(rng, dim)
            q = random_psd(rng, dim)
            got = linalg.solve_lyapunov(a, q)
            expected = kron_lyapunov(a, q)
            assert np.linalg.norm(got - expected, "fro") <= 1e-8 * max(
                1.0, np.linalg.norm(expected, "fro")
            )
            residual = np.linalg.norm(a @ got + got @ a.T + q, "fro")
            assert residual <= 1e-10 * max(1.0, np.linalg.norm(q, "fro"))
            assert np.linalg.norm(got - got.T, "fro") <= 1e-12
            assert np.linalg.eigvalsh(got).min() >= -1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            a = random_hurwitz(rng, dim)
            q = random_psd(rng, dim)
            expected = scipy.linalg.solve_lyapunov(a, -q)
            np.testing.assert_allclose(linalg.solve_lyapunov(a, q), expected, atol=1e-9)

    def test_matches_covariance_integral(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            dim = int(rng.integers(1, 4))
            a = random_hurwitz(rng, dim)
            q = random_psd(rng, dim)
            integral = quadrature_lyapunov(a, q, gap=linalg.stability_gap(a))
            got = linalg.solve_lyapunov(a, q)
            assert np.linalg.norm(got - integral, "fro") <= 1e-6

    def test_not_hurwitz_rejected(self):
        with pytest.raises(InfeasibleError):
            linalg.solve_lyapunov(np.zeros((2, 2)), np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            linalg.solve_lyapunov(-np.eye(2), np.eye(3))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_lyapunov(-np.eye(2), [[1.0, 5.0], [0.0, 1.0]])


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.invert(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_unipotent_closed_form(self):
        np.testing.assert_allclose(
            linalg.invert([[1.0, 1.0], [0.0, 1.0]]), [[1.0, -1.0], [0.0, 1.0]], atol=1e-14
        )

    def test_multiply_back(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            a = rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
            inv = linalg.invert(a)
            assert np.linalg.norm(a @ inv - np.eye(dim), "fro") <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            linalg.invert([[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.bitwise
class TestRowsDot:
    # the row rule: each row of rows_dot(x, m) has the same bits at every row
    # count and offset, so any run of rows of x gives those rows of the
    # product; at every dim from 2 to 64, square and wide (dim, dim^2)
    # operands and the quadratic residual's: its (dim, dim (dim + 1) / 2)
    # selections and the transposed shape of its packed coefficients. The
    # counts cross 4-row boundaries and the slab bound
    @pytest.mark.parametrize("dim, cols", [
        shape for d in range(2, 65) for p in (d * (d + 1) // 2,)
        for shape in ((d, d), (d, d * d), (d, p), (p, d))
    ])
    def test_any_run_of_rows_is_those_rows_of_the_product(self, dim, cols):
        rng = np.random.default_rng(dim + cols)
        m = rng.normal(size=(dim, cols))
        slab = max(linalg.SLAB_SIZE // m.size // linalg.ROW_ALIGN, 1) * linalg.ROW_ALIGN
        x = rng.normal(size=(max(2 * slab, 70) + 12, dim))
        full = linalg.rows_dot(x, m)
        assert np.all(np.abs(full - x @ m) <= 1e-14 * (np.abs(x) @ np.abs(m)))
        spread = np.geomspace(71, max(2 * slab + 6, 71), 24).astype(int).tolist()
        counts = {*range(1, 71), *spread, slab - 1, slab, slab + 1, 2 * slab + 3}
        bad = [(k, start) for k in sorted(counts) for start in (0, 1, 6)
               if not np.array_equal(linalg.rows_dot(x[start : start + k], m),
                                     full[start : start + k])]
        # the product a loop picks once for k rows
        bad += [(k, "row_product") for k in sorted(counts)
                if not np.array_equal(linalg.row_product(k, m.size)(x[:k], m), full[:k])]
        assert not bad, (
            "the row rule does not hold with this BLAS: rows_dot rounds a row of a "
            f"({dim}, {cols}) product differently at (row count, offset) {bad[:10]}, so the "
            "determinism contracts (batch size, chunk size, run = replication 0) can fail")

    @pytest.mark.parametrize("rows", [4, 8, 12, 100, 324])
    def test_an_x_in_any_layout_gives_the_rows_of_the_c_ordered_product(self, rows):
        # BLAS takes an F-ordered x as a transposed operand, whose rows round
        # by the row count; m is the 9+9 residual's packed product
        rng = np.random.default_rng(rows)
        x, m = rng.normal(size=(800, 171)), rng.normal(size=(171, 18))
        full = linalg.rows_dot(x, m)
        wide = np.zeros((rows, 342))
        wide[:, ::2] = x[:rows]
        doubled = np.repeat(x[:rows], 2, axis=0)
        for layout in (np.asfortranarray(x[:rows]), wide[:, ::2], doubled[::2]):
            np.testing.assert_array_equal(linalg.rows_dot(layout, m), full[:rows])

    @pytest.mark.parametrize("rows", [3, 8, 1001])
    def test_writes_into_out(self, rows):
        rng = np.random.default_rng(rows)
        x, m = rng.normal(size=(rows, 40)), rng.normal(size=(40, 40))
        for out in (np.empty((rows, 40)), np.empty((rows, 2, 40))[:, 0]):  # C-ordered or not
            assert linalg.rows_dot(x, m, out) is out
            np.testing.assert_array_equal(out, linalg.rows_dot(x, m))

    @pytest.mark.parametrize("rows", [800, 803])
    def test_a_product_above_the_bound_allocates_at_most_one_block(self, rows):
        # 800 x 36^2 passes SLAB_SIZE: each slab goes straight into out, and
        # the 3 rows past the last whole block of four take one padded block
        rng = np.random.default_rng(rows)
        x, m = rng.normal(size=(rows, 36)), rng.normal(size=(36, 36))
        out = np.empty((rows, 36))
        tracemalloc.start()
        try:
            assert linalg.rows_dot(x, m, out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (x.shape[1] + m.shape[1]) * x.itemsize + 2**10  # a block and its product
