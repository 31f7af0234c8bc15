import math

import numpy as np
import pytest

from schurkit import dense


def assert_solves_like_numpy(a, rng, rtol):
    """lu_solve(lu_factor(a), b) agrees with np.linalg.solve(a, b)."""
    b = rng.uniform(-1.0, 1.0, (a.shape[0], 3))
    x = dense.lu_solve(dense.lu_factor(a), b)
    ref = np.linalg.solve(a, b)
    assert np.abs(x - ref).max() <= rtol * np.abs(ref).max()


class TestLuFactor:
    def test_identity(self):
        f = dense.lu_factor(np.eye(3))
        assert np.array_equal(f.inv, np.eye(3))
        assert f.cond == 1.0

    def test_permutation_matrix(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = dense.lu_factor(p)
        assert np.array_equal(f.inv, p)
        assert f.cond == 1.0
        assert np.array_equal(dense.lu_solve(f, np.array([2.0, 3.0])), [3.0, 2.0])

    def test_seeded_reconstruction(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1.0, 1.0, (8, 8))
        assert_solves_like_numpy(a, rng, 1e-13)

    @pytest.mark.parametrize("n", range(2, 51, 7))
    def test_reconstruction_many_sizes(self, n):
        rng = np.random.default_rng(1000 + n)
        a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        assert_solves_like_numpy(a, rng, 1e-13)

    def test_cond_is_numpy_cond(self):
        # the generation gate reads f.cond in place of np.linalg.cond(s, 1)
        rng = np.random.default_rng(5)
        for n in (1, 4, 9):
            a = rng.uniform(-1.0, 1.0, (n, n))
            assert dense.lu_factor(a).cond == np.linalg.cond(a, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_cond_is_the_norm_product_bitwise(self, seed):
        # lu_factor sums the columns itself; the bits must be np.linalg.norm's
        rng = np.random.default_rng(300 + seed)
        for n in (1, 2, 5, 9, 16, 33):
            a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3, 3, n)
            f = dense.lu_factor(a)
            want = float(np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))
            assert f.cond.hex() == want.hex()

    def test_singularity_threshold_is_exact(self):
        # condition exactly 1/PIVOT_RTOL is singular; one ulp below is not
        assert 1.0 / dense.PIVOT_RTOL == 1e14
        with pytest.raises(dense.SingularMatrixError, match="1.000e[+]14 is not below"):
            dense.lu_factor(np.diag([1.0, 1e-14]))
        f = dense.lu_factor(np.diag([1.0, np.nextafter(1e-14, 1.0)]))
        assert f.cond == np.nextafter(1e14, 0.0)

    def test_singularity_threshold(self):
        # condition 1e15 is singular, 1e13 is not (threshold 1/PIVOT_RTOL)
        with pytest.raises(dense.SingularMatrixError):
            dense.lu_factor(np.diag([1.0, 1e-15]))
        dense.lu_factor(np.diag([1.0, 1e-13]))

    def test_singular_raises(self):
        with pytest.raises(dense.SingularMatrixError):
            dense.lu_factor(np.zeros((3, 3)))
        with pytest.raises(dense.SingularMatrixError):
            dense.lu_factor([[1.0, 2.0], [2.0, 4.0]])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            dense.lu_factor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dense.lu_factor([[np.nan, 0.0], [0.0, 1.0]])


class TestLuSolve:
    def test_identity(self):
        f = dense.lu_factor(np.eye(4))
        b = np.arange(4.0)
        assert np.array_equal(dense.lu_solve(f, b), b)

    def test_diagonal(self):
        f = dense.lu_factor(np.diag([2.0, 4.0]))
        x = dense.lu_solve(f, np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-15)

    def test_against_explicit_2x2_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (2, 2)) + 2 * np.eye(2)
        b = rng.uniform(-1.0, 1.0, 2)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
        x = dense.lu_solve(dense.lu_factor(a), b)
        assert np.abs(x - inv @ b).max() < 1e-14

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1.0, 1.0, (20, 20)) + 20 * np.eye(20)
        b = rng.uniform(-1.0, 1.0, 20)
        x = dense.lu_solve(dense.lu_factor(a), b)
        anorm = np.abs(a).sum(axis=1).max()
        assert np.abs(a @ x - b).max() <= 1e-10 * anorm * np.abs(x).max()

    def test_matrix_rhs(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1.0, 1.0, (5, 5)) + 5 * np.eye(5)
        b = rng.uniform(-1.0, 1.0, (5, 3))
        x = dense.lu_solve(dense.lu_factor(a), b)
        assert np.abs(a @ x - b).max() < 1e-12


class TestMatPolyEval:
    def test_x_minus_one_at_identity(self):
        r = dense.mat_poly_eval([-1.0, 1.0], np.eye(3))
        assert np.abs(r).max() == 0.0

    def test_cayley_hamilton_2x2(self):
        # T = [[0,1],[1,1]] satisfies its characteristic polynomial x^2-x-1
        t = np.array([[0.0, 1.0], [1.0, 1.0]])
        r = dense.mat_poly_eval([-1.0, -1.0, 1.0], t)
        assert np.abs(r).max() < 1e-15

    def test_constant_polynomial(self):
        t = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(dense.mat_poly_eval([1.0], t), np.eye(3))

    def test_empty_coeffs(self):
        with pytest.raises(ValueError):
            dense.mat_poly_eval([], np.eye(2))


class TestEigenvalues:
    def test_diagonal(self):
        eigs = dense.eigenvalues(np.diag([2.0, 3.0]))
        assert eigs == [complex(2.0), complex(3.0)]

    def test_rotation(self):
        eigs = dense.eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert eigs == [complex(0, -1), complex(0, 1)]

    def test_companion_golden_ratio(self):
        comp = np.array([[0.0, 1.0], [1.0, 1.0]])
        eigs = dense.eigenvalues(comp)
        golden = (1 + math.sqrt(5)) / 2
        assert abs(eigs[1].real - golden) < 1e-12
        assert abs(eigs[0].real - (1 - golden)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 10, 24, 50])
    def test_symmetric_spectrum_is_real(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        eigs = dense.eigenvalues(a)
        assert max(abs(z.imag) for z in eigs) <= 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [2, 3, 7, 15, 33, 50])
    def test_trace_equals_eigenvalue_sum(self, n):
        rng = np.random.default_rng(200 + n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        eigs = dense.eigenvalues(a)
        total = sum(eigs)
        assert abs(total.imag) <= 1e-9 * np.linalg.norm(a)
        assert abs(total.real - np.trace(a)) <= 1e-9 * np.linalg.norm(a)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1.0, 1.0, (12, 12))
        eigs = dense.eigenvalues(a)
        complex_part = sorted((z for z in eigs if z.imag != 0),
                              key=lambda z: (z.real, z.imag))
        assert len(complex_part) % 2 == 0
        conj = sorted((z.conjugate() for z in complex_part),
                      key=lambda z: (z.real, z.imag))
        assert max((abs(a_ - b_) for a_, b_ in zip(complex_part, conj)),
                   default=0.0) <= 1e-10

    def test_order_of_ties_matches_python_key_sort(self):
        # repeated conjugate pairs, repeated reals and signed zeros: ties
        # keep LAPACK's order, as a stable sort on (real, imag) does
        a = np.zeros((9, 9))
        a[:2, :2] = a[2:4, 2:4] = [[1.0, -2.0], [2.0, 1.0]]
        a[4:, 4:] = np.diag([1.0, -0.0, 1.0, 0.0, -0.0])
        a[4, 6] = 0.5
        want = sorted((complex(z) for z in np.linalg.eigvals(a)),
                      key=lambda z: (z.real, z.imag))
        got = dense.eigenvalues(a)
        assert all(type(z) is complex for z in got)
        assert [repr(z) for z in got] == [repr(z) for z in want]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense.eigenvalues(np.eye(dense.DESK_SIZE_LIMIT + 1))

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(dense.EigenConvergenceError):
            dense.eigenvalues(np.eye(3))
