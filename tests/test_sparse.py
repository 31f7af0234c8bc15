import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from schurkit import biot, sparse


def five_point_laplacian(n, width=None):
    """2-D grid Laplacian, Dirichlet, n rows of width (default n) unknowns."""
    m = n if width is None else width
    tr = []
    for j in range(n):
        for i in range(m):
            k = j * m + i
            tr.append((k, k, 4.0))
            if i > 0:
                tr.append((k, k - 1, -1.0))
            if i < m - 1:
                tr.append((k, k + 1, -1.0))
            if j > 0:
                tr.append((k, k - m, -1.0))
            if j < n - 1:
                tr.append((k, k + m, -1.0))
    return sparse.csr_from_triplets(n * m, n * m, tr)


def csr_identity(n):
    return sparse.CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))


def csr_equal(a, b):
    """Same shape and bitwise the same three CSR arrays."""
    return (a.shape == b.shape
            and np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)
            and np.array_equal(a.values, b.values))


def sha256_of(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


def random_csr(rng, rows, cols, density=0.3, empty_rows=()):
    d = rng.uniform(-1.0, 1.0, (rows, cols))
    d[rng.uniform(0, 1, (rows, cols)) > density] = 0.0
    d[list(empty_rows)] = 0.0
    tr = [(i, j, d[i, j]) for i in range(rows) for j in range(cols) if d[i, j]]
    return sparse.csr_from_triplets(rows, cols, tr), d


class TestCsrInvariants:
    """One case per ValueError that CsrMatrix.__init__ raises."""

    def test_row_offsets_length(self):
        with pytest.raises(ValueError, match="length rows\\+1"):
            sparse.CsrMatrix(2, 2, [0, 1], [0], [1.0])

    @pytest.mark.parametrize("offsets", [[0, 2, 1], [1, 1, 2]],
                             ids=["decreasing", "nonzero_start"])
    def test_row_offsets_monotone(self, offsets):
        with pytest.raises(ValueError, match="monotone starting at 0"):
            sparse.CsrMatrix(2, 2, offsets, [0, 1], [1.0, 1.0])

    def test_nnz_mismatch(self):
        with pytest.raises(ValueError, match="length must equal nnz"):
            sparse.CsrMatrix(2, 2, [0, 1, 2], [0], [1.0, 1.0])

    @pytest.mark.parametrize("col", [-1, 2], ids=["below_0", "at_cols"])
    def test_column_out_of_range(self, col):
        with pytest.raises(ValueError, match="column index out of range"):
            sparse.CsrMatrix(2, 2, [0, 1, 2], [0, col], [1.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value(self, value):
        with pytest.raises(ValueError, match="values must be finite"):
            sparse.CsrMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, value])

    # rows 0 and 2 hold two entries each, row 1 is empty
    @pytest.mark.parametrize("cols", [[1, 1, 0, 1], [0, 1, 1, 0]],
                             ids=["repeated", "decreasing"])
    def test_columns_strictly_increasing(self, cols):
        with pytest.raises(ValueError, match="strictly increasing per row"):
            sparse.CsrMatrix(3, 3, [0, 2, 2, 4], cols, np.ones(4))

    def test_columns_may_decrease_across_an_empty_row(self):
        a = sparse.CsrMatrix(3, 3, [0, 2, 2, 4], [1, 2, 0, 1], np.ones(4))
        assert a.nnz == 4


class TestTriplets:
    def test_duplicates_summed(self):
        a = sparse.csr_from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 1.0)])
        assert a.nnz == 1
        assert a.to_dense()[0, 0] == 2.0

    def test_empty(self):
        a = sparse.csr_from_triplets(3, 4, [])
        assert a.nnz == 0
        assert np.abs(a.to_dense()).max() == 0.0

    def test_tridiagonal_offsets(self):
        tr = []
        for i in range(3):
            tr.append((i, i, 2.0))
            if i > 0:
                tr.append((i, i - 1, -1.0))
            if i < 2:
                tr.append((i, i + 1, -1.0))
        a = sparse.csr_from_triplets(3, 3, tr)
        assert list(a.row_offsets) == [0, 2, 5, 7]

    def test_cancellation_dropped(self):
        a = sparse.csr_from_triplets(2, 2, [(0, 1, 1.0), (0, 1, -1.0), (1, 1, 3.0)])
        assert a.nnz == 1

    def test_tuple_of_triples_same_as_list(self):
        # three triples in a tuple are not the (rows, cols, values) columns
        tr = [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]
        a = sparse.csr_from_triplets(3, 3, tuple(tr))
        assert csr_equal(a, sparse.csr_from_triplets(3, 3, tr))
        assert np.array_equal(a.to_dense(), np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("triplets", [
        [(0.5, 1.7, 1.0)],
        [(0, float("nan"), 1.0)],
        (np.array([0]), np.array([1.5]), np.array([1.0])),
    ], ids=["triples", "nan", "columns"])
    def test_fractional_index_rejected(self, triplets):
        with pytest.raises(ValueError, match="whole numbers"):
            sparse.csr_from_triplets(2, 2, triplets)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sparse.csr_from_triplets(2, 2, [(2, 0, 1.0)])
        with pytest.raises(IndexError):
            sparse.csr_from_triplets(2, 2, [(0, -1, 1.0)])


class TestSpmv:
    def test_identity(self):
        x = np.arange(5.0)
        assert np.array_equal(sparse.spmv(csr_identity(5), x), x)

    def test_zero_matrix(self):
        a = sparse.csr_from_triplets(4, 4, [])
        assert np.abs(sparse.spmv(a, np.ones(4))).max() == 0.0

    def test_against_dense_oracle(self):
        # empty first, middle and last rows: a reduceat segment that is
        # empty returns the next row's first product instead of 0
        for empty_rows in ((), (0, 1, 9, 19)):
            rng = np.random.default_rng(11)
            a, d = random_csr(rng, 20, 20, empty_rows=empty_rows)
            assert not np.diff(a.row_offsets)[list(empty_rows)].any()
            x = rng.uniform(-1.0, 1.0, 20)
            assert np.abs(sparse.spmv(a, x) - d @ x).max() < 1e-13

    @pytest.mark.parametrize("seed", range(5))
    def test_rectangular_sizes(self, seed):
        rng = np.random.default_rng(700 + seed)
        rows, cols = rng.integers(1, 200), rng.integers(1, 200)
        a, d = random_csr(rng, int(rows), int(cols))
        x = rng.uniform(-1.0, 1.0, int(cols))
        err = np.abs(sparse.spmv(a, x) - d @ x).max()
        assert err <= 1e-12 * max(1.0, np.abs(d @ x).max())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sparse.spmv(csr_identity(3), np.ones(4))

    # sha256 of y = A x on the N=8 Biot blocks, recorded before spmv
    # gathered x with take
    @pytest.mark.parametrize("block, digest", [
        ("a_u", "d2280659a852f56cc324acaeee9730aab0380b2407bae746a602ae63ec7ddbb2"),
        ("b_uxi", "fd88b3bdcf1c7f0b25acc7dd68e0f2059a7c4e5bb321ed856bc75cb5fa21b76c"),
        ("b_uxi_t", "3157b9d8c96b984e6ec5bb4c9d8d4a5d37446c7730f5ce0740cd9bad5f10119d"),
        ("a_xi", "65e20023ab3dbdf460ab9c859e63468c31e0130c462cbd09bce40874c4583ac5"),
        ("b_xip", "f996b5519d6cfbb5b158a87877d8e0a15d5305de0986e1e2f8be2826c1cac780"),
        ("b_xip_t", "90b6d5877850e9b4c1fcb7a622a1b3c4d0824ab6d30eca7ec24b7e32b574ac55"),
        ("a_p", "897137fb1f85140faa734b067a4e9e5f1a7b6e96aab486c5b3045ee681635ba6"),
    ])
    def test_biot_blocks_bitwise(self, block, digest, biot8):
        a = getattr(biot8, block)
        x = np.random.default_rng(20).uniform(-1.0, 1.0, a.cols)
        assert sha256_of(sparse.spmv(a, x)) == digest


class TestTranspose:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for a, d in (random_csr(rng, 9, 14),
                     (sparse.csr_from_triplets(3, 4, []), np.zeros((3, 4)))):
            at = sparse.csr_transpose(a)
            assert at.shape == d.T.shape
            assert np.array_equal(at.to_dense(), d.T)
            assert csr_equal(sparse.csr_transpose(at), a)

    @staticmethod
    def lexsort_transpose(a):
        """A^T by a two-key lexsort of the (row, column) pairs."""
        rows = np.repeat(np.arange(a.rows), np.diff(a.row_offsets))
        order = np.lexsort((rows, a.col_indices))
        offsets = np.zeros(a.cols + 1, dtype=np.int64)
        np.add.at(offsets, a.col_indices + 1, 1)
        return sparse.CsrMatrix(a.cols, a.rows, np.cumsum(offsets),
                                rows[order], a.values[order])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lexsort_oracle(self, seed):
        rng = np.random.default_rng(40 + seed)
        rows, cols = (int(v) for v in rng.integers(1, 40, 2))
        a, d = random_csr(rng, rows, cols, empty_rows=rng.choice(rows, rows // 4))
        # empty columns too: zero a quarter of them and rebuild
        d[:, rng.choice(cols, cols // 4)] = 0.0
        ii, jj = np.nonzero(d)
        a = sparse.csr_from_triplets(rows, cols, (ii, jj, d[ii, jj]))
        assert csr_equal(sparse.csr_transpose(a), self.lexsort_transpose(a))

    def test_no_entries_matches_lexsort_oracle(self):
        a = sparse.csr_from_triplets(5, 3, [])
        assert csr_equal(sparse.csr_transpose(a), self.lexsort_transpose(a))


class TestCsrAdd:
    @staticmethod
    def triplet_sum(a, b):
        return sparse.csr_from_triplets(a.rows, a.cols, (
            np.concatenate([a._row_index(), b._row_index()]),
            np.concatenate([a.col_indices, b.col_indices]),
            np.concatenate([a.values, b.values])))

    def test_shared_pattern_adds_entrywise(self, monkeypatch):
        a = five_point_laplacian(5)
        rng = np.random.default_rng(19)
        b = sparse.CsrMatrix(a.rows, a.cols, a.row_offsets.copy(),
                             a.col_indices.copy(), rng.uniform(-1.0, 1.0, a.nnz))
        b.values[7] = -a.values[7]
        want = self.triplet_sum(a, b)

        def assembly(*args):
            raise AssertionError("csr_add assembled from triplets")

        monkeypatch.setattr(sparse, "csr_from_triplets", assembly)
        got = sparse.csr_add(a, b)
        assert csr_equal(got, want)
        # the entry that cancelled to exactly 0.0 left the pattern
        assert got.nnz == a.nnz - 1
        cancelled = (a._row_index()[7], a.col_indices[7])
        assert cancelled not in set(zip(got._row_index(), got.col_indices))

    @pytest.mark.parametrize("seed", [20, 21])
    def test_different_patterns_match_triplet_assembly(self, seed):
        rng = np.random.default_rng(seed)
        a, da = random_csr(rng, 7, 5, empty_rows=(2,))
        b, db = random_csr(rng, 7, 5)
        got = sparse.csr_add(a, b)
        assert csr_equal(got, self.triplet_sum(a, b))
        assert np.array_equal(got.to_dense(), da + db)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sparse.csr_add(csr_identity(2), csr_identity(3))


class TestIchol:
    @pytest.mark.parametrize("tau", [-1e-3, float("nan")])
    def test_bad_drop_tolerance(self, tau):
        a = sparse.csr_from_triplets(2, 2, [(0, 0, 4.0), (1, 1, 9.0)])
        with pytest.raises(ValueError, match="drop tolerance"):
            sparse.ichol(a, tau)

    def test_diagonal_matrix(self):
        a = sparse.csr_from_triplets(2, 2, [(0, 0, 4.0), (1, 1, 9.0)])
        f = sparse.ichol(a, 0.7)
        assert np.array_equal(f.lower.to_dense(), np.diag([2.0, 3.0]))
        assert f.shift == 0.0

    def test_complete_cholesky_when_tau_zero(self):
        n = 5
        d = np.diag([4.0] * n) + np.diag([-1.0] * (n - 1), 1) + np.diag(
            [-1.0] * (n - 1), -1)
        a = sparse.csr_from_triplets(
            n, n, [(i, j, d[i, j]) for i in range(n) for j in range(n) if d[i, j]])
        f = sparse.ichol(a, 0.0)
        lo = f.lower.to_dense()
        assert np.linalg.norm(lo @ lo.T - d) < 1e-12
        assert f.shift == 0.0

    def test_drop_tolerance_fill_between(self):
        a = five_point_laplacian(16)
        full = sparse.ichol(a, 0.0).lower.nnz
        dropped = sparse.ichol(a, 1e-3).lower.nnz
        tril_nnz = int((a.col_indices <= a._row_index()).sum())
        assert tril_nnz < dropped < full

    def test_nnz_monotone_in_tau(self):
        a = five_point_laplacian(12)
        sizes = [sparse.ichol(a, t).lower.nnz for t in (0.0, 1e-4, 1e-3, 1e-2)]
        assert sizes == sorted(sizes, reverse=True)

    def test_complete_reproduces_spd(self):
        rng = np.random.default_rng(13)
        m = rng.uniform(-1.0, 1.0, (12, 12))
        d = m @ m.T + 12 * np.eye(12)
        a = sparse.csr_from_triplets(
            12, 12, [(i, j, d[i, j]) for i in range(12) for j in range(12)])
        f = sparse.ichol(a, 0.0)
        lo = f.lower.to_dense()
        assert np.linalg.norm(lo @ lo.T - d) <= 1e-10 * np.linalg.norm(d)

    def test_not_symmetric_rejected(self):
        a = sparse.csr_from_triplets(2, 2, [(0, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)])
        with pytest.raises(sparse.NotSymmetricError):
            sparse.ichol(a, 0.0)

    def test_symmetric_pattern_with_asymmetric_values_rejected(self):
        a = sparse.csr_from_triplets(2, 2, [
            (0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0 + 1e-11), (1, 1, 2.0)])
        with pytest.raises(sparse.NotSymmetricError, match="asymmetry 1.000e-11"):
            sparse.ichol(a, 0.0)

    def test_tiny_asymmetry_averaged(self):
        eps = 1e-14
        a = sparse.csr_from_triplets(2, 2, [
            (0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0 + eps), (1, 1, 2.0)])
        f = sparse.ichol(a, 0.0)
        lo = f.lower.to_dense()
        sym = np.array([[2.0, 1.0 + eps / 2], [1.0 + eps / 2, 2.0]])
        assert np.abs(lo @ lo.T - sym).max() < 1e-12

    # sha256 of row_offsets, col_indices and values of L on the 6x6-grid
    # Laplacian at tau=0.05, recorded while the symmetry check summed
    # A - A^T and A + A^T by triplet assembly
    LAPLACIAN6_L = "14b88e134dddf09f4fc3e5c70032e42748ab6169a91a1dfe30de0ecfdcdbe16a"

    @staticmethod
    def csr_of(d, mask):
        """CsrMatrix storing d at every True entry of mask, zeros included."""
        r, c = np.nonzero(mask)
        ro = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=d.shape[0]))])
        return sparse.CsrMatrix(*d.shape, ro, c, d[r, c])

    def test_stored_zeros_leave_the_pattern(self):
        # stored zeros at the offsets 2..5 from the diagonal, where the
        # factor of the grid Laplacian fills in, and a pair that averages
        # to exactly zero: in the pattern of A, fill would not be dropped
        # there (211 entries instead of 96)
        base = five_point_laplacian(6)
        d = base.to_dense()
        mask = d != 0.0
        for off in (2, 3, 4, 5):
            k = np.arange(36 - off)
            mask[k, k + off] = mask[k + off, k] = True
        d[0, 7], d[7, 0] = 1e-14, -1e-14
        mask[0, 7] = mask[7, 0] = True
        a = self.csr_of(d, mask)
        assert a.nnz == base.nnz + 262
        lower = sparse.ichol(a, 0.05).lower
        assert csr_equal(lower, sparse.ichol(base, 0.05).lower)
        assert lower.nnz == 96
        assert sha256_of(lower.row_offsets, lower.col_indices,
                         lower.values) == self.LAPLACIAN6_L

    def test_symmetric_pattern_within_tolerance_averaged(self):
        d = five_point_laplacian(6).to_dense()
        d[4, 3] += 1e-14
        d[20, 14] -= 3e-15
        lower = sparse.ichol(self.csr_of(d, d != 0.0), 0.05).lower
        assert lower.nnz == 96
        assert sha256_of(lower.row_offsets, lower.col_indices, lower.values) \
            == "5312bf7276d226861271b40bb32f573ee73ea531093a24e40f13338d4cc15ec5"

    def test_symmetric_pattern_makes_no_triplet_assembly(self, monkeypatch):
        a = five_point_laplacian(6)
        want = sparse.ichol(a, 0.05).lower

        def assembly(*args):
            raise AssertionError("ichol assembled from triplets")

        monkeypatch.setattr(sparse, "csr_from_triplets", assembly)
        assert csr_equal(sparse.ichol(a, 0.05).lower, want)

    def test_asymmetric_pattern_within_tolerance_averaged(self):
        # a stored 1e-14 at (3, 20) with no mirror at (20, 3)
        base = five_point_laplacian(6)
        a = sparse.csr_from_triplets(36, 36, (np.append(base._row_index(), 3),
                                              np.append(base.col_indices, 20),
                                              np.append(base.values, 1e-14)))
        lower = sparse.ichol(a, 0.05).lower
        assert lower.nnz == 97
        assert sha256_of(lower.row_offsets, lower.col_indices, lower.values) \
            == "0a207c497231b89d78dc751aa0b33e381faf7e7384d8699aab7d79ccef8ea60d"

    def test_breakdown_shifts(self):
        # positive diagonal but indefinite: needs shift > 1 to factor
        a = sparse.csr_from_triplets(2, 2, [
            (0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)])
        f = sparse.ichol(a, 0.0)
        assert f.shift > 1.0
        lo = f.lower.to_dense()
        target = a.to_dense() + f.shift * np.eye(2)
        assert np.abs(lo @ lo.T - target).max() < 1e-12

    def test_restart_budget_exhausted(self, monkeypatch):
        # the shift would need to exceed 1e9; 20 doublings reach only 1048.6
        attempts = []
        columns = sparse._ict_columns

        def counted(*args):
            attempts.append(args[4][0])
            return columns(*args)

        monkeypatch.setattr(sparse, "_ict_columns", counted)
        a = sparse.csr_from_triplets(2, 2, [
            (0, 0, 1.0), (0, 1, 1e9), (1, 0, 1e9), (1, 1, 1.0)])
        with pytest.raises(sparse.CholeskyBreakdownError,
                           match=r"persisted at shift 1\.049e\+03"):
            sparse.ichol(a, 0.0)
        assert attempts == [1.0] + [1.0 + 1e-3 * 2.0 ** k for k in range(20)]

    # sha256 of row_offsets, col_indices and values of L, recorded before
    # _ict_columns replaced np.unique and np.isin with marker arrays
    @pytest.mark.parametrize("tau, digest", [
        (1e-3, "bfd2c9199ee98fd66a35fb03d16980f78671233a42bbd3417133e9b0f8a6d19c"),
        (1e-4, "cd80d9dc4c3b8595210ead2428332c775d395080490d1ad6e0ca327514ab5541"),
    ])
    def test_biot_displacement_factor_bitwise(self, tau, digest, biot8):
        lower = sparse.ichol(biot8.a_u, tau).lower
        h = hashlib.sha256()
        for arr in (lower.row_offsets, lower.col_indices, lower.values):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_profile_hook_gives_the_plain_factor(self, biot8):
        # ndarray.resize refuses an array that a profile hook holds a
        # reference to, unless its reference check is off
        a = biot8.a_u
        plain = {tau: sparse.ichol(a, tau).lower for tau in (0.0, 1e-3)}
        # the column store starts at 2 nnz(A) entries: it grows at tau=0 only
        assert plain[0.0].nnz > 2 * a.nnz >= plain[1e-3].nnz
        previous = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            hooked = {tau: sparse.ichol(a, tau).lower for tau in plain}
        finally:
            sys.setprofile(previous)
        for tau, lower in plain.items():
            assert csr_equal(hooked[tau], lower)

    def test_factor_arrays_hold_exactly_nnz(self):
        f = sparse.ichol(five_point_laplacian(12), 1e-2)
        for tri in (f.lower, f._upper):
            for arr in (tri.col_indices, tri.values):
                assert arr.base is None and arr.shape == (tri.nnz,)

    def test_nonpositive_diagonal_rejected(self):
        a = sparse.csr_from_triplets(2, 2, [(0, 0, -1.0), (1, 1, 1.0)])
        with pytest.raises(ValueError):
            sparse.ichol(a, 0.0)


def linked_list_lower(a, tau, shift):
    """L of IC(tau) on A + shift*diag(A) by the left-looking linked-list
    walk that sparse._ict_columns replaced, assembled from triplets.

    The oracle for the bitwise tests: every earlier column that updates
    column j is visited through a LIFO list per row, one Python turn per
    contribution.
    """
    sym = sparse.csr_scale(sparse.csr_add(a, sparse.csr_transpose(a)), 0.5)
    n, ro, ci, vv = sym.rows, sym.row_offsets, sym.col_indices, sym.values
    diag = sym.diagonal()
    shifted_diag = diag * (1.0 + shift)
    sqrt_diag = np.sqrt(diag)
    w = np.zeros(n)
    head = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    ptr = np.zeros(n, dtype=np.int64)
    col_rows = [None] * n
    col_vals = [None] * n
    diag_l = np.zeros(n)
    for j in range(n):
        s, e = ro[j], ro[j + 1]
        cj = ci[s:e]
        up = np.searchsorted(cj, j)
        rows_a = cj[up:]
        w[rows_a] = vv[s:e][up:]
        w[j] = shifted_diag[j]
        touched = [rows_a]
        k = head[j]
        while k != -1:
            knext = nxt[k]
            rk = col_rows[k]
            vk = col_vals[k]
            p = ptr[k]
            seg_r = rk[p:]
            w[seg_r] -= vk[p] * vk[p:]
            touched.append(seg_r)
            p += 1
            ptr[k] = p
            if p < rk.size:
                r = rk[p]
                nxt[k] = head[r]
                head[r] = k
            k = knext
        assert w[j] > 0.0
        ljj = math.sqrt(w[j])
        tr = np.unique(np.concatenate(touched))
        tr = tr[tr > j]
        cand = w[tr] / ljj
        keep = ((np.abs(cand) >= tau * sqrt_diag[tr] * sqrt_diag[j])
                | np.isin(tr, rows_a)) & (cand != 0.0)
        w[tr] = 0.0
        w[j] = 0.0
        rows_j = tr[keep]
        col_rows[j] = rows_j
        col_vals[j] = cand[keep]
        diag_l[j] = ljj
        if rows_j.size:
            r = rows_j[0]
            nxt[j] = head[r]
            head[r] = j
            ptr[j] = 0
    cols = np.arange(n, dtype=np.int64)
    ii = np.concatenate([cols, *col_rows])
    jj = np.concatenate([cols, np.repeat(cols, [r.size for r in col_rows])])
    vv = np.concatenate([diag_l, *col_vals])
    return sparse.csr_from_triplets(n, n, (ii, jj, vv))


def random_spd(seed, n=60, density=0.12):
    """Sparse symmetric matrix made diagonally dominant, so SPD."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, (n, n))
    d[rng.uniform(0, 1, (n, n)) > density] = 0.0
    d = np.triu(d, 1)
    d = d + d.T
    d += np.diag(np.abs(d).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    ii, jj = np.nonzero(d)
    return sparse.csr_from_triplets(n, n, (ii, jj, d[ii, jj]))


class TestIcholOracle:
    """ichol's L equals the linked-list oracle array for array, and the L^T
    it hands to IcFactor equals the transpose of that L."""

    @staticmethod
    def assert_same_as_oracle(a, tau):
        f = sparse.ichol(a, tau)
        want = linked_list_lower(a, tau, f.shift)
        assert csr_equal(f.lower, want)
        assert csr_equal(f._upper, sparse.csr_transpose(f.lower))
        return f

    @pytest.mark.parametrize("tau", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_spd(self, seed, tau):
        self.assert_same_as_oracle(random_spd(900 + seed), tau)

    def test_laplacian_with_dropped_fill(self):
        a = five_point_laplacian(12)
        f = self.assert_same_as_oracle(a, 1e-2)
        assert f.lower.nnz < sparse.ichol(a, 0.0).lower.nnz

    def test_shift_restart(self):
        a = sparse.csr_from_triplets(2, 2, [
            (0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)])
        assert self.assert_same_as_oracle(a, 0.0).shift > 1.0

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    def test_biot_pressure_blocks(self, tau, biot8):
        s_xi, s_p = biot.fourier_schur_approx(biot8, biot.BiotParameters())
        for block in (s_xi, sparse.csr_scale(s_p, -1.0)):
            self.assert_same_as_oracle(block, tau)

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    def test_biot_displacement_block(self, tau, biot8):
        # the block whose columns have the most contributors
        self.assert_same_as_oracle(biot8.a_u, tau)


class TestIcholMemory:
    # The traced peak of ichol over the bytes of the factor it returns: L,
    # L^T and the diagonal-block inverses its sweep plans hold.  On the
    # N=16 Biot displacement block at tau=1e-4 (194k entries in L) it was
    # 2.21 while the column store grew by copies and the transpose and the
    # inverses built row indices for all of L, and it is 1.08 without them
    # (9.01 MB traced over 8.33 MB held).
    def test_biot_displacement_peak(self):
        a = biot.assemble_biot(biot.build_mesh(16), biot.BiotParameters()).a_u
        tracemalloc.start()
        try:
            f = sparse.ichol(a, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(arr.nbytes for tri in (f.lower, f._upper)
                   for arr in (tri.row_offsets, tri.col_indices, tri.values))
        held += sum(step[-1].nbytes for step in f._lower_plan)
        assert peak <= 1.75 * held


def dense_substitution(lower, b):
    """(L L^T)^{-1} b by row-by-row forward and backward substitution."""
    n = lower.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (y[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x


@pytest.fixture(scope="module")
def biot8():
    return biot.assemble_biot(biot.build_mesh(8), biot.BiotParameters())


@pytest.fixture(scope="module")
def biot8_factors():
    *_, pres = next(biot.biot_rows([8], [1e-3]))
    return {"u": pres.factor_u, "xi": pres.factor_xi, "p": pres.factor_p}


def assert_matches_dense_substitution(f):
    b = np.random.default_rng(18).uniform(-1.0, 1.0, f.n)
    want = dense_substitution(f.lower.to_dense(), b)
    got = sparse.ic_solve(f, b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestIcSolve:
    # grids of width 8 with fewer rows than, a multiple of, and more rows
    # (with a remainder) than the block size of the triangular solves
    @pytest.mark.parametrize("rows, tau", [
        (sparse._BLOCK // 16, 0.0),
        (sparse._BLOCK // 4, 0.0),
        (sparse._BLOCK // 4 + 3, 0.0),
        (sparse._BLOCK // 4 + 3, 1e-2),
    ], ids=["below_k", "multiple_of_k", "remainder", "dropped_fill"])
    def test_matches_dense_substitution(self, rows, tau):
        a = five_point_laplacian(rows, 8)
        f = sparse.ichol(a, tau)
        if tau:
            assert f.lower.nnz < sparse.ichol(a, 0.0).lower.nnz
        assert_matches_dense_substitution(f)

    @pytest.mark.parametrize("block", ["u", "xi", "p"])
    def test_biot_factors_match_dense_substitution(self, block, biot8_factors):
        assert_matches_dense_substitution(biot8_factors[block])

    def test_identity_factor(self):
        f = sparse.ichol(csr_identity(6), 0.0)
        b = np.arange(6.0)
        assert np.abs(sparse.ic_solve(f, b) - b).max() == 0.0

    def test_complete_factor_solves(self):
        a = five_point_laplacian(8)
        f = sparse.ichol(a, 0.0)
        rng = np.random.default_rng(14)
        b = rng.uniform(-1.0, 1.0, a.rows)
        x = sparse.ic_solve(f, b)
        rel = np.linalg.norm(sparse.spmv(a, x) - b) / np.linalg.norm(b)
        assert rel < 1e-10

    def test_dropped_factor_still_useful(self):
        a = five_point_laplacian(16)
        f = sparse.ichol(a, 1e-3)
        b = np.ones(a.rows)
        x = sparse.ic_solve(f, b)
        res_prec = np.linalg.norm(sparse.spmv(a, x) - b)
        res_scaled = np.linalg.norm(sparse.spmv(a, b / 4.0) - b)
        assert res_prec < res_scaled

    # sha256 of the solve, recorded before the sweeps ran a precomputed plan
    @pytest.mark.parametrize("block, digest", [
        ("u", "3570883ff95cd207a7914f2381593eda5743cac146e6d71e8e22c09a90bdd777"),
        ("xi", "44cea4647dbe830f73e9ac4f4f99931def8688b3235a8e846c7a78a41b49cf98"),
        ("p", "9ce8ed93c8986b1752074661a9d8c263df5a31dd4545bb7fa505bea102b0327c"),
    ])
    def test_biot_solves_bitwise(self, block, digest, biot8_factors):
        f = biot8_factors[block]
        b = np.random.default_rng(19).uniform(-1.0, 1.0, f.n)
        assert sha256_of(sparse.ic_solve(f, b)) == digest

    def test_remainder_solve_bitwise(self):
        f = sparse.ichol(five_point_laplacian(sparse._BLOCK // 4 + 3, 8), 0.0)
        assert f.n % sparse._BLOCK
        b = np.random.default_rng(19).uniform(-1.0, 1.0, f.n)
        assert (sha256_of(sparse.ic_solve(f, b))
                == "93b3f7ee380d01b6de41d3dba56fa484282b44818328678347f54b32053d202e")

    # perfbench's factor_stats and the shift test of test_biot build the
    # factor from L alone, so IcFactor transposes L itself
    @pytest.mark.parametrize("block", ["remainder", "u", "xi", "p"])
    def test_factor_from_lower_alone(self, block, biot8_factors):
        f = (sparse.ichol(five_point_laplacian(sparse._BLOCK // 4 + 3, 8), 0.0)
             if block == "remainder" else biot8_factors[block])
        g = sparse.IcFactor(f.lower, f.shift, f.tau)
        b = np.random.default_rng(19).uniform(-1.0, 1.0, f.n)
        assert sparse.ic_solve(g, b).tobytes() == sparse.ic_solve(f, b).tobytes()
        starts = [i * sparse._BLOCK for i in range(math.ceil(f.n / sparse._BLOCK))]
        for h in (f, g):
            assert [step[0] for step in h._lower_plan] == starts
            assert [step[0] for step in h._upper_plan] == starts[::-1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_row(self, n):
        a = sparse.CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.full(n, 4.0))
        f = sparse.ichol(a, 0.0)
        assert np.array_equal(f.lower.to_dense(), np.full((n, n), 2.0))
        assert np.array_equal(sparse.ic_solve(f, np.full(n, 2.0)), np.full(n, 0.5))

    def test_length_mismatch(self):
        f = sparse.ichol(csr_identity(3), 0.0)
        with pytest.raises(ValueError):
            sparse.ic_solve(f, np.ones(4))


class TestMatrixMarket:
    def test_csr_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        a, _ = random_csr(rng, 10, 7)
        p = tmp_path / "a.mtx"
        sparse.write_matrix_market(p, a)
        b = sparse.read_matrix_market(p)
        assert csr_equal(a, b)

    def test_dense_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        d = rng.uniform(-1.0, 1.0, (4, 6))
        p = tmp_path / "d.mtx"
        sparse.write_matrix_market(p, d)
        e = sparse.read_matrix_market(p)
        assert np.array_equal(d, e)

    def test_bad_header(self, tmp_path):
        # a symmetric file stores one triangle; a pattern file has no values
        for k, text in enumerate((
                "not a matrix market file\n",
                "%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n1 1 1\n2 1 5\n",
                "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")):
            p = tmp_path / f"bad{k}.mtx"
            p.write_text(text)
            with pytest.raises(sparse.MatrixMarketError) as exc:
                sparse.read_matrix_market(p)
            assert exc.value.line == 1

    def test_negative_size_counts(self, tmp_path):
        for k, text in enumerate((
                "%%MatrixMarket matrix array real general\n-1 2\n",
                "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
                "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1.0\n")):
            p = tmp_path / f"neg{k}.mtx"
            p.write_text(text)
            with pytest.raises(sparse.MatrixMarketError, match="negative") as exc:
                sparse.read_matrix_market(p)
            assert exc.value.line == 2

    @pytest.mark.parametrize("entry", ["3 1 5.0", "1 0 5.0"])
    def test_entry_index_out_of_range_names_its_line(self, tmp_path, entry):
        p = tmp_path / "range.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     f"% a comment\n2 2 3\n1 1 1.0\n{entry}\n2 2 1.0\n")
        with pytest.raises(sparse.MatrixMarketError,
                           match=r"range\.mtx:5: entry index out of range") as exc:
            sparse.read_matrix_market(p)
        assert exc.value.line == 5

    @pytest.mark.parametrize("text,line", [
        ("%%MatrixMarket matrix coordinate real general\n"
         "2 2 1\n1 1 1.0\n2 2 5.0\n", 4),
        ("%%MatrixMarket matrix array real general\n"
         "1 2\n1.0\n2.0\n\n3.0\n", 6)], ids=["coordinate", "array"])
    def test_entries_past_the_count(self, tmp_path, text, line):
        p = tmp_path / "extra.mtx"
        p.write_text(text)
        with pytest.raises(sparse.MatrixMarketError,
                           match="entry past the declared count") as exc:
            sparse.read_matrix_market(p)
        assert exc.value.line == line

    def test_trailing_blank_lines(self, tmp_path):
        p = tmp_path / "blank.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "2 1\n1.0\n2.0\n\n  \n")
        assert np.array_equal(sparse.read_matrix_market(p), [[1.0], [2.0]])

    def test_truncated_entries(self, tmp_path):
        p = tmp_path / "short.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 1.0\n")
        with pytest.raises(sparse.MatrixMarketError):
            sparse.read_matrix_market(p)
