"""Compressed sparse row matrices and the kernels the benchmark needs.

CSR construction from triplets (FEM assembly semantics: duplicates summed,
zeros dropped), matvec, drop-tolerance incomplete Cholesky with a diagonal
shift safety net, triangular solves by block substitution over inverted
diagonal blocks, and Matrix Market IO.
All kernels are sequential / deterministic.
An IcFactor holds L, L^T and a plan per sweep: its blocks in the order the
solve runs them, each with views of its rows and its diagonal inverse.

The incomplete Cholesky builds one column of L per step.  An earlier
column waits in the list of the row of its next unapplied entry; column j
takes row j's list, latest first, which is the order the linked list of a
classic left-looking kernel visits it, and applies all its updates to the
work vector through one np.subtract.at, which applies repeated indices in
order.  Each entry of the work vector therefore sees the same
floating-point subtractions in the same order, and L is bitwise the same
as with the linked-list walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# asymmetry rejected above this (relative to max |entry|)
SYMMETRY_RTOL = 1e-12


class NotSymmetricError(ValueError):
    """Incomplete Cholesky was handed a matrix that is not symmetric."""


class CholeskyBreakdownError(RuntimeError):
    """Pivot stayed nonpositive after exhausting the diagonal-shift restarts."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market content; carries the offending line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class CsrMatrix:
    """Compressed sparse row matrix with float64 values.

    Invariants enforced on construction: row_offsets has length rows+1 and
    is monotone, column indices are strictly increasing within each row,
    and all values are finite.
    """

    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values")

    def __init__(self, rows, cols, row_offsets, col_indices, values):
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(col_indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        ro = self.row_offsets
        if ro.shape != (self.rows + 1,):
            raise ValueError("row_offsets must have length rows+1")
        if ro[0] != 0 or (np.diff(ro) < 0).any():
            raise ValueError("row_offsets must be monotone starting at 0")
        nnz = int(ro[-1])
        if self.col_indices.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("col_indices/values length must equal nnz")
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.cols:
                raise ValueError("column index out of range")
            if not np.isfinite(self.values).all():
                raise ValueError("values must be finite")
            ci = self.col_indices
            starts = np.zeros(nnz, dtype=bool)
            starts[ro[:-1][ro[:-1] < nnz]] = True
            # compared as booleans, 1 byte per entry: an int64 np.diff here
            # would be the largest transient of transposing a factor
            if ((ci[1:] <= ci[:-1]) & ~starts[1:]).any():
                raise ValueError("column indices must be strictly increasing per row")

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _row_index(self):
        """Row of each stored entry; built on each call, for set-up code."""
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.row_offsets))

    def to_dense(self):
        d = np.zeros((self.rows, self.cols))
        d[self._row_index(), self.col_indices] = self.values
        return d

    def diagonal(self):
        d = np.zeros(min(self.rows, self.cols))
        on_diag = self.col_indices == self._row_index()
        d[self.col_indices[on_diag]] = self.values[on_diag]
        return d


def csr_from_triplets(rows, cols, triplets):
    """Assemble a CsrMatrix from (i, j, value) triples, or from the columns
    (rows, cols, values) passed as a tuple of three numpy arrays.

    Duplicate (i, j) entries are summed; entries that sum to exactly zero
    are dropped.  Raises ValueError for indices that are not whole numbers
    and IndexError for out-of-range ones.
    """
    rows = int(rows)
    cols = int(cols)
    if (isinstance(triplets, tuple) and len(triplets) == 3
            and all(isinstance(c, np.ndarray) for c in triplets)):
        ii, jj, vv = triplets
    else:
        t = list(triplets)
        arr = np.asarray(t, dtype=float) if t else np.empty((0, 3))
        ii, jj, vv = arr[:, 0], arr[:, 1], arr[:, 2]
    ii, jj = np.asarray(ii), np.asarray(jj)
    # float indices (a list of triples comes in as floats) must be whole
    if any(x.dtype.kind == "f" and not np.array_equal(x, np.floor(x)) for x in (ii, jj)):
        raise ValueError("triplet indices must be whole numbers")
    ii, jj = ii.astype(np.int64, copy=False), jj.astype(np.int64, copy=False)
    vv = np.asarray(vv, dtype=float)
    if ii.size and (ii.min() < 0 or ii.max() >= rows or jj.min() < 0 or jj.max() >= cols):
        raise IndexError("triplet index out of range")
    if ii.size:
        order = np.lexsort((jj, ii))
        ii, jj, vv = ii[order], jj[order], vv[order]
        key_change = np.empty(ii.size, dtype=bool)
        key_change[0] = True
        key_change[1:] = (ii[1:] != ii[:-1]) | (jj[1:] != jj[:-1])
        group = np.cumsum(key_change) - 1
        summed = np.bincount(group, weights=vv)
        ii = ii[key_change]
        jj = jj[key_change]
        vv = summed
        keep = vv != 0.0
        ii, jj, vv = ii[keep], jj[keep], vv[keep]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(ii, minlength=rows))))
    return CsrMatrix(rows, cols, offsets, jj, vv)


def spmv(a, x):
    """y = A x for CSR A, each row summed by np.add.reduceat (deterministic).

    Only non-empty rows are reduced: for an empty segment reduceat returns
    the next row's first product, not 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (a.cols,):
        raise ValueError(f"vector length {x.shape} does not match cols={a.cols}")
    y = np.zeros(a.rows)
    nonempty = np.diff(a.row_offsets) > 0
    prod = x.take(a.col_indices)
    np.multiply(a.values, prod, out=prod)
    y[nonempty] = np.add.reduceat(prod, a.row_offsets[:-1][nonempty])
    return y


def csr_transpose(a):
    """A^T.  The entries are stored row by row, so a stable sort by column
    keeps the rows of each column ascending."""
    order = np.argsort(a.col_indices, kind="stable")
    offsets = np.zeros(a.cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.col_indices, minlength=a.cols), out=offsets[1:])
    return CsrMatrix(a.cols, a.rows, offsets, a._row_index()[order], a.values[order])


def csr_scale(a, s):
    return CsrMatrix(a.rows, a.cols, a.row_offsets.copy(), a.col_indices.copy(),
                     a.values * float(s))


def csr_add(a, b):
    """A + B with the semantics of triplet assembly: an entry that sums to
    exactly zero leaves the pattern.  On a shared pattern the values are
    added entry by entry; otherwise both go through csr_from_triplets."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if (np.array_equal(a.row_offsets, b.row_offsets)
            and np.array_equal(a.col_indices, b.col_indices)):
        total = a.values + b.values
        nz = total != 0.0
        kept = np.concatenate([[0], np.cumsum(nz)])
        return CsrMatrix(a.rows, a.cols, kept[a.row_offsets], a.col_indices[nz],
                         total[nz])
    ii = np.concatenate([a._row_index(), b._row_index()])
    jj = np.concatenate([a.col_indices, b.col_indices])
    vv = np.concatenate([a.values, b.values])
    return csr_from_triplets(a.rows, a.cols, (ii, jj, vv))


# ---------------------------------------------------------------------------
# incomplete Cholesky


class _PivotBreakdown(Exception):
    pass


def _ict_columns(n, ro, ci, vv, shifted_diag, tau, sqrt_diag):
    """Left-looking column IC(tau).  Returns L^T as a CsrMatrix.

    Column j of L is accumulated in a dense work vector from the upper
    triangle of A and the updates of the earlier columns k with
    l_jk != 0.  A fill value l_ij is kept only when
    |l_ij| >= tau*sqrt(a_ii*a_jj).  The columns go into one flat store,
    diagonal first, so the store is L^T in CSR.

    Column k waits in the list of row r, the row of its next unapplied
    entry (ptr[k] is that entry's place in the store).  Column j takes its
    own row's list and applies it latest first, the order in which the
    classic kernel walks its linked list of contributors (a LIFO per row;
    tests/test_sparse.py keeps that walk as the oracle), by one
    np.subtract.at; every w[r] then sees the same sequence of
    subtractions, and L stays bitwise the same.  Each contributor then
    moves on to the list of its next row, in that order, and j joins the
    list of its first row below the diagonal.  Only rows still ahead hold
    a list.

    w is zero outside the rows column j touches, and a touched row whose
    value ends exactly zero is dropped anyway, so the candidate rows are
    the nonzeros of w below the diagonal, up to the last row that A or an
    update reaches.
    """
    w = np.zeros(n)
    # in_a[r] is set while r is in the pattern of A's column j
    in_a = np.zeros(n, dtype=bool)
    ptr = np.zeros(n, dtype=np.int64)
    waiting = {}
    # first entry of each row of A on or right of the diagonal
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(ro))
    upper = ro[:-1] + np.bincount(row_of[ci < row_of], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    cap = max(2 * int(ro[-1]), n + 1)
    rows_l = np.empty(cap, dtype=np.int64)
    vals_l = np.empty(cap)
    for j in range(n):
        a0, a1 = upper[j], ro[j + 1]
        rows_a = ci[a0:a1]
        w[rows_a] = vv[a0:a1]
        w[j] = shifted_diag[j]
        ks = np.array(waiting.pop(j, ())[::-1], dtype=np.int64)
        pos = ptr[ks]
        ends = offsets[ks + 1]
        cnt = ends - pos
        idx = np.repeat(pos - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        seg_r = rows_l[idx]
        np.subtract.at(w, seg_r, np.repeat(vals_l[pos], cnt) * vals_l[idx])
        piv = w[j]
        if not piv > 0.0:
            raise _PivotBreakdown
        ljj = math.sqrt(piv)
        hi = max(rows_a[-1], rows_l[ends - 1].max(initial=j)) + 1
        tr = np.flatnonzero(w[j + 1:hi] != 0.0) + (j + 1)
        cand = w[tr] / ljj
        # only fill (entries outside the pattern of A) is subject to dropping
        in_a[rows_a] = True
        keep = ((np.abs(cand) >= tau * sqrt_diag[tr] * sqrt_diag[j]) | in_a[tr]) \
            & (cand != 0.0)
        in_a[rows_a] = False
        w[tr] = 0.0
        w[j] = 0.0
        rows_j = tr[keep]
        s = offsets[j]
        e = s + 1 + rows_j.size
        if e > cap:
            cap = 2 * e
            # no view of either store exists; refcheck fails under a profile hook
            rows_l.resize(cap, refcheck=False)
            vals_l.resize(cap, refcheck=False)
        rows_l[s] = j
        vals_l[s] = ljj
        rows_l[s + 1:e] = rows_j
        vals_l[s + 1:e] = cand[keep]
        offsets[j + 1] = e
        pos += 1
        ptr[ks] = pos
        more = pos < ends
        for k, r in zip(ks[more].tolist(), rows_l[pos[more]].tolist()):
            waiting.setdefault(r, []).append(k)
        ptr[j] = s + 1
        if rows_j.size:
            waiting.setdefault(int(rows_j[0]), []).append(j)
    rows_l.resize(offsets[n], refcheck=False)
    vals_l.resize(offsets[n], refcheck=False)
    return CsrMatrix(n, n, offsets, rows_l, vals_l)


# Rows per diagonal block of the triangular solves.  A sweep makes a few
# numpy calls per block and k multiply-adds per row in the block GEMV, so
# small k pays in calls and large k in dense work.  Minimum of 20 solves
# on the Biot displacement factor, 2-core machine, k = 32/64/128/256:
# N=40 tau=1e-3 9.0/6.6/5.8/9.1 ms, N=64 tau=1e-3 34/20/18/23 ms,
# N=64 tau=1e-4 44/38/40/40 ms.  128 is fastest or within 5% of it.
_BLOCK = 128


def _block_inverse(lower, r0, r1):
    """Explicit inverse of the diagonal block r0:r1 of L.

    The inverse of a lower triangular block is lower triangular; np.tril
    drops the rounding that pivoting leaves above the diagonal.
    """
    ro, ci, vv = lower.row_offsets, lower.col_indices, lower.values
    s, e = ro[r0], ro[r1]
    r = np.repeat(np.arange(r1 - r0), np.diff(ro[r0:r1 + 1]))
    c = ci[s:e] - r0
    inside = c >= 0
    dense = np.zeros((r1 - r0, r1 - r0))
    dense[r[inside], c[inside]] = vv[s:e][inside]
    return np.tril(np.linalg.inv(dense))


def _block_step(tri, r0, r1, inv):
    """Rows r0:r1 of a sweep over tri: (r0, r1, views of their values and
    columns, their offsets within those entries, the diagonal inverse)."""
    ro = tri.row_offsets
    s, e = ro[r0], ro[r1]
    return (r0, r1, tri.values[s:e], tri.col_indices[s:e], ro[r0:r1] - s, inv)


def _block_solve(plan, b):
    """Solve with a triangular factor, one block of k rows at a time.

    x starts at zero, so the entries of a block's own columns, its
    diagonal included, add nothing to the row sums of its slice; every
    row holds its diagonal, so no reduceat segment is empty.
    """
    x = np.zeros(b.size)
    for r0, r1, vals, cols, starts, inv in plan:
        prod = x.take(cols)
        np.multiply(vals, prod, out=prod)
        sums = np.add.reduceat(prod, starts)
        np.subtract(b[r0:r1], sums, out=sums)
        np.matmul(inv, sums, out=x[r0:r1])
    return x


@dataclass
class IcFactor:
    """Incomplete Cholesky factor: A + shift*diag(A) ~ L L^T (pattern-limited)."""

    lower: CsrMatrix
    shift: float
    tau: float
    _upper: CsrMatrix = field(default=None, repr=False)   # L^T; built if not given
    # the steps of the forward (L) and backward (L^T) sweeps, see _block_step
    _lower_plan: list = field(init=False, repr=False)
    _upper_plan: list = field(init=False, repr=False)

    def __post_init__(self):
        if self._upper is None:
            self._upper = csr_transpose(self.lower)
        n = self.n
        self._lower_plan, self._upper_plan = [], []
        for r0 in range(0, n, _BLOCK):
            r1 = min(r0 + _BLOCK, n)
            inv = _block_inverse(self.lower, r0, r1)
            self._lower_plan.append(_block_step(self.lower, r0, r1, inv))
            self._upper_plan.append(_block_step(self._upper, r0, r1, inv.T))
        self._upper_plan.reverse()

    @property
    def n(self):
        return self.lower.rows


def ichol(a, tau):
    """IC(tau) factorization of a symmetric positive definite CSR matrix.

    Symmetry is checked to SYMMETRY_RTOL (relative, max norm) against one
    transpose and enforced by averaging with it.  Both work on halves of
    the entries, which is exact and cannot overflow.  On a nonpositive pivot
    the whole factorization restarts with the diagonal shift doubled
    (floor 1e-3, relative to the diagonal), at most 20 restarts.
    """
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    if not tau >= 0:
        raise ValueError(f"drop tolerance must be >= 0, got {tau}")
    half = csr_scale(a, 0.5)
    half_t = csr_transpose(half)
    amax = float(np.abs(a.values).max(initial=0.0))
    dmax = 2.0 * float(np.abs(csr_add(half, csr_scale(half_t, -1.0)).values)
                       .max(initial=0.0))
    sym = csr_add(half, half_t)
    del half, half_t
    if dmax > SYMMETRY_RTOL * amax:
        raise NotSymmetricError(
            f"asymmetry {dmax:.3e} exceeds {SYMMETRY_RTOL:.0e} * max|A| = "
            f"{SYMMETRY_RTOL * amax:.3e}"
        )
    diag = sym.diagonal()
    if (diag <= 0).any():
        raise ValueError("diagonal must be strictly positive")
    sqrt_diag = np.sqrt(diag)
    shift = 0.0
    for _ in range(21):
        shifted = diag * (1.0 + shift)
        try:
            upper = _ict_columns(
                sym.rows, sym.row_offsets, sym.col_indices, sym.values,
                shifted, float(tau), sqrt_diag,
            )
        except _PivotBreakdown:
            shift = max(2.0 * shift, 1e-3)
            continue
        del sym   # freed before L is built from L^T, the peak of the set-up
        return IcFactor(csr_transpose(upper), shift, float(tau), _upper=upper)
    raise CholeskyBreakdownError(f"pivot breakdown persisted at shift {shift:.3e}")


def ic_solve(f, b):
    """Apply (L L^T)^{-1}: forward then backward triangular substitution."""
    b = np.asarray(b, dtype=float)
    if b.shape != (f.n,):
        raise ValueError(f"vector length {b.shape} does not match n={f.n}")
    return _block_solve(f._upper_plan, _block_solve(f._lower_plan, b))


# ---------------------------------------------------------------------------
# Matrix Market IO


def write_matrix_market(path, mat):
    """Write a CsrMatrix (coordinate format) or dense array (array format).

    Values are printed with 17 significant digits so that reading the file
    back reproduces the stored float64 values exactly.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if isinstance(mat, CsrMatrix):
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{mat.rows} {mat.cols} {mat.nnz}\n")
            ridx = mat._row_index()
            for i, j, v in zip(ridx, mat.col_indices, mat.values):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            m = np.asarray(mat, dtype=float)
            if m.ndim != 2:
                raise ValueError("expected a 2-D array")
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{m.shape[0]} {m.shape[1]}\n")
            for j in range(m.shape[1]):
                for i in range(m.shape[0]):
                    fh.write(f"{m[i, j]:.17g}\n")


def read_matrix_market(path):
    """Read a real or integer general Matrix Market file: CsrMatrix or ndarray."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    header = lines[0].split()
    # the reference reader (NIST mmio.c) compares the qualifiers lower-cased
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixMarketError(path, 1, "bad header")
    fmt, fld, sym = (q.lower() for q in header[2:])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(path, 1, f"unsupported format {fmt!r}")
    # a symmetric file stores one triangle; read as general it loses the other
    if fld not in ("real", "integer") or sym != "general":
        raise MatrixMarketError(path, 1, f"unsupported field/symmetry {fld} {sym}")
    ln = 1
    while ln < len(lines) and lines[ln].startswith("%"):
        ln += 1
    if ln >= len(lines):
        raise MatrixMarketError(path, ln + 1, "missing size line")
    size = lines[ln].split()
    want = "rows cols nnz" if fmt == "coordinate" else "rows cols"
    if len(size) != len(want.split()):
        raise MatrixMarketError(path, ln + 1, f"size line needs {want}")
    try:
        counts = [int(s) for s in size]
    except ValueError:
        raise MatrixMarketError(path, ln + 1, "bad size line") from None
    if min(counts) < 0:
        raise MatrixMarketError(path, ln + 1, "negative count in size line")
    if fmt == "coordinate":
        rows, cols, nnz = counts
        entries = lines[ln + 1:]
        if len(entries) < nnz:
            raise MatrixMarketError(path, len(lines) + 1,
                                    f"expected {nnz} entries, found {len(entries)}")
        ii = np.empty(nnz, dtype=np.int64)
        jj = np.empty(nnz, dtype=np.int64)
        vv = np.empty(nnz)
        for k in range(nnz):
            parts = entries[k].split()
            if len(parts) != 3:
                raise MatrixMarketError(path, ln + 2 + k, "entry needs i j value")
            try:
                ii[k] = int(parts[0]) - 1
                jj[k] = int(parts[1]) - 1
                vv[k] = float(parts[2])
            except ValueError:
                raise MatrixMarketError(path, ln + 2 + k, "bad entry") from None
            if not (0 <= ii[k] < rows and 0 <= jj[k] < cols):
                raise MatrixMarketError(path, ln + 2 + k, "entry index out of range")
        _check_no_extra(path, lines, ln + 1 + nnz)
        return csr_from_triplets(rows, cols, (ii, jj, vv))
    rows, cols = counts
    vals = lines[ln + 1:]
    if len(vals) < rows * cols:
        raise MatrixMarketError(path, len(lines) + 1,
                                f"expected {rows * cols} values, found {len(vals)}")
    m = np.empty((rows, cols))
    k = 0
    for j in range(cols):
        for i in range(rows):
            try:
                m[i, j] = float(vals[k])
            except ValueError:
                raise MatrixMarketError(path, ln + 2 + k, "bad value") from None
            k += 1
    _check_no_extra(path, lines, ln + 1 + rows * cols)
    return m


def _check_no_extra(path, lines, start):
    """Reject a non-blank line past the declared entries (0-based ``start``)."""
    for k in range(start, len(lines)):
        if lines[k].strip():
            raise MatrixMarketError(path, k + 1, "entry past the declared count")
