"""Dense real linear algebra kernels.

Pivoted LU factorization, eigenvalues (LAPACK ``geev`` through numpy),
matrix polynomial evaluation, and companion-matrix root finding.
Everything operates on plain float64 numpy arrays and is deterministic
for fixed inputs (fixed pivoting rule, fixed accumulation order, no
randomness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pivot singularity threshold, relative to the infinity norm of the input.
PIVOT_RTOL = 1e-14
# Hard cap on the eigensolver input size (desk scale).
EIGEN_SIZE_LIMIT = 2000


class SingularMatrixError(ValueError):
    """A pivot fell below PIVOT_RTOL times the matrix infinity norm."""


class EigenConvergenceError(RuntimeError):
    """LAPACK's QR iteration failed to converge on every eigenvalue."""


class ZeroLeadingCoefficientError(ValueError):
    """Root finding was asked for a polynomial with zero leading coefficient."""


class ZeroEigenvalueError(ValueError):
    """A spectral condition number was requested for a spectrum containing 0."""


def as_matrix(a):
    """Validate ``a`` as a 2-D real matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square(a):
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    return m


def frobenius(a):
    a = np.asarray(a, dtype=float)
    return math.sqrt(float((a * a).sum()))


@dataclass(frozen=True)
class LUFactors:
    """Combined LU storage with partial-pivot row swaps.

    ``lu`` holds L strictly below the diagonal (unit diagonal implied) and
    U on and above it.  ``piv[k]`` is the row swapped into position k at
    step k.
    """

    lu: np.ndarray
    piv: np.ndarray

    @property
    def n(self):
        return self.lu.shape[0]


def lu_factor(a):
    """Factor a square matrix as P A = L U with partial pivoting.

    Raises SingularMatrixError when the pivot column maximum falls at or
    below PIVOT_RTOL times the infinity norm of the input.
    """
    m = as_square(a)
    n = m.shape[0]
    norm = float(np.abs(m).sum(axis=1).max())
    lu = m.copy()
    piv = np.empty(n, dtype=np.int64)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= PIVOT_RTOL * norm:
            raise SingularMatrixError(
                f"pivot {k} is {abs(lu[p, k]):.3e}, below threshold "
                f"{PIVOT_RTOL * norm:.3e}"
            )
        piv[k] = p
        if p != k:
            lu[[k, p]] = lu[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        if k + 1 < n:
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return LUFactors(lu=lu, piv=piv)


def lu_solve(f, b):
    """Solve A x = b given LUFactors of A.  ``b`` may be a vector or matrix."""
    x = np.asarray(b, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != f.n:
        raise ValueError(f"right-hand side shape {np.shape(b)} does not match n={f.n}")
    x = x.copy()
    lu = f.lu
    n = f.n
    for k in range(n):
        p = f.piv[k]
        if p != k:
            x[[k, p]] = x[[p, k]]
    for k in range(n - 1):
        x[k + 1:] -= np.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        if k:
            x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if vec else x


def mat_poly_eval(coeffs, t):
    """Horner evaluation of c0*I + c1*T + ... + cd*T^d."""
    t = as_square(t)
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("coefficient list must be nonempty")
    n = t.shape[0]
    eye = np.eye(n)
    r = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        r = r @ t + c * eye
    return r


def eigenvalues(a):
    """All eigenvalues of a real square matrix, as a sorted list of complex.

    LAPACK ``geev`` through ``np.linalg.eigvals``; complex pairs come out
    exactly conjugate.  Raises EigenConvergenceError when the QR
    iteration does not converge.
    """
    m = as_square(a)
    n = m.shape[0]
    if n > EIGEN_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds desk-scale limit {EIGEN_SIZE_LIMIT}")
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return sorted((complex(z) for z in w), key=lambda z: (z.real, z.imag))


def poly_roots(coeffs):
    """Roots of a real polynomial given ascending coefficients.

    Computed as the eigenvalues of the monic companion matrix.
    """
    c = [float(v) for v in coeffs]
    if len(c) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0.0:
        raise ZeroLeadingCoefficientError("leading coefficient is zero")
    d = len(c) - 1
    monic = np.array(c[:-1]) / c[-1]
    comp = np.zeros((d, d))
    for i in range(d - 1):
        comp[i + 1, i] = 1.0
    comp[:, d - 1] = -monic
    return eigenvalues(comp)


def spectral_condition(eigs):
    """max |lambda| / min |lambda| over a nonzero spectrum."""
    mags = [abs(complex(z)) for z in eigs]
    if not mags:
        raise ValueError("empty eigenvalue list")
    if min(mags) == 0.0:
        raise ZeroEigenvalueError("spectrum contains a zero eigenvalue")
    return max(mags) / min(mags)
