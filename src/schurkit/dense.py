"""Dense real linear algebra kernels.

Exact block solves through one LAPACK inverse (``getrf``/``getri``
through numpy) with a 1-norm condition check, eigenvalues (LAPACK
``geev`` through numpy) and matrix polynomial evaluation.  Everything
operates on plain float64 numpy arrays and is deterministic for fixed
inputs (fixed accumulation order, no randomness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singularity threshold: a matrix whose 1-norm condition number is not
# below 1/PIVOT_RTOL counts as singular.
PIVOT_RTOL = 1e-14
# Desk scale: the most unknowns a dense eigensolve, a dense P^{-1} A or a
# `schurkit spectrum` run takes.
DESK_SIZE_LIMIT = 2000


class SingularMatrixError(ValueError):
    """LAPACK found a zero pivot, or the 1-norm condition number is not
    below 1/PIVOT_RTOL."""


class EigenConvergenceError(RuntimeError):
    """LAPACK's QR iteration failed to converge on every eigenvalue."""


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


@dataclass(frozen=True)
class LUFactors:
    """LAPACK inverse (getrf/getri) of a square matrix and its 1-norm
    condition number ``cond = ||A||_1 ||A^{-1}||_1``."""

    inv: np.ndarray
    cond: float

    @property
    def n(self):
        return self.inv.shape[0]


def lu_factor(a):
    """Invert a square matrix through LAPACK's pivoted LU.

    Raises SingularMatrixError when LAPACK finds an exactly zero pivot or
    the 1-norm condition number is not below 1/PIVOT_RTOL.
    """
    m = as_square(a)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    # the 1-norms by numpy's own ord=1 formula (largest column sum of |x|),
    # bitwise equal to np.linalg.norm(x, 1) without its dispatch
    cond = float(np.abs(m).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not cond < 1.0 / PIVOT_RTOL:
        raise SingularMatrixError(
            f"1-norm condition number {cond:.3e} is not below {1.0 / PIVOT_RTOL:.3e}"
        )
    return LUFactors(inv=inv, cond=cond)


def lu_solve(f, b):
    """Solve A x = b given LUFactors of A.  ``b`` may be a vector or matrix."""
    x = np.asarray(b, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != f.n:
        raise ValueError(f"right-hand side shape {np.shape(b)} does not match n={f.n}")
    return f.inv @ x


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
    """All eigenvalues of a real square matrix, as a list of complex sorted
    by real part, then imaginary part (ties keep LAPACK's order).

    LAPACK ``geev`` through ``np.linalg.eigvals``; complex pairs come out
    exactly conjugate.  Raises EigenConvergenceError when the QR
    iteration does not converge.
    """
    m = as_square(a)
    n = m.shape[0]
    if n > DESK_SIZE_LIMIT:
        raise ValueError(f"matrix size {n} exceeds desk-scale limit {DESK_SIZE_LIMIT}")
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return np.sort(w.astype(complex), kind="stable").tolist()
