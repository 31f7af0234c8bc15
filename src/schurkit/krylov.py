"""Full GMRES with left preconditioning over an abstract operator.

``arnoldi`` yields the steps of non-restarted Arnoldi with modified
Gram-Schmidt and Givens rotations, each with the rotation-updated
residual norm as its estimate, so the history is monotone without extra
matvecs; ``gmres`` is a stopping rule over those steps.  Iteration tables
(systems by preconditioners) can be emitted as CSV or aligned Markdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np


class GmresBreakdownError(RuntimeError):
    """Arnoldi produced a zero vector with the residual still above tol."""


class LinearOperator:
    """Matrix-free square operator: a dimension plus a matvec callable."""

    def __init__(self, dim, matvec):
        self.dim = int(dim)
        self._matvec = matvec

    def matvec(self, v):
        return self._matvec(v)


@dataclass
class SolveStats:
    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = False


def arnoldi(op, precond, b, maxit):
    """Yield the steps of left-preconditioned GMRES from a zero initial guess.

    ``precond`` is a ``precond.Preconditioner`` or None.  Step k <= maxit
    is (k, estimate, breakdown, solution): the Givens estimate of
    ||M^{-1}(b - A x_k)|| / ||M^{-1} b||, whether the Arnoldi vector
    vanished (no step follows), and a callable forming x_k that stays
    valid after later steps.  Step 0 has estimate 1.0, or 0.0 with
    breakdown when M^{-1} b = 0.  Arguments are checked at the first step.

    After k steps the workspace is the k+1 basis vectors plus, per step,
    one Givens-rotated column of R, one rotation and one entry of the
    rotated right-hand side, whatever ``maxit`` is.  A later step changes
    only the last right-hand-side entry, which an earlier ``solution``
    does not read, so ``solution`` reads the lists as they grow.
    """
    if maxit < 0:
        raise ValueError(f"maxit must be nonnegative, got {maxit}")
    b = np.asarray(b, dtype=float)
    if b.shape != (op.dim,):
        raise ValueError(f"rhs length {b.shape} does not match operator dim {op.dim}")
    if precond is None:   # a copy: the Arnoldi step orthogonalizes w in place
        apply = lambda v: np.array(v, dtype=float)
    elif precond.dim != op.dim:
        raise ValueError("preconditioner dimension mismatch")
    else:
        apply = precond.apply
    maxit = min(int(maxit), op.dim)

    def solution(k):
        # the upper triangle R_k, one stored column per step
        r = np.zeros((k, k))
        for j in range(k):
            r[:j + 1, j] = cols[j]
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            s = g[i] - r[i, i + 1:] @ y[i + 1:]
            if r[i, i] == 0.0:
                raise GmresBreakdownError(
                    "zero diagonal in the least-squares triangle before convergence"
                )
            y[i] = s / r[i, i]
        x = np.zeros(op.dim)
        for i in range(k):
            x += y[i] * basis[i]
        return x

    r0 = apply(b)
    beta = float(np.linalg.norm(r0))
    yield 0, float(beta != 0.0), beta == 0.0, partial(solution, 0)
    if beta == 0.0:
        return
    basis = [r0 / beta]
    cols, cs, sn, g = [], [], [], [beta]
    for j in range(maxit):
        w = apply(op.matvec(basis[j]))
        if w.shape != (op.dim,):
            raise ValueError(f"operator gave shape {w.shape}, expected ({op.dim},)")
        wnorm0 = float(np.linalg.norm(w))
        col = []
        for v in basis:
            col.append(float(v @ w))
            w -= col[-1] * v
        hj1 = float(np.linalg.norm(w))
        # previously accumulated rotations, then the new one
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  -sn[i] * col[i] + cs[i] * col[i + 1])
        denom = math.hypot(col[j], hj1)
        c, s = (1.0, 0.0) if denom == 0.0 else (col[j] / denom, hj1 / denom)
        col[j] = c * col[j] + s * hj1
        cols.append(col)
        cs.append(c)
        sn.append(s)
        g.append(-s * g[j])
        g[j] = c * g[j]
        happy = hj1 <= 1e-14 * max(wnorm0, 1e-300)
        yield j + 1, abs(g[j + 1]) / beta, happy, partial(solution, j + 1)
        if happy:
            return
        basis.append(w / hj1)


def gmres(op, precond, b, tol=1e-8, maxit=500):
    """Solve A x = b with left-preconditioned full GMRES, zero initial guess.

    Stops at the first ``arnoldi`` step k >= 1 with estimate <= tol or at a
    breakdown (GmresBreakdownError if above tol), else after maxit steps.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    history = []
    for k, estimate, breakdown, solution in arnoldi(op, precond, b, maxit):
        history.append(estimate)
        if breakdown or (k > 0 and estimate <= tol):
            x = solution()
            if estimate > tol:
                raise GmresBreakdownError(
                    f"Arnoldi breakdown at step {k} with residual {estimate:.3e}")
            return x, SolveStats(iterations=k, residuals=history, converged=True)
    return solution(), SolveStats(iterations=k, residuals=history, converged=False)


# ---------------------------------------------------------------------------
# iteration tables


@dataclass
class IterationTable:
    """Iteration counts per (system row, preconditioner column).

    A None count marks a cell that did not converge within maxit.
    """

    row_labels: list
    col_labels: list
    counts: list
    tol: float
    maxit: int
    header_notes: tuple = ()

    def cell_text(self, i, j):
        c = self.counts[i][j]
        return f">{self.maxit}" if c is None else str(c)

    def _text_rows(self):
        """The header row, then one row of cell texts per system."""
        return [["system"] + list(self.col_labels)] + [
            [str(r)] + [self.cell_text(i, j) for j in range(len(self.col_labels))]
            for i, r in enumerate(self.row_labels)]

    def to_csv_lines(self):
        return ([f"# tol={self.tol!r} maxit={self.maxit}"]
                + [f"# {note}" for note in self.header_notes]
                + [",".join(row) for row in self._text_rows()])

    def to_markdown_lines(self):
        head, *body = self._text_rows()
        widths = [max(len(c) for c in col) for col in zip(head, *body)]

        def line(row):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        return ([f"<!-- tol={self.tol!r} maxit={self.maxit} -->"]
                + [f"<!-- {note} -->" for note in self.header_notes]
                + [line(head), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
                + [line(row) for row in body])
