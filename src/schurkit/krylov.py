"""Full GMRES with left preconditioning over an abstract operator.

Non-restarted Arnoldi with modified Gram-Schmidt and Givens rotations;
the rotation-updated residual norm is the stopping quantity, so the
history is monotone without extra matvecs.  Iteration tables (systems by
preconditioners) can be emitted as CSV or aligned Markdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def gmres(op, precond, b, tol=1e-8, maxit=500):
    """Solve A x = b with left-preconditioned full GMRES, zero initial guess.

    ``precond`` has ``dim`` and ``apply`` (a ``precond.Preconditioner``),
    or is None for no preconditioning.  Stops when
    ||M^{-1}(b - A x)|| / ||M^{-1} b|| <= tol (tracked through the
    Givens-updated residual) or after maxit Arnoldi steps.  Happy
    breakdown returns the exact solution; breakdown before convergence
    raises GmresBreakdownError.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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
    r0 = apply(b)
    beta = float(np.linalg.norm(r0))
    if beta == 0.0:
        return np.zeros(op.dim), SolveStats(iterations=0, residuals=[0.0],
                                            converged=True)
    basis = [r0 / beta]
    h = np.zeros((maxit + 1, maxit))
    cs = np.zeros(maxit)
    sn = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = beta
    history = [1.0]

    def solution(k):
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            s = g[i] - h[i, i + 1:k] @ y[i + 1:k]
            if h[i, i] == 0.0:
                raise GmresBreakdownError(
                    "zero diagonal in the least-squares triangle before convergence"
                )
            y[i] = s / h[i, i]
        x = np.zeros(op.dim)
        for i in range(k):
            x += y[i] * basis[i]
        return x

    for j in range(maxit):
        w = apply(op.matvec(basis[j]))
        if w.shape != (op.dim,):
            raise ValueError(f"operator gave shape {w.shape}, expected ({op.dim},)")
        wnorm0 = float(np.linalg.norm(w))
        for i in range(j + 1):
            h[i, j] = float(basis[i] @ w)
            w -= h[i, j] * basis[i]
        hj1 = float(np.linalg.norm(w))
        h[j + 1, j] = hj1
        # previously accumulated rotations, then the new one
        for i in range(j):
            hi = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
            h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
            h[i, j] = hi
        denom = math.hypot(h[j, j], hj1)
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = h[j, j] / denom
            sn[j] = hj1 / denom
        h[j, j] = cs[j] * h[j, j] + sn[j] * hj1
        h[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        rel = abs(g[j + 1]) / beta
        history.append(rel)
        happy = hj1 <= 1e-14 * max(wnorm0, 1e-300)
        if rel <= tol or happy:
            x = solution(j + 1)
            if happy and rel > tol:
                raise GmresBreakdownError(
                    f"Arnoldi breakdown at step {j + 1} with residual {rel:.3e}"
                )
            return x, SolveStats(iterations=j + 1, residuals=history,
                                 converged=True)
        basis.append(w / hj1)
    x = solution(maxit)
    return x, SolveStats(iterations=maxit, residuals=history, converged=False)


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

    def to_csv_lines(self):
        lines = [f"# tol={self.tol!r} maxit={self.maxit}"]
        for note in self.header_notes:
            lines.append(f"# {note}")
        lines.append(",".join(["system"] + list(self.col_labels)))
        for i, row in enumerate(self.row_labels):
            lines.append(",".join([str(row)] +
                                  [self.cell_text(i, j)
                                   for j in range(len(self.col_labels))]))
        return lines

    def to_markdown_lines(self):
        cols = ["system"] + list(self.col_labels)
        body = [[str(r)] + [self.cell_text(i, j)
                            for j in range(len(self.col_labels))]
                for i, r in enumerate(self.row_labels)]
        widths = [max(len(cols[j]), *(len(row[j]) for row in body)) if body
                  else len(cols[j]) for j in range(len(cols))]
        lines = [f"<!-- tol={self.tol!r} maxit={self.maxit} -->"]
        for note in self.header_notes:
            lines.append(f"<!-- {note} -->")
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in body:
            lines.append("| " + " | ".join(c.ljust(w)
                                           for c, w in zip(row, widths)) + " |")
        return lines
