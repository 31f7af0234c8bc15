"""Schur-complement preconditioning toolkit for block saddle point systems."""

from .blocks import (ArrowheadSystem, BlockTridiagonalSystem, SystemOptions,
                     assemble, assemble_arrowhead, random_system)
from .dense import eigenvalues, lu_factor, lu_solve
from .krylov import LinearOperator, SolveStats, gmres
from .precond import (AdditiveSchur, additive_schur, make_preconditioner,
                      preconditioned_matrix)
from .sparse import CsrMatrix, csr_from_triplets, ic_solve, ichol, spmv
from .verify import (annihilation_residual, coefficient_law_check,
                     pbar_polynomials, predicted_polynomial,
                     routh_table, spectrum_membership)

__version__ = "0.1.0"

__all__ = [
    "ArrowheadSystem", "BlockTridiagonalSystem", "SystemOptions",
    "assemble", "assemble_arrowhead", "random_system",
    "eigenvalues", "lu_factor", "lu_solve",
    "LinearOperator", "SolveStats", "gmres",
    "AdditiveSchur", "additive_schur", "make_preconditioner",
    "preconditioned_matrix",
    "CsrMatrix", "csr_from_triplets", "ic_solve", "ichol", "spmv",
    "annihilation_residual", "coefficient_law_check",
    "pbar_polynomials", "predicted_polynomial",
    "routh_table", "spectrum_membership",
]
