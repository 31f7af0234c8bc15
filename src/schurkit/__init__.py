"""Schur-complement preconditioning toolkit for block saddle point systems."""

from .blocks import (ArrowheadSystem, BlockTridiagonalSystem, SchurChain,
                     SystemOptions, assemble, assemble_arrowhead, nested_chain,
                     random_system)
from .dense import eigenvalues, lu_factor, lu_solve, spectral_condition
from .krylov import LinearOperator, SolveStats, gmres
from .precond import (AdditiveSchur, additive_schur, make_preconditioner,
                      preconditioned_matrix)
from .sparse import CsrMatrix, csr_from_triplets, ic_solve, ichol, spmv
from .verify import (annihilation_residual, coefficient_law_check,
                     pbar_polynomials, positive_stable, predicted_polynomial,
                     ptilde_polynomials, routh_table, spectrum_membership)

__version__ = "0.1.0"

__all__ = [
    "ArrowheadSystem", "BlockTridiagonalSystem", "SystemOptions",
    "assemble", "assemble_arrowhead", "random_system",
    "eigenvalues", "lu_factor", "lu_solve", "spectral_condition",
    "LinearOperator", "SolveStats", "gmres",
    "AdditiveSchur", "SchurChain", "additive_schur", "make_preconditioner",
    "nested_chain", "preconditioned_matrix",
    "CsrMatrix", "csr_from_triplets", "ic_solve", "ichol", "spmv",
    "annihilation_residual", "coefficient_law_check",
    "pbar_polynomials", "positive_stable", "predicted_polynomial",
    "ptilde_polynomials", "routh_table", "spectrum_membership",
]
