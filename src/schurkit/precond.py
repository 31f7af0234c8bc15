"""Schur-complement chains and the block preconditioner families.

Two Schur constructions: the nested chain S_1 = A_1,
S_{i+1} = A_{i+1} + C_i S_i^{-1} B_i^T for block-tridiagonal systems
(built in ``blocks``, which also gates random generation on it), and
the additive complement S = A_2 + C_1 A_1^{-1} B_1^T + B_2^T A_3^{-1} C_2
of the arrowhead view of a three-block system, which takes A_1^{-1} from
that chain's S_1.  Every named
preconditioner is a sign pattern over these blocks: block-diagonal ones
solve with delta_i * S_i, block-triangular ones add gamma_i * C_i
subdiagonal coupling with gamma_i = eps_i, which delta determines.
Presets are data, not code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .blocks import (ArrowheadSystem, BlockTridiagonalSystem, SingularSchurError,
                     schur_steps)


class SingularLeadingBlockError(ValueError):
    """A leading diagonal block of an arrowhead system is singular."""

    def __init__(self, index):
        super().__init__(f"leading block {index} is singular")
        self.index = index


class UnknownPresetError(ValueError):
    """Preconditioner preset name not in the registry."""


class MissingSolverError(ValueError):
    """A diagonal block has no solver attached."""

    def __init__(self, index):
        super().__init__(f"no solver for diagonal block {index}")
        self.index = index


@dataclass(frozen=True)
class AdditiveSchur:
    """Additive Schur complement of an arrowhead system."""

    schur: np.ndarray
    factor: dense.LUFactors
    leading_factors: tuple


def additive_schur(sys):
    """Additive Schur complement of an arrowhead view.

    S = A_2 + C_1 A_1^{-1} B_1^T + B_2^T A_3^{-1} C_2: the corner is
    assembled as -A_2 and the leading blocks with plus signs.  A_1's
    factor is step S_1 = A_1 of the system's nested chain.
    """
    try:
        factors = [next(schur_steps(sys.system))[1]]
    except SingularSchurError as exc:
        raise SingularLeadingBlockError(1) from exc
    try:
        factors.append(dense.lu_factor(sys.leading[1]))
    except dense.SingularMatrixError as exc:
        raise SingularLeadingBlockError(2) from exc
    s = np.array(sys.corner)
    for f, row, col in zip(factors, sys.border_rows, sys.border_cols):
        s = s + row @ dense.lu_solve(f, col)
    try:
        sf = dense.lu_factor(s)
    except dense.SingularMatrixError as exc:
        raise SingularSchurError(len(sys.leading) + 1,
                                 f"additive Schur complement is singular: {exc}") from exc
    return AdditiveSchur(schur=s, factor=sf, leading_factors=tuple(factors))


# ---------------------------------------------------------------------------
# preconditioner operators


class Preconditioner:
    """Base class: block solves and their signs delta_i over a block layout."""

    def __init__(self, sizes, solves, diag_signs):
        self.sizes = tuple(int(s) for s in sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        self.dim = int(self.offsets[-1])
        n = len(self.sizes)
        solves = list(solves or ())
        if len(solves) > n:
            raise ValueError(f"{n} block solves expected, {len(solves)} given")
        for i, s in enumerate(solves + [None] * (n - len(solves)), start=1):
            if s is None:
                raise MissingSolverError(i)
        if len(diag_signs) != n:
            raise ValueError("one sign per diagonal block required")
        self.solves = tuple(solves)
        self.diag_signs = tuple(int(s) for s in diag_signs)

    def _split(self, v):
        """Check a vector (dim,) or block (dim, k) and cut it into block rows."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ValueError(f"input shape {v.shape} does not match dim={self.dim}")
        return [v[self.offsets[i]:self.offsets[i + 1]] for i in range(len(self.sizes))]

    def apply(self, v):
        """P^{-1} v for a vector (dim,) or, column-wise, a block (dim, k).

        Blocks work when the block solves and couplings take them, as the
        LU-backed exact presets do.  IC-backed callables (``ic_solve``,
        ``spmv``) are vector-only and raise ValueError on a block.
        """
        raise NotImplementedError


class BlockDiagonalPreconditioner(Preconditioner):
    """Independent signed block solves: y_i = delta_i * solve_i(v_i)."""

    def apply(self, v):
        parts = self._split(v)
        out = [sg * solve(p) for sg, solve, p in zip(self.diag_signs, self.solves, parts)]
        return np.concatenate(out)


class BlockTriangularPreconditioner(Preconditioner):
    """Block forward substitution with signed diagonal and subdiagonal.

    y_1 = delta_1 solve_1(v_1);
    y_i = delta_i solve_i(v_i - gamma_{i-1} C_{i-1} y_{i-1}),
    with gamma_i = eps_i (``epsilon_signs`` of the diagonal signs).
    """

    def __init__(self, sizes, solves, diag_signs, sub_matvecs):
        super().__init__(sizes, solves, diag_signs)
        if len(sub_matvecs) != len(self.sizes) - 1:
            raise ValueError("need n-1 subdiagonal couplings")
        self.sub_matvecs = tuple(sub_matvecs)
        self.sub_signs = epsilon_signs(self.diag_signs)[:-1]

    def apply(self, v):
        parts = self._split(v)
        out = [self.diag_signs[0] * self.solves[0](parts[0])]
        for i in range(1, len(self.sizes)):
            rhs = parts[i] - self.sub_signs[i - 1] * self.sub_matvecs[i - 1](out[i - 1])
            out.append(self.diag_signs[i] * self.solves[i](rhs))
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# presets

# A preset is a family plus its diagonal signs delta; the subdiagonal signs
# of the triangular families (``BlockTriangularPreconditioner``) and the
# predicted spectrum (``verify``) follow from delta through
# ``epsilon_signs``.  An additive pattern signs its two blocks: the leading
# aggregate and the Schur corner.
_PATTERNS = {
    "P1": ("triangular", (1, -1, 1)),
    "P2": ("triangular", (1, 1, 1)),
    "P3": ("triangular", (1, 1, -1)),
    "P4": ("triangular", (1, -1, -1)),
    "PD1": ("diagonal", (1, 1, 1)),
    "PD2": ("diagonal", (1, 1, -1)),
    "PD3": ("diagonal", (1, -1, 1)),
    "PD4": ("diagonal", (1, -1, -1)),
    "Q1": ("additive-triangular", (1, -1)),
    "Q2": ("additive-triangular", (1, 1)),
    "QD1": ("additive-diagonal", (1, 1)),
    "QD2": ("additive-diagonal", (1, -1)),
}

# n-block presets: name -> (family, r); block i has diagonal sign r**(i-1)
_N_BLOCK = {
    "Pn": ("triangular", -1),
    "Dn": ("diagonal", -1),
    "Mn": ("diagonal", 1),
}

N_BLOCK_PRESETS = tuple(_N_BLOCK)
ADDITIVE_PRESETS = tuple(k for k, v in _PATTERNS.items() if v[0].startswith("additive"))
NESTED_PRESETS = tuple(k for k in _PATTERNS if k not in ADDITIVE_PRESETS) + N_BLOCK_PRESETS
PRESET_NAMES = NESTED_PRESETS + ADDITIVE_PRESETS


def epsilon_signs(diag_signs):
    """eps_i = delta_i (-1)**(i-1) for diagonal signs delta.

    ``build_ldu`` writes A = L D U with D = diag((-1)**(i-1) S_i), so the
    triangular pattern with subdiagonal signs gamma_i = eps_i is
    P = L D E with E = diag(eps_i I), and P^{-1} A = E U is block upper
    triangular with diagonal blocks eps_i I.
    """
    return tuple(d * (-1) ** i for i, d in enumerate(diag_signs))


def preset_pattern(name, n=3):
    """Resolve a preset name to (family, diag_signs).

    family is one of 'triangular', 'diagonal', 'additive-triangular',
    'additive-diagonal'.  For additive families diag_signs covers the two
    blocks (leading aggregate, Schur corner).
    """
    if name in _N_BLOCK:
        family, r = _N_BLOCK[name]
        diag = tuple(r ** i for i in range(n))
    elif name not in _PATTERNS:
        raise UnknownPresetError(f"unknown preconditioner preset {name!r}")
    elif name in NESTED_PRESETS and n != 3:
        raise UnknownPresetError(f"{name} is a three-block preset, got n={n}")
    else:
        family, diag = _PATTERNS[name]
    return family, diag


def _lu_solver(f):
    return lambda v: dense.lu_solve(f, v)


def _matvec(c):
    m = np.asarray(c, dtype=float)
    return lambda v: m @ v


def make_preconditioner(name, system=None, *, sizes=None, solves=None,
                        sub_matvecs=None):
    """Instantiate a named preconditioner preset.

    Exact mode: pass the system; solvers come from the LAPACK inverses of its
    nested Schur chain (nested presets) or additive Schur complement (Q
    presets).  Inexact mode: pass sizes plus per-block solve callables
    (and subdiagonal matvecs for triangular families).
    """
    if isinstance(system, BlockTridiagonalSystem):
        n = system.n
    elif isinstance(system, ArrowheadSystem):
        if name in NESTED_PRESETS:
            raise TypeError(f"{name} needs a block-tridiagonal system")
        n = 2
    elif system is not None:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    elif sizes is None:
        raise ValueError("need a system, or sizes for inexact mode")
    else:
        n = len(sizes)
    family, diag_signs = preset_pattern(name, n=n)
    additive = family.startswith("additive")

    if system is not None and additive:
        if not isinstance(system, ArrowheadSystem):
            raise TypeError(f"{name} needs an arrowhead system")
        schur = additive_schur(system)
        sizes = system.sizes
        f1, f3 = schur.leading_factors
        m1 = system.leading_sizes[0]
        solves = (lambda v: np.concatenate((dense.lu_solve(f1, v[:m1]),
                                            dense.lu_solve(f3, v[m1:]))),
                  _lu_solver(schur.factor))
        sub_matvecs = (_matvec(np.hstack(system.border_rows)),)
    elif system is not None:
        sizes = system.sizes
        solves = tuple(_lu_solver(f) for _, f in schur_steps(system))
        sub_matvecs = tuple(_matvec(c) for c in system.lower)

    if additive and len(sizes) != 2:
        raise ValueError(f"{name} needs two block sizes (leading, corner)")
    if family.endswith("diagonal"):
        return BlockDiagonalPreconditioner(sizes, solves, diag_signs)
    if sub_matvecs is None or len(sub_matvecs) != len(sizes) - 1:
        raise MissingSolverError(len(sizes))
    return BlockTriangularPreconditioner(sizes, solves, diag_signs, sub_matvecs)


def preconditioned_matrix(p, a):
    """Dense P^{-1} A in one block apply (desk-scale guard applies).

    ``a`` is the assembled matrix: ``blocks.assemble`` of a block system or
    ``blocks.assemble_arrowhead`` of its arrowhead view.
    """
    a = dense.as_square(a)
    n = a.shape[0]
    if n > dense.DESK_SIZE_LIMIT:
        raise ValueError(f"size {n} exceeds desk-scale limit {dense.DESK_SIZE_LIMIT}")
    if n != p.dim:
        raise ValueError(f"operator size {n} does not match preconditioner {p.dim}")
    return p.apply(a)


def build_ldu(sys):
    """Block LDU factors of the assembled tridiagonal system.

    L is unit lower block-bidiagonal with (-1)**(i-1) C_i S_i^{-1} below
    the diagonal, D = diag((-1)**(i-1) S_i), U is unit upper with
    (-1)**(i-1) S_i^{-1} B_i^T.  assemble(sys) == L @ D @ U.
    """
    sizes = sys.sizes
    offs = np.concatenate(([0], np.cumsum(sizes)))
    tot = offs[-1]
    L = np.eye(tot)
    D = np.zeros((tot, tot))
    U = np.eye(tot)
    for i, (schur, f) in enumerate(schur_steps(sys)):
        r = offs[i]
        sign = (-1) ** i
        D[r:r + sizes[i], r:r + sizes[i]] = sign * schur
        if i < sys.n - 1:
            c = offs[i + 1]
            L[c:c + sizes[i + 1], r:r + sizes[i]] = sign * (sys.lower[i] @ f.inv)
            U[r:r + sizes[i], c:c + sizes[i + 1]] = sign * (f.inv @ sys.upper[i])
    return L, D, U
