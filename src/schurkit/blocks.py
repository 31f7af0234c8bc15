"""Block-tridiagonal saddle point systems and the arrowhead view.

Blocks are stored unsigned; assembly applies the alternating sign pattern
(-1)**(i-1) to the diagonal of the tridiagonal form.  A three-block
system is permutation-equivalent to an arrowhead matrix whose corner
carries the negated middle block; ``ArrowheadSystem`` reads that layout
off the three-block system without copying it.  ``schur_steps`` is the
one copy of the nested Schur recursion: the generation gate of
``random_system``, the exact preconditioners (S_1 = A_1 also leads the
additive complement) and the LDU factors all consume it.  Every system
keeps the (S_i, factor) steps, read-only, the first time any consumer
reaches them, and ``schur_steps`` replays them after that: a generated
system's gate has already formed its whole chain, so nothing inverts a
complement twice.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from . import dense
from .sparse import CsrMatrix, _whole, read_matrix_market, write_matrix_market


class GenerationError(RuntimeError):
    """Random system generation exhausted its retry budget."""


class SingularSchurError(ValueError):
    """A Schur complement in the chain failed dense.lu_factor's singularity check."""

    def __init__(self, index, message=None):
        super().__init__(message or f"Schur complement S_{index} is singular")
        self.index = index


# generated systems must carry a well-conditioned Schur chain, otherwise
# roundoff in the downstream identity checks swamps their tolerances
CHAIN_CONDITION_LIMIT = 1e4


class ManifestError(ValueError):
    """Malformed block manifest; carries the offending line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _freeze(a):
    m = dense.as_matrix(a).copy()
    m.setflags(write=False)
    return m


def _seal(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlockTridiagonalSystem:
    """Blocks of the n-tuple block-tridiagonal form.

    diag[i] is the unsigned diagonal block A_{i+1}; the assembled matrix
    carries (-1)**i * diag[i].  upper[i] sits on the superdiagonal and
    lower[i] on the subdiagonal.  ``_steps`` maps i to the Schur step
    S_{i+1} once ``schur_steps`` has formed it.

    The blocks are read-only copies of what the caller passed, checked
    as finite real matrices, so no caller can change a block under the
    kept chain.  ``_owned=True`` is for ``random_system``'s fresh draws
    alone, arrays that nothing outside the system references: they are
    made read-only in place instead.
    """

    diag: tuple
    upper: tuple
    lower: tuple
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        take = _seal if _owned else _freeze
        for name in ("diag", "upper", "lower"):
            object.__setattr__(self, name, tuple(take(a) for a in getattr(self, name)))
        n = len(self.diag)
        if n < 2:
            raise ValueError("need at least two diagonal blocks")
        if len(self.upper) != n - 1 or len(self.lower) != n - 1:
            raise ValueError("need n-1 upper and lower blocks")
        sizes = []
        for i, a in enumerate(self.diag):
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"diagonal block {i + 1} is not square")
            sizes.append(a.shape[0])
        for i in range(n - 1):
            if self.upper[i].shape != (sizes[i], sizes[i + 1]):
                raise ValueError(
                    f"upper block {i + 1} has shape {self.upper[i].shape}, "
                    f"expected {(sizes[i], sizes[i + 1])}"
                )
            if self.lower[i].shape != (sizes[i + 1], sizes[i]):
                raise ValueError(
                    f"lower block {i + 1} has shape {self.lower[i].shape}, "
                    f"expected {(sizes[i + 1], sizes[i])}"
                )

    @property
    def n(self):
        return len(self.diag)

    @property
    def sizes(self):
        return tuple(a.shape[0] for a in self.diag)


def schur_steps(sys):
    """Yield (S_i, dense.lu_factor(S_i)) for i = 1..n, one complement at a time.

    S_1 = A_1, S_{i+1} = A_{i+1} + C_i S_i^{-1} B_i^T.  The factors carry
    S_i^{-1} and its 1-norm condition number; S_i and S_i^{-1} are
    read-only.  Step i is formed the first time any walk reaches it and
    kept on the system, so later walks replay it, and a walk that stops
    early forms nothing past where it stopped.  Raises SingularSchurError
    identifying the first S_i that fails the singularity check (1-based).
    """
    steps = sys._steps
    for i in range(sys.n):
        if i not in steps:
            if i == 0:
                s = np.array(sys.diag[0])
            else:
                s = sys.diag[i] + sys.lower[i - 1] @ dense.lu_solve(steps[i - 1][1],
                                                                    sys.upper[i - 1])
            try:
                f = dense.lu_factor(s)
            except dense.SingularMatrixError as exc:
                raise SingularSchurError(i + 1, f"S_{i + 1} is singular: {exc}") from exc
            s.setflags(write=False)
            f.inv.setflags(write=False)
            # a concurrent walk that kept step i first wins: one S_i per system
            steps.setdefault(i, (s, f))
        yield steps[i]


@dataclass(frozen=True)
class ArrowheadSystem:
    """Arrowhead view of a three-block system, with block 2 moved last.

    The leading blocks are (A_1, A_3), the border rows (C_1, B_2^T), the
    border columns (B_1^T, C_2) and the corner A_2, which assembles as
    -A_2.  ``perm`` is the symmetric permutation that takes
    assemble(system) to the arrowhead matrix.
    """

    system: BlockTridiagonalSystem

    def __post_init__(self):
        if self.system.n != 3:
            raise ValueError(f"expected a three-block system, got n={self.system.n}")

    @property
    def leading(self):
        return self.system.diag[0], self.system.diag[2]

    @property
    def border_rows(self):
        return self.system.lower[0], self.system.upper[1]

    @property
    def border_cols(self):
        return self.system.upper[0], self.system.lower[1]

    @property
    def corner(self):
        return self.system.diag[1]

    @property
    def leading_sizes(self):
        m1, _, m3 = self.system.sizes
        return m1, m3

    @property
    def sizes(self):
        """(leading aggregate, corner): the two blocks the Q presets act on."""
        m1, m2, m3 = self.system.sizes
        return m1 + m3, m2

    @property
    def perm(self):
        m1, m2, m3 = self.system.sizes
        return np.r_[0:m1, m1 + m2:m1 + m2 + m3, m1:m1 + m2]


@dataclass(frozen=True)
class SystemOptions:
    """Knobs for seeded random system generation.

    zero_tail zeroes every diagonal block past the first (sizes must then
    be nonincreasing so the Schur chain stays invertible); zero_middle
    zeroes only the second block of a three-block system, the hypothesis
    under which the additive block-diagonal preconditioners have their
    short polynomials.
    """

    seed: int
    sizes: tuple
    zero_tail: bool = False
    symmetric_spd: bool = False
    zero_middle: bool = False

    def __post_init__(self):
        # canonical ints: run_suite shares one draw per distinct options
        object.__setattr__(self, "seed", _whole("seed", self.seed))
        object.__setattr__(self, "sizes", tuple(_whole("sizes", s) for s in self.sizes))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if len(self.sizes) < 2:
            raise ValueError("need at least two block sizes")
        if any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be >= 1")
        if self.zero_tail and any(
            self.sizes[i] < self.sizes[i + 1] for i in range(len(self.sizes) - 1)
        ):
            raise ValueError("zero_tail requires nonincreasing block sizes")
        if self.zero_middle:
            if len(self.sizes) != 3:
                raise ValueError("zero_middle applies to three-block systems")
            if self.sizes[1] > self.sizes[0]:
                raise ValueError("zero_middle requires sizes[1] <= sizes[0]")


def assemble(sys):
    """Monolithic dense matrix of a block-tridiagonal system."""
    sizes = sys.sizes
    offs = np.concatenate(([0], np.cumsum(sizes)))
    m = np.zeros((offs[-1], offs[-1]))
    for i, a in enumerate(sys.diag):
        s = offs[i]
        m[s:s + sizes[i], s:s + sizes[i]] = ((-1) ** i) * a
    for i in range(sys.n - 1):
        r, c = offs[i], offs[i + 1]
        m[r:r + sizes[i], c:c + sizes[i + 1]] = sys.upper[i]
        m[c:c + sizes[i + 1], r:r + sizes[i]] = sys.lower[i]
    return m


def assemble_arrowhead(arrow):
    """Monolithic dense matrix of an arrowhead view: the permuted assembly."""
    p = arrow.perm
    return assemble(arrow.system)[p][:, p]


def random_system(opts):
    """Seeded random block-tridiagonal system honoring the option flags.

    Blocks are uniform(-1, 1); the first diagonal block gets a +size*I
    diagonal boost.  Generation retries with the derived seed
    (seed, attempt) until every Schur complement in the nested chain
    factors with a 1-norm condition number at most CHAIN_CONDITION_LIMIT,
    at most 100 attempts.  The gate is a ``schur_steps`` walk that stops
    at the first complement that fails, so the accepted system keeps its
    whole chain.  Each attempt owns the arrays it draws, so they are made
    read-only in place, not copied.
    """
    for attempt in range(100):
        sys = _draw_system(np.random.default_rng((opts.seed, attempt)), opts)
        try:
            if all(f.cond <= CHAIN_CONDITION_LIMIT for _, f in schur_steps(sys)):
                return sys
        except SingularSchurError:
            pass
    raise GenerationError(
        f"no invertible Schur chain after 100 attempts (seed {opts.seed})"
    )


def _draw_system(rng, opts):
    sizes = opts.sizes
    n = len(sizes)
    diag = [rng.uniform(-1.0, 1.0, (s, s)) for s in sizes]
    upper = [rng.uniform(-1.0, 1.0, (sizes[i], sizes[i + 1])) for i in range(n - 1)]
    lower = [rng.uniform(-1.0, 1.0, (sizes[i + 1], sizes[i])) for i in range(n - 1)]
    if opts.symmetric_spd:
        for i, a in enumerate(diag):
            diag[i] = a @ a.T + sizes[i] * np.eye(sizes[i])
        lower = [bt.T for bt in upper]
    else:
        diag[0] = diag[0] + sizes[0] * np.eye(sizes[0])
    if opts.zero_tail:
        for i in range(1, n):
            diag[i] = np.zeros_like(diag[i])
    if opts.zero_middle:
        diag[1] = np.zeros_like(diag[1])
    return BlockTridiagonalSystem(diag=tuple(diag), upper=tuple(upper),
                                  lower=tuple(lower), _owned=True)


# ---------------------------------------------------------------------------
# manifest IO


def write_blocks(directory, diag, upper, lower):
    """Write one Matrix Market file per block plus a plain-text manifest.

    Blocks are dense arrays or CsrMatrix.  Manifest format: first line
    ``n=<count>``, then one line per block ``<role> <index> <filename>``
    with role A (diagonal), B (superdiagonal, storing B_i^T as assembled)
    or C (subdiagonal).  Returns the manifest path.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    lines = [f"n={len(diag)}"]
    for role, mats in (("A", diag), ("B", upper), ("C", lower)):
        for i, m in enumerate(mats, start=1):
            name = f"{role}_{i}.mtx"
            write_matrix_market(d / name, m)
            lines.append(f"{role} {i} {name}")
    manifest = d / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest


def load_system(manifest_path):
    """Read a manifest written by write_blocks back into a dense system."""
    p = Path(manifest_path)
    text = p.read_text(encoding="ascii").splitlines()
    if not text:
        raise ManifestError(p, 1, "empty manifest")
    head = text[0].strip()
    if not head.startswith("n="):
        raise ManifestError(p, 1, f"expected n=<count>, got {head!r}")
    try:
        n = int(head[2:])
    except ValueError:
        raise ManifestError(p, 1, f"bad block count {head!r}") from None
    if n < 2:
        raise ManifestError(p, 1, f"block count must be >= 2, got {n}")
    entries = {}
    for ln, raw in enumerate(text[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ManifestError(p, ln, f"expected '<role> <i> <file>', got {line!r}")
        role, idx_s, name = parts
        if role not in ("A", "B", "C"):
            raise ManifestError(p, ln, f"unknown role {role!r}")
        try:
            idx = int(idx_s)
        except ValueError:
            raise ManifestError(p, ln, f"bad index {idx_s!r}") from None
        limit = n if role == "A" else n - 1
        if not 1 <= idx <= limit:
            raise ManifestError(p, ln, f"index {idx} out of range for role {role}")
        if (role, idx) in entries:
            raise ManifestError(p, ln, f"duplicate entry {role} {idx}")
        entries[(role, idx)] = (name, ln)
    blocks = {"A": [None] * n, "B": [None] * (n - 1), "C": [None] * (n - 1)}
    for role, count in (("A", n), ("B", n - 1), ("C", n - 1)):
        for idx in range(1, count + 1):
            if (role, idx) not in entries:
                raise ManifestError(p, 1, f"missing block {role} {idx}")
            name, ln = entries[(role, idx)]
            mat = read_matrix_market(p.parent / name)
            if isinstance(mat, CsrMatrix):
                mat = mat.to_dense()
            blocks[role][idx - 1] = mat
    try:
        return BlockTridiagonalSystem(diag=tuple(blocks["A"]),
                                      upper=tuple(blocks["B"]),
                                      lower=tuple(blocks["C"]))
    except ValueError as exc:
        raise ManifestError(p, 1, f"inconsistent block shapes: {exc}") from None
