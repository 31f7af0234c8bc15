"""Spectral verification machinery for the preconditioner families.

Predicted minimal-polynomial factors and stability flags, derived from a
preset's diagonal signs (a three-term recurrence for the diagonal
families, one linear factor per block for the triangular ones),
normalized annihilation residuals, spectrum membership reports,
positive-stability verdicts, and Routh tables for the half-plane count.
A polynomial is the tuple of its ascending float coefficients; numpy's
``polyroots`` finds its roots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dense
from . import precond as pc
from .blocks import (ArrowheadSystem, SystemOptions, assemble,
                     assemble_arrowhead, random_system)

ANNIHILATION_TOL = 1e-9
MEMBERSHIP_TOL_COMPUTED = 1e-7
STABILITY_MARGIN = 1e-8
LDU_RTOL = 1e-11


class ZeroFirstColumnError(ValueError):
    """A Routh table hit a zero first-column entry; the tabular rule stops."""


def _coefficients(coeffs):
    """Ascending float coefficients with a nonzero lead (a constant may be 0)."""
    c = tuple(float(v) for v in coeffs)
    if not c:
        raise ValueError("empty coefficient list")
    if c[-1] == 0.0 and len(c) > 1:
        raise ValueError("leading coefficient must be nonzero")
    return c


def _diagonal_recurrence(diag_signs):
    """q_0 = 1, q_1 = x - delta_1, q_{i+1} = x*q_i - delta_i delta_{i+1} q_{i-1}."""
    if not diag_signs:
        raise ValueError("need n >= 1")
    seq = [[1], [-diag_signs[0], 1]]
    for a, b in zip(diag_signs, diag_signs[1:]):
        nxt = [0] + seq[-1]
        for k, c in enumerate(seq[-2]):
            nxt[k] -= a * b * c
        seq.append(nxt)
    return [tuple(float(v) for v in c) for c in seq]


def pbar_polynomials(n):
    """q_0 = 1, q_1 = x - 1, q_{i+1} = x*q_i + q_{i-1}, as ascending
    coefficients: the diagonal recurrence of the alternating signs of Dn."""
    return _diagonal_recurrence(pc.preset_pattern("Dn", n=n)[1])


def pattern_factors(family, diag_signs):
    """Annihilating-polynomial factors of a sign pattern's P^{-1} A.

    Triangular families: x - eps_i (``precond.epsilon_signs``), in
    descending order of eps.  Diagonal families: q_1..q_n of the diagonal
    recurrence; the additive one puts a factor x in front.
    """
    if family.endswith("triangular"):
        return [(float(-e), 1.0)
                for e in sorted(pc.epsilon_signs(diag_signs), reverse=True)]
    factors = _diagonal_recurrence(diag_signs)[1:]
    return [(0.0, 1.0)] + factors if family == "additive-diagonal" else factors


def pattern_positive_stable(diag_signs):
    """Whether a sign pattern's predicted spectrum lies in the open right
    half-plane: every eps_i is +1.  For the diagonal families that is the
    alternating delta with delta_1 = +1; the additive-diagonal factor x
    is set aside."""
    return all(e == 1 for e in pc.epsilon_signs(diag_signs))


def _preset_signs(preset, n):
    """(family, diag signs) of a preset; three-block presets ignore n."""
    if preset not in pc.N_BLOCK_PRESETS:
        n = 3
    elif n is None:
        raise ValueError(f"{preset} needs n")
    return pc.preset_pattern(preset, n=n)


def predicted_polynomial(preset, n=None):
    """Annihilating-polynomial factors for a preset's preconditioned operator.

    Returns a list of ascending coefficient tuples whose product the operator
    satisfies under the preset's hypothesis (the diagonal and additive
    block-diagonal families assume the relevant zero diagonal blocks).
    """
    return pattern_factors(*_preset_signs(preset, n))


@functools.lru_cache(maxsize=None)
def _membership_target(preset, n):
    # (predicted roots with multiplicity, in factor order; membership
    # tolerance): both depend on (preset, n) only, so every verify row of
    # a preset shares one computation
    roots = tuple(complex(z) for c in predicted_polynomial(preset, n=n)
                  for z in np.polynomial.polynomial.polyroots(c))
    return roots, membership_tolerance(roots)


def annihilation_residual(t, factors):
    """Normalized norm of the factor product evaluated at the operator.

    ||prod_i p_i(T)||_F / prod_i (1 + ||T||_F)**deg(p_i), which makes one
    threshold serve operators of any scale.
    """
    t = dense.as_square(t)
    tnorm = np.linalg.norm(t)
    r = None
    scale = 1.0
    for c in factors:
        c = _coefficients(c)
        pt = dense.mat_poly_eval(c, t)
        r = pt if r is None else r @ pt
        scale *= (1.0 + tnorm) ** (len(c) - 1)
    if r is None:
        raise ValueError("need at least one polynomial factor")
    return float(np.linalg.norm(r) / scale)


@dataclass
class SpectralReport:
    """Eigenvalues beside the prediction they are checked against."""

    min_real_part: float = math.inf
    membership: list = field(default_factory=list)

    @property
    def max_membership_distance(self):
        if not self.membership:
            return 0.0
        return max(d for _, _, d in self.membership)


def spectrum_membership(eigs, roots):
    """Match every eigenvalue to its nearest predicted root.

    Returns a SpectralReport whose membership list holds
    (eigenvalue, nearest root, distance) triples; callers compare the
    distances with their own tolerance.  All eigenvalue-root distances
    come from one array operation, and a tie goes to the first root.  The
    distance is ``np.hypot`` of the difference's parts, the libm call
    Python's ``abs(complex)`` makes; numpy's complex ``abs`` can differ
    from it in the last bit.
    """
    eigs = [complex(z) for z in eigs]
    roots = [complex(z) for z in roots]
    if not roots:
        raise ValueError("no predicted roots supplied")
    d = np.array(eigs, dtype=complex)[:, None] - np.array(roots)
    dist = np.hypot(d.real, d.imag)
    nearest = dist.argmin(axis=1).tolist()
    membership = [(z, roots[j], dj)
                  for z, j, dj in zip(eigs, nearest, dist.min(axis=1).tolist())]
    min_re = min((z.real for z in eigs), default=math.inf)
    return SpectralReport(min_real_part=min_re, membership=membership)


# ---------------------------------------------------------------------------
# Routh tables


@dataclass(frozen=True)
class RouthTable:
    rows: tuple
    first_column: tuple
    sign_changes: int


def routh_table(p):
    """Routh table of a polynomial given by its ascending coefficients; sign
    changes count right-half-plane roots.

    Row 0 and row 1 interleave the descending coefficients; each later
    entry is the 2x2 determinant rule.  A zero first-column entry aborts
    construction (ZeroFirstColumnError) since the plain tabular rule is
    then undefined.
    """
    c = _coefficients(p)
    k = len(c) - 1
    if k < 1:
        raise ValueError("polynomial degree must be >= 1")
    desc = list(reversed(c))
    width = (k + 2) // 2
    rows = [
        [desc[j] if j < len(desc) else 0.0 for j in range(0, k + 1, 2)],
        [desc[j] if j < len(desc) else 0.0 for j in range(1, k + 1, 2)],
    ]
    for r in rows:
        while len(r) < width:
            r.append(0.0)
    for i in range(2, k + 1):
        if rows[i - 1][0] == 0.0:
            raise ZeroFirstColumnError(
                f"zero first-column entry in row {i - 1} of the Routh table"
            )
        prev2, prev1 = rows[i - 2], rows[i - 1]
        row = []
        for j in range(width):
            a = prev2[j + 1] if j + 1 < width else 0.0
            b = prev1[j + 1] if j + 1 < width else 0.0
            det = prev2[0] * b - a * prev1[0]
            row.append(-det / prev1[0])
        rows.append(row)
    first = tuple(r[0] for r in rows)
    if any(v == 0.0 for v in first):
        raise ZeroFirstColumnError("zero entry in the completed first column")
    changes = sum(1 for a, b in zip(first, first[1:]) if a * b < 0)
    return RouthTable(rows=tuple(tuple(r) for r in rows),
                      first_column=first, sign_changes=changes)


def coefficient_law_check(k, tol=1e-10):
    """Check the leading/trailing coefficient pattern of the plus-recurrence.

    For the degree-k polynomial of pbar_polynomials the coefficients
    satisfy a_k = 1, a_{k-1} = -1, a_{k-2} = k-1, a_{k-3} = -(k-2),
    a_0 = (-1)**k.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    c = pbar_polynomials(k)[k]
    return (abs(c[k] - 1.0) <= tol
            and abs(c[k - 1] + 1.0) <= tol
            and abs(c[k - 2] - (k - 1.0)) <= tol
            and abs(c[k - 3] + (k - 2.0)) <= tol
            and abs(c[0] - (-1.0) ** k) <= tol)


# ---------------------------------------------------------------------------
# verification suite (shared by the CLI and the acceptance tests)

def hypothesis_options(preset, seed, sizes, n=None):
    """SystemOptions satisfying the hypothesis under which the preset's
    polynomial identity holds, by family: block-diagonal presets get a zero
    tail, additive block-diagonal ones a zero (smallest) middle block; n is
    read only by the n-block presets."""
    sizes = tuple(sizes)
    if preset in pc.N_BLOCK_PRESETS:
        nn = n or len(sizes)
        if pc.preset_pattern(preset, n=nn)[0] == "diagonal":
            return SystemOptions(seed=seed, sizes=_tail_sizes(sizes, nn), zero_tail=True)
        return SystemOptions(seed=seed, sizes=_cycle_sizes(sizes, nn))
    family = pc.preset_pattern(preset)[0]
    if len(sizes) < 3:
        raise ValueError(f"{preset} is a three-block preset and needs three sizes, "
                         f"got {len(sizes)}")
    s = sorted(sizes[:3], reverse=True)
    if family == "diagonal":
        return SystemOptions(seed=seed, sizes=tuple(s), zero_tail=True)
    if family == "additive-diagonal":
        return SystemOptions(seed=seed, sizes=(s[0], s[2], s[1]), zero_middle=True)
    return SystemOptions(seed=seed, sizes=sizes[:3])


def _cycle_sizes(sizes, n):
    return tuple(sizes[i % len(sizes)] for i in range(n))


def _tail_sizes(sizes, n):
    base = max(max(sizes), n + 1)
    return tuple(base - i for i in range(n))


def build_preconditioned(preset, seed, sizes, n=None, draw=None):
    """Generate a hypothesis system and form the preset's exact P^{-1} A.

    Returns (T, system, operator-matrix) where for the additive presets
    the system is the arrowhead view and the operator its assembly.
    ``draw`` maps SystemOptions to a system (``run_suite`` passes one that
    shares its draws); None draws afresh with ``random_system``.
    """
    opts = hypothesis_options(preset, seed, sizes, n=n)
    sys3 = (draw or random_system)(opts)
    if preset in pc.ADDITIVE_PRESETS:
        system = ArrowheadSystem(sys3)
        a = assemble_arrowhead(system)
    else:
        system = sys3
        a = assemble(system)
    p = pc.make_preconditioner(preset, system)
    return pc.preconditioned_matrix(p, a), system, a


@dataclass
class PresetCheck:
    kind: str
    name: str
    seed: int
    residual: float
    min_real_part: float
    max_membership_distance: float
    passed: bool
    detail: str = ""


def membership_tolerance(roots):
    """Defectiveness-aware membership tolerance for the predicted roots.

    1e-7 when every predicted root is simple.  A root of multiplicity k
    makes the operator defective, and computed eigenvalues then scatter
    like eps**(1/k); membership becomes a sanity check at that scale
    (annihilation is the sharp check for those presets).
    """
    mult = 1
    for a in roots:
        mult = max(mult, sum(1 for b in roots if abs(a - b) < 1e-6))
    if mult == 1:
        return MEMBERSHIP_TOL_COMPUTED
    return max(MEMBERSHIP_TOL_COMPUTED, 50.0 * float(np.finfo(float).eps) ** (1.0 / mult))


def row_spectrum(preset, seed, sizes, n=3, draw=None):
    """(T, report): a preset row's exact P^{-1} A and its eigenvalues matched to
    the predicted roots, for ``verify_preset`` and ``schurkit spectrum``;
    three-block presets ignore n."""
    t, _, _ = build_preconditioned(preset, seed, sizes, n=n, draw=draw)
    return t, spectrum_membership(dense.eigenvalues(t),
                                  _membership_target(preset, n)[0])


def verify_preset(preset, seed, sizes, n=None, draw=None):
    """One row of the verification suite for one preset and seed."""
    nn = n or 3   # three-block presets ignore it
    t, report = row_spectrum(preset, seed, sizes, n=nn, draw=draw)
    residual = annihilation_residual(t, predicted_polynomial(preset, n=nn))
    ok = (residual <= ANNIHILATION_TOL
          and report.max_membership_distance <= _membership_target(preset, nn)[1])
    detail = ""
    if pattern_positive_stable(_preset_signs(preset, nn)[1]):
        stable = report.min_real_part > STABILITY_MARGIN
        ok = ok and stable
        detail = "positive-stable" if stable else "expected positive stability"
    label = f"{preset}(n={nn})" if preset in pc.N_BLOCK_PRESETS else preset
    return PresetCheck(kind="preset", name=label, seed=seed, residual=residual,
                       min_real_part=report.min_real_part,
                       max_membership_distance=report.max_membership_distance,
                       passed=ok, detail=detail)


LDU_RANGE = range(2, 9)


def verify_ldu(seed, sizes, n_range=LDU_RANGE, draw=None):
    """LDU reconstruction rows: relative Frobenius error per block count."""
    rows = []
    for n in n_range:
        opts = SystemOptions(seed=seed, sizes=_cycle_sizes(sizes, n))
        sys_n = (draw or random_system)(opts)
        a = assemble(sys_n)
        l, d, u = pc.build_ldu(sys_n)
        err = float(np.linalg.norm(l @ d @ u - a) / np.linalg.norm(a))
        rows.append(PresetCheck(kind="ldu", name=f"n={n}", seed=seed,
                                residual=err, min_real_part=math.inf,
                                max_membership_distance=0.0,
                                passed=err <= LDU_RTOL))
    return rows


def verify_routh(k_max=12):
    """Routh rows: alternating unit first column with k sign changes."""
    rows = []
    polys = pbar_polynomials(k_max)
    for k in range(1, k_max + 1):
        table = routh_table(polys[k])
        alternating = all(
            abs(v - (-1.0) ** i) <= 1e-10 for i, v in enumerate(table.first_column)
        )
        law = coefficient_law_check(k) if k >= 3 else True
        ok = alternating and table.sign_changes == k and law
        rows.append(PresetCheck(kind="routh", name=f"k={k}", seed=0,
                                residual=0.0, min_real_part=math.inf,
                                max_membership_distance=0.0, passed=ok,
                                detail=f"sign_changes={table.sign_changes}"))
    return rows


def suite_presets(presets=None, n_sweep=None):
    """(preset, n) of each preset row of ``run_suite``, in its order.

    presets=None selects DEFAULT_VERIFY_PRESETS; an empty selection is an
    error.  An n sweep adds rows for every n-block family (Mn included) at
    each n = 2..n_sweep, so n_sweep must be at least 2.
    """
    if n_sweep is not None and n_sweep < 2:
        raise ValueError(f"n_sweep must be at least 2, got {n_sweep}")
    if presets is None:
        presets = DEFAULT_VERIFY_PRESETS + (("Mn",) if n_sweep else ())
    elif not presets:
        raise ValueError("empty preset selection")
    return [(preset, nn) for preset in presets
            for nn in (range(2, n_sweep + 1)
                       if n_sweep and preset in pc.N_BLOCK_PRESETS else (3,))]


def suite_dims(seed, sizes, presets=None, n_sweep=None):
    """Yield (row label, unknowns) of each system ``run_suite`` generates,
    in order and lazily, so a size guard stops at the first oversized row."""
    for preset, nn in suite_presets(presets, n_sweep):
        yield preset, sum(hypothesis_options(preset, seed, sizes, n=nn).sizes)
    for n in LDU_RANGE:
        yield f"ldu n={n}", sum(_cycle_sizes(sizes, n))


def run_suite(seed, sizes, presets=None, n_sweep=None):
    """Full verification sweep; returns PresetCheck rows.

    The preset rows (``suite_presets``), then the LDU and Routh rows.
    Each distinct system is drawn once and shared, read-only, by every
    row that reads it (P1-P4, Pn(3) and the n=3 LDU row read one), and
    only for the length of this call.
    """
    # random_system is looked up at each call, so a wrapper on it sees the draws
    draw = functools.cache(lambda opts: random_system(opts))
    rows = [verify_preset(preset, seed, sizes, n=nn, draw=draw)
            for preset, nn in suite_presets(presets, n_sweep)]
    rows.extend(verify_ldu(seed, sizes, draw=draw))
    rows.extend(verify_routh())
    return rows


# default CLI verification row set: the twelve named three-block/additive
# presets plus the n-family triangular and diagonal ones at n=3
DEFAULT_VERIFY_PRESETS = (
    "P1", "P2", "P3", "P4", "PD1", "PD2", "PD3", "PD4",
    "Q1", "Q2", "QD1", "QD2", "Pn", "Dn",
)


def report_csv_rows(rows):
    """CSV lines (header first) for a list of PresetCheck rows."""
    out = ["kind,name,seed,residual,min_real_part,max_membership_distance,"
           "status,detail"]
    for r in rows:
        mre = "" if math.isinf(r.min_real_part) else repr(r.min_real_part)
        out.append(
            f"{r.kind},{r.name},{r.seed},{r.residual!r},{mre},"
            f"{r.max_membership_distance!r},{'pass' if r.passed else 'FAIL'},"
            f"{r.detail}"
        )
    return out
