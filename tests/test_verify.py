import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from schurkit import blocks, dense, precond, verify


# The paper's predicted factors, stability flags and subdiagonal signs,
# written out by hand: the oracle for what the library derives from a
# preset's diagonal signs.
XM1, XP1, X = (-1.0, 1.0), (1.0, 1.0), (0.0, 1.0)
Q_MINUS, Q_PLUS = (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)   # x^2 - x -+ 1


def three_term(n, sign):
    """q_1..q_n of q_0 = 1, q_1 = x - 1, q_{i+1} = x q_i + sign q_{i-1}."""
    seq = [[1], [-1, 1]]
    while len(seq) <= n:
        seq.append([a + sign * b for a, b in zip([0] + seq[-1], seq[-2] + [0, 0])])
    return [tuple(float(v) for v in c) for c in seq[1:]]


# name -> (factors, or factors(n) for the n-block presets; expected
# positive stable).  QD2 counts as stable although its factors include x.
ORACLE = {
    "P1": ((XM1, XM1, XM1), True),
    "P2": ((XM1, XM1, XP1), False),
    "P3": ((XM1, XP1, XP1), False),
    "P4": ((XM1, XM1, XP1), False),
    "PD1": ((XM1, Q_MINUS, (1.0, -2.0, -1.0, 1.0)), False),   # x^3 - x^2 - 2x + 1
    "PD2": ((XM1, Q_MINUS, (-1.0, 0.0, -1.0, 1.0)), False),   # x^3 - x^2 - 1
    "PD3": ((XM1, Q_PLUS, (-1.0, 2.0, -1.0, 1.0)), True),     # x^3 - x^2 + 2x - 1
    "PD4": ((XM1, Q_PLUS, (1.0, 0.0, -1.0, 1.0)), False),     # x^3 - x^2 + 1
    "Pn": (lambda n: [XM1] * n, True),
    "Dn": (lambda n: three_term(n, 1), True),
    "Mn": (lambda n: three_term(n, -1), False),
    "Q1": ((XM1, XM1), True),
    "Q2": ((XM1, XP1), False),
    "QD1": ((X, XM1, Q_MINUS), False),
    "QD2": ((X, XM1, Q_PLUS), True),
}

# name -> (family, diagonal signs, subdiagonal signs), or a function of n
PATTERN_ORACLE = {
    "P1": ("triangular", (1, -1, 1), (1, 1)),
    "P2": ("triangular", (1, 1, 1), (1, -1)),
    "P3": ("triangular", (1, 1, -1), (1, -1)),
    "P4": ("triangular", (1, -1, -1), (1, 1)),
    "PD1": ("diagonal", (1, 1, 1), ()),
    "PD2": ("diagonal", (1, 1, -1), ()),
    "PD3": ("diagonal", (1, -1, 1), ()),
    "PD4": ("diagonal", (1, -1, -1), ()),
    "Pn": lambda n: ("triangular", tuple((-1) ** i for i in range(n)), (1,) * (n - 1)),
    "Dn": lambda n: ("diagonal", tuple((-1) ** i for i in range(n)), ()),
    "Mn": lambda n: ("diagonal", (1,) * n, ()),
    "Q1": ("additive-triangular", (1, -1), (1,)),
    "Q2": ("additive-triangular", (1, 1), (1,)),
    "QD1": ("additive-diagonal", (1, 1), ()),
    "QD2": ("additive-diagonal", (1, -1), ()),
}


def oracle_cases(name):
    """(n, factors, pattern) rows: n = 2..12 for the n-block presets, else
    the three-block row, which ignores n."""
    factors, pattern = ORACLE[name][0], PATTERN_ORACLE[name]
    if name not in precond.N_BLOCK_PRESETS:
        return [(n, list(factors), pattern) for n in (None, 3)]
    return [(n, factors(n), pattern(n)) for n in range(2, 13)]


class TestOracle:
    @pytest.mark.parametrize("name", precond.PRESET_NAMES)
    def test_predicted_factors(self, name):
        for n, factors, _ in oracle_cases(name):
            got = verify.predicted_polynomial(name, n=n)
            assert got == factors, (name, n)
            assert all(type(v) is float for c in got for v in c)

    @pytest.mark.parametrize("name", precond.PRESET_NAMES)
    def test_preset_pattern(self, name):
        # the triangular families' subdiagonal signs are eps_1..eps_{n-1}
        for n, _, (family, diag, subs) in oracle_cases(name):
            assert precond.preset_pattern(name, n=n or 3) == (family, diag), (name, n)
            derived = (precond.epsilon_signs(diag)[:-1]
                       if family.endswith("triangular") else ())
            assert derived == subs, (name, n)

    @pytest.mark.parametrize("name", precond.PRESET_NAMES)
    def test_stability_flag(self, name):
        for n, _, (_, diag, _) in oracle_cases(name):
            assert verify.pattern_positive_stable(diag) == ORACLE[name][1], (name, n)


@functools.cache
def exact_right_half_plane_roots(coeffs):
    """Sign changes in the first column of the Routh table of an integer
    polynomial (ascending coefficients), in exact rational arithmetic."""
    desc = [Fraction(int(c)) for c in reversed(coeffs)]
    rows = [desc[0::2], desc[1::2]]
    while len(rows) < len(desc):
        prev2, prev1 = rows[-2], rows[-1]
        assert prev1[0] != 0, f"zero pivot in the Routh table of {coeffs}"
        ratio = prev2[0] / prev1[0]
        rows.append([a - ratio * b for a, b in zip(prev2[1:], prev1[1:] + [0])])
    first = [r[0] for r in rows]
    assert all(first), f"zero pivot in the Routh table of {coeffs}"
    return sum(a * b < 0 for a, b in zip(first, first[1:]))


class TestSignPatterns:
    """The derived theory on every diagonal sign vector, not only on presets."""

    @pytest.mark.parametrize("family,hypothesis", [("diagonal", "Dn"),
                                                   ("triangular", "Pn")])
    def test_every_sign_vector_annihilates(self, family, hypothesis):
        failed = []
        for n, seed in itertools.product(range(2, 9), (0, 1)):
            s = blocks.random_system(
                verify.hypothesis_options(hypothesis, seed, (4, 3, 2), n=n))
            a = blocks.assemble(s)
            solves = [functools.partial(dense.lu_solve, f)
                      for _, f in blocks.schur_steps(s)]
            couplings = [c.__matmul__ for c in s.lower]
            for diag in itertools.product((1, -1), repeat=n):
                if family == "diagonal":
                    p = precond.BlockDiagonalPreconditioner(s.sizes, solves, diag)
                else:
                    p = precond.BlockTriangularPreconditioner(
                        s.sizes, solves, diag, couplings)
                t = precond.preconditioned_matrix(p, a)
                r = verify.annihilation_residual(t, verify.pattern_factors(family, diag))
                if not r <= verify.ANNIHILATION_TOL:
                    failed.append((diag, seed, r))
        assert failed == []

    def test_exactly_alternating_signs_are_positive_stable(self):
        # delta_1 = +1 as in every preset (-delta negates P^{-1} A); a list,
        # not a generator, so that every factor's table is built: 4,095
        # distinct factors for n = 2..12, none with a zero pivot
        for n in range(2, 13):
            for rest in itertools.product((1, -1), repeat=n - 1):
                diag = (1,) + rest
                right = all([exact_right_half_plane_roots(c) == len(c) - 1
                             for c in verify.pattern_factors("diagonal", diag)])
                alternating = all(d != e for d, e in zip(diag, diag[1:]))
                assert right == alternating == verify.pattern_positive_stable(diag), diag


class TestRecurrences:
    def test_pbar_base_and_steps(self):
        pb = verify.pbar_polynomials(3)
        assert pb[1] == (-1.0, 1.0)
        assert pb[2] == (1.0, -1.0, 1.0)          # x^2 - x + 1
        assert pb[3] == (-1.0, 2.0, -1.0, 1.0)    # x^3 - x^2 + 2x - 1
        assert all(type(v) is float for c in pb for v in c)

    def test_ptilde_base_and_steps(self):
        # Mn's factors q_1..q_n: q_{i+1} = x*q_i - q_{i-1}, all-plus signs
        pt = verify.predicted_polynomial("Mn", n=3)
        assert pt[0] == (-1.0, 1.0)
        assert pt[1] == (-1.0, -1.0, 1.0)         # x^2 - x - 1
        assert pt[2] == (1.0, -2.0, -1.0, 1.0)    # x^3 - x^2 - 2x + 1

    def test_pbar_matches_diagonal_family_cubic(self):
        # the cubic factor of the alternating-sign diagonal preset
        pb3 = verify.pbar_polynomials(3)[3]
        pd3 = verify.predicted_polynomial("PD3")[2]
        assert pb3 == pd3

    def test_ptilde_matches_plus_sign_family(self):
        pt = verify.predicted_polynomial("Mn", n=3)
        pd1 = verify.predicted_polynomial("PD1")
        assert pd1[1] == pt[1]
        assert pd1[2] == pt[2]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            verify.pbar_polynomials(0)


def membership_roots(preset, n=3):
    """The predicted roots verify_preset matches a row's eigenvalues to."""
    return verify._prediction(preset, n).roots


class TestPredictedPolynomials:
    def test_pd1_root_set(self):
        roots = sorted(membership_roots("PD1"),
                       key=lambda z: (z.real, z.imag))
        printed = [-1.2470, -0.6180, 0.4450, 1.0, 1.6180, 1.8019]
        assert max(abs(z - w) for z, w in zip(roots, printed)) < 1e-4
        assert max(abs(z.imag) for z in roots) < 1e-12

    def test_qd1_nonzero_roots(self):
        roots = sorted(membership_roots("QD1"),
                       key=lambda z: (z.real, z.imag))
        golden = (1 + math.sqrt(5)) / 2
        expect = [1 - golden, 0.0, 1.0, golden]
        assert max(abs(z - w) for z, w in zip(roots, expect)) < 1e-12

    def test_qd2_nonzero_roots(self):
        roots = membership_roots("QD2")
        expect = {complex(0.0), complex(1.0),
                  complex(0.5, math.sqrt(3) / 2), complex(0.5, -math.sqrt(3) / 2)}
        for z in roots:
            assert min(abs(z - w) for w in expect) < 1e-12

    def test_degrees(self):
        degree = {
            "P1": 3, "P2": 3, "P3": 3, "P4": 3,
            "PD1": 6, "PD2": 6, "PD3": 6, "PD4": 6,
            "Q1": 2, "Q2": 2, "QD1": 4, "QD2": 4,
        }
        for name, d in degree.items():
            total = sum(len(c) - 1 for c in verify.predicted_polynomial(name))
            assert total == d, name

    def test_n_family_degrees(self):
        assert sum(len(c) - 1 for c in verify.predicted_polynomial("Pn", n=5)) == 5
        assert sum(len(c) - 1 for c in verify.predicted_polynomial("Dn", n=5)) == 15
        assert sum(len(c) - 1 for c in verify.predicted_polynomial("Mn", n=5)) == 15

    def test_unknown_preset(self):
        with pytest.raises(precond.UnknownPresetError):
            verify.predicted_polynomial("NOPE")


# hypothesis_options(preset, 0, sizes, n) as (sizes, zero_tail, zero_middle),
# or the error it raises, pinned so that a wrongly derived hypothesis fails
# here and not only in the verify sweep.  Three-block presets ignore n and
# need three sizes.
NEEDS_THREE_SIZES = ValueError("needs three sizes")
THREE_BLOCK_HYPOTHESES = {
    ("P1", "P2", "P3", "P4", "Q1", "Q2"): {
        (9, 7, 5): ((9, 7, 5), False, False),
        (2, 5, 3): ((2, 5, 3), False, False),
        (6, 2): NEEDS_THREE_SIZES,
    },
    ("PD1", "PD2", "PD3", "PD4"): {
        (9, 7, 5): ((9, 7, 5), True, False),
        (2, 5, 3): ((5, 3, 2), True, False),
        (6, 2): NEEDS_THREE_SIZES,
    },
    ("QD1", "QD2"): {
        (9, 7, 5): ((9, 5, 7), False, True),
        (2, 5, 3): ((5, 2, 3), False, True),
        (6, 2): NEEDS_THREE_SIZES,
    },
}
N_BLOCK_HYPOTHESES = {
    ("Pn",): {
        ((9, 7, 5), None): ((9, 7, 5), False, False),
        ((9, 7, 5), 2): ((9, 7), False, False),
        ((9, 7, 5), 5): ((9, 7, 5, 9, 7), False, False),
        ((2, 5, 3), None): ((2, 5, 3), False, False),
        ((2, 5, 3), 2): ((2, 5), False, False),
        ((2, 5, 3), 5): ((2, 5, 3, 2, 5), False, False),
        ((6, 2), None): ((6, 2), False, False),
        ((6, 2), 2): ((6, 2), False, False),
        ((6, 2), 5): ((6, 2, 6, 2, 6), False, False),
    },
    ("Dn", "Mn"): {
        ((9, 7, 5), None): ((9, 8, 7), True, False),
        ((9, 7, 5), 2): ((9, 8), True, False),
        ((9, 7, 5), 5): ((9, 8, 7, 6, 5), True, False),
        ((2, 5, 3), None): ((5, 4, 3), True, False),
        ((2, 5, 3), 2): ((5, 4), True, False),
        ((2, 5, 3), 5): ((6, 5, 4, 3, 2), True, False),
        ((6, 2), None): ((6, 5), True, False),
        ((6, 2), 2): ((6, 5), True, False),
        ((6, 2), 5): ((6, 5, 4, 3, 2), True, False),
    },
}
PINNED_HYPOTHESES = [
    (name, sizes, n, want)
    for names, rows in THREE_BLOCK_HYPOTHESES.items() for name in names
    for sizes, want in rows.items() for n in (None, 2, 5)
] + [
    (name, sizes, n, want)
    for names, rows in N_BLOCK_HYPOTHESES.items() for name in names
    for (sizes, n), want in rows.items()
]


class TestPresetTables:
    def test_tables_name_the_same_presets(self):
        patterns = set(precond._PATTERNS) | set(precond._N_BLOCK)
        assert len(patterns) == len(precond._PATTERNS) + len(precond._N_BLOCK)
        assert patterns == set(ORACLE) == set(PATTERN_ORACLE) == set(precond.PRESET_NAMES)
        assert set(precond._N_BLOCK) == set(precond.N_BLOCK_PRESETS)
        assert {name for name, (factors, _) in ORACLE.items()
                if callable(factors)} == set(precond.N_BLOCK_PRESETS)
        assert {name for name, pattern in PATTERN_ORACLE.items()
                if callable(pattern)} == set(precond.N_BLOCK_PRESETS)

    def test_preset_order(self):
        assert precond.PRESET_NAMES == (
            "P1", "P2", "P3", "P4", "PD1", "PD2", "PD3", "PD4", "Pn", "Dn", "Mn",
            "Q1", "Q2", "QD1", "QD2")
        assert precond.ADDITIVE_PRESETS == ("Q1", "Q2", "QD1", "QD2")
        assert precond.N_BLOCK_PRESETS == ("Pn", "Dn", "Mn")
        assert verify.DEFAULT_VERIFY_PRESETS == (
            "P1", "P2", "P3", "P4", "PD1", "PD2", "PD3", "PD4",
            "Q1", "Q2", "QD1", "QD2", "Pn", "Dn")

    @pytest.mark.parametrize("name,sizes,n,want", PINNED_HYPOTHESES)
    def test_hypothesis_options_pinned(self, name, sizes, n, want):
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                verify.hypothesis_options(name, 0, sizes, n=n)
            return
        opts = verify.hypothesis_options(name, 0, sizes, n=n)
        assert (opts.sizes, opts.zero_tail, opts.zero_middle) == want

    @pytest.mark.parametrize("name", [p for p in precond.PRESET_NAMES
                                      if p not in precond.N_BLOCK_PRESETS])
    def test_three_block_preset_needs_three_sizes(self, name):
        with pytest.raises(ValueError, match="needs three sizes"):
            verify.build_preconditioned(name, 0, (6, 2))


class TestAnnihilationResidual:
    def test_identity_with_linear_factor(self):
        r = verify.annihilation_residual(np.eye(4), [(-1.0, 1.0)])
        assert r == 0.0

    def test_companion_cayley_hamilton(self):
        t = np.array([[0.0, 1.0], [1.0, 1.0]])
        r = verify.annihilation_residual(t, [(-1.0, -1.0, 1.0)])
        assert r < 1e-14

    def test_zero_tail_diagonal_preset(self):
        opts = blocks.SystemOptions(seed=81, sizes=(5, 4, 3), zero_tail=True)
        s = blocks.random_system(opts)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("PD1", s), blocks.assemble(s))
        r = verify.annihilation_residual(t, verify.predicted_polynomial("PD1"))
        assert r < 1e-9

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError):
            verify.annihilation_residual(np.eye(2), [])

    @pytest.mark.parametrize("coeffs,msg", [((1.0, 2.0, 0.0), "leading coefficient"),
                                            ((), "empty")], ids=["zero-lead", "empty"])
    def test_bad_coefficients_rejected(self, coeffs, msg):
        with pytest.raises(ValueError, match=msg):
            verify.annihilation_residual(np.eye(2), [(-1.0, 1.0), coeffs])


class TestSpectrumMembership:
    def test_exact_match(self):
        rep = verify.spectrum_membership([1.0, 1.0, 1.0], [complex(1.0)])
        assert rep.max_membership_distance == 0.0
        assert rep.min_real_part == 1.0

    def test_printed_roots_of_mixed_sign_diagonal(self):
        opts = blocks.SystemOptions(seed=82, sizes=(5, 4, 3), zero_tail=True)
        s = blocks.random_system(opts)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("PD2", s), blocks.assemble(s))
        eigs = dense.eigenvalues(t)
        printed = [complex(-0.618), complex(-0.2328, 0.7926),
                   complex(-0.2328, -0.7926), complex(1.0),
                   complex(1.4656), complex(1.618)]
        rep = verify.spectrum_membership(eigs, printed)
        assert rep.max_membership_distance < 1e-3

    def test_symmetric_spd_cosine_spectrum(self):
        target = [complex(2 * math.cos((2 * i - 1) / (2 * j + 1) * math.pi))
                  for j in (1, 2, 3) for i in range(1, j + 1)]
        opts = blocks.SystemOptions(seed=83, sizes=(6, 4, 3),
                                    zero_tail=True, symmetric_spd=True)
        s = blocks.random_system(opts)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("PD1", s), blocks.assemble(s))
        eigs = dense.eigenvalues(t)
        rep = verify.spectrum_membership(eigs, target)
        assert rep.max_membership_distance < 1e-8

    @staticmethod
    def loop_oracle(eigs, roots):
        # the per-eigenvalue Python loop: abs(complex), first minimum
        out = []
        for z in eigs:
            dists = [abs(complex(z) - complex(r)) for r in roots]
            j = dists.index(min(dists))
            out.append((complex(z), complex(roots[j]), dists[j]))
        return out

    def test_matches_the_loop_bitwise(self):
        # eigenvalues of real preconditioned operators, defective roots
        # included, against their predicted roots
        cases = []
        for preset, n in (("PD2", 3), ("Dn", 8), ("Pn", 6), ("QD2", 3), ("Mn", 5)):
            t, _, _ = verify.build_preconditioned(preset, 16, (9, 7, 5), n=n)
            cases.append((dense.eigenvalues(t), membership_roots(preset, n=n)))
        rng = np.random.default_rng(5)
        roots = membership_roots("QD2")
        near = [r + complex(*rng.normal(scale=1e-7, size=2)) for r in roots * 50]
        cases.append((near, roots))
        for eigs, roots in cases:
            got = verify.spectrum_membership(eigs, roots).membership
            assert repr(got) == repr(self.loop_oracle(eigs, roots))
            assert all(type(d) is float for _, _, d in got)

    def test_tie_and_conjugate_pair(self):
        rep = verify.spectrum_membership(
            [0.0, complex(0.5, 2.0), complex(0.5, -2.0)], [1.0, -1.0, 2j, -2j])
        assert rep.membership == self.loop_oracle(
            [0.0, complex(0.5, 2.0), complex(0.5, -2.0)], [1.0, -1.0, 2j, -2j])
        assert rep.membership[0] == (0j, complex(1.0), 1.0)   # first of the tie
        assert [r for _, r, _ in rep.membership[1:]] == [2j, -2j]
        assert rep.membership[1][2] == rep.membership[2][2]
        assert rep.min_real_part == 0.0

    def test_empty_eigenvalues(self):
        rep = verify.spectrum_membership([], [1.0, -1.0])
        assert rep.membership == [] and rep.min_real_part == math.inf
        assert rep.max_membership_distance == 0.0

    def test_empty_roots_rejected(self):
        with pytest.raises(ValueError, match="no predicted roots"):
            verify.spectrum_membership([1.0], [])


class TestRouthTable:
    def test_degree_one(self):
        t = verify.routh_table(verify.pbar_polynomials(1)[1])
        assert t.first_column == (1.0, -1.0)
        assert t.sign_changes == 1

    def test_degree_three_alternation(self):
        t = verify.routh_table(verify.pbar_polynomials(3)[3])
        assert t.first_column == (1.0, -1.0, 1.0, -1.0)
        assert t.sign_changes == 3

    def test_hurwitz_stable_quadratic(self):
        t = verify.routh_table((1.0, 1.0, 1.0))
        assert t.first_column == (1.0, 1.0, 1.0)
        assert t.sign_changes == 0

    def test_entry_rule_against_direct_evaluation(self):
        # x^4 - x^3 + 3x^2 - 2x + 1: rows checked against the 2x2 rule by hand
        t = verify.routh_table(verify.pbar_polynomials(4)[4])
        assert t.rows[0] == (1.0, 3.0, 1.0)
        assert t.rows[1] == (-1.0, -2.0, 0.0)
        assert t.rows[2] == (1.0, 1.0, 0.0)
        assert t.rows[3] == (-1.0, 0.0, 0.0)
        assert t.rows[4] == (1.0, 0.0, 0.0)

    def test_zero_first_column_raises(self):
        with pytest.raises(verify.ZeroFirstColumnError):
            verify.routh_table((1.0, 0.0, 1.0))  # x^2 + 1

    @pytest.mark.parametrize("coeffs,msg", [((1.0, 2.0, 0.0), "leading coefficient"),
                                            ((), "empty"), ((5.0,), "degree")],
                             ids=["zero-lead", "empty", "degree-0"])
    def test_bad_coefficients_rejected(self, coeffs, msg):
        with pytest.raises(ValueError, match=msg):
            verify.routh_table(coeffs)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_alternating_unit_column(self, k):
        t = verify.routh_table(verify.pbar_polynomials(k)[k])
        assert len(t.first_column) == k + 1
        for i, v in enumerate(t.first_column):
            assert abs(v - (-1.0) ** i) <= 1e-10
        assert t.sign_changes == k


class TestCoefficientLaw:
    def test_k3(self):
        assert verify.coefficient_law_check(3)
        assert verify.pbar_polynomials(3)[3] == (-1.0, 2.0, -1.0, 1.0)

    def test_k4_expansion(self):
        assert verify.pbar_polynomials(4)[4] == (1.0, -2.0, 3.0, -1.0, 1.0)
        assert verify.coefficient_law_check(4)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_range(self, k):
        assert verify.coefficient_law_check(k)

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify.coefficient_law_check(2)


def record_draws(monkeypatch):
    """List that grows by the options of each ``verify.random_system`` call."""
    draws = []
    real = verify.random_system
    monkeypatch.setattr(verify, "random_system",
                        lambda opts: draws.append(opts) or real(opts))
    return draws


class TestSuite:
    @pytest.mark.parametrize("preset", verify.DEFAULT_VERIFY_PRESETS)
    def test_default_presets_pass(self, preset):
        row = verify.verify_preset(preset, 7, (4, 3, 2))
        assert row.passed, row

    @pytest.mark.parametrize("preset,seed", [
        (p, s) for p in ("P1", "PD3", "Q1", "QD2") for s in range(8)
    ])
    def test_stable_presets_many_seeds(self, preset, seed):
        row = verify.verify_preset(preset, seed, (5, 4, 2))
        assert row.passed and row.min_real_part > verify.STABILITY_MARGIN

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_tail_alternating_diagonal_membership(self, n):
        row = verify.verify_preset("Dn", 5, (6, 4, 3), n=n)
        assert row.passed
        assert row.max_membership_distance <= verify.MEMBERSHIP_TOL_COMPUTED
        assert row.min_real_part > verify.STABILITY_MARGIN

    @pytest.mark.parametrize("preset,seed,n", [("Pn", 6, 7), ("QD1", 16, 3)])
    def test_rows_that_once_exhausted_the_qr_budget(self, preset, seed, n):
        # a hand-written Francis QR raised EigenConvergenceError on these
        row = verify.verify_preset(preset, seed, (9, 7, 5), n=n)
        assert row.passed, row

    def test_plus_diagonal_family_unstable_witness(self):
        hits = []
        for n in range(2, 9):
            row = verify.verify_preset("Mn", 5, (6, 4, 3), n=n)
            assert row.max_membership_distance <= verify.MEMBERSHIP_TOL_COMPUTED
            hits.append(row.min_real_part <= 0.0)
        assert any(hits)

    def test_ldu_rows(self):
        rows = verify.verify_ldu(9, (4, 3, 2))
        assert len(rows) == 7
        assert all(r.passed for r in rows)

    def test_routh_rows(self):
        rows = verify.verify_routh()
        assert len(rows) == 12
        assert all(r.passed for r in rows)

    def test_generated_systems_pinned(self, monkeypatch):
        # sha256 of the blocks of the system each row of
        # run_suite(0, (9, 7, 5), n_sweep=8) assembles, in row order: 33
        # preset rows and 7 LDU rows.  Recorded with the hand-written pivoted
        # LU, when every row drew its own system; a flipped accept/reject
        # decision of the generation gate changes it.  The 40 rows share 16
        # distinct systems, and each is drawn once.
        h = hashlib.sha256()
        consumed = []

        def hashing(real, system_of):
            def wrapper(x):
                s = system_of(x)
                consumed.append(s)
                for a in s.diag + s.upper + s.lower:
                    h.update(a.tobytes())
                return real(x)
            return wrapper

        monkeypatch.setattr(verify, "assemble", hashing(verify.assemble, lambda s: s))
        monkeypatch.setattr(verify, "assemble_arrowhead",
                            hashing(verify.assemble_arrowhead, lambda a: a.system))
        draws = record_draws(monkeypatch)
        rows = verify.run_suite(0, (9, 7, 5), n_sweep=8)
        assert len(consumed) == 40 and all(r.passed for r in rows)
        assert len(draws) == len(set(draws)) == 16
        assert len({id(s) for s in consumed}) == 16
        assert h.hexdigest() == (
            "b7a8048536d5e31722c1a1e642619358aa1a581c20c06a2baf6a6e3bd6dbcc6a")

    def test_default_suite_draws_each_system_once(self, monkeypatch):
        # 14 preset rows and 7 LDU rows read 9 distinct systems: P1-P4, Q1,
        # Q2, Pn(3) and the n=3 LDU row share one
        draws = record_draws(monkeypatch)
        verify.run_suite(7, (4, 3, 2))
        assert len(draws) == len(set(draws)) == 9

    def test_draws_are_shared_within_one_call_only(self, monkeypatch):
        draws = record_draws(monkeypatch)
        first, second = (verify.report_csv_rows(
            verify.run_suite(3, (4, 3, 2), presets=("P1", "P2"))) for _ in range(2))
        assert first == second
        # each call draws its own (4, 3, 2) system and the six other LDU ones
        assert len(draws) == 14 and len(set(draws)) == 7

    @pytest.mark.parametrize("n_sweep", [0, 1])
    def test_sweep_below_two_rejected(self, n_sweep):
        # range(2, n_sweep + 1) is empty: the n-block rows would vanish
        with pytest.raises(ValueError, match="n_sweep must be at least 2"):
            verify.run_suite(0, (9, 7, 5), n_sweep=n_sweep)

    def test_empty_preset_selection_rejected(self):
        with pytest.raises(ValueError, match="empty preset selection"):
            verify.run_suite(0, (9, 7, 5), presets=())

    @pytest.mark.parametrize("n", [0, 1, -1])
    @pytest.mark.parametrize("check", [
        lambda n: verify.hypothesis_options("Pn", 0, (4, 3, 2), n=n),
        lambda n: verify.verify_preset("Dn", 0, (4, 3, 2), n=n),
        lambda n: verify.predicted_polynomial("Mn", n=n),
    ], ids=["hypothesis_options", "verify_preset", "predicted_polynomial"])
    def test_n_block_row_needs_n_of_at_least_two(self, check, n):
        # n=0 once meant "not given" and gave a 3-block row or an empty product
        with pytest.raises(ValueError, match=f"n={n}"):
            check(n)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
    def test_n_block_row_needs_integer_n(self, n):
        with pytest.raises(ValueError, match="integer block count"):
            verify.block_count("Pn", n, (4, 3, 2))

    def test_block_count_rule(self):
        assert verify.block_count("P1", 7, (6, 2)) == 3
        assert verify.block_count("Q2") == 3
        assert verify.block_count("Pn", np.int64(5)) == 5
        assert verify.block_count("Dn", None, (9, 7, 5, 3)) == 4
        with pytest.raises(ValueError, match="n=None"):
            verify.block_count("Mn")

    @pytest.mark.parametrize("n_sweep", [None, 8])
    def test_rows_follow_the_walk(self, monkeypatch, n_sweep):
        # run_suite's preset and LDU rows are the walk's rows in its order,
        # each consuming the system of the walk's options
        walk = list(verify.suite_rows(0, (9, 7, 5), n_sweep=n_sweep))
        opts_of, consumed = {}, []
        real = verify.random_system

        def drawing(opts):
            s = real(opts)
            opts_of[id(s)] = opts
            return s
        def consuming(real, system_of):
            return lambda x: consumed.append(opts_of[id(system_of(x))]) or real(x)

        monkeypatch.setattr(verify, "random_system", drawing)
        monkeypatch.setattr(verify, "assemble", consuming(verify.assemble, lambda s: s))
        monkeypatch.setattr(verify, "assemble_arrowhead",
                            consuming(verify.assemble_arrowhead, lambda a: a.system))
        rows = [r for r in verify.run_suite(0, (9, 7, 5), n_sweep=n_sweep)
                if r.kind != "routh"]
        assert [(r.kind, r.name) for r in rows] == [
            ("ldu", f"n={n}") if preset is None
            else ("preset", f"{preset}(n={n})" if preset in precond.N_BLOCK_PRESETS
                  else preset)
            for preset, n, _ in walk]
        assert consumed == [opts for _, _, opts in walk]
        assert len(walk) == (21 if n_sweep is None else 40)

    def test_walk_is_lazy(self, monkeypatch):
        calls = []
        real = verify.hypothesis_options
        monkeypatch.setattr(verify, "hypothesis_options",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        first = next(verify.suite_rows(0, (9, 7, 5), n_sweep=2000))
        assert first == ("P1", 3, blocks.SystemOptions(seed=0, sizes=(9, 7, 5)))
        assert len(calls) == 1

    def test_row_label_and_system_agree_without_n(self):
        # an n-block preset called without n has len(sizes) blocks everywhere
        _, system, _ = verify.build_preconditioned("Pn", 0, (6, 2))
        row = verify.verify_preset("Pn", 0, (6, 2))
        assert system.n == 2 and row.name == "Pn(n=2)" and row.passed
        _, report = verify.row_spectrum("Pn", 0, (6, 2))
        assert len(report.membership) == 8

    def test_report_csv_shape(self):
        rows = verify.run_suite(7, (4, 3, 2))
        lines = verify.report_csv_rows(rows)
        presets = [ln for ln in lines if ln.startswith("preset,")]
        assert len(presets) == 14
        assert lines[0].startswith("kind,name,seed")
