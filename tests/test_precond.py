import numpy as np
import pytest

from schurkit import biot, blocks, dense, precond, verify


def scalar_threeblock():
    return blocks.BlockTridiagonalSystem(
        diag=([[1.0]], [[1.0]], [[1.0]]),
        upper=([[1.0]], [[1.0]]),
        lower=([[1.0]], [[1.0]]),
    )


def schur_blocks(sys):
    """S_1 .. S_n of the nested Schur chain."""
    return [s for s, _ in blocks.schur_steps(sys)]


def assemble_preconditioner_dense(name, sys, chain):
    """Assemble the preconditioner itself as a dense matrix (oracle)."""
    family, dsign = precond.preset_pattern(name, n=sys.n)
    gsign = precond.epsilon_signs(dsign)[:-1]
    sizes = sys.sizes
    offs = np.concatenate(([0], np.cumsum(sizes)))
    m = np.zeros((offs[-1], offs[-1]))
    for i in range(sys.n):
        m[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = dsign[i] * chain[i]
    if family == "triangular":
        for i in range(sys.n - 1):
            m[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = (
                gsign[i] * sys.lower[i])
    return m


class TestNestedChain:
    def test_scalar_recursion(self):
        chain = schur_blocks(scalar_threeblock())
        assert [b.item() for b in chain] == [1.0, 2.0, 1.5]

    def test_zero_tail_identity(self):
        k = 3
        eye = np.eye(k)
        sys3 = blocks.BlockTridiagonalSystem(
            diag=(eye, np.zeros((k, k)), np.zeros((k, k))),
            upper=(eye, eye), lower=(eye, eye))
        chain = schur_blocks(sys3)
        assert np.allclose(chain[1], eye, atol=1e-15)
        assert np.allclose(chain[2], eye, atol=1e-15)

    def test_against_explicit_inverse_oracle(self):
        opts = blocks.SystemOptions(seed=41, sizes=(2, 2, 2))
        s = blocks.random_system(opts)
        a1 = s.diag[0]
        det = a1[0, 0] * a1[1, 1] - a1[0, 1] * a1[1, 0]
        inv = np.array([[a1[1, 1], -a1[0, 1]], [-a1[1, 0], a1[0, 0]]]) / det
        s2 = s.diag[1] + s.lower[0] @ inv @ s.upper[0]
        chain = schur_blocks(s)
        assert np.abs(chain[1] - s2).max() < 1e-13

    def test_singular_schur_index(self):
        sys3 = blocks.BlockTridiagonalSystem(
            diag=([[0.0]], [[1.0]], [[1.0]]),
            upper=([[1.0]], [[1.0]]), lower=([[1.0]], [[1.0]]))
        with pytest.raises(precond.SingularSchurError) as exc:
            schur_blocks(sys3)
        assert exc.value.index == 1


class TestAdditiveSchur:
    def test_scalar_sum(self):
        sys3 = blocks.BlockTridiagonalSystem(
            diag=([[1.0]], [[0.0]], [[1.0]]),
            upper=([[1.0]], [[1.0]]), lower=([[1.0]], [[1.0]]))
        arrow = blocks.ArrowheadSystem(sys3)
        assert precond.additive_schur(arrow).schur.item() == 2.0

    def test_zero_borders_returns_corner(self):
        eye = np.eye(2)
        z = np.zeros((2, 2))
        sys3 = blocks.BlockTridiagonalSystem(
            diag=(eye, eye, eye), upper=(z, z), lower=(z, z))
        arrow = blocks.ArrowheadSystem(sys3)
        assert np.array_equal(precond.additive_schur(arrow).schur, eye)

    def test_against_dense_inverse_oracle(self):
        opts = blocks.SystemOptions(seed=42, sizes=(4, 3, 2))
        s = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(s)
        ad = precond.additive_schur(arrow)
        oracle = (s.diag[1]
                  + s.lower[0] @ np.linalg.inv(s.diag[0]) @ s.upper[0]
                  + s.upper[1] @ np.linalg.inv(s.diag[2]) @ s.lower[1])
        assert np.abs(ad.schur - oracle).max() < 1e-12

    def test_singular_leading_block(self):
        # A_1 is leading block 1 and A_3 leading block 2
        for diag, index in ((([[0.0]], [[1.0]], [[1.0]]), 1),
                            (([[1.0]], [[1.0]], [[0.0]]), 2)):
            sys3 = blocks.BlockTridiagonalSystem(
                diag=diag, upper=([[1.0]], [[1.0]]), lower=([[1.0]], [[1.0]]))
            with pytest.raises(precond.SingularLeadingBlockError) as exc:
                precond.additive_schur(blocks.ArrowheadSystem(sys3))
            assert exc.value.index == index


class TestAdditiveBuild:
    """A Q preset reads A_1's factor from the nested chain and solves its
    leading rows without a nested preconditioner."""

    @pytest.mark.parametrize("name", precond.ADDITIVE_PRESETS)
    def test_factors_only_a3_and_schur(self, monkeypatch, name):
        opts = verify.hypothesis_options(name, seed=0, sizes=(9, 7, 5))
        arrow = blocks.ArrowheadSystem(blocks.random_system(opts))
        calls = []
        real = dense.lu_factor

        def counting(a):
            calls.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(dense, "lu_factor", counting)
        precond.make_preconditioner(name, arrow)
        _, m2, m3 = arrow.system.sizes
        assert calls == [(m3, m3), (m2, m2)]

    @pytest.mark.parametrize("name", precond.ADDITIVE_PRESETS)
    def test_apply_enters_one_preconditioner(self, monkeypatch, name):
        # wrapped at the class before the build, as a tracer wraps them
        entered = []
        for cls in (precond.BlockDiagonalPreconditioner,
                    precond.BlockTriangularPreconditioner):
            def counting(self, v, _orig=cls.__dict__["apply"]):
                entered.append(type(self).__name__)
                return _orig(self, v)
            monkeypatch.setattr(cls, "apply", counting)
        s = blocks.random_system(blocks.SystemOptions(seed=49, sizes=(4, 3, 2)))
        p = precond.make_preconditioner(name, blocks.ArrowheadSystem(s))
        p.apply(np.ones(p.dim))
        assert entered == [type(p).__name__]


class TestMakePreconditioner:
    def test_p1_forward_substitution_example(self):
        sys3 = scalar_threeblock()
        p = precond.make_preconditioner("P1", sys3)
        y = p.apply(np.array([1.0, 0.0, 0.0]))
        # forward substitution on [[1,0,0],[1,-2,0],[0,1,1.5]]
        assert np.allclose(y, [1.0, 0.5, -1.0 / 3.0], atol=1e-15)

    def test_dn_single_block_is_plain_solve(self):
        f = dense.lu_factor(np.array([[4.0]]))
        p = precond.make_preconditioner(
            "Dn", sizes=(1,), solves=[lambda v: dense.lu_solve(f, v)])
        assert p.apply(np.array([8.0])) == pytest.approx([2.0])

    def test_qd1_zero_borders_is_blockdiag_solve(self):
        z = np.zeros((1, 1))
        sys3 = blocks.BlockTridiagonalSystem(
            diag=([[2.0]], [[8.0]], [[4.0]]), upper=(z, z), lower=(z, z))
        p = precond.make_preconditioner("QD1", blocks.ArrowheadSystem(sys3))
        # S = A_2 = 8; QD1 solves diag(A_1, A_3, S) in the order (x1, x3, x2)
        y = p.apply(np.array([2.0, 4.0, 8.0]))
        assert np.allclose(y, [1.0, 1.0, 1.0], atol=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(precond.UnknownPresetError):
            precond.make_preconditioner("BOGUS", scalar_threeblock())

    def test_missing_solver(self):
        with pytest.raises(precond.MissingSolverError) as exc:
            precond.BlockDiagonalPreconditioner(
                (1, 1), [lambda v: v, None], (1, 1))
        assert exc.value.index == 2

    @pytest.mark.parametrize("solves", [None, [], [lambda v: v]])
    def test_too_few_solvers_name_the_first_missing_block(self, solves):
        with pytest.raises(precond.MissingSolverError) as exc:
            precond.BlockDiagonalPreconditioner((1, 1, 1), solves, (1, 1, 1))
        assert exc.value.index == (len(solves) if solves else 0) + 1

    def test_too_many_solvers(self):
        with pytest.raises(ValueError, match="3 block solves expected, 4 given") as exc:
            precond.BlockTriangularPreconditioner(
                (1, 1, 1), [lambda v: v] * 4, (1, 1, 1), [lambda v: v] * 2)
        assert not isinstance(exc.value, precond.MissingSolverError)

    @pytest.mark.parametrize("name", ["Dn", "Mn", "Pn", "P1", "PD3"])
    def test_nested_preset_rejects_arrowhead(self, name):
        s = blocks.random_system(blocks.SystemOptions(seed=1, sizes=(3, 2, 2)))
        arrow = blocks.ArrowheadSystem(s)
        with pytest.raises(TypeError, match=f"{name} needs a block-tridiagonal"):
            precond.make_preconditioner(name, arrow)

    def test_three_block_preset_rejects_other_n(self):
        opts = blocks.SystemOptions(seed=1, sizes=(2, 2, 2, 2))
        s = blocks.random_system(opts)
        with pytest.raises(precond.UnknownPresetError):
            precond.make_preconditioner("P1", s)


class TestApply:
    @pytest.mark.parametrize("shape", [(10, 2), (8,), (9, 2, 2)])
    def test_exact_apply_rejects_bad_shape(self, shape):
        s = blocks.random_system(blocks.SystemOptions(seed=52, sizes=(4, 3, 2)))
        p = precond.make_preconditioner("P1", s)
        with pytest.raises(ValueError):
            p.apply(np.ones(shape))

    def test_ic_backed_apply_is_vector_only(self):
        *_, pres = next(biot.biot_rows([4], [1e-3]))
        for p in pres.by_name.values():
            with pytest.raises(ValueError):
                p.apply(np.ones((p.dim, 2)))

    def test_pd3_scalar_chain(self):
        p = precond.make_preconditioner("PD3", scalar_threeblock())
        y = p.apply(np.ones(3))
        assert np.allclose(y, [1.0, -0.5, 2.0 / 3.0], atol=1e-15)

    @pytest.mark.parametrize("name", precond.NESTED_PRESETS[:8])
    def test_exact_apply_matches_dense_inverse(self, name):
        opts = blocks.SystemOptions(seed=43, sizes=(4, 3, 2),
                                    zero_tail=name.startswith("PD"))
        s = blocks.random_system(opts)
        chain = schur_blocks(s)
        p = precond.make_preconditioner(name, s)
        pm = assemble_preconditioner_dense(name, s, chain)
        rng = np.random.default_rng(44)
        v = rng.uniform(-1.0, 1.0, p.dim)
        oracle = np.linalg.solve(pm, v)
        got = p.apply(v)
        assert np.abs(got - oracle).max() <= 1e-11 * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize("name,schur_sign", [
        ("Q1", -1), ("Q2", 1), ("QD1", 1), ("QD2", -1)])
    def test_additive_apply_matches_dense_inverse(self, name, schur_sign):
        opts = blocks.SystemOptions(seed=49, sizes=(4, 3, 2))
        s = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(s)
        ad = precond.additive_schur(arrow)
        p = precond.make_preconditioner(name, arrow)
        na = 4 + 2
        pm = np.zeros((9, 9))
        pm[:4, :4] = arrow.leading[0]
        pm[4:na, 4:na] = arrow.leading[1]
        pm[na:, na:] = schur_sign * ad.schur
        if name in ("Q1", "Q2"):
            pm[na:, :4] = arrow.border_rows[0]
            pm[na:, 4:na] = arrow.border_rows[1]
        rng = np.random.default_rng(50)
        v = rng.uniform(-1.0, 1.0, 9)
        oracle = np.linalg.solve(pm, v)
        assert np.abs(p.apply(v) - oracle).max() <= 1e-11 * max(
            1.0, np.abs(oracle).max())


class TestPreconditionedMatrix:
    def test_p1_structure(self):
        opts = blocks.SystemOptions(seed=45, sizes=(4, 3, 2))
        s = blocks.random_system(opts)
        chain = schur_blocks(s)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("P1", s), blocks.assemble(s))
        rel = np.abs(t).max()
        # unit diagonal blocks, vanishing strictly-lower blocks
        assert np.abs(t[:4, :4] - np.eye(4)).max() <= 1e-11 * rel
        assert np.abs(t[4:7, 4:7] - np.eye(3)).max() <= 1e-11 * rel
        assert np.abs(t[7:, 7:] - np.eye(2)).max() <= 1e-11 * rel
        assert np.abs(t[4:, :4]).max() <= 1e-11 * rel
        assert np.abs(t[7:, 4:7]).max() <= 1e-11 * rel
        b12 = np.linalg.solve(s.diag[0], np.asarray(s.upper[0]))
        b23 = -np.linalg.solve(chain[1], np.asarray(s.upper[1]))
        assert np.abs(t[:4, 4:7] - b12).max() <= 1e-11 * rel
        assert np.abs(t[4:7, 7:] - b23).max() <= 1e-11 * rel

    def test_full_lu_preconditioner_gives_identity(self):
        opts = blocks.SystemOptions(seed=46, sizes=(3, 2, 2))
        s = blocks.random_system(opts)
        a = blocks.assemble(s)
        f = dense.lu_factor(a)
        p = precond.BlockDiagonalPreconditioner(
            (a.shape[0],), [lambda v: dense.lu_solve(f, v)], (1,))
        t = precond.preconditioned_matrix(p, a)
        assert np.abs(t - np.eye(a.shape[0])).max() < 1e-11

    def test_q1_upper_triangular_with_identity_diagonal(self):
        opts = blocks.SystemOptions(seed=47, sizes=(4, 3, 2))
        s = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(s)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("Q1", arrow), blocks.assemble_arrowhead(arrow))
        na = 4 + 2
        rel = np.abs(t).max()
        assert np.abs(t[na:, :na]).max() <= 1e-11 * rel
        assert np.abs(np.diag(t) - 1.0).max() <= 1e-11 * rel

    @pytest.mark.parametrize("name,n", [(name, 3) for name in (
        "P1", "P2", "P3", "P4", "PD1", "PD2", "PD3", "PD4",
        "Q1", "Q2", "QD1", "QD2")] + [
        (name, n) for name in ("Pn", "Dn", "Mn") for n in range(2, 6)])
    def test_block_apply_matches_columns(self, name, n):
        s = blocks.random_system(
            verify.hypothesis_options(name, seed=51, sizes=(5, 4, 3), n=n))
        if name in precond.ADDITIVE_PRESETS:
            s = blocks.ArrowheadSystem(s)
            a = blocks.assemble_arrowhead(s)
        else:
            a = blocks.assemble(s)
        p = precond.make_preconditioner(name, s)
        got = precond.preconditioned_matrix(p, a)
        ref = np.column_stack([p.apply(a[:, j]) for j in range(a.shape[1])])
        # BLAS rounds a block product differently from its columns
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_size_guard(self):
        p = precond.BlockDiagonalPreconditioner(
            (dense.DESK_SIZE_LIMIT + 1,), [lambda v: v], (1,))
        with pytest.raises(ValueError):
            precond.preconditioned_matrix(
                p, np.eye(dense.DESK_SIZE_LIMIT + 1))


class TestLdu:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstruction(self, n):
        sizes = tuple(((5, 3, 4, 2) * 2)[:n])
        opts = blocks.SystemOptions(seed=48 + n, sizes=sizes)
        s = blocks.random_system(opts)
        a = blocks.assemble(s)
        l, d, u = precond.build_ldu(s)
        err = np.linalg.norm(l @ d @ u - a) / np.linalg.norm(a)
        assert err <= 1e-11
        # structure: unit triangular factors, block-diagonal middle
        assert np.abs(np.diag(l) - 1.0).max() == 0.0
        assert np.abs(np.diag(u) - 1.0).max() == 0.0
        assert np.abs(np.triu(l, 1)).max() == 0.0
        assert np.abs(np.tril(u, -1)).max() == 0.0


class TestAnnihilationStructure:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_pn_nilpotency(self, n):
        sizes = tuple(((4, 3, 5, 2) * 2)[:n])
        opts = blocks.SystemOptions(seed=60 + n, sizes=sizes)
        s = blocks.random_system(opts)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("Pn", s), blocks.assemble(s))
        factors = verify.predicted_polynomial("Pn", n=n)
        assert verify.annihilation_residual(t, factors) <= 1e-9

    def test_q2_two_sided_factorization(self):
        opts = blocks.SystemOptions(seed=70, sizes=(4, 3, 2))
        s = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(s)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("Q2", arrow), blocks.assemble_arrowhead(arrow))
        eye = np.eye(t.shape[0])
        resid = np.linalg.norm((t - eye) @ (t + eye))
        assert resid / (1.0 + np.linalg.norm(t)) ** 2 <= 1e-11
