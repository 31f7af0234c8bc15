import dataclasses
import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from schurkit import blocks, dense, precond


def scalar_threeblock():
    return blocks.BlockTridiagonalSystem(
        diag=([[1.0]], [[1.0]], [[1.0]]),
        upper=([[1.0]], [[1.0]]),
        lower=([[1.0]], [[1.0]]),
    )


def oracle_assemble(sys):
    """Independent index-arithmetic builder for the tridiagonal form."""
    sizes = sys.sizes
    tot = sum(sizes)
    m = np.zeros((tot, tot))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    for bi in range(sys.n):
        a = sys.diag[bi]
        sgn = 1.0 if bi % 2 == 0 else -1.0
        for r in range(sizes[bi]):
            for c in range(sizes[bi]):
                m[starts[bi] + r][starts[bi] + c] = sgn * a[r, c]
    for bi in range(sys.n - 1):
        bt = sys.upper[bi]
        cc = sys.lower[bi]
        for r in range(sizes[bi]):
            for c in range(sizes[bi + 1]):
                m[starts[bi] + r][starts[bi + 1] + c] = bt[r, c]
        for r in range(sizes[bi + 1]):
            for c in range(sizes[bi]):
                m[starts[bi + 1] + r][starts[bi] + c] = cc[r, c]
    return m


class TestAssemble:
    def test_two_block_sign_convention(self):
        sys2 = blocks.BlockTridiagonalSystem(
            diag=([[1.0]], [[1.0]]), upper=([[1.0]],), lower=([[1.0]],))
        assert np.array_equal(blocks.assemble(sys2),
                              [[1.0, 1.0], [1.0, -1.0]])

    def test_three_block_ones(self):
        a = blocks.assemble(scalar_threeblock())
        assert np.array_equal(a, [[1, 1, 0], [1, -1, 1], [0, 1, 1]])

    def test_matches_index_oracle(self):
        opts = blocks.SystemOptions(seed=21, sizes=(3, 4, 2, 5))
        sys4 = blocks.random_system(opts)
        assert np.array_equal(blocks.assemble(sys4), oracle_assemble(sys4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blocks.BlockTridiagonalSystem(
                diag=([[1.0]], [[1.0]]),
                upper=(np.ones((1, 2)),), lower=(np.ones((1, 1)),))


class TestPermuteThreeblock:
    def test_scalar_example(self):
        arrow = blocks.ArrowheadSystem(scalar_threeblock())
        m = blocks.assemble_arrowhead(arrow)
        assert np.array_equal(m, [[1, 0, 1], [0, 1, 1], [1, 1, -1]])
        assert list(arrow.perm) == [0, 2, 1]

    def test_permutation_commutes_bitwise(self):
        opts = blocks.SystemOptions(seed=22, sizes=(4, 3, 2))
        sys3 = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(sys3)
        perm = arrow.perm
        a = blocks.assemble(sys3)
        assert np.array_equal(a[perm][:, perm], blocks.assemble_arrowhead(arrow))

    def test_involution(self):
        opts = blocks.SystemOptions(seed=23, sizes=(2, 5, 3))
        sys3 = blocks.random_system(opts)
        arrow = blocks.ArrowheadSystem(sys3)
        m = blocks.assemble_arrowhead(arrow)
        inv = np.empty_like(arrow.perm)
        inv[arrow.perm] = np.arange(arrow.perm.size)
        assert np.array_equal(m[inv][:, inv], blocks.assemble(sys3))

    def test_view_reads_the_three_block_system(self):
        sys3 = blocks.random_system(blocks.SystemOptions(seed=25, sizes=(2, 3, 4)))
        arrow = blocks.ArrowheadSystem(sys3)
        assert [f.name for f in dataclasses.fields(arrow)] == ["system"]
        assert arrow.system is sys3
        assert arrow.leading[0] is sys3.diag[0] and arrow.leading[1] is sys3.diag[2]
        assert arrow.corner is sys3.diag[1]
        assert arrow.leading_sizes == (2, 4) and arrow.sizes == (6, 3)

    def test_wrong_block_count(self):
        opts = blocks.SystemOptions(seed=1, sizes=(2, 2))
        with pytest.raises(ValueError):
            blocks.ArrowheadSystem(blocks.random_system(opts))


class TestAssembleArrowhead:
    def test_two_leading_identity_blocks(self):
        sys3 = blocks.BlockTridiagonalSystem(
            diag=([[1.0]], [[0.0]], [[1.0]]),
            upper=([[1.0]], [[1.0]]), lower=([[1.0]], [[1.0]]))
        m = blocks.assemble_arrowhead(blocks.ArrowheadSystem(sys3))
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert np.array_equal(m, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(24)
        m1, m2, m3 = 3, 2, 4
        sys3 = blocks.BlockTridiagonalSystem(
            diag=tuple(rng.uniform(-1, 1, (s, s)) for s in (m1, m2, m3)),
            upper=(rng.uniform(-1, 1, (m1, m2)), rng.uniform(-1, 1, (m2, m3))),
            lower=(rng.uniform(-1, 1, (m2, m1)), rng.uniform(-1, 1, (m3, m2))))
        m = blocks.assemble_arrowhead(blocks.ArrowheadSystem(sys3))
        # leading A1, A3 with plus signs, corner -A2, borders (C1, B2^T)
        # below and (B1^T, C2) to the right
        a1, a2, a3 = sys3.diag
        leading = ((0, a1, sys3.lower[0], sys3.upper[0]),
                   (m1, a3, sys3.upper[1], sys3.lower[1]))
        c0 = m1 + m3
        expect = np.zeros((9, 9))
        for start, a, row, col in leading:
            for r in range(a.shape[0]):
                for c in range(a.shape[0]):
                    expect[start + r][start + c] = a[r, c]
            for r in range(m2):
                for c in range(a.shape[0]):
                    expect[c0 + r][start + c] = row[r, c]
                    expect[start + c][c0 + r] = col[c, r]
        for r in range(m2):
            for c in range(m2):
                expect[c0 + r][c0 + c] = -a2[r, c]
        assert np.array_equal(m, expect)


class TestRandomSystem:
    def test_zero_tail_flag(self):
        opts = blocks.SystemOptions(seed=3, sizes=(4, 3, 2), zero_tail=True)
        s = blocks.random_system(opts)
        assert np.abs(s.diag[1]).max() == 0.0
        assert np.abs(s.diag[2]).max() == 0.0
        assert np.abs(s.diag[0]).max() > 0.0

    def test_symmetric_spd_flag(self):
        from schurkit import dense
        opts = blocks.SystemOptions(seed=4, sizes=(4, 3, 2), symmetric_spd=True)
        s = blocks.random_system(opts)
        for a, bt, c in zip(s.diag, s.upper, s.lower):
            assert np.array_equal(a, a.T)
            assert np.array_equal(c, bt.T)
            assert min(z.real for z in dense.eigenvalues(a)) > 0.0

    def test_zero_middle_flag(self):
        opts = blocks.SystemOptions(seed=5, sizes=(4, 3, 2), zero_middle=True)
        s = blocks.random_system(opts)
        assert np.abs(s.diag[1]).max() == 0.0
        assert np.abs(s.diag[2]).max() > 0.0

    def test_determinism(self):
        a = blocks.random_system(blocks.SystemOptions(seed=9, sizes=(3, 3)))
        b = blocks.random_system(blocks.SystemOptions(seed=9, sizes=(3, 3)))
        assert np.array_equal(blocks.assemble(a), blocks.assemble(b))

    def test_negative_seed_rejected(self):
        # numpy's generator would reject it only once generation starts
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            blocks.SystemOptions(seed=-1, sizes=(2, 2))

    def test_zero_tail_needs_nonincreasing_sizes(self):
        with pytest.raises(ValueError):
            blocks.SystemOptions(seed=0, sizes=(2, 3), zero_tail=True)

    def test_frozen_blocks(self):
        s = blocks.random_system(blocks.SystemOptions(seed=0, sizes=(2, 2)))
        with pytest.raises(ValueError):
            s.diag[0][0, 0] = 99.0

    @pytest.mark.parametrize("flags", [{}, {"zero_tail": True}, {"symmetric_spd": True},
                                       {"zero_middle": True}])
    def test_every_drawn_block_is_read_only(self, flags):
        # a draw's blocks are sealed in place; symmetric_spd's lower blocks
        # may be views of the upper ones, and they are sealed too
        s = blocks.random_system(blocks.SystemOptions(seed=12, sizes=(5, 4, 3), **flags))
        for a in s.diag + s.upper + s.lower:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 99.0
        if flags.get("symmetric_spd"):
            for bt, c in zip(s.upper, s.lower):
                assert np.array_equal(c, bt.T)

    @pytest.mark.parametrize("seed,sizes,field", [
        (2.7, (4, 3, 2), "seed"),
        (float("nan"), (4, 3, 2), "seed"),
        (float("inf"), (4, 3, 2), "seed"),
        ("3", (4, 3, 2), "seed"),
        (2, (4.9, 3.2, 2), "sizes"),
        (2, (4, float("nan"), 2), "sizes"),
        (2, (4, 3, None), "sizes"),
    ])
    def test_fractional_or_nan_options_rejected(self, seed, sizes, field):
        # int() used to truncate them: seed=2.7, sizes=(4.9, 3.2, 2) drew
        # the seed-2 (4, 3, 2) system, and a NaN seed failed inside numpy
        with pytest.raises(ValueError, match=f"^{field}: expected a whole number"):
            blocks.SystemOptions(seed=seed, sizes=sizes)

    def test_whole_number_options_are_canonical(self):
        # run_suite shares a draw per distinct options, so equal options
        # must compare and hash equal whatever numeric type they came in
        plain = blocks.SystemOptions(seed=2, sizes=(4, 3, 2))
        for other in (blocks.SystemOptions(seed=2.0, sizes=[4.0, np.int64(3), 2]),
                      blocks.SystemOptions(seed=np.int32(2), sizes=np.array([4, 3, 2]))):
            assert other == plain and hash(other) == hash(plain)
            assert type(other.seed) is int and all(type(s) is int for s in other.sizes)


class TestCallerArrays:
    def test_system_is_unchanged_when_caller_arrays_change(self):
        # the public constructor copies: a caller's writable array never
        # ends up inside a system, nor under a Schur step it keeps
        rng = np.random.default_rng(51)
        diag = [rng.uniform(-1, 1, (s, s)) + s * np.eye(s) for s in (4, 3, 2)]
        upper = [rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 2))]
        lower = [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 3))]
        sys = blocks.BlockTridiagonalSystem(diag=tuple(diag), upper=tuple(upper),
                                            lower=tuple(lower))
        before = [a.copy() for a in sys.diag + sys.upper + sys.lower]
        steps = [(s.copy(), f.inv.copy()) for s, f in blocks.schur_steps(sys)]
        for a in diag + upper + lower:
            assert a.flags.writeable
            a[...] = 7.0
        for a, b in zip(sys.diag + sys.upper + sys.lower, before):
            assert np.array_equal(a, b) and not a.flags.writeable
        for (s, f), (s0, inv0) in zip(blocks.schur_steps(sys), steps):
            assert np.array_equal(s, s0) and np.array_equal(f.inv, inv0)
        fresh = blocks.BlockTridiagonalSystem(
            diag=tuple(before[:3]), upper=tuple(before[3:5]), lower=tuple(before[5:]))
        for (s, _), (s1, _) in zip(blocks.schur_steps(sys), blocks.schur_steps(fresh)):
            assert np.array_equal(s, s1)

    def test_caller_read_only_arrays_are_copied_too(self):
        # a read-only array is no promise: its owner can make it writable again
        a = np.eye(2)
        a.setflags(write=False)
        sys = blocks.BlockTridiagonalSystem(diag=(a, a), upper=(a,), lower=(a,))
        assert all(not np.shares_memory(b, a) for b in sys.diag + sys.upper + sys.lower)
        a.setflags(write=True)
        a[0, 0] = 5.0
        assert sys.diag[0][0, 0] == 1.0


def oracle_chain_condition(sys):
    """Largest 1-norm condition number over the nested Schur chain."""
    s = np.asarray(sys.diag[0])
    worst = 0.0
    for i in range(sys.n):
        worst = max(worst, np.linalg.cond(s, 1))
        if i < sys.n - 1:
            s = sys.diag[i + 1] + sys.lower[i] @ np.linalg.solve(s, sys.upper[i])
    return worst


class TestGenerationGate:
    def test_budget_exhausted(self, monkeypatch):
        factored = []
        real_lu_factor = blocks.dense.lu_factor

        def counting_lu_factor(a):
            factored.append(np.shape(a))
            return real_lu_factor(a)

        monkeypatch.setattr(blocks, "CHAIN_CONDITION_LIMIT", 1.0)
        monkeypatch.setattr(blocks.dense, "lu_factor", counting_lu_factor)
        with pytest.raises(blocks.GenerationError):
            blocks.random_system(blocks.SystemOptions(seed=0, sizes=(4, 3, 2)))
        # every attempt stops at S_1, the first complement that fails
        assert factored == [(4, 4)] * 100

    def test_returns_first_accepted_attempt(self):
        # seed 1 draws two chains past the limit (condition 1.6e4 and
        # 4.7e6) before attempt 2 passes (8.5e2)
        opts = blocks.SystemOptions(seed=1, sizes=(9, 8, 7), zero_tail=True)
        draws = [blocks._draw_system(np.random.default_rng((opts.seed, k)), opts)
                 for k in range(3)]
        conds = [oracle_chain_condition(d) for d in draws]
        assert [c <= blocks.CHAIN_CONDITION_LIMIT for c in conds] == [False, False, True]
        got = blocks.random_system(opts)
        for a, b in zip(got.diag + got.upper + got.lower,
                        draws[2].diag + draws[2].upper + draws[2].lower):
            assert np.array_equal(a, b)


def count_lu_factor(monkeypatch):
    """List that grows by one entry per dense.lu_factor call."""
    calls = []
    real = dense.lu_factor

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(dense, "lu_factor", counting)
    return calls


class TestKeptChain:
    """Every system keeps the Schur steps formed so far; a generated one
    keeps the whole chain its gate walked."""

    @pytest.mark.parametrize("sizes", [(9, 7, 5), (6, 5, 4, 3, 2)])
    def test_exact_builds_replay_the_gate_chain(self, monkeypatch, sizes):
        sys = blocks.random_system(blocks.SystemOptions(seed=16, sizes=sizes))
        calls = count_lu_factor(monkeypatch)
        for name in precond.NESTED_PRESETS:
            if sys.n == 3 or name in precond.N_BLOCK_PRESETS:
                precond.make_preconditioner(name, sys)
        precond.build_ldu(sys)
        assert calls == []
        kept = list(blocks.schur_steps(sys))
        direct = blocks.BlockTridiagonalSystem(sys.diag, sys.upper, sys.lower)
        fresh = list(blocks.schur_steps(direct))
        assert calls == [(m, m) for m in sizes]
        for (s, f), (t, g) in zip(kept, fresh, strict=True):
            assert s.tobytes() == t.tobytes() and f.inv.tobytes() == g.inv.tobytes()
            assert f.cond == g.cond

    def test_kept_steps_are_read_only(self):
        sys = blocks.random_system(blocks.SystemOptions(seed=3, sizes=(4, 3, 2)))
        for s, f in blocks.schur_steps(sys):
            with pytest.raises(ValueError):
                s[0, 0] = 1.0
            with pytest.raises(ValueError):
                f.inv[0, 0] = 1.0

    def test_replay_is_repeatable(self):
        sys = blocks.random_system(blocks.SystemOptions(seed=3, sizes=(4, 3, 2)))
        first, second = list(blocks.schur_steps(sys)), list(blocks.schur_steps(sys))
        assert len(first) == 3
        assert all(a is b and f is g for (a, f), (b, g) in zip(first, second))

    def test_hand_built_system_keeps_its_chain(self, monkeypatch):
        s = blocks.random_system(blocks.SystemOptions(seed=31, sizes=(3, 2, 4)))
        sys = blocks.BlockTridiagonalSystem(s.diag, s.upper, s.lower)
        calls = count_lu_factor(monkeypatch)
        first = list(blocks.schur_steps(sys))
        assert calls == [(3, 3), (2, 2), (4, 4)]
        second = list(blocks.schur_steps(sys))
        assert len(calls) == 3
        assert all(a is b and f is g for (a, f), (b, g) in zip(first, second))

    def test_ldu_after_preconditioner_factors_nothing(self, monkeypatch):
        s = blocks.random_system(blocks.SystemOptions(seed=31, sizes=(3, 2, 4)))
        sys = blocks.BlockTridiagonalSystem(s.diag, s.upper, s.lower)
        precond.make_preconditioner("P1", sys)
        calls = count_lu_factor(monkeypatch)
        precond.build_ldu(sys)
        assert calls == []

    def test_stopped_walk_resumes_where_it_stopped(self, monkeypatch):
        s = blocks.random_system(blocks.SystemOptions(seed=16, sizes=(6, 5, 4, 3)))
        sys = blocks.BlockTridiagonalSystem(s.diag, s.upper, s.lower)
        calls = count_lu_factor(monkeypatch)
        s1, f1 = next(blocks.schur_steps(sys))
        assert calls == [(6, 6)]
        steps = list(blocks.schur_steps(sys))
        assert calls == [(6, 6), (5, 5), (4, 4), (3, 3)]
        assert steps[0][0] is s1 and steps[0][1] is f1

    def test_concurrent_walks_share_one_chain(self):
        s = blocks.random_system(blocks.SystemOptions(seed=16, sizes=(6, 5, 4, 3)))
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for _ in range(20):
                system = blocks.BlockTridiagonalSystem(s.diag, s.upper, s.lower)
                walks = [None] * 4

                def walk(k):
                    walks[k] = list(blocks.schur_steps(system))

                threads = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                for w in walks:
                    assert len(w) == 4 and all(a is b for a, b in zip(w, walks[0]))
        finally:
            setswitchinterval(interval)

    def test_loaded_system_builds_its_own_chain(self, tmp_path, monkeypatch):
        s = blocks.random_system(blocks.SystemOptions(seed=31, sizes=(3, 2, 4)))
        manifest = blocks.write_blocks(tmp_path / "sys", s.diag, s.upper, s.lower)
        loaded = blocks.load_system(manifest)
        calls = count_lu_factor(monkeypatch)
        precond.build_ldu(loaded)
        assert calls == [(3, 3), (2, 2), (4, 4)]


class TestManifest:
    def test_round_trip_bitwise(self, tmp_path):
        opts = blocks.SystemOptions(seed=31, sizes=(3, 2, 4))
        s = blocks.random_system(opts)
        manifest = blocks.write_blocks(tmp_path / "sys", s.diag, s.upper, s.lower)
        t = blocks.load_system(manifest)
        for x, y in zip(s.diag + s.upper + s.lower,
                        t.diag + t.upper + t.lower):
            assert np.array_equal(x, y)

    def test_hand_written_two_block(self, tmp_path):
        from schurkit.sparse import write_matrix_market
        d = tmp_path
        write_matrix_market(d / "a1.mtx", np.array([[2.0]]))
        write_matrix_market(d / "a2.mtx", np.array([[3.0]]))
        write_matrix_market(d / "b1.mtx", np.array([[5.0]]))
        write_matrix_market(d / "c1.mtx", np.array([[7.0]]))
        (d / "m.txt").write_text(
            "n=2\nA 1 a1.mtx\nA 2 a2.mtx\nB 1 b1.mtx\nC 1 c1.mtx\n")
        s = blocks.load_system(d / "m.txt")
        assert np.array_equal(blocks.assemble(s), [[2.0, 5.0], [7.0, -3.0]])

    def test_bad_role_line_number(self, tmp_path):
        (tmp_path / "m.txt").write_text("n=2\nA 1 a.mtx\nZ 1 z.mtx\n")
        with pytest.raises(blocks.ManifestError) as exc:
            blocks.load_system(tmp_path / "m.txt")
        assert exc.value.line == 3

    def test_wrong_size_manifest(self, tmp_path):
        from schurkit.sparse import write_matrix_market
        d = tmp_path
        write_matrix_market(d / "a1.mtx", np.array([[2.0]]))
        write_matrix_market(d / "a2.mtx", np.array([[3.0]]))
        # B block shaped 2x1 cannot couple two 1x1 diagonal blocks
        write_matrix_market(d / "b1.mtx", np.array([[5.0], [5.0]]))
        write_matrix_market(d / "c1.mtx", np.array([[7.0]]))
        (d / "m.txt").write_text(
            "n=2\nA 1 a1.mtx\nA 2 a2.mtx\nB 1 b1.mtx\nC 1 c1.mtx\n")
        with pytest.raises(blocks.ManifestError):
            blocks.load_system(d / "m.txt")

    def test_missing_block(self, tmp_path):
        from schurkit.sparse import write_matrix_market
        write_matrix_market(tmp_path / "a1.mtx", np.array([[2.0]]))
        (tmp_path / "m.txt").write_text("n=2\nA 1 a1.mtx\n")
        with pytest.raises(blocks.ManifestError):
            blocks.load_system(tmp_path / "m.txt")

    def test_index_out_of_range(self, tmp_path):
        (tmp_path / "m.txt").write_text("n=2\nB 2 b.mtx\n")
        with pytest.raises(blocks.ManifestError) as exc:
            blocks.load_system(tmp_path / "m.txt")
        assert exc.value.line == 2
