import hashlib
import tracemalloc

import numpy as np
import pytest

from schurkit import biot, blocks, precond
from schurkit import krylov as gmres


def make_system(seed, sizes, **flags):
    return blocks.random_system(blocks.SystemOptions(seed=seed, sizes=sizes,
                                                     **flags))


class TestGmres:
    def test_identity_one_iteration(self):
        op = gmres.LinearOperator(7, lambda v: v)
        b = np.arange(1.0, 8.0)
        x, stats = gmres.gmres(op, None, b, tol=1e-12, maxit=20)
        assert stats.iterations == 1
        assert stats.converged
        assert np.abs(x - b).max() < 1e-12

    def test_zero_rhs(self):
        op = gmres.LinearOperator(3, lambda v: v)
        x, stats = gmres.gmres(op, None, np.zeros(3), tol=1e-10, maxit=5)
        assert stats.converged and stats.iterations == 0
        assert np.abs(x).max() == 0.0

    def test_degree_three_operator_terminates_in_three(self):
        s = make_system(51, (6, 5, 4))
        a = blocks.assemble(s)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        p = precond.make_preconditioner("P1", s)
        b = np.ones(op.dim)
        x, stats = gmres.gmres(op, p, b, tol=1e-12, maxit=50)
        assert stats.converged
        assert stats.iterations <= 3

    def test_unpreconditioned_spd_matches_direct_solve(self):
        rng = np.random.default_rng(52)
        m = rng.uniform(-1.0, 1.0, (50, 50))
        a = m @ m.T + 50 * np.eye(50)
        b = rng.uniform(-1.0, 1.0, 50)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        x, stats = gmres.gmres(op, None, b, tol=1e-10, maxit=50)
        assert stats.converged
        assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-8

    def test_residual_history_monotone(self):
        rng = np.random.default_rng(53)
        a = rng.uniform(-1.0, 1.0, (40, 40)) + 8 * np.eye(40)
        b = rng.uniform(-1.0, 1.0, 40)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        _, stats = gmres.gmres(op, None, b, tol=1e-12, maxit=40)
        hist = stats.residuals
        assert hist[0] == 1.0
        assert all(x >= y for x, y in zip(hist, hist[1:]))
        assert stats.converged and hist[-1] <= 1e-12

    def test_happy_breakdown_exact_solution(self):
        # rhs spanned by two eigenvectors: exact after two steps
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        x, stats = gmres.gmres(op, None, b, tol=1e-13, maxit=10)
        assert stats.converged
        assert stats.iterations <= 2
        assert np.abs(a @ x - b).max() < 1e-12

    def test_breakdown_on_singular_operator(self):
        op = gmres.LinearOperator(3, lambda v: np.zeros(3))
        with pytest.raises(gmres.GmresBreakdownError):
            gmres.gmres(op, None, np.ones(3), tol=1e-10, maxit=5)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(54)
        a = rng.uniform(-1.0, 1.0, (30, 30)) + 6 * np.eye(30)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        _, stats = gmres.gmres(op, None, rng.uniform(-1, 1, 30),
                               tol=1e-14, maxit=3)
        assert not stats.converged
        assert stats.iterations == 3
        assert stats.residuals[-1] > 1e-14

    def test_bad_inputs(self):
        op = gmres.LinearOperator(3, lambda v: v)
        with pytest.raises(ValueError):
            gmres.gmres(op, None, np.ones(4), tol=1e-8, maxit=5)
        with pytest.raises(ValueError):
            gmres.gmres(op, None, np.ones(3), tol=0.0, maxit=5)
        with pytest.raises(ValueError, match="tolerance"):
            gmres.gmres(op, None, np.ones(3), tol=float("nan"), maxit=5)
        with pytest.raises(ValueError, match="maxit"):
            gmres.gmres(op, None, np.ones(3), tol=1e-8, maxit=-1)
        with pytest.raises(ValueError, match="maxit"):
            gmres.gmres(op, None, np.ones(3), tol=1e-8, maxit=2.5)
        # without a preconditioner nothing else checks the matvec's length
        short = gmres.LinearOperator(3, lambda v: v[:2])
        with pytest.raises(ValueError, match="operator gave shape"):
            gmres.gmres(short, None, np.ones(3), tol=1e-8, maxit=5)

    def test_numpy_integer_maxit(self):
        rng = np.random.default_rng(54)
        a = rng.uniform(-1.0, 1.0, (30, 30)) + 6 * np.eye(30)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        _, stats = gmres.gmres(op, None, rng.uniform(-1, 1, 30),
                               tol=1e-14, maxit=np.int64(2))
        assert stats.iterations == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rhs_rejected(self, bad):
        op = gmres.LinearOperator(3, lambda v: v)
        with pytest.raises(ValueError, match="rhs must be finite"):
            gmres.gmres(op, None, np.array([1.0, bad, 1.0]), maxit=5)

    def test_non_finite_step_is_a_breakdown(self):
        rng = np.random.default_rng(55)
        a = rng.uniform(-1.0, 1.0, (30, 30)) + 6 * np.eye(30)
        calls = []

        def matvec(v):
            calls.append(1)
            return a @ v if len(calls) < 3 else np.full(30, np.nan)
        op = gmres.LinearOperator(30, matvec)
        with pytest.raises(gmres.GmresBreakdownError, match="at step 3"):
            gmres.gmres(op, None, rng.uniform(-1, 1, 30), tol=1e-14, maxit=30)
        assert len(calls) == 3

    def test_non_finite_preconditioned_rhs_is_a_breakdown(self):
        class NanPreconditioner:
            dim = 3

            def apply(self, v):
                return np.full(3, np.nan)
        op = gmres.LinearOperator(3, lambda v: v)
        with pytest.raises(gmres.GmresBreakdownError, match="at step 0"):
            gmres.gmres(op, NanPreconditioner(), np.ones(3), maxit=5)


class TestArnoldi:
    """The step generator that ``gmres`` is a stopping rule over."""

    @staticmethod
    def dense_op(seed, n=30):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, (n, n)) + 6 * np.eye(n)
        return gmres.LinearOperator(n, lambda v: a @ v), rng.uniform(-1, 1, n)

    def test_estimates_are_the_gmres_history(self):
        op, b = self.dense_op(58)
        steps = list(gmres.arnoldi(op, None, b, 4))
        _, stats = gmres.gmres(op, None, b, tol=1e-14, maxit=4)
        assert [s[0] for s in steps] == [0, 1, 2, 3, 4]
        assert [s[1] for s in steps] == stats.residuals
        assert not any(s[2] for s in steps)

    def test_solution_stays_valid_after_later_steps(self):
        op, b = self.dense_op(59)
        steps = gmres.arnoldi(op, None, b, 10)
        solutions = [next(steps)[3] for _ in range(4)]
        x3 = solutions[3]()
        assert len(list(steps)) == 7   # steps 4..10 extend the basis
        assert np.array_equal(solutions[3](), x3)
        assert np.array_equal(solutions[0](), np.zeros(op.dim))
        x, stats = gmres.gmres(op, None, b, tol=1e-14, maxit=3)
        assert np.array_equal(x, x3)
        # the estimate is the true residual norm of x_3, up to rounding
        r = np.linalg.norm(b - op.matvec(x3)) / np.linalg.norm(b)
        assert abs(r - stats.residuals[-1]) <= 1e-12

    def test_zero_rhs_is_one_breakdown_step(self):
        op = gmres.LinearOperator(3, lambda v: v)
        (k, estimate, breakdown, solution), = gmres.arnoldi(op, None,
                                                            np.zeros(3), 5)
        assert (k, estimate, breakdown) == (0, 0.0, True)
        assert np.array_equal(solution(), np.zeros(3))

    def test_maxit_zero_yields_only_step_zero(self):
        op, b = self.dense_op(60)
        steps = list(gmres.arnoldi(op, None, b, 0))
        assert [s[:3] for s in steps] == [(0, 1.0, False)]
        x, stats = gmres.gmres(op, None, b, maxit=0)
        assert (stats.iterations, stats.residuals, stats.converged) == (0, [1.0], False)
        assert np.array_equal(x, np.zeros(op.dim))

    def test_no_step_follows_a_breakdown(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        op = gmres.LinearOperator(4, lambda v: a @ v)
        steps = list(gmres.arnoldi(op, None, np.array([1.0, 1.0, 0.0, 0.0]), 10))
        assert [s[2] for s in steps] == [False, False, True]

    def test_arguments_checked_at_the_first_step(self):
        op = gmres.LinearOperator(3, lambda v: v)
        steps = gmres.arnoldi(op, None, np.ones(4), 5)
        with pytest.raises(ValueError, match="rhs length"):
            next(steps)


class TestWorkspace:
    """The Arnoldi workspace grows with the steps taken, not with maxit."""

    @staticmethod
    def slow_op(n=200):
        # nonsymmetric, eigenvalues in a unit disc about 0.9: 143 steps to 1e-10
        rng = np.random.default_rng(61)
        a = rng.standard_normal((n, n)) / np.sqrt(n) + 0.9 * np.eye(n)
        return gmres.LinearOperator(n, lambda v: a @ v), rng.uniform(-1, 1, n)

    def test_memory_does_not_scale_with_maxit(self):
        n = 3000
        d = np.where(np.arange(n) % 2, 2.0, 1.0)   # two eigenvalues: 2 steps
        op = gmres.LinearOperator(n, lambda v: d * v)
        tracemalloc.start()
        try:
            x, stats = gmres.gmres(op, None, np.ones(n), tol=1e-12, maxit=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.converged and stats.iterations == 2
        assert np.abs(d * x - 1.0).max() < 1e-12
        assert peak < 1_000_000   # a maxit x maxit Hessenberg would be 72 MB

    def test_bits_across_every_growth(self):
        # sha256 of the residual history and of x, recorded before the
        # workspace grew with the steps
        op, b = self.slow_op()
        x, stats = gmres.gmres(op, None, b, tol=1e-10, maxit=op.dim)
        assert stats.converged and stats.iterations == 143
        assert hashlib.sha256(np.array(stats.residuals).tobytes()).hexdigest() == (
            "47b808fcde8d973bfbcd61ed4d928e5764f7cad5fdd4829fdc8fbdc62543f94e")
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "938bc93b72d86f5777cce2616ab22e7a1759bbc73727244a80b3ccce6185ef6a")

    def test_solution_taken_before_a_growth_stays_valid(self):
        op, b = self.slow_op()
        steps = gmres.arnoldi(op, None, b, op.dim)
        solutions = [next(steps)[3] for _ in range(6)]
        x5 = solutions[5]()
        assert sum(1 for _ in steps) == 195   # steps 6..200
        assert np.array_equal(solutions[5](), x5)
        x, _ = gmres.gmres(op, None, b, tol=1e-14, maxit=5)
        assert np.array_equal(x, x5)


DEGREE_BOUNDS = [
    ("P1", 3, {}), ("P2", 3, {}), ("P3", 3, {}), ("P4", 3, {}),
    ("PD1", 6, {"zero_tail": True}), ("PD2", 6, {"zero_tail": True}),
    ("PD3", 6, {"zero_tail": True}), ("PD4", 6, {"zero_tail": True}),
]


class TestFiniteTermination:
    @pytest.mark.parametrize("name,degree,flags", DEGREE_BOUNDS)
    def test_nested_presets(self, name, degree, flags):
        s = make_system(55, (6, 5, 4), **flags)
        a = blocks.assemble(s)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        p = precond.make_preconditioner(name, s)
        b = np.ones(op.dim)
        _, stats = gmres.gmres(op, p, b, tol=1e-12, maxit=40)
        assert stats.converged and stats.iterations <= degree

    @pytest.mark.parametrize("name,degree,flags", [
        ("Q1", 2, {}), ("Q2", 2, {}),
        ("QD1", 3, {"zero_middle": True}), ("QD2", 3, {"zero_middle": True}),
    ])
    def test_additive_presets(self, name, degree, flags):
        s = make_system(56, (6, 4, 5), **flags)
        arrow = blocks.ArrowheadSystem(s)
        a = blocks.assemble_arrowhead(arrow)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        p = precond.make_preconditioner(name, arrow)
        b = np.ones(op.dim)
        _, stats = gmres.gmres(op, p, b, tol=1e-12, maxit=40)
        assert stats.converged and stats.iterations <= degree

    @pytest.mark.parametrize("n", range(2, 9))
    def test_n_block_triangular(self, n):
        sizes = tuple(((5, 4, 3, 2) * 2)[:n])
        s = make_system(57, sizes)
        a = blocks.assemble(s)
        op = gmres.LinearOperator(len(a), lambda v: a @ v)
        p = precond.make_preconditioner("Pn", s)
        b = np.ones(op.dim)
        _, stats = gmres.gmres(op, p, b, tol=1e-12, maxit=40)
        assert stats.converged and stats.iterations <= n

    def test_additive_never_slower_than_nested_triangular(self):
        for seed in range(5):
            s = make_system(80 + seed, (5, 4, 3))
            a = blocks.assemble(s)
            op = gmres.LinearOperator(len(a), lambda v: a @ v)
            p = precond.make_preconditioner("P1", s)
            b = np.ones(op.dim)
            _, st_nested = gmres.gmres(op, p, b, tol=1e-12, maxit=40)
            arrow = blocks.ArrowheadSystem(s)
            aq = blocks.assemble_arrowhead(arrow)
            opq = gmres.LinearOperator(len(aq), lambda v: aq @ v)
            q = precond.make_preconditioner("Q1", arrow)
            _, st_add = gmres.gmres(opq, q, np.ones(opq.dim), tol=1e-12, maxit=40)
            assert st_add.iterations <= st_nested.iterations


class TestIterationTable:
    """The count rule of ``biot.benchmark`` and the table it emits."""

    def test_nonconvergence_sentinel(self):
        tables, counts = biot.benchmark([4], [1e-3], maxit=2)
        assert set(counts.values()) == {None}
        _, table = tables[0]
        assert table.to_csv_lines()[-1] == "4x4," + ",".join([">2"] * 8)
        bad = biot.ordering_violations(counts, [4], [1e-3])
        missing = [msg for key, msg in bad if key == ""]
        assert missing == [f"N=4 tau=0.001 {name}: did not converge"
                           for name in biot.BENCH_COLUMNS]

    def test_breakdown_recorded_as_sentinel(self, monkeypatch):
        def broken(*args, **kwargs):
            raise gmres.GmresBreakdownError("forced")

        monkeypatch.setattr(biot, "gmres", broken)
        _, counts = biot.benchmark([4], [1e-3])
        assert list(counts.values()) == [None] * len(biot.BENCH_COLUMNS)

    def test_csv_and_markdown_emission(self):
        table = gmres.IterationTable(row_labels=["r1"], col_labels=["c1"],
                                     counts=[[1]], tol=1e-8, maxit=5,
                                     header_notes=("note a",))
        csv = table.to_csv_lines()
        assert csv[0].startswith("#")
        assert "system,c1" in csv
        assert csv[-1] == "r1,1"
        md = table.to_markdown_lines()
        assert md[-1].startswith("| r1")
