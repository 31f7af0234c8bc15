import hashlib

import numpy as np
import pytest

from schurkit import biot, blocks, precond, verify
from schurkit.krylov import arnoldi
from schurkit.sparse import CsrMatrix, IcFactor, read_matrix_market, spmv


@pytest.fixture(scope="module")
def mesh4():
    return biot.build_mesh(4)


@pytest.fixture(scope="module")
def params():
    return biot.BiotParameters()


@pytest.fixture(scope="module")
def asm4(mesh4, params):
    return biot.assemble_biot(mesh4, params)


@pytest.fixture(scope="module")
def asm4_raw(mesh4):
    # nu=0.3 and no boundary elimination: the integration patch-test setting
    return biot.assemble_biot(mesh4, biot.BiotParameters(nu=0.3), apply_bcs=False)


class TestMesh:
    def test_counts_n1(self):
        m = biot.build_mesh(1)
        assert (m.num_vertices, m.num_edges, m.num_triangles) == (4, 5, 2)

    def test_counts_n2(self):
        m = biot.build_mesh(2)
        assert (m.num_vertices, m.num_edges, m.num_triangles) == (9, 16, 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_count_formulas(self, n):
        m = biot.build_mesh(n)
        assert m.num_vertices == (n + 1) ** 2
        assert m.num_edges == 2 * n * (n + 1) + n * n
        assert m.num_triangles == 2 * n * n

    def test_total_area_is_one(self, mesh4):
        area, _ = biot._geometry(mesh4)
        assert abs(area.sum() - 1.0) < 1e-14

    def test_positive_orientation(self, mesh4):
        area, _ = biot._geometry(mesh4)
        assert area.min() > 0.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            biot.build_mesh(0)


class TestParameters:
    def test_lame_values(self):
        p = biot.BiotParameters(E=1.0, nu=0.499)
        assert abs(p.lam - 0.499 / (1.499 * 0.002)) < 1e-12
        assert abs(p.mu - 1.0 / (2 * 1.499)) < 1e-12

    def test_poisson_limit_rejected(self):
        with pytest.raises(ValueError):
            biot.BiotParameters(nu=0.5)

    @pytest.mark.parametrize("field,value", [
        ("E", 0.0), ("E", -1.0), ("nu", 0.0), ("nu", -0.2),
        ("dt", 0.0), ("dt", -1.0), ("K", 0.0), ("K", -1.0), ("c0", -5.0)])
    def test_nonpositive_material_rejected(self, field, value):
        # lambda = 0 divides by zero in assembly; negative values fail in
        # ichol, and c0 < 0 makes the pressure block indefinite
        with pytest.raises(ValueError, match=f"{field} must be"):
            biot.BiotParameters(**{field: value})


class TestAssembly:
    def test_dof_counts_before_bcs(self, params):
        m = biot.build_mesh(2)
        asm = biot.assemble_biot(m, params, apply_bcs=False)
        assert asm.sizes == (50, 9, 9)

    def test_dof_counts_after_bcs(self, params):
        m = biot.build_mesh(2)
        asm = biot.assemble_biot(m, params)
        n = 2
        assert asm.sizes == (2 * (2 * n + 1) * (2 * n - 1), (n + 1) ** 2,
                             (n + 1) * (n - 1))

    def test_displacement_block_spd(self, asm4):
        au = asm4.a_u.to_dense()
        assert np.abs(au - au.T).max() < 1e-12
        assert np.linalg.eigvalsh(au).min() > 0.0

    def test_pressure_block_negative_definite(self, asm4):
        ap = asm4.a_p.to_dense()
        assert np.abs(ap - ap.T).max() < 1e-12
        assert np.linalg.eigvalsh(ap).max() < 0.0

    def test_mass_partition_of_unity(self, asm4):
        ones = np.ones(asm4.m_xi.rows)
        assert abs(ones @ spmv(asm4.m_xi, ones) - 1.0) < 1e-12

    def test_total_pressure_block_is_scaled_mass(self, asm4, params):
        axi = asm4.a_xi.to_dense()
        mxi = asm4.m_xi.to_dense()
        assert np.abs(axi - mxi / params.lam).max() < 1e-14

    def test_coupling_block_shares_mass_sparsity(self, mesh4, params):
        asm = biot.assemble_biot(mesh4, params, apply_bcs=False)
        assert np.array_equal(asm.b_xip.row_offsets, asm.m_xi.row_offsets)
        assert np.array_equal(asm.b_xip.col_indices, asm.m_xi.col_indices)
        scale = params.alpha / params.lam
        assert np.abs(asm.b_xip.values - scale * asm.m_xi.values).max() < 1e-14

    def test_monolithic_symmetry(self, asm4):
        # C blocks equal B blocks and every diagonal block is symmetric
        assert np.abs(asm4.b_uxi.to_dense()
                      - asm4.b_uxi_t.to_dense().T).max() == 0.0
        assert np.abs(asm4.b_xip.to_dense()
                      - asm4.b_xip_t.to_dense().T).max() == 0.0
        a = asm4
        n = a.total_size
        op = biot.biot_operator(a)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        assert abs(x @ op.matvec(y) - y @ op.matvec(x)) < 1e-12 * n


# sha256 of every BiotAssembly field at N=8: shape, row_offsets,
# col_indices and values of a CSR block, the array itself for rhs.
# Recorded while the Dirichlet rows and columns were still removed after
# assembly, by a submatrix re-assembly.
ASSEMBLY_DIGESTS = {
    True: {
        "a_u": "e846d29d243321bf7de4791c3add533336c95eb9e1046c5adb894cad3ddc9111",
        "b_uxi": "86dfbd0f964dd718072f26b83f2f46691a28d39a514ca823eede2eb4a83664b6",
        "b_uxi_t": "049b1983459cecccd0ccf92578ba9b9f1c2ab0bb83d9bb1697fdadbf419dbfa6",
        "a_xi": "a5ad38db096193a522a540635331eb32041b827f46851332ae9a645bb27c589e",
        "b_xip": "f7860a4284d682edd5f07b94fe45ac872a4d44b47d7fa1095707ee30cc7efef0",
        "b_xip_t": "a20329100f9f56b8d2b59be9586a4a5b2b0d5b55902f808731a9c162deef4ec7",
        "a_p": "b2de9bc0c9180cd69682fc2d4211ef066eea09e8003305fc36a0bf49c1a95c86",
        "m_xi": "4e034ceaf331abcca3412b35fd92624e1883b6db58e8131a18d443ab985e3159",
        "m_p": "ab4cfa0df1fdbad020d503e08ddb12df1793d6be4961957d47a56d2fc8ef09f4",
        "rhs": "b284fca9cf4fbcf7f288928bb90bd3836ea4fbdcbe8f91c64ab8a3e41978b127",
    },
    False: {
        "a_u": "ffa3a9dbca058b84d4081d266cc44fba4ddb3a49dc61c932e9c23847d522a483",
        "b_uxi": "37b76837c2b3cd7ccd5406010d43e2a566c4bf2c2f2e69b06db4083204199f26",
        "b_uxi_t": "06a3e06c6548410cacb23b9c8defbd966550a6ae4a91e72d89d5384b60f44dc2",
        # alpha = 1, so b_xip is a_xi and m_p is m_xi without elimination
        "a_xi": "a5ad38db096193a522a540635331eb32041b827f46851332ae9a645bb27c589e",
        "b_xip": "a5ad38db096193a522a540635331eb32041b827f46851332ae9a645bb27c589e",
        "b_xip_t": "a5ad38db096193a522a540635331eb32041b827f46851332ae9a645bb27c589e",
        "a_p": "1130dd362bfc0f7ef489c85b6c4b11d84c6874fb1ca4d59789972c264a8edbcf",
        "m_xi": "4e034ceaf331abcca3412b35fd92624e1883b6db58e8131a18d443ab985e3159",
        "m_p": "4e034ceaf331abcca3412b35fd92624e1883b6db58e8131a18d443ab985e3159",
        "rhs": "bed156c53a4dec2d27adf30e376365acb4048cef7c98c01a8a7bd270b5396524",
    },
}


class TestAssemblyPinned:
    @pytest.fixture(scope="class", params=[True, False], ids=["bcs", "no_bcs"])
    def asm8(self, request, params):
        return request.param, biot.assemble_biot(biot.build_mesh(8), params,
                                                 apply_bcs=request.param)

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_DIGESTS[True]))
    def test_field_bitwise(self, asm8, name):
        apply_bcs, asm = asm8
        v = getattr(asm, name)
        h = hashlib.sha256()
        if isinstance(v, CsrMatrix):
            for arr in (np.array(v.shape, dtype=np.int64), v.row_offsets,
                        v.col_indices, v.values):
                h.update(arr.tobytes())
        else:
            h.update(v.tobytes())
        assert h.hexdigest() == ASSEMBLY_DIGESTS[apply_bcs][name]


class TestPatch:
    """Quadratic-form identities against closed-form unit-square integrals."""

    @staticmethod
    def interp_p2(asm, mesh, fn):
        coords = mesh.p2_node_coords()
        return fn(coords[:, 0], coords[:, 1])

    @staticmethod
    def interp_p1(mesh, fn):
        return fn(mesh.vertices[:, 0], mesh.vertices[:, 1])

    def test_elastic_energy_of_linear_fields(self, asm4_raw, mesh4):
        prm = biot.BiotParameters(nu=0.3)
        mu = prm.mu
        # u = (0.3 + 1.2x + 0.7y, -0.8 + 0.4x - 1.1y)
        ux = self.interp_p2(asm4_raw, mesh4, lambda x, y: 0.3 + 1.2 * x + 0.7 * y)
        uy = self.interp_p2(asm4_raw, mesh4, lambda x, y: -0.8 + 0.4 * x - 1.1 * y)
        vx = self.interp_p2(asm4_raw, mesh4, lambda x, y: -0.5 + 0.9 * x - 0.2 * y)
        vy = self.interp_p2(asm4_raw, mesh4, lambda x, y: 0.1 - 0.6 * x + 1.3 * y)
        eps_u = np.array([[1.2, (0.7 + 0.4) / 2], [(0.7 + 0.4) / 2, -1.1]])
        eps_v = np.array([[0.9, (-0.2 - 0.6) / 2], [(-0.2 - 0.6) / 2, 1.3]])
        exact = 2 * mu * (eps_u * eps_v).sum()
        got = np.concatenate([ux, uy]) @ spmv(asm4_raw.a_u,
                                              np.concatenate([vx, vy]))
        assert abs(got - exact) < 1e-10

    def test_divergence_coupling_of_linear_fields(self, asm4_raw, mesh4):
        ux = self.interp_p2(asm4_raw, mesh4, lambda x, y: 0.3 + 1.2 * x + 0.7 * y)
        uy = self.interp_p2(asm4_raw, mesh4, lambda x, y: -0.8 + 0.4 * x - 1.1 * y)
        phi = self.interp_p1(mesh4, lambda x, y: 0.5 - 0.4 * x + 0.9 * y)
        div_u = 1.2 - 1.1
        # integral of phi over the unit square is its centroid value
        exact = -div_u * (0.5 - 0.4 * 0.5 + 0.9 * 0.5)
        got = phi @ spmv(asm4_raw.b_uxi, np.concatenate([ux, uy]))
        assert abs(got - exact) < 1e-10

    def test_mass_form_of_linear_fields(self, asm4_raw, mesh4):
        # closed form for int (d1+e1x+f1y)(d2+e2x+f2y) over the unit square
        d1, e1, f1 = 0.7, -0.3, 1.1
        d2, e2, f2 = -0.2, 0.8, 0.5
        phi = self.interp_p1(mesh4, lambda x, y: d1 + e1 * x + f1 * y)
        psi = self.interp_p1(mesh4, lambda x, y: d2 + e2 * x + f2 * y)
        exact = (d1 * d2 + (d1 * e2 + d2 * e1) / 2 + (d1 * f2 + d2 * f1) / 2
                 + e1 * e2 / 3 + f1 * f2 / 3 + (e1 * f2 + e2 * f1) / 4)
        got = phi @ spmv(asm4_raw.m_xi, psi)
        assert abs(got - exact) < 1e-10

    def test_pressure_form_of_linear_fields(self, asm4_raw, mesh4):
        prm = biot.BiotParameters(nu=0.3)
        d1, e1, f1 = 0.7, -0.3, 1.1
        d2, e2, f2 = -0.2, 0.8, 0.5
        p = self.interp_p1(mesh4, lambda x, y: d1 + e1 * x + f1 * y)
        q = self.interp_p1(mesh4, lambda x, y: d2 + e2 * x + f2 * y)
        mass = (d1 * d2 + (d1 * e2 + d2 * e1) / 2 + (d1 * f2 + d2 * f1) / 2
                + e1 * e2 / 3 + f1 * f2 / 3 + (e1 * f2 + e2 * f1) / 4)
        stiff = e1 * e2 + f1 * f2
        exact = (-(prm.c0 + prm.alpha ** 2 / prm.lam) * mass
                 - prm.dt * prm.K * stiff)
        got = p @ spmv(asm4_raw.a_p, q)
        assert abs(got - exact) < 1e-10


class TestFourier:
    def test_no_coupling_keeps_pressure_block(self, mesh4):
        prm = biot.BiotParameters(alpha=0.0)
        asm = biot.assemble_biot(mesh4, prm)
        _, s_p = biot.fourier_schur_approx(asm, prm)
        assert np.abs(s_p.to_dense() - asm.a_p.to_dense()).max() == 0.0

    def test_nearly_incompressible_limit(self, mesh4):
        prm = biot.BiotParameters(nu=0.49999999999)
        asm = biot.assemble_biot(mesh4, prm)
        s_xi, _ = biot.fourier_schur_approx(asm, prm)
        scale = s_xi.values.max() / asm.m_xi.values.max()
        assert abs(scale - 1.0 / (2.0 * prm.mu)) < 1e-9

    def test_scale_factor_two_ways(self, params):
        nu, e = params.nu, params.E
        lam = e * nu / ((1 + nu) * (1 - 2 * nu))
        mu = e / (2 * (1 + nu))
        direct = 1.0 / lam + 1.0 / (2.0 * mu)
        assert abs(direct - (1.0 / params.lam + 1.0 / (2.0 * params.mu))) < 1e-14

    def test_shift_identity(self, params):
        lam, mu, al = params.lam, params.mu, params.alpha
        lhs = -(params.c0 + al ** 2 / lam) + 2 * mu * al ** 2 / (lam * (lam + 2 * mu))
        rhs = -(params.c0 + al ** 2 / (2 * mu + lam))
        assert abs(lhs - rhs) < 1e-12

    def test_negated_trailing_approximation_spd(self, asm4, params):
        _, s_p = biot.fourier_schur_approx(asm4, params)
        neg = -s_p.to_dense()
        assert np.linalg.eigvalsh(neg).min() > 0.0


class TestPreconditioners:
    def test_factors_shared_across_presets(self, asm4, params):
        pres = biot.build_biot_preconditioners(asm4, params, 1e-3)
        assert set(pres.by_name) == set(biot.BENCH_COLUMNS)
        solves = pres["P1"].solves
        for name in biot.BENCH_COLUMNS:
            assert pres[name].solves[0] is solves[0]
            assert pres[name].solves[2] is solves[2]

    def test_alternating_diagonal_sign_pattern(self, asm4, params):
        pres = biot.build_biot_preconditioners(asm4, params, 1e-3)
        assert pres["PD3"].diag_signs == (1, -1, 1)
        assert pres["P1"].diag_signs == (1, -1, 1)
        assert pres["P1"].sub_signs == (1, 1)
        assert pres["PD4"].diag_signs == (1, -1, -1)

    def test_complete_factor_preconditioner_converges(self):
        row = next(biot.biot_rows([8], [0.0]))
        count, _, x = biot.solve_cell(row, "P1", tol=1e-8, maxit=300)
        assert count is not None
        _, _, asm, op, _ = row
        r = asm.rhs - op.matvec(x)
        assert np.linalg.norm(r) / np.linalg.norm(asm.rhs) < 1e-6

    def test_negative_tau_rejected(self, asm4, params):
        with pytest.raises(ValueError):
            biot.build_biot_preconditioners(asm4, params, -1e-3)

    def test_nan_tau_rejected(self, asm4, params):
        # every fill test is False under NaN: the factors would be IC(0)
        with pytest.raises(ValueError, match="drop tolerance"):
            biot.build_biot_preconditioners(asm4, params, float("nan"))

    def test_factor_fill_monotone_in_tau(self, params):
        from schurkit.sparse import csr_scale, ichol
        mesh = biot.build_mesh(8)
        asm = biot.assemble_biot(mesh, params)
        s_xi, s_p = biot.fourier_schur_approx(asm, params)
        for block in (asm.a_u, s_xi, csr_scale(s_p, -1.0)):
            sizes = [ichol(block, t).lower.nnz for t in (0.0, 1e-4, 1e-3, 1e-2)]
            assert sizes == sorted(sizes, reverse=True)


class TestBenchmark:
    def test_small_sweep_ordering(self):
        tables, counts = biot.benchmark([16], [1e-3], tol=1e-8, maxit=800)
        assert len(tables) == 1
        tau, table = tables[0]
        assert tau == 1e-3
        assert table.col_labels == list(biot.BENCH_COLUMNS)
        assert biot.ordering_violations(counts, [16], [1e-3]) == []

    def test_walk_sets_up_each_row_once_and_lazily(self, monkeypatch):
        calls = {"assemble_biot": 0, "ichol": 0}
        for fn_name in calls:
            def counted(*args, fn=getattr(biot, fn_name), key=fn_name):
                calls[key] += 1
                return fn(*args)
            monkeypatch.setattr(biot, fn_name, counted)
        rows = biot.biot_rows([4, 6], [1e-2, 1e-3])
        first = next(rows)
        assert calls == {"assemble_biot": 1, "ichol": 3}
        rest = list(rows)
        assert calls == {"assemble_biot": 2, "ichol": 12}
        assert [row[:2] for row in [first, *rest]] == [
            (4, 1e-2), (4, 1e-3), (6, 1e-2), (6, 1e-3)]

    def test_nonzero_ic_shift_named_in_header(self, monkeypatch):
        # ichol runs per (N, tau) on the u, xi and p blocks in turn, so
        # calls 10 and 12 factor u and p at N=6, tau=1e-3
        shifts = {10: 0.25, 12: 0.5}
        calls = []
        ichol = biot.ichol

        def shifted(a, tau):
            calls.append(a)
            f = ichol(a, tau)
            return IcFactor(lower=f.lower, shift=shifts.get(len(calls), 0.0),
                            tau=f.tau)

        monkeypatch.setattr(biot, "ichol", shifted)
        tables, _ = biot.benchmark([4, 6], [1e-2, 1e-3], tol=1e-6, maxit=300)
        assert len(calls) == 12
        notes = {tau: table.header_notes for tau, table in tables}
        assert notes[1e-3][:2] == ("ic drop tolerance tau=0.001",
                                   "ic diagonal shift: N=6 u 0.25, N=6 p 0.5")
        assert notes[1e-3][2:] == notes[1e-2][1:]
        assert not any("shift" in note for note in notes[1e-2])


@pytest.fixture(scope="module")
def cell16():
    """The benchmark's N=16, tau=1e-3 row."""
    return next(biot.biot_rows([16], [1e-3]))


# sha256 of SolveStats.residuals (as float64) and of x, per preset, for
# gmres at N=16, tau=1e-3 and BENCH_TOL.  Recorded while gmres was one
# inline loop.  The 2,590 unknowns are below the length at which
# OpenBLAS splits dots and norms across threads, so the bits do not
# depend on the BLAS thread count.
SOLVE_DIGESTS = {
    "PD1": ("b633255edd0dcea4b97839af2247553d712f8795dd76029530491cb0cbb66637",
            "1e051ddbed666bef52fbf979a08fd0394d18ff4cf12eec2f5aae65d433d15033"),
    "PD2": ("e6aff9c752083aafac86524eac594aa4797d1d0c4cfa081c2083ecb90085886a",
            "5e3cb2ce2ab2a3f1a7113aea01d94543b0828931bdb29ad1420aa381eca10620"),
    "PD3": ("b6107c91d332bbe22c018cef182cfcda5c48edca2d9becfebd4c4161fc3ecd69",
            "a12956a5b3cc8254167cf736be75c79bb64a39ab86a11ef74c9e2917869dd247"),
    "PD4": ("59a50f9b9ad6f9f7f1dca79cfa62177bc84209b6e751c62bd48306e94987d122",
            "05a6b980cbd18f2e2ff8370887ca97dc1fd19c01795f2b8ac98fe2b8442b1a6d"),
    "P1": ("ca85059856ba0665009997b56980dfadcd13fc9151e0ed6e61c621751aa9d0c7",
           "10bbf8f67c042abed8da523692694da992d05c8d4cc0752da7f90643348a9caa"),
    "P2": ("070ff3a13d2e941b087c64a6a5fcf4add2a763fc9a77dd9985741d69a233d387",
           "b2276ae290e710782d9e7f40f4a8f3d3f00b6a6929d3a63dd3ab3ffe5695a5f5"),
    "P3": ("060ea4d8cdbb22a22b18301df966b49b526a5ba4ce5f77ecd916703bf9eac06c",
           "c406e0cda7d595a46e5a6db615f8a3ab198f549faab255f63483aae258562866"),
    "P4": ("a7e9844d272781c0052da8ad693a3f2acf2208470a2b4c67076e79b475d02ffc",
           "688376ec92ff7563471e1499df07fdd8cb543ccc499e82fef07012ba464c69cd"),
}


class TestSolvePinned:
    @pytest.mark.parametrize("name", biot.BENCH_COLUMNS)
    def test_history_and_solution_bitwise(self, cell16, name):
        count, stats, x = biot.solve_cell(cell16, name)
        assert count is not None
        got = (hashlib.sha256(np.array(stats.residuals).tobytes()).hexdigest(),
               hashlib.sha256(x.tobytes()).hexdigest())
        assert got == SOLVE_DIGESTS[name]


def true_residual_count(op, pre, b, tol, maxit=1500):
    """First step whose x_k has ||b - A x_k|| / ||b|| <= tol, else None."""
    norm_b = np.linalg.norm(b)
    for k, _, _, solution in arnoldi(op, pre, b, maxit):
        if np.linalg.norm(b - op.matvec(solution())) <= tol * norm_b:
            return k
    return None


def restarted_count(op, pre, b, m, tol=biot.BENCH_TOL, maxit=1500):
    """GMRES(m) steps until the preconditioned relative residual of the
    iterate is <= tol by the Givens estimate, else None.

    Each cycle walks ``arnoldi`` on the true residual r, and its estimate
    is relative to ||M^{-1} r||, so it is scaled to ||M^{-1} b||.
    """
    x = np.zeros(op.dim)
    scale = np.linalg.norm(pre.apply(b))
    total = 0
    while total < maxit:
        r = b - op.matvec(x)
        ratio = np.linalg.norm(pre.apply(r)) / scale
        for k, estimate, breakdown, solution in arnoldi(op, pre, r,
                                                         min(m, maxit - total)):
            if (k > 0 or breakdown) and estimate * ratio <= tol:
                return total + k
        x = x + solution()
        total += k
    return None


def family_counts(counts):
    """(PD1..PD4, P1..P4) in table order."""
    return (tuple(counts[name] for name in biot.BENCH_COLUMNS[:4]),
            tuple(counts[name] for name in biot.BENCH_COLUMNS[4:]))


class TestStoppingRules:
    """Other stopping rules over the steps ``gmres`` takes, at N=16, tau=1e-3."""

    def test_equal_true_accuracy_keeps_the_winners(self, cell16):
        # every preset stopped at the same unpreconditioned accuracy
        _, _, asm, op, pres = cell16
        counts = {name: true_residual_count(op, pres[name], asm.rhs, biot.BENCH_TOL)
                  for name in biot.BENCH_COLUMNS}
        assert family_counts(counts) == ((46, 49, 42, 71), (21, 40, 40, 39))
        cells = {(16, 1e-3, name): c for name, c in counts.items()}
        assert biot.ordering_violations(cells, [16], [1e-3]) == []

    @pytest.mark.parametrize("m,want", [
        (5, ((128, 120, 67, 169), (33, 99, 93, 77))),
        (20, ((55, 55, 42, 115), (19, 43, 42, 47))),
        # one cycle is full GMRES: the README row
        (1500, ((41, 42, 37, 61), (19, 38, 38, 33))),
    ])
    def test_restarted_counts_keep_the_winners(self, cell16, m, want):
        _, _, asm, op, pres = cell16
        counts = {name: restarted_count(op, pres[name], asm.rhs, m)
                  for name in biot.BENCH_COLUMNS}
        assert family_counts(counts) == want
        cells = {(16, 1e-3, name): c for name, c in counts.items()}
        assert biot.ordering_violations(cells, [16], [1e-3]) == []


class TestExport:
    def test_round_trip(self, asm4, tmp_path):
        manifest = biot.export_blocks(asm4, tmp_path / "blocks")
        source = {"A_1.mtx": "a_u", "A_2.mtx": "a_xi", "A_3.mtx": "a_p",
                  "B_1.mtx": "b_uxi_t", "B_2.mtx": "b_xip_t",
                  "C_1.mtx": "b_uxi", "C_2.mtx": "b_xip",
                  "M_xi.mtx": "m_xi", "M_p.mtx": "m_p"}
        files = sorted(p.name for p in (tmp_path / "blocks").iterdir())
        assert files == sorted([*source, "manifest.txt"])
        assert manifest.read_text().splitlines() == ["n=3"] + [
            f"{name[0]} {name[2]} {name}" for name in source if name[0] != "M"]
        for name, attr in source.items():
            got = read_matrix_market(manifest.parent / name)
            want = getattr(asm4, attr)
            assert got.shape == want.shape, attr
            for arr in ("row_offsets", "col_indices", "values"):
                assert np.array_equal(getattr(got, arr), getattr(want, arr)), attr


class TestPaperTheory:
    """The exact presets on the benchmark's own blocks, read back from export."""

    @pytest.fixture(scope="class")
    def sys4(self, asm4, tmp_path_factory):
        manifest = biot.export_blocks(asm4, tmp_path_factory.mktemp("biot4"))
        return blocks.load_system(manifest)

    def test_export_assembles_to_operator(self, asm4, sys4):
        op = biot.biot_operator(asm4)
        cols = np.column_stack([op.matvec(e) for e in np.eye(op.dim)])
        assert sys4.sizes == asm4.sizes
        assert np.array_equal(blocks.assemble(sys4), cols)

    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "Q1", "Q2"])
    def test_exact_preset_annihilates(self, sys4, name):
        system, a = sys4, blocks.assemble(sys4)
        if name in precond.ADDITIVE_PRESETS:
            system = blocks.ArrowheadSystem(sys4)
            a = blocks.assemble_arrowhead(system)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner(name, system), a)
        factors = verify.predicted_polynomial(name)
        assert verify.annihilation_residual(t, factors) <= verify.ANNIHILATION_TOL
