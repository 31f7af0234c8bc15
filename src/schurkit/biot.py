"""Three-field poroelasticity benchmark on the unit square.

Displacement in vector P2, total pressure and fluid pressure in P1
(Taylor-Hood pair plus P1), one backward-Euler step from a zero initial
state.  The assembled system is block-tridiagonal with a negated middle
block, matching the saddle point layout the preconditioner families
expect.  The two Schur complements are approximated by a scaled total
pressure mass matrix and a mass-shifted pressure block (the classical
Fourier-symbol approximations), then factored with drop-tolerance
incomplete Cholesky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import precond as pc
from .blocks import write_blocks
from .krylov import GmresBreakdownError, IterationTable, LinearOperator, gmres
from .sparse import (CsrMatrix, csr_add, csr_from_triplets, csr_scale,
                     csr_transpose, ic_solve, ichol, spmv, write_matrix_market)

#: benchmark table column order: diagonal family first, then triangular
BENCH_COLUMNS = ("PD1", "PD2", "PD3", "PD4", "P1", "P2", "P3", "P4")


@dataclass(frozen=True)
class BiotParameters:
    """Material and discretization data; Lame parameters are derived."""

    E: float = 1.0
    nu: float = 0.499
    alpha: float = 1.0
    c0: float = 1.0
    K: float = 1.0
    dt: float = 1.0
    body_force: tuple = (1.0, 1.0)
    source: float = 1.0

    def __post_init__(self):
        for name in ("E", "nu", "alpha", "c0", "K", "dt", "source"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        try:
            force = np.asarray(self.body_force, dtype=float)
        except (TypeError, ValueError):
            force = None
        if force is None or force.shape != (2,) or not np.isfinite(force).all():
            raise ValueError(
                f"body_force must be two finite numbers, got {self.body_force!r}")
        for name, value in (("Young's modulus E", self.E), ("permeability K", self.K),
                            ("time step dt", self.dt)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio nu must be in (0, 0.5), got {self.nu}")
        if not self.c0 >= 0:
            raise ValueError(f"storage coefficient c0 must be nonnegative, got {self.c0}")

    @property
    def lam(self):
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self):
        return self.E / (2.0 * (1.0 + self.nu))


@dataclass(frozen=True)
class TriangularMesh:
    """Uniform right-triangle mesh of the unit square.

    Each grid cell is split along the diagonal from its lower-left to its
    upper-right corner; vertices are numbered lexicographically (x fastest)
    and edges by sorted vertex pair.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    tri_edges: np.ndarray

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def p2_node_coords(self):
        mids = 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])
        return np.vstack([self.vertices, mids])


def build_mesh(n):
    if n < 1:
        raise ValueError("need at least one cell per side")
    line = np.arange(n + 1) / n
    xx, yy = np.meshgrid(line, line, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # lower-left vertex of each cell, row by row; two triangles per cell
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    triangles = np.stack([v00, v00 + 1, v00 + n + 2,
                          v00, v00 + n + 2, v00 + n + 1], axis=1).reshape(-1, 3)
    # local edge k sits opposite local vertex k
    pairs = np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]],
                            triangles[:, [0, 1]]])
    pairs.sort(axis=1)
    nv = vertices.shape[0]
    keys = pairs[:, 0] * nv + pairs[:, 1]
    unique_keys = np.unique(keys)
    edges = np.column_stack([unique_keys // nv, unique_keys % nv])
    idx = np.searchsorted(unique_keys, keys)
    tri_edges = idx.reshape(3, -1).T
    return TriangularMesh(n=n, vertices=vertices, triangles=triangles,
                          edges=edges, tri_edges=tri_edges)


# quadrature rules in barycentric coordinates (weights sum to 1)
_QUAD_DEG2 = (
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
    np.array([1.0, 1.0, 1.0]) / 3.0,
)
_A6 = 0.445948490915965
_B6 = 0.091576213509771
_QUAD_DEG4 = (
    np.array([
        [_A6, _A6, 1.0 - 2.0 * _A6],
        [_A6, 1.0 - 2.0 * _A6, _A6],
        [1.0 - 2.0 * _A6, _A6, _A6],
        [_B6, _B6, 1.0 - 2.0 * _B6],
        [_B6, 1.0 - 2.0 * _B6, _B6],
        [1.0 - 2.0 * _B6, _B6, _B6],
    ]),
    np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
)


def _geometry(mesh):
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    if (area <= 0).any():
        raise ValueError("mesh contains nonpositively oriented triangles")
    grad_l = np.empty((mesh.num_triangles, 3, 2))
    x, y = p[:, :, 0], p[:, :, 1]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grad_l[:, i, 0] = (y[:, j] - y[:, k]) / det
        grad_l[:, i, 1] = (x[:, k] - x[:, j]) / det
    return area, grad_l


def _p2_values(l):
    l0, l1, l2 = l
    return np.array([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ])


def _p2_grads(l, grad_l):
    # (nt, 6, 2) gradients at one barycentric point
    l0, l1, l2 = l
    g = np.empty((grad_l.shape[0], 6, 2))
    for i, li in enumerate((l0, l1, l2)):
        g[:, i] = (4 * li - 1) * grad_l[:, i]
    g[:, 3] = 4 * (l1 * grad_l[:, 2] + l2 * grad_l[:, 1])
    g[:, 4] = 4 * (l2 * grad_l[:, 0] + l0 * grad_l[:, 2])
    g[:, 5] = 4 * (l0 * grad_l[:, 1] + l1 * grad_l[:, 0])
    return g


@dataclass
class BiotAssembly:
    """Assembled blocks and right-hand side."""

    a_u: CsrMatrix
    b_uxi: CsrMatrix
    b_uxi_t: CsrMatrix
    a_xi: CsrMatrix
    b_xip: CsrMatrix
    b_xip_t: CsrMatrix
    a_p: CsrMatrix
    m_xi: CsrMatrix
    m_p: CsrMatrix
    rhs: np.ndarray

    @property
    def sizes(self):
        return (self.a_u.rows, self.a_xi.rows, self.a_p.rows)

    @property
    def total_size(self):
        return sum(self.sizes)


def assemble_biot(mesh, params, apply_bcs=True):
    """Assemble the one-step three-field system.

    Fields: vector P2 displacement (x dofs then y dofs), P1 total
    pressure, P1 fluid pressure.  Dirichlet walls are the vertical lines
    x=0 and x=1 for both displacement and fluid pressure; elimination is
    symmetric (homogeneous data).  The right-hand side carries the body
    force and one implicit step of the source from a zero initial state.
    """
    lam, mu = params.lam, params.mu
    nt = mesh.num_triangles
    nv = mesh.num_vertices
    n_scalar = nv + mesh.num_edges
    area, grad_l = _geometry(mesh)
    tri = mesh.triangles
    nodes = np.hstack([tri, nv + mesh.tri_edges])        # (nt, 6) scalar P2 nodes

    ke_u = np.zeros((nt, 12, 12))
    ke_b = np.zeros((nt, 3, 12))
    ke_m = np.zeros((nt, 3, 3))
    load_u = np.zeros((nt, 6))
    load_p1 = np.zeros((nt, 3))

    pts4, wts4 = _QUAD_DEG4
    for l, w in zip(pts4, wts4):
        g = _p2_grads(l, grad_l)
        b = np.zeros((nt, 3, 12))
        b[:, 0, 0:6] = g[:, :, 0]
        b[:, 1, 6:12] = g[:, :, 1]
        b[:, 2, 0:6] = g[:, :, 1]
        b[:, 2, 6:12] = g[:, :, 0]
        bd = b.copy()
        bd[:, 2] *= 0.5
        ke_u += (2.0 * mu * w * area)[:, None, None] * np.einsum(
            "tik,til->tkl", bd, b)

    pts2, wts2 = _QUAD_DEG2
    for l, w in zip(pts2, wts2):
        g = _p2_grads(l, grad_l)
        div = np.concatenate([g[:, :, 0], g[:, :, 1]], axis=1)   # (nt, 12)
        p1v = np.asarray(l)
        ke_b += -(w * area)[:, None, None] * (p1v[None, :, None] * div[:, None, :])
        ke_m += (w * area)[:, None, None] * np.outer(p1v, p1v)[None]
        p2v = _p2_values(l)
        load_u += (w * area)[:, None] * p2v[None, :]
        load_p1 += (w * area)[:, None] * p1v[None, :]

    ke_stiff = area[:, None, None] * np.einsum("tia,tja->tij", grad_l, grad_l)

    udofs = np.hstack([nodes, nodes + n_scalar])         # (nt, 12)
    x = mesh.p2_node_coords()[:, 0]                      # vertices first
    off_wall = (x != 0.0) & (x != 1.0) if apply_bcs else np.ones(n_scalar, dtype=bool)
    u_free = np.concatenate([off_wall, off_wall])
    p_free = off_wall[:nv]
    # each dof's row and column in its block, -1 on the walls: the
    # Dirichlet rows and columns are dropped while scattering
    u_num, p_num = (np.where(free, np.cumsum(free) - 1, -1) for free in (u_free, p_free))
    xi_num = np.arange(nv)

    def scatter(row_num, rows_dofs, col_num, cols_dofs, ke):
        ii = np.repeat(row_num[rows_dofs], cols_dofs.shape[1], axis=1).ravel()
        jj = np.tile(col_num[cols_dofs], (1, rows_dofs.shape[1])).ravel()
        keep = (ii >= 0) & (jj >= 0)
        # rebound, so the unfiltered index arrays are freed before assembly
        ii, jj, vv = ii[keep], jj[keep], ke.ravel()[keep]
        return csr_from_triplets(row_num.max(initial=-1) + 1, col_num.max(initial=-1) + 1,
                                 (ii, jj, vv))

    a_u = scatter(u_num, udofs, u_num, udofs, ke_u)
    b_uxi = scatter(xi_num, tri, u_num, udofs, ke_b)
    m_xi = scatter(xi_num, tri, xi_num, tri, ke_m)
    m_p = scatter(p_num, tri, p_num, tri, ke_m)
    a_xi = scatter(xi_num, tri, xi_num, tri, (1.0 / lam) * ke_m)
    b_xip = scatter(p_num, tri, xi_num, tri, (params.alpha / lam) * ke_m)
    a_p = csr_add(
        csr_scale(m_p, -(params.c0 + params.alpha ** 2 / lam)),
        csr_scale(scatter(p_num, tri, p_num, tri, ke_stiff), -params.dt * params.K),
    )

    f_u = np.zeros(2 * n_scalar)
    np.add.at(f_u, nodes.ravel(),
              params.body_force[0] * load_u.ravel())
    np.add.at(f_u, (nodes + n_scalar).ravel(),
              params.body_force[1] * load_u.ravel())
    f_p = np.zeros(nv)
    np.add.at(f_p, tri.ravel(), -params.dt * params.source * load_p1.ravel())
    f_xi = np.zeros(nv)

    rhs = np.concatenate([f_u[u_free], f_xi, f_p[p_free]])
    return BiotAssembly(
        a_u=a_u, b_uxi=b_uxi, b_uxi_t=csr_transpose(b_uxi),
        a_xi=a_xi, b_xip=b_xip, b_xip_t=csr_transpose(b_xip),
        a_p=a_p, m_xi=m_xi, m_p=m_p, rhs=rhs,
    )


def biot_operator(assembly):
    """Monolithic matvec for the assembled block system."""
    nu, nxi, np_ = assembly.sizes
    a = assembly

    def mv(v):
        vu, vxi, vp = v[:nu], v[nu:nu + nxi], v[nu + nxi:]
        yu = spmv(a.a_u, vu) + spmv(a.b_uxi_t, vxi)
        yxi = spmv(a.b_uxi, vu) - spmv(a.a_xi, vxi) + spmv(a.b_xip_t, vp)
        yp = spmv(a.b_xip, vxi) + spmv(a.a_p, vp)
        return np.concatenate([yu, yxi, yp])

    return LinearOperator(assembly.total_size, mv)


def fourier_schur_approx(assembly, params):
    """Mass-based approximations of the two Schur complements.

    The middle complement is (1/lam + 1/(2 mu)) M_xi; the trailing one is
    A_p + 2 mu alpha^2 / (lam (lam + 2 mu)) M_p.  The scalar identity
    -(c0 + a^2/lam) + shift == -(c0 + a^2/(2 mu + lam)) is checked here.
    """
    lam, mu, al = params.lam, params.mu, params.alpha
    scale_xi = 1.0 / lam + 1.0 / (2.0 * mu)
    shift = 2.0 * mu * al ** 2 / (lam * (lam + 2.0 * mu))
    lhs = -(params.c0 + al ** 2 / lam) + shift
    rhs = -(params.c0 + al ** 2 / (2.0 * mu + lam))
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
        raise AssertionError("mass-shift coefficient identity failed")
    s_xi = csr_scale(assembly.m_xi, scale_xi)
    s_p = csr_add(assembly.a_p, csr_scale(assembly.m_p, shift))
    return s_xi, s_p


@dataclass
class BiotPreconditioners:
    """The eight inexact presets sharing three incomplete factors."""

    by_name: dict
    factor_u: object
    factor_xi: object
    factor_p: object

    def __getitem__(self, name):
        return self.by_name[name]


def build_biot_preconditioners(assembly, params, tau):
    """IC(tau)-backed instances of the four triangular and four diagonal
    presets on the assembled system.

    The trailing complement approximation is negative definite, so its
    negation is factored and the solve is negated back.
    """
    if not tau >= 0:
        raise ValueError(f"drop tolerance must be >= 0, got {tau}")
    s_xi, s_p = fourier_schur_approx(assembly, params)
    fac_u = ichol(assembly.a_u, tau)
    fac_xi = ichol(s_xi, tau)
    fac_p = ichol(csr_scale(s_p, -1.0), tau)
    solves = (
        lambda v: ic_solve(fac_u, v),
        lambda v: ic_solve(fac_xi, v),
        lambda v: -ic_solve(fac_p, v),
    )
    subs = (
        lambda v: spmv(assembly.b_uxi, v),
        lambda v: spmv(assembly.b_xip, v),
    )
    sizes = assembly.sizes
    by_name = {}
    for name in BENCH_COLUMNS:
        by_name[name] = pc.make_preconditioner(
            name, sizes=sizes, solves=solves, sub_matvecs=subs)
    return BiotPreconditioners(by_name=by_name, factor_u=fac_u,
                               factor_xi=fac_xi, factor_p=fac_p)


# benchmark stopping tolerance, calibrated so coarse meshes are not
# over-solved: at much tighter tolerances the 16->32 refinement growth of
# the best-preconditioned cells quantizes below its expected range
BENCH_TOL = 4e-6
BENCH_MAXIT = 1500   # GMRES iteration cap; a cell that reaches it prints >maxit


def biot_rows(n_values, tau_values):
    """Yield the benchmark rows (n, tau, assembly, operator, presets) in table
    order, each set up when reached: one assembly per N, presets per (N, tau)."""
    params = BiotParameters()
    for n in n_values:
        asm = assemble_biot(build_mesh(n), params)
        op = biot_operator(asm)
        for tau in tau_values:
            yield n, tau, asm, op, build_biot_preconditioners(asm, params, tau)


def solve_cell(row, name, tol=BENCH_TOL, maxit=BENCH_MAXIT):
    """(count, stats, x) of GMRES with one preset on a ``biot_rows`` row: count
    is the iteration count if GMRES converged within maxit, else None, and a
    breakdown gives (None, None, None)."""
    _, _, asm, op, pres = row
    try:
        x, stats = gmres(op, pres[name], asm.rhs, tol=tol, maxit=maxit)
    except GmresBreakdownError:
        return None, None, None
    return (stats.iterations if stats.converged else None), stats, x


def benchmark(n_values, tau_values, tol=BENCH_TOL, maxit=BENCH_MAXIT):
    """GMRES iteration counts over the (N, tau, preset) grid.

    Returns (tables, counts): one IterationTable per tau (rows are mesh
    sizes, columns the presets in table order) and a flat dict keyed by
    (N, tau, preset) of ``solve_cell`` counts.  A table whose IC factors
    needed a diagonal shift names each such N and block in a header note,
    since a restart changes the counts.
    """
    counts = {}
    shifted = {tau: [] for tau in tau_values}
    for row in biot_rows(n_values, tau_values):
        n, tau, _, _, pres = row
        for block in ("u", "xi", "p"):
            shift = getattr(pres, f"factor_{block}").shift
            if shift:
                shifted[tau].append(f"N={n} {block} {shift:g}")
        for name in BENCH_COLUMNS:
            counts[(n, tau, name)] = solve_cell(row, name, tol, maxit)[0]

    notes = (
        "rhs: body force (1,1), source 1, one implicit step from rest",
        "dirichlet walls: x=0 and x=1 for displacement and fluid pressure",
    )
    tables = []
    for tau in tau_values:
        rows = [f"{n}x{n}" for n in n_values]
        grid = [[counts[(n, tau, name)] for name in BENCH_COLUMNS]
                for n in n_values]
        shift_notes = (("ic diagonal shift: " + ", ".join(shifted[tau]),)
                       if shifted[tau] else ())
        tables.append((tau, IterationTable(
            row_labels=rows, col_labels=list(BENCH_COLUMNS), counts=grid,
            tol=tol, maxit=maxit,
            header_notes=(f"ic drop tolerance tau={tau:g}",) + shift_notes + notes)))
    return tables, counts


#: the iteration-count rules of acceptance criterion 7, by sub-criterion;
#: key "" holds the cells that did not converge
ORDERING_RULES = {
    "": "every cell converges",
    "a": "triangular family won by the positive stable preset",
    "b": "diagonal family won by the positive stable preset",
    "d": "counts monotone as the drop tolerance tightens",
    "e": "refinement growth ratio within [1.3, 3.5]",
}


def ordering_violations(counts, n_values, tau_values):
    """Qualitative iteration-count structure checks.

    Returns (key, message) pairs, keyed as in ORDERING_RULES; an empty
    list means none.  The rules: the triangular preset with
    all-positive-real predicted spectrum wins its family, the diagonal one
    likewise, counts do not increase when the drop tolerance tightens, and
    per-preset growth under mesh refinement stays within [1.3, 3.5].  A
    cell that did not converge is reported once and counts as infinite in
    the rules.  The sign twins P2 and P3 (P3 = P2 diag(I, I, -I)) are not
    compared: the theory predicts no bound on their count gap under
    inexact Schur solves, and it reaches about 10% once the counts pass 70.
    """
    bad = []
    c = {}
    for n in n_values:
        for tau in tau_values:
            for name in BENCH_COLUMNS:
                v = counts.get((n, tau, name))
                if v is None:
                    bad.append(("", f"N={n} tau={tau:g} {name}: did not converge"))
                c[(n, tau, name)] = math.inf if v is None else v

    for n in n_values:
        for tau in tau_values:
            p = {k: c[(n, tau, k)] for k in BENCH_COLUMNS}
            if not p["P1"] < min(p["P2"], p["P3"], p["P4"]):
                bad.append(("a", f"N={n} tau={tau:g}: P1 not strictly best triangular"))
            if not p["PD3"] < min(p["PD1"], p["PD2"], p["PD4"]):
                bad.append(("b", f"N={n} tau={tau:g}: PD3 not strictly best diagonal"))
    taus = sorted(tau_values, reverse=True)
    for hi, lo in zip(taus, taus[1:]):
        for n in n_values:
            for name in BENCH_COLUMNS:
                if c[(n, lo, name)] > c[(n, hi, name)]:
                    bad.append(("d", f"N={n} {name}: tau={lo:g} count exceeds "
                                     f"tau={hi:g}"))
    ns = sorted(n_values)
    for na, nb in zip(ns, ns[1:]):
        for tau in tau_values:
            for name in BENCH_COLUMNS:
                ratio = c[(nb, tau, name)] / c[(na, tau, name)]
                if not 1.3 <= ratio <= 3.5:
                    bad.append(("e", f"{name} tau={tau:g}: growth {na}->{nb} "
                                     f"ratio {ratio:.2f} outside [1.3, 3.5]"))
    return bad


# ---------------------------------------------------------------------------
# block export

def export_blocks(assembly, directory):
    """Write the three-block system and the two mass matrices.

    The system blocks go through ``blocks.write_blocks``, so
    ``blocks.load_system`` reads the manifest back: A_i are the diagonal
    blocks, B_i the stored superdiagonal blocks (the transposed couplings)
    and C_i the subdiagonal ones.  M_xi.mtx and M_p.mtx sit beside the
    manifest.  Returns the manifest path.
    """
    a = assembly
    manifest = write_blocks(directory, (a.a_u, a.a_xi, a.a_p),
                            (a.b_uxi_t, a.b_xip_t), (a.b_uxi, a.b_xip))
    write_matrix_market(manifest.parent / "M_xi.mtx", a.m_xi)
    write_matrix_market(manifest.parent / "M_p.mtx", a.m_p)
    return manifest
