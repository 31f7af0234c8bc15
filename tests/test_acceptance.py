"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The poroelastic benchmark sweep (criterion 7) runs once as a module fixture
and is by far the slowest part (several minutes at the 64x64 mesh).
"""

import math
import time
import zlib

import numpy as np
import pytest

from schurkit import biot, blocks, dense, precond, verify
from schurkit.krylov import gmres, LinearOperator


def announce(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name} {detail}"


def draw_sizes(rng):
    # build_preconditioned orders the sizes as each preset's hypothesis needs
    return tuple(int(s) for s in rng.integers(2, 9, size=3))


ANNIHILATION_PRESETS = ("P1", "P2", "P3", "P4", "PD1", "PD2", "PD3", "PD4",
                        "Q1", "Q2", "QD1", "QD2")


def test_criterion_01_minimal_polynomial_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for preset in ANNIHILATION_PRESETS:
        for seed in range(50):
            rng = np.random.default_rng((zlib.crc32(preset.encode()), seed))
            sizes = draw_sizes(rng)
            t, _, _ = verify.build_preconditioned(preset, seed, sizes)
            r = verify.annihilation_residual(
                t, verify.predicted_polynomial(preset))
            worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    announce("criterion-1 minimal-polynomial annihilation",
             worst <= 1e-9 and elapsed < 30.0,
             f"worst residual {worst:.3e}, {elapsed:.1f}s")


REFERENCE_SPECTRA = {
    "PD1": [-1.2470, -0.6180, 0.4450, 1.0, 1.6180, 1.8019],
    "PD2": [-0.618, complex(-0.2328, 0.7926), complex(-0.2328, -0.7926),
            1.0, 1.4656, 1.618],
    "PD3": [0.5698, 1.0, complex(0.5, 0.8660), complex(0.5, -0.8660),
            complex(0.2151, 1.3071), complex(0.2151, -1.3071)],
    "PD4": [-0.7549, 1.0, complex(0.5, 0.8660), complex(0.5, -0.8660),
            complex(0.8774, 0.7449), complex(0.8774, -0.7449)],
    "QD1": [1.0, (1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2],
    "QD2": [1.0, complex(0.5, math.sqrt(3) / 2), complex(0.5, -math.sqrt(3) / 2)],
}


def test_criterion_02_reference_spectra():
    worst = 0.0
    for preset, printed in REFERENCE_SPECTRA.items():
        printed = [complex(z) for z in printed]
        for seed in range(5):
            t, _, _ = verify.build_preconditioned(preset, seed, (6, 4, 3))
            eigs = dense.eigenvalues(t)
            rep = verify.spectrum_membership(eigs, printed)
            worst = max(worst, rep.max_membership_distance)
    announce("criterion-2 reference spectra within 1e-3",
             worst <= 1e-3, f"worst distance {worst:.3e}")


def test_criterion_03_positive_stability():
    margin = 1e-8
    ok = True
    detail = []
    for seed in range(5):
        t, _, _ = verify.build_preconditioned("PD3", seed, (6, 4, 3))
        if not min(z.real for z in dense.eigenvalues(t)) > margin:
            ok = False
            detail.append(f"PD3 seed {seed}")
    for n in range(2, 9):
        for seed in range(3):
            row = verify.verify_preset("Dn", seed, (9, 7, 5), n=n)
            if not row.min_real_part > margin:
                ok = False
                detail.append(f"Dn zero-tail n={n} seed {seed}")
    for n in range(2, 9):
        for seed in range(3):
            sizes = tuple(((6, 5, 4, 3) * 2)[:n])
            opts = blocks.SystemOptions(seed=seed, sizes=sizes,
                                        symmetric_spd=True)
            s = blocks.random_system(opts)
            t = precond.preconditioned_matrix(
                precond.make_preconditioner("Dn", s), blocks.assemble(s))
            if not min(z.real for z in dense.eigenvalues(t)) > margin:
                ok = False
                detail.append(f"Dn spd n={n} seed {seed}")
    witness = False
    for n in range(2, 9):
        row = verify.verify_preset("Mn", 0, (9, 7, 5), n=n)
        if row.min_real_part <= 0.0:
            witness = True
            break
    if not witness:
        ok = False
        detail.append("no unstable witness for the all-plus diagonal family")
    announce("criterion-3 positive stability", ok, "; ".join(detail))


def test_criterion_04_recurrence_and_routh_structure():
    ok = all(verify.coefficient_law_check(k, tol=1e-10) for k in range(3, 13))
    polys = verify.pbar_polynomials(12)
    for k in range(1, 13):
        table = verify.routh_table(polys[k])
        if table.sign_changes != k:
            ok = False
        if any(abs(v - (-1.0) ** i) > 1e-10
               for i, v in enumerate(table.first_column)):
            ok = False
    announce("criterion-4 coefficient law and Routh alternation", ok)


def test_criterion_05_symmetric_condition_bound():
    target = [complex(2 * math.cos((2 * i - 1) / (2 * j + 1) * math.pi))
              for j in (1, 2, 3) for i in range(1, j + 1)]
    worst_dist = 0.0
    worst_cond = 0.0
    for seed in range(10):
        opts = blocks.SystemOptions(seed=seed, sizes=(7, 5, 3),
                                    zero_tail=True, symmetric_spd=True)
        s = blocks.random_system(opts)
        t = precond.preconditioned_matrix(
            precond.make_preconditioner("PD1", s), blocks.assemble(s))
        eigs = dense.eigenvalues(t)
        rep = verify.spectrum_membership(eigs, target)
        worst_dist = max(worst_dist, rep.max_membership_distance)
        mags = [abs(z) for z in eigs]
        # a zero eigenvalue makes the condition infinite, which fails the bound
        cond = max(mags) / min(mags) if min(mags) > 0.0 else math.inf
        worst_cond = max(worst_cond, cond)
    announce("criterion-5 symmetric spectrum and condition bound",
             worst_dist <= 1e-6 and worst_cond <= 4.06,
             f"max distance {worst_dist:.3e}, max condition {worst_cond:.4f}")


def test_criterion_06_gmres_finite_termination():
    bounds = {"P1": 3, "P2": 3, "P3": 3, "P4": 3,
              "PD1": 6, "PD2": 6, "PD3": 6, "PD4": 6,
              "Q1": 2, "Q2": 2, "QD1": 3, "QD2": 3}
    ok = True
    detail = []
    for preset, bound in bounds.items():
        for seed in range(5):
            _, system, a = verify.build_preconditioned(preset, seed, (6, 5, 4))
            p = precond.make_preconditioner(preset, system)
            op = LinearOperator(len(a), lambda v: a @ v)
            _, stats = gmres(op, p, np.ones(op.dim), tol=1e-12, maxit=50)
            if not (stats.converged and stats.iterations <= bound):
                ok = False
                detail.append(f"{preset} seed {seed}: {stats.iterations}")
    for n in range(2, 9):
        sizes = tuple(((6, 5, 4, 3) * 2)[:n])
        s = blocks.random_system(blocks.SystemOptions(seed=60 + n, sizes=sizes))
        a = blocks.assemble(s)
        op = LinearOperator(len(a), lambda v: a @ v)
        p = precond.make_preconditioner("Pn", s)
        _, stats = gmres(op, p, np.ones(op.dim), tol=1e-12, maxit=50)
        if not (stats.converged and stats.iterations <= n):
            ok = False
            detail.append(f"Pn n={n}: {stats.iterations}")
    announce("criterion-6 finite termination at predicted degree", ok,
             "; ".join(detail))


def sign_twin_mismatches(tau_values):
    """Where the IC-backed P3 is not exactly P2 followed by E = diag(I, I, -I).

    P2 and P3 share every block solve and coupling and differ only in the
    sign of the trailing block, so P3.apply(v) must equal E * P2.apply(v)
    bitwise.  That follows from how the presets are wired, not from the
    mesh, so the 16x16 mesh suffices.  Their iteration counts need not
    agree: GMRES minimizes the same norm over different Krylov spaces.
    """
    bad = []
    for _, tau, asm, _, pres in biot.biot_rows([16], tau_values):
        e = np.ones(asm.total_size)
        e[asm.total_size - asm.sizes[2]:] = -1.0
        probes = {"rhs": asm.rhs,
                  "random": np.random.default_rng(0).standard_normal(asm.total_size)}
        p2, p3 = pres["P2"], pres["P3"]
        # functions compare by identity, so P3 with its own factor fails here
        if (p3.solves, p3.sub_matvecs) != (p2.solves, p2.sub_matvecs):
            bad.append(f"tau={tau:g}: P3 does not share P2's block solves "
                       f"and couplings")
        for label, v in probes.items():
            if p3.apply(v).tobytes() != (e * p2.apply(v)).tobytes():
                bad.append(f"tau={tau:g}: P3 v != E P2 v for the {label} vector")
    return bad


@pytest.fixture(scope="module")
def biot_sweep():
    n_values = (16, 32, 64)
    tau_values = (1e-3, 1e-4)
    t0 = time.perf_counter()
    _, counts = biot.benchmark(n_values, tau_values, maxit=1500)
    return n_values, tau_values, counts, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_07_biot_benchmark_trends(biot_sweep):
    # exact printed iteration counts are not reproducible (stopping rule,
    # right-hand side, and incomplete-factorization variant are free
    # choices); the acceptance check is the qualitative structure
    n_values, tau_values, counts, elapsed = biot_sweep
    for n in n_values:
        for tau in tau_values:
            print(f"N={n} tau={tau:g}: " + " ".join(
                f"{k}={counts[(n, tau, k)]}" for k in biot.BENCH_COLUMNS))

    sub = {key: [] for key in biot.ORDERING_RULES}
    sub["c"] = sign_twin_mismatches(tau_values)
    for key, msg in biot.ordering_violations(counts, n_values, tau_values):
        sub[key].append(msg)
    text = dict(biot.ORDERING_RULES,
                c="sign-twin presets exact: P3 v == diag(I, I, -I) P2 v at N=16")
    twin_counts = "; ".join(
        f"N={n} tau={tau:g} P2={counts[(n, tau, 'P2')]} "
        f"P3={counts[(n, tau, 'P3')]}" for n in n_values for tau in tau_values)
    for key in sorted(sub):
        state = "PASS" if not sub[key] else "FAIL"
        detail = "" if not sub[key] else " @ " + "; ".join(sub[key])
        if key == "c":
            detail += f" [counts, not gated: {twin_counts}]"
        print(f"{state} criterion-7{key} {text[key]}{detail}")
    in_time = elapsed < 600.0
    print(f"{'PASS' if in_time else 'FAIL'} criterion-7 sweep wall clock "
          f"{elapsed:.0f}s, bound 600s")
    bad = [f"(7{k}) {'; '.join(v)}" for k, v in sorted(sub.items()) if v]
    if not in_time:
        bad.append(f"(time) sweep took {elapsed:.0f}s, bound 600s")
    announce("criterion-7 poroelastic benchmark trends", not bad,
             " | ".join(bad) or f"({elapsed:.0f}s)")


# the sweep's 48 counts, columns in biot.BENCH_COLUMNS order, as
# `schurkit biot --N 16,32,64 --tau 1e-3,1e-4 --format csv` printed them with
# the default BLAS thread count (one thread gave the same table)
SWEEP_COUNTS = {
    (16, 1e-3): (41, 42, 37, 61, 19, 38, 38, 33),
    (32, 1e-3): (75, 79, 65, 136, 38, 66, 68, 79),
    (64, 1e-3): (158, 184, 142, 378, 86, 151, 169, 228),
    (16, 1e-4): (28, 28, 26, 37, 12, 23, 23, 19),
    (32, 1e-4): (40, 38, 37, 55, 19, 36, 34, 30),
    (64, 1e-4): (70, 73, 63, 117, 37, 65, 64, 68),
}


@pytest.mark.slow
def test_criterion_07_counts_match_the_recorded_table(biot_sweep):
    _, _, counts, _ = biot_sweep
    changed = [f"N={n} tau={tau:g} {name}: {counts[(n, tau, name)]}, recorded {want}"
               for (n, tau), row in SWEEP_COUNTS.items()
               for name, want in zip(biot.BENCH_COLUMNS, row)
               if counts[(n, tau, name)] != want]
    assert len(counts) == 48 and not changed, "; ".join(changed)


def test_criterion_08_ldu_reconstruction():
    worst = 0.0
    for n in range(2, 9):
        for seed in range(5):
            sizes = tuple(((6, 4, 5, 3) * 2)[:n])
            s = blocks.random_system(blocks.SystemOptions(seed=seed, sizes=sizes))
            a = blocks.assemble(s)
            l, d, u = precond.build_ldu(s)
            worst = max(worst, np.linalg.norm(l @ d @ u - a)
                        / np.linalg.norm(a))
    announce("criterion-8 block LDU reconstruction",
             worst <= 1e-11, f"worst relative error {worst:.3e}")
