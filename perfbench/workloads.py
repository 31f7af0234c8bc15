"""The benchmark's workloads, driven through schurkit's public functions.

Two kinds: a Biot cell sweep (mesh, assembly, the three IC(tau) factors,
then one GMRES solve per preset, the same calls ``biot.benchmark`` makes)
and a verification sweep (every row ``verify.run_suite`` produces, called
row by row so that an exception fails one row, not the whole seed).

``run_pass`` runs one whole workload and returns a PassResult; the
correctness checks between operations run outside the timed regions and,
under a Tracer, untraced.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if not (_SRC / "schurkit" / "__init__.py").is_file():
    raise ImportError(f"schurkit sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from schurkit import biot, blocks, dense, krylov, sparse, verify  # noqa: E402
from schurkit import precond as pc  # noqa: E402

#: GMRES iteration cap, as in ``biot.benchmark``
MAXIT = 1500
#: a cell fails when its true preconditioned residual exceeds this many tol
RESIDUAL_SLACK = 10.0
#: ``verify.verify_routh`` rows per seed (its default k_max)
ROUTH_ROWS = 12
#: block sizes and n-family sweep of the verify rows, as ``run_suite`` takes them
SIZES = (9, 7, 5)
N_SWEEP = 8
N_FAMILIES = ("Pn", "Dn", "Mn")


@dataclass
class PassResult:
    """One run of a whole workload."""

    setup_s: float | None     # None: the pass has no set-up phase
    solve_s: float
    ops: int                  # GMRES iterations, or verify rows completed
    attempted: int            # biot cells, or verify rows
    failed: int
    wrong: list               # operations whose output is wrong (not just failed)
    outcomes: tuple           # per operation: iteration count or verdict
    details: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return (self.setup_s or 0.0) + self.solve_s


class BiotWorkload:
    """GMRES on the three-field Biot system for a list of presets."""

    def __init__(self, n, tau, presets, reference=None):
        self.n = n
        self.tau = tau
        self.presets = tuple(presets)
        self.reference = reference
        self.params = biot.BiotParameters()
        #: block size -> factor label (u, xi, p), filled in by setup
        self.blocks = {}

    def describe(self):
        return f"N={self.n} tau={self.tau:g} presets={','.join(self.presets)}"

    def setup(self):
        t0 = time.perf_counter()
        mesh = biot.build_mesh(self.n)
        t1 = time.perf_counter()
        asm = biot.assemble_biot(mesh, self.params)
        op = biot.biot_operator(asm)
        t2 = time.perf_counter()
        self.blocks.update(zip(asm.sizes, ("u", "xi", "p")))
        pres = biot.build_biot_preconditioners(asm, self.params, self.tau)
        t3 = time.perf_counter()
        phases = {"mesh_s": t1 - t0, "assemble_s": t2 - t1, "precond_s": t3 - t2}
        return asm, op, pres, phases

    def setup_only(self):
        return sum(self.setup()[3].values())

    def run_pass(self, tracer=None):
        if tracer is not None:
            tracer.key = "setup"
        asm, op, pres, phases = self.setup()
        setup_s = sum(phases.values())
        cells = {}
        wrong = []
        for name in self.presets:
            if tracer is not None:
                tracer.key = name
            cell = self._solve_cell(op, pres[name], asm.rhs, tracer)
            cells[name] = cell
            if cell["wrong"]:
                wrong.append(name)
        details = {
            "phases": phases,
            "cells": cells,
            "shifts": {"u": pres.factor_u.shift, "xi": pres.factor_xi.shift,
                       "p": pres.factor_p.shift},
            "dim": op.dim,
        }
        if tracer is not None:
            with tracer.paused():
                details["factors"] = factor_stats(asm, pres)
        iters = [c["iterations"] for c in cells.values()]
        return PassResult(
            setup_s=setup_s,
            solve_s=sum(c["solve_s"] for c in cells.values()),
            ops=sum(i for i in iters if i is not None),
            attempted=len(cells),
            failed=sum(not c["ok"] for c in cells.values()),
            wrong=wrong,
            outcomes=tuple(iters),
            details=details)

    def _solve_cell(self, op, pre, rhs, tracer):
        t0 = time.perf_counter()
        try:
            x, stats = krylov.gmres(op, pre, rhs, tol=biot.BENCH_TOL, maxit=MAXIT)
            error = None
        except Exception as exc:  # the cell fails, the sweep goes on
            x, stats, error = None, None, f"{type(exc).__name__}: {exc}"
        solve_s = time.perf_counter() - t0
        cell = {"solve_s": solve_s, "error": error, "iterations": None,
                "converged": False, "true_relres": None,
                "true_prec_relres": None, "ok": False, "wrong": False}
        if stats is None:
            return cell
        cell["iterations"] = stats.iterations
        cell["converged"] = stats.converged
        with tracer.paused() if tracer is not None else nullcontext():
            r = rhs - op.matvec(x)
            relres = float(np.linalg.norm(r) / np.linalg.norm(rhs))
            prec = float(np.linalg.norm(pre.apply(r))
                         / np.linalg.norm(pre.apply(rhs)))
        cell["true_relres"] = relres
        cell["true_prec_relres"] = prec
        close = prec <= RESIDUAL_SLACK * biot.BENCH_TOL
        cell["ok"] = stats.converged and close
        # GMRES reporting convergence while the true residual disagrees
        # is a wrong answer, not only a failed operation
        cell["wrong"] = stats.converged and not close
        if not stats.converged:
            cell["iterations"] = None
        return cell

    def reference_drift(self, result):
        """Cells whose count differs from the stored seed-commit table."""
        if self.reference is None:
            return []
        got = dict(zip(self.presets, result.outcomes))
        return [(name, want, got[name]) for name, want in self.reference.items()
                if got.get(name) != want]


def factor_stats(asm, pres):
    """Structure of the three IC factors, from their public attributes.

    Times the construction of an ``IcFactor`` from each factor's
    ``lower`` (transpose plus both level schedules) as ``schedule_s``.
    """
    out = {"schedule_s": 0.0, "nnz": {}, "shift_max": 0.0}
    for label, fac in (("u", pres.factor_u), ("xi", pres.factor_xi),
                       ("p", pres.factor_p)):
        t0 = time.perf_counter()
        sparse.IcFactor(lower=fac.lower, shift=fac.shift, tau=fac.tau)
        out["schedule_s"] += time.perf_counter() - t0
        out["nnz"][label] = fac.lower.nnz
        out["shift_max"] = max(out["shift_max"], fac.shift)
    lower = pres.factor_u.lower
    out["fill_ratio_u"] = lower.nnz / lower_nnz(asm.a_u)
    out["levels_u"] = level_count(lower)
    return out


def lower_nnz(a):
    """Stored entries on or below the diagonal of a CSR matrix."""
    rows = np.repeat(np.arange(a.rows), np.diff(a.row_offsets))
    return int(np.count_nonzero(a.col_indices <= rows))


def level_count(lower):
    """Depth of the dependency graph of a forward substitution with L."""
    ro, ci = lower.row_offsets, lower.col_indices
    level = np.zeros(lower.rows, dtype=np.int64)
    for i in range(lower.rows):
        deps = ci[ro[i]:ro[i + 1]]
        deps = deps[deps < i]
        if deps.size:
            level[i] = level[deps].max() + 1
    return int(level.max()) + 1 if lower.rows else 0


class VerifyWorkload:
    """Every row of ``verify.run_suite(seed, SIZES, N_SWEEP)`` over seeds."""

    def __init__(self, base_seed, n_seeds=20):
        self.seeds = range(base_seed, base_seed + n_seeds)

    def describe(self):
        return (f"seeds {self.seeds.start}..{self.seeds.stop - 1} "
                f"sizes={SIZES} n_sweep={N_SWEEP}")

    def rows(self):
        """Row specs (kind, seed, preset, n) in ``run_suite`` order."""
        out = []
        presets = list(verify.DEFAULT_VERIFY_PRESETS) + ["Mn"]
        for seed in self.seeds:
            for preset in presets:
                if preset in N_FAMILIES:
                    out.extend(("preset", seed, preset, n)
                               for n in range(2, N_SWEEP + 1))
                else:
                    out.append(("preset", seed, preset, None))
            out.extend(("ldu", seed, None, n) for n in range(2, 9))
            out.append(("routh", seed, None, None))
        return out

    def setup_only(self):
        """Generate the input system of every preset row.

        ``verify_preset`` takes (preset, seed, sizes) and generates its
        own system, so this times generation alone: a change that moves
        work into generation shows here.  Passes do not run it, so their
        times and spans hold only the row calls ``run_suite`` makes.
        """
        t0 = time.perf_counter()
        for kind, seed, preset, n in self.rows():
            if kind == "preset":
                blocks.random_system(
                    verify.hypothesis_options(preset, seed, SIZES, n=n or 3))
        return time.perf_counter() - t0

    def run_pass(self, tracer=None):
        solve_s = 0.0
        verdicts = []
        wrong = []
        errors = Counter()
        for kind, seed, preset, n in self.rows():
            label = f"{seed}:{kind}:{preset or ''}:{n or ''}"
            if tracer is not None:
                tracer.key = label
            t0 = time.perf_counter()
            try:
                if kind == "preset":
                    rows = [verify.verify_preset(preset, seed, SIZES, n=n)]
                elif kind == "ldu":
                    rows = verify.verify_ldu(seed, SIZES, n_range=(n,))
                else:
                    rows = verify.verify_routh(ROUTH_ROWS)
            except Exception as exc:  # the row fails, the sweep goes on
                rows = None
                error = type(exc).__name__
                print(f"row {label} raised {error}: {exc}")
            solve_s += time.perf_counter() - t0
            if rows is None:
                lost = ROUTH_ROWS if kind == "routh" else 1
                errors[error] += lost
                verdicts.extend([error] * lost)
                continue
            for r in rows:
                verdicts.append("pass" if r.passed else "FAIL")
                if not r.passed:
                    wrong.append(f"{seed}:{r.kind}:{r.name}")
        done = sum(v in ("pass", "FAIL") for v in verdicts)
        return PassResult(
            setup_s=None, solve_s=solve_s, ops=done,
            attempted=len(verdicts), failed=len(verdicts) - done, wrong=wrong,
            outcomes=tuple(verdicts), details={"errors": dict(errors)})


def install_spans(tracer, block_labels):
    """Wrap the public calls of each layer at the attribute callers use.

    ``block_labels`` maps a Biot block size to its factor label (u, xi, p).
    """
    w = tracer.wrap
    w(biot, "build_mesh", "biot.build_mesh")
    w(biot, "assemble_biot", "biot.assemble_biot")
    w(biot, "biot_operator", "biot.biot_operator")
    w(biot, "build_biot_preconditioners", "biot.build_biot_preconditioners")
    # biot imported these from sparse; its lambdas look them up in biot
    w(biot, "ichol", "sparse.ichol", lambda a, tau: {"tag": block_labels[a.rows]})
    w(biot, "ic_solve", "sparse.ic_solve", lambda f, b: {"tag": block_labels[f.n]})
    w(biot, "spmv", "sparse.spmv")
    w(krylov, "gmres", "krylov.gmres")
    w(krylov.LinearOperator, "matvec", "krylov.matvec")
    w(pc.BlockDiagonalPreconditioner, "apply", "precond.apply")
    w(pc.BlockTriangularPreconditioner, "apply", "precond.apply")
    w(pc, "make_preconditioner", "precond.make_preconditioner",
      lambda name, system=None, *a, **k: {
          "tag": "inexact" if system is None else "exact"})
    w(pc, "preconditioned_matrix", "precond.preconditioned_matrix")
    w(blocks, "random_system", "blocks.random_system")
    w(verify, "random_system", "blocks.random_system")
    w(verify, "annihilation_residual", "verify.annihilation_residual")
    w(dense, "eigenvalues", "dense.eigenvalues")
    w(dense, "lu_factor", "dense.lu_factor")
    w(dense, "lu_solve", "dense.lu_solve")
