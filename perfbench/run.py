"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload biot-solve --seed 0 --seconds 35 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``biot-solve``: N=40, tau=1e-3, all eight presets; GMRES-heavy.
- ``biot-factor``: N=32, tau=1e-4, presets P1 and PD3; IC set-up heavy.
- ``verify-sweep``: every ``verify.run_suite`` row for seeds s..s+19.

With ``--trace 0`` the run makes whole passes of the workload, then
set-up-only repetitions, within about ``--seconds`` (see ``run_untraced``),
and reports medians of the end-to-end metrics.  With ``--trace 1`` it
runs one untraced and one traced pass, reports the per-layer metrics
from the spans, and writes the spans to ``.perfbench_out/``.  Either way
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per run, at least (a Biot pass counts as one)
MIN_SETUPS = 3

# unit of each end-to-end metric (direction and bound are in
# BENCHMARK.json); a test checks these names against that file
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "s_per_op": "s",
    "peak_rss_mb": "MB",
}


def make_workload(name, seed):
    import workloads as wl
    ref = json.loads((HERE / "reference.json").read_text())["iterations"]
    if name == "biot-solve":
        return wl.BiotWorkload(40, 1e-3, wl.biot.BENCH_COLUMNS, ref[name])
    if name == "biot-factor":
        return wl.BiotWorkload(32, 1e-4, ("P1", "PD3"), ref[name])
    if name == "verify-sweep":
        return wl.VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("biot-solve", "biot-factor", "verify-sweep")


def environment():
    """Python, numpy, BLAS, cores, thread variables and git commit."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    threads = {k: v for k, v in os.environ.items()
               if any(t in k for t in ("THREAD", "BLAS", "OMP", "MKL"))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout; None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report_pass(i, wl, p):
    setup = "none" if p.setup_s is None else f"{p.setup_s:.3f} s"
    print(f"pass {i}: setup {setup}, solve {p.solve_s:.3f} s, "
          f"ops {p.ops}, failed {p.failed}/{p.attempted}")
    if "cells" in p.details:
        for name, c in p.details["cells"].items():
            print(f"  cell {name}: iters {c['iterations']} "
                  f"solve {c['solve_s']:.3f} s true relres {c['true_relres']} "
                  f"prec {c['true_prec_relres']}"
                  + ("" if c["ok"] else f"  FAILED {c['error'] or ''}"))
        shifts = " ".join(f"{k}={v!r}" for k, v in p.details["shifts"].items())
        print(f"  IcFactor.shift {shifts}")
        drift = wl.reference_drift(p)
        if drift:
            for name, want, got in drift:
                print(f"  reference drift: {name} {want} -> {got}")
        else:
            print(f"  reference: all {len(wl.reference or {})} cells match "
                  f"(iters_total {p.ops})")
    else:
        print(f"  errors {p.details['errors']}")
    for w in p.wrong:
        print(f"  WRONG {w}")


def end_to_end(passes, setups, rss_mb):
    med = statistics.median
    values = {
        "wall_s": med(p.wall_s for p in passes),
        "setup_s": med(setups),
        "solve_s": med(p.solve_s for p in passes),
        "s_per_op": med(p.solve_s / max(p.ops, 1) for p in passes),
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(untraced, traced, tracer):
    """Per-layer metrics from the spans and the traced pass."""
    tot = tracer.totals()

    def calls(label):
        return tot[label][0] if label in tot else 0

    def secs(label):
        return tot[label][1] if label in tot else 0.0

    def self_s(label):
        return tot[label][2] if label in tot else 0.0

    d = traced.details
    cells = d.get("cells", {})
    fac = d.get("factors", {"nnz": {}})
    m = {}
    m["biot.mesh_s"] = (secs("biot.build_mesh"), "s")
    m["biot.assemble_s"] = (secs("biot.assemble_biot") + secs("biot.biot_operator"), "s")
    m["biot.matvec_calls"] = (calls("krylov.matvec"), "count")
    m["biot.matvec_s"] = (secs("krylov.matvec"), "s")
    for b in ("u", "xi", "p"):
        m[f"sparse.ichol_s.{b}"] = (secs(f"sparse.ichol.{b}"), "s")
    m["sparse.schedule_s"] = (fac.get("schedule_s", 0.0), "s")
    m["sparse.nnz_L.u"] = (fac["nnz"].get("u", 0), "count")
    m["sparse.fill_ratio.u"] = (fac.get("fill_ratio_u", 0.0), "1")
    m["sparse.levels.u"] = (fac.get("levels_u", 0), "count")
    m["sparse.ic_shift_max"] = (fac.get("shift_max", 0.0), "1")
    nbytes = 0
    for b in ("u", "xi", "p"):
        n = calls(f"sparse.ic_solve.{b}")
        m[f"sparse.ic_solve_calls.{b}"] = (n, "count")
        m[f"sparse.ic_solve_s.{b}"] = (secs(f"sparse.ic_solve.{b}"), "s")
        # both sweeps read each stored entry of L: value, index, gathered x
        nbytes += n * 2 * 24 * fac["nnz"].get(b, 0)
    m["sparse.ic_solve_bytes_computed"] = (nbytes, "B")
    m["sparse.coupling_spmv_calls"] = (calls("sparse.spmv<precond.apply"), "count")
    m["sparse.coupling_spmv_s"] = (secs("sparse.spmv<precond.apply"), "s")
    m["precond.apply_calls"] = (calls("precond.apply"), "count")
    m["precond.apply_s"] = (secs("precond.apply"), "s")
    m["precond.apply_self_s"] = (self_s("precond.apply"), "s")
    m["krylov.gmres_calls"] = (calls("krylov.gmres"), "count")
    iters = [c["iterations"] or 0 for c in cells.values()]
    m["krylov.iters"] = (sum(iters), "count")
    m["krylov.gmres_s"] = (secs("krylov.gmres"), "s")
    m["krylov.orth_self_s"] = (self_s("krylov.gmres"), "s")
    # MGS over one solve of k steps reads and updates sum_j 2 (j+1) n doubles
    m["krylov.orth_bytes_computed"] = (
        sum(8 * d["dim"] * k * (k + 1) for k in iters), "B")
    for key in ("true_relres", "true_prec_relres"):
        m[f"krylov.{key}_max"] = (
            max((c[key] for c in cells.values() if c[key] is not None), default=0.0), "1")
    m["blocks.random_system_calls"] = (calls("blocks.random_system"), "count")
    m["blocks.random_system_s"] = (secs("blocks.random_system"), "s")
    m["precond.exact_build_s"] = (secs("precond.make_preconditioner.exact"), "s")
    m["precond.preconditioned_matrix_s"] = (secs("precond.preconditioned_matrix"), "s")
    for f in ("eigenvalues", "lu_factor", "lu_solve"):
        m[f"dense.{f}_calls"] = (calls(f"dense.{f}"), "count")
        m[f"dense.{f}_s"] = (secs(f"dense.{f}"), "s")
    m["verify.annihilation_s"] = (secs("verify.annihilation_residual"), "s")
    errors = d.get("errors")  # verify passes only
    m["verify.rows"] = (traced.attempted if errors is not None else 0, "count")
    m["verify.rows_failed"] = (traced.failed if errors is not None else 0, "count")
    errors = errors or {}
    eig = errors.get("EigenConvergenceError", 0)
    m["verify.errors.EigenConvergenceError"] = (eig, "count")
    m["verify.errors.other"] = (sum(errors.values()) - eig, "count")
    m["failed_frac"] = (traced.failed / traced.attempted, "1")
    m["trace_overhead"] = (traced.wall_s / untraced.wall_s, "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_untraced(wl, seconds):
    """Passes, then set-up-only repetitions, within about ``seconds``.

    Another pass starts only if it, and the set-ups still missing after it
    to make MIN_SETUPS, are expected to end within ``seconds``; then
    set-ups follow while they are expected to fit.  At least one pass and
    MIN_SETUPS set-ups are always made, so a run can exceed ``seconds``
    by those.
    """
    start = time.perf_counter()
    passes, setups = [], []

    def expected_end(took):
        return time.perf_counter() - start + took

    while True:
        t0 = time.perf_counter()
        p = wl.run_pass()
        took = time.perf_counter() - t0
        passes.append(p)
        report_pass(len(passes), wl, p)
        if len(passes) == 1:
            # high-water mark of one pass; later passes may add to it by
            # chance, and their number varies from run to run
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if p.setup_s is not None:
            setups.append(p.setup_s)
        # set-ups still missing after one more pass, which brings its own
        missing = max(MIN_SETUPS - len(setups) - (p.setup_s is not None), 0)
        if expected_end(took + missing * (setups[-1] if setups else 0.0)) > seconds:
            break
    while len(setups) < MIN_SETUPS or expected_end(setups[-1]) <= seconds:
        setups.append(wl.setup_only())
    print(f"setups: {', '.join(f'{s:.3f}' for s in setups)} s")
    return passes, end_to_end(passes, setups, rss_mb)


def run_traced(wl):
    """One untraced and one traced pass; per-layer metrics from the spans."""
    import workloads
    from spans import Tracer
    untraced = wl.run_pass()
    report_pass(1, wl, untraced)
    tracer = Tracer()
    workloads.install_spans(tracer, getattr(wl, "blocks", {}))
    try:
        traced = wl.run_pass(tracer)
    finally:
        tracer.uninstall()
    report_pass(2, wl, traced)
    same = traced.outcomes == untraced.outcomes
    print("traced outcomes " + ("match" if same else "DIFFER from") + " the untraced pass")
    return [untraced, traced], per_layer(untraced, traced, tracer), same, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="verify-sweep base seed; the biot inputs do not depend on it")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one BLAS thread unless the caller set one: the GMRES vectors are too
    # short to gain from more, and spinning BLAS threads tie the timings
    # to the load on the other cores (numpy is not imported yet)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    try:
        wl = make_workload(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {wl.describe()} seed {args.seed} trace {args.trace}")
    if args.trace:
        passes, metrics, consistent, tracer = run_traced(wl)
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        passes, metrics = run_untraced(wl, args.seconds)
        consistent = True
    for k, v in metrics.items():
        print(f"metric {k} {v['value']!r} {v['unit']}")
    correct = consistent and not any(p.wrong for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
