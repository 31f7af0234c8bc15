"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They pin the composed Biot path to ``biot.benchmark``, the verify rows to
``verify.run_suite``, traced passes to untraced ones, and the printed
metric names and units to BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from schurkit import biot, sparse, verify  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced_pass(workload):
    tracer = Tracer()
    wl.install_spans(tracer, getattr(workload, "blocks", {}))
    try:
        return workload.run_pass(tracer), tracer
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("tau", [1e-3, 1e-4])
def test_composed_biot_path_matches_benchmark(tau):
    _, counts = biot.benchmark([8], [tau])
    result = wl.BiotWorkload(8, tau, biot.BENCH_COLUMNS).run_pass()
    assert result.outcomes == tuple(counts[(8, tau, p)] for p in biot.BENCH_COLUMNS)
    assert result.failed == 0 and not result.wrong
    assert result.ops == sum(result.outcomes)


def test_verify_rows_match_run_suite():
    result = wl.VerifyWorkload(0, n_seeds=1).run_pass()
    rows = verify.run_suite(0, wl.SIZES, n_sweep=wl.N_SWEEP)
    assert result.outcomes == tuple("pass" if r.passed else "FAIL" for r in rows)
    assert result.attempted == 52


def test_traced_biot_pass_matches_untraced():
    w = wl.BiotWorkload(8, 1e-3, biot.BENCH_COLUMNS)
    plain = w.run_pass()
    traced, tracer = traced_pass(w)
    assert traced.outcomes == plain.outcomes
    tot = tracer.totals()
    assert tot["krylov.gmres"][0] == len(biot.BENCH_COLUMNS)
    # one apply for the initial residual, then one per iteration
    assert tot["precond.apply"][0] == sum(plain.outcomes) + len(biot.BENCH_COLUMNS)
    assert {"sparse.ichol.u", "sparse.ichol.xi", "sparse.ichol.p"} <= set(tot)
    assert biot.ic_solve is sparse.ic_solve


def test_traced_verify_pass_matches_untraced():
    # seed 6 holds the row that raises EigenConvergenceError (Pn, n=7)
    w = wl.VerifyWorkload(6, n_seeds=1)
    plain = w.run_pass()
    traced, tracer = traced_pass(w)
    assert traced.outcomes == plain.outcomes
    assert plain.details["errors"] == {"EigenConvergenceError": 1}
    assert plain.failed == 1 and plain.attempted == 52
    tot = tracer.totals()
    assert not any(k.startswith(("sparse.", "krylov.")) for k in tot)
    # one generated system per preset and LDU row, as in run_suite: a pass
    # makes no generation of its own
    assert tot["blocks.random_system"][0] == 33 + 7


def test_level_count_matches_schedule():
    asm = biot.assemble_biot(biot.build_mesh(8), biot.BiotParameters())
    fac = sparse.ichol(asm.a_u, 1e-3)
    assert wl.level_count(fac.lower) == len(fac._fwd)


def test_metric_names_and_units_match_benchmark_json():
    w = wl.BiotWorkload(8, 1e-3, ("P1", "PD3"))
    _, e2e = run.run_untraced(w, 0)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w, wl.VerifyWorkload(0, n_seeds=1)):
        _, layers, same, _ = run.run_traced(workload)
        assert same
        assert {k: v["unit"] for k, v in layers.items()} == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "biot-factor", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
