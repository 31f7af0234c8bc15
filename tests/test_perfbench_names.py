"""The benchmark harness in perfbench/ wraps library names by attribute.

Its own tests are slow and run apart from this suite, so these tests make a
renamed or deleted name fail here: ``install_spans`` looks every wrapped
name up when it installs its wrappers, one verify pass calls the verify
names the workload uses, and ``factor_stats``, which only a traced run
calls, reads the Biot set-up and rebuilds its factors.  Until the Biot
workload reads ``biot.biot_rows``, its own set-up and cell solve must give
the walk's counts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from schurkit import biot, krylov, precond

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


def test_install_spans_finds_every_wrapped_name():
    spans, workloads = load("spans"), load("workloads")
    watched = ((biot, "spmv"), (krylov.LinearOperator, "matvec"),
               (precond, "make_preconditioner"))
    before = [getattr(owner, attr) for owner, attr in watched]
    tracer = spans.Tracer()
    workloads.install_spans(tracer, {})
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(watched, before))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in watched] == before


def test_verify_workload_pass():
    workloads = load("workloads")
    result = workloads.VerifyWorkload(0, n_seeds=1).run_pass()
    assert (result.attempted, result.ops, result.failed) == (52, 52, 0)
    assert result.wrong == [] and result.details["errors"] == {}


def test_traced_verify_pass_counts_one_apply_per_preset():
    # a class-level precond.apply span must not count a nested solve as a
    # second apply: one per preconditioned_matrix, 33 in a one-seed pass
    spans, workloads = load("spans"), load("workloads")
    tracer = spans.Tracer()
    workloads.install_spans(tracer, {})
    try:
        workloads.VerifyWorkload(0, n_seeds=1).run_pass(tracer)
    finally:
        tracer.uninstall()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("precond.apply") == names.count(
        "precond.preconditioned_matrix") == 33


def test_factor_stats_reads_the_biot_setup():
    workloads = load("workloads")
    _, _, asm, _, pres = next(biot.biot_rows([4], [1e-3]))
    stats = workloads.factor_stats(asm, pres)
    factors = {"u": pres.factor_u, "xi": pres.factor_xi, "p": pres.factor_p}
    assert stats["nnz"] == {k: f.lower.nnz for k, f in factors.items()}
    assert stats["shift_max"] == max(f.shift for f in factors.values())
    assert stats["schedule_s"] > 0.0
    assert stats["fill_ratio_u"] >= 1.0 and stats["levels_u"] >= 1


@pytest.mark.parametrize("n", [4, 8])
def test_biot_workload_counts_match_the_walk(n):
    workloads = load("workloads")
    result = workloads.BiotWorkload(n, 1e-3, biot.BENCH_COLUMNS).run_pass()
    _, counts = biot.benchmark([n], [1e-3])
    assert result.outcomes == tuple(counts[(n, 1e-3, name)]
                                    for name in biot.BENCH_COLUMNS)
    assert result.failed == 0 and result.wrong == []
