"""Checks of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
import run
import workloads
from spans import COMPUTED_COUNTS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def conftest():
    spec = importlib.util.spec_from_file_location(
        "polyapprox_tests_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same(a, b):
    return [c.name for c in a] == [c.name for c in b] and all(
        np.array_equal(x.points, y.points) for x, y in zip(a, b)
    )


def test_default_corpus_is_the_test_corpus(conftest):
    assert _same(corpus.build_corpus(), conftest.build_corpus())


def test_default_large_blobs_follow_the_test_recipe(conftest):
    want = [conftest._fourier_blob(s, 110.0, 1800) for s in (21, 22)]
    got = corpus.build_large()
    assert _same(got, want)
    assert [c.n for c in got] == [812, 836]


@pytest.mark.parametrize("build", [corpus.build_corpus, corpus.build_large])
def test_seeded_inputs_repeat_and_keep_their_sizes(build):
    ref = build()
    first, again = build(7), build(7)
    assert _same(first, again)
    assert not _same(first, ref)
    for a, b in zip(first, ref):
        if a.name.startswith("blob"):
            assert abs(a.n - b.n) <= corpus.SIZE_RTOL * b.n


@pytest.mark.parametrize("workload", ["corpus", "large_mt"])
def test_resolved_blob_seeds_give_the_searched_inputs(workload):
    seeds = workloads.blob_seeds(workload, 7)
    assert workloads.make_inputs(workload, 7, seeds) == workloads.make_inputs(workload, 7)
    defaults = workloads.blob_seeds(workload, corpus.DEFAULT_SEED)
    assert defaults == [s for s, _, _ in (
        corpus.LARGE_BLOBS if workload == "large_mt" else corpus.CORPUS_BLOBS)]


def test_large_mt_digest_is_the_single_thread_digest(monkeypatch):
    monkeypatch.setitem(workloads.THREADS, "large_mt", 1)
    inputs = workloads.make_inputs("large_mt", corpus.DEFAULT_SEED)
    got = workloads.digests(workloads.run_pass(inputs).artifacts)
    assert workloads.check_digests("large_mt", corpus.DEFAULT_SEED, got) == []


def test_gate_reports_changed_outputs():
    inputs = workloads.make_inputs("per_curve", 3)
    inputs.curves = inputs.curves[:2]
    out = workloads.run_pass(inputs)
    assert workloads.check_invariants(inputs, out) == []
    name, cr, m_sub, profile, polys = out.checked[0]
    out.checked[0] = (name, cr, m_sub + 1, profile, polys)
    out.failed = 1
    problems = workloads.check_invariants(inputs, out)
    assert any("asked" in p for p in problems)
    assert any("failed" in p for p in problems)
    got = workloads.digests({"per_curve.txt": b"not the committed output\n"})
    assert workloads.check_digests("per_curve", corpus.DEFAULT_SEED, got)


def _traced_pass(inputs):
    tracer = Tracer()
    tracer.install()
    try:
        out = workloads.run_pass(inputs, tracer.span)
    finally:
        tracer.uninstall()
    return out, summarize(tracer, 1.0, workloads.THREADS[inputs.workload])


def test_traced_counts_repeat_exactly():
    inputs = workloads.make_inputs("per_curve", corpus.DEFAULT_SEED)
    inputs.curves = inputs.curves[:3]
    first_out, first = _traced_pass(inputs)
    second_out, second = _traced_pass(inputs)
    assert first_out.artifacts == second_out.artifacts
    for key in COMPUTED_COUNTS:
        assert first[key] == second[key]
    assert first["optimal.dp_cells"] > 0 and first["kernels.table_mb"] > 0
    assert first["kernels.emax_table.calls"] == first["kernels.emax_table.cross_ops"] == 0
    assert first["kernels.e2_table.calls"] == 3 * len(workloads.PER_CURVE_CRS)
    untraced = workloads.run_pass(inputs)
    assert untraced.artifacts == first_out.artifacts


def test_uninstall_restores_the_package():
    from polyapprox import optimal, study

    before = (study.apply_scheme, optimal.SegmentCosts.table, study.pearson)
    tracer = Tracer()
    tracer.install()
    assert study.apply_scheme is not before[0]
    tracer.uninstall()
    assert (study.apply_scheme, optimal.SegmentCosts.table, study.pearson) == before


def test_kernel_agreement_script_takes_the_harness_arguments():
    # run.py hands the numpy-vs-numba check to benchmarks/bench_kernels.py
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), *run.KERNEL_CHECK],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "dp solve (max)" in proc.stdout


def test_reference_loop_does_not_use_the_package():
    # a change to the package must not move the host scale
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; run._reference(); "
        "assert not [m for m in sys.modules if m.startswith('polyapprox')]"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
