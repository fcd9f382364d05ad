"""The benchmark's corpus and per_curve passes at the default seed give
the outputs whose digests perfbench/digests.json commits, byte for byte,
so a change that moves a byte of the study or of the per-curve commands
fails here."""

import pytest

import workloads  # perfbench/, on the path that conftest.py adds


@pytest.mark.parametrize("workload", ["corpus", "per_curve"])
def test_benchmark_pass_keeps_its_committed_outputs(workload):
    seed = workloads.DEFAULT_SEED
    inputs = workloads.make_inputs(workload, seed)
    out = workloads.run_pass(inputs)
    assert workloads.check_invariants(inputs, out) == []
    assert workloads.check_digests(workload, seed, workloads.digests(out.artifacts)) == []
