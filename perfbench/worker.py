"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload large_mt --seed 0 --blob-seeds 21,22 --mode pass

Imports the package from the checkout's src/, builds the workload's
inputs from the seed and the blob seeds run.py resolved for it (and
warms the jit kernels when numba runs), stamps
the monotonic clock, then in mode `pass` or `traced` runs one pass and
checks its outputs.  Prints one JSON line.  A pass gets its own process
so that its peak RSS is its own: ru_maxrss is a process high-water mark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from polyapprox import _kernels, optimal  # noqa: E402
from polyapprox.optimal import CostKind  # noqa: E402

import workloads  # noqa: E402
from corpus import build_corpus  # noqa: E402


def _warm_jit():
    # compile (or load from numba's cache) every kernel outside the timed
    # region: both tables and the DP in both modes, on a small contour
    crv = build_corpus()[-1]
    costs = optimal.SegmentCosts(crv)
    for kind in CostKind:
        optimal.optimal_profile(crv, 0, 4, kind, costs)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blob-seeds", required=True,
                    help="comma-separated workloads.blob_seeds(workload, seed)")
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    args = ap.parse_args()

    seeds = [int(s) for s in args.blob_seeds.split(",")]
    inputs = workloads.make_inputs(args.workload, args.seed, seeds)
    if _kernels.USE_NUMBA:
        _warm_jit()
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    span = None
    if args.mode == "traced":
        from spans import Tracer, summarize

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    t0 = time.perf_counter()
    out = workloads.run_pass(inputs, span)
    wall = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = summarize(tracer, wall, workloads.THREADS[args.workload])

    got = workloads.digests(out.artifacts)
    result.update(
        wall_s=wall,
        peak_rss_mb=peak_kib * 1024 / 1e6,
        sum_n=inputs.sum_n,
        attempted=out.attempted,
        failed=out.failed,
        digests=got,
        problems=workloads.check_invariants(inputs, out)
        + workloads.check_digests(args.workload, args.seed, got),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
