"""polyapprox benchmark: end-to-end and per-layer numbers for one workload.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Workloads (see workloads.py): corpus, large_mt, per_curve.  BENCHMARK.json
lists corpus and per_curve; large_mt runs only when asked for by name.

Within a window of --seconds, one client runs passes back to back
(closed loop), each in a fresh worker process (worker.py), and starts
a pass only while half a typical pass still fits in the window, so a
run ends near --seconds.  At least MIN_PASSES passes run.  Before each
pass SETUPS_PER_PASS set-up-only workers run, so the set-up samples
spread over the window like the passes.  A worker gets the seed's blob
seeds from run.py, so its set-up does the same work at every seed.

Host speed.  On a shared VM the speed of one core drifts by up to a
quarter within tens of seconds and between minutes (other tenants),
more than a run of passes can average out.  So every worker runs
between two timings of a fixed reference loop (_reference: the kind of
numpy work the package's tables do, on a fixed curve, never calling
the package), and each of its times is multiplied by REF_S over the
mean of the two.  The scaled times read as seconds on a host where the
loop takes REF_S, its typical time on the 2-vCPU VM of baseline.json.
A change to the package moves the pass and not the loop, so it moves
the scaled time as much as the unscaled one.  The log prints both, and
--trace 1 reports the loop's median time as host.ref_s.

--trace 0 reports the end-to-end metrics:
  wall_s       median over untraced passes of the pass wall time, scaled
  pts_per_s    contour points over every curve evaluation of a pass / wall_s
  setup_s      median time from starting a fresh interpreter to having
               imported polyapprox, built the inputs and warmed the jit,
               scaled
  peak_rss_mb  median over passes of the worker's peak RSS (1 MB = 1e6 B)
Failed curve evaluations (skipped curves, raised PolyApproxError) are
the result's `failed` out of `attempted`; their fraction must be 0.

--trace 1 alternates untraced and traced passes and reports per-layer
self times of the median traced pass, call counts, and three counts
computed from n and m rather than measured (cross_ops, dp_cells,
table_mb, units marked `.computed`), plus the traced and untraced wall
and what no layer span covers.

Every pass is gated: curve evaluations must not fail, study records must
satisfy the merit identities and the requested vertex count, per-curve
profiles must not rise with m, and at the default seed every output must
match digests.json.  When numba is importable, benchmarks/bench_kernels.py
checks the jitted kernels against the numpy ones; otherwise that check
says it was skipped.  A failed gate, or a worker that fails or runs
past --seconds plus three times the slowest worker (at least 40 s),
prints its failures, `"correct": false` when any pass completed, and
exits 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUPS_PER_PASS = 1
KERNEL_CHECK = ["--n", "300", "--m-max", "40", "--repeat", "1"]
REF_N = 300
REF_S = 0.16


def _worker(args, seeds: str, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--blob-seeds", seeds, "--mode", mode]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    result["worker_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    return result


def _reference() -> float:
    """Seconds a fixed loop takes now.  It does what the package's hot
    loops do (per-row numpy work on a contour of corpus size and an
    n x n temporary per row) on a fixed closed curve, and never calls the
    package, so a change to the package does not move it."""
    t = np.arange(REF_N) * (2.0 * np.pi / REF_N)
    xs = 100.0 * np.cos(t) + 7.0 * np.cos(5.0 * t)
    ys = 80.0 * np.sin(t) + 5.0 * np.sin(3.0 * t)
    rows = np.arange(1, REF_N - 1)
    below = rows[:, None] < rows[None, :] + 1
    t0 = time.perf_counter()
    for u in range(REF_N):
        vs = (u + rows + 1) % REF_N
        dx, dy = xs[vs] - xs[u], ys[vs] - ys[u]
        wx, wy = xs[(u + rows) % REF_N] - xs[u], ys[(u + rows) % REF_N] - ys[u]
        cross = np.abs(np.outer(wx, dy) - np.outer(wy, dx))
        cross[~below] = -1.0
        cross.max(axis=0) / np.sqrt(dx * dx + dy * dy)
    return time.perf_counter() - t0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    text = f"min {min(values):.4g} max {max(values):.4g} n={len(values)}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" iqr/median {(q3 - q1) / statistics.median(values):.3%}"
    return text


def _environment(args, threads: int) -> dict:
    from polyapprox import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "POLYAPPROX_NO_NUMBA": os.environ.get("POLYAPPROX_NO_NUMBA"),
        "backend": "numba" if _kernels.USE_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _kernel_check() -> list[str]:
    """numpy-vs-numba kernel agreement: the check of
    benchmarks/bench_kernels.py, run at a small size."""
    if importlib.util.find_spec("numba") is None:
        print("kernel agreement check skipped: numba is not importable, "
              "so only the numpy kernels exist")
        return []
    script = ROOT / "benchmarks" / "bench_kernels.py"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, str(script), *KERNEL_CHECK], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return ["kernel agreement check ran past 60 s"]
    for line in proc.stdout.splitlines():
        print("kernel agreement: " + line)
    if proc.returncode != 0:
        return [f"kernel agreement check failed: {script.name} exited {proc.returncode}"]
    return []


def main() -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.THREADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = _environment(args, workloads.THREADS[args.workload])
    print("environment: " + json.dumps(env))
    problems = _kernel_check()
    # the size search behind a seed's blobs runs once, outside every worker
    seeds = ",".join(map(str, workloads.blob_seeds(args.workload, args.seed)))

    setups, untraced, traced, cycles, refs = [], [], [], [], []
    slowest = 0.0
    t0 = time.monotonic()

    def more() -> bool:
        if len(untraced) + len(traced) < MIN_PASSES or args.trace and not traced:
            return True
        # start a pass only if the run should then end near the end of the window
        return time.monotonic() - t0 + 0.5 * statistics.median(cycles) < args.seconds

    def bracketed(mode: str, timeout: float) -> dict:
        # a worker between two reference loops; its host scale is
        # REF_S over their mean
        res = _worker(args, seeds, mode, timeout)
        refs.append(_reference())
        res["scale"] = REF_S / ((refs[-2] + refs[-1]) / 2)
        return res

    refs.append(_reference())
    try:
        while more():
            started = time.monotonic()
            for _ in range(SETUPS_PER_PASS):
                res = bracketed("setup", args.seconds)
                setups.append((res["setup_s"], res["scale"]))
            mode = "traced" if args.trace and len(traced) < len(untraced) else "pass"
            res = bracketed(mode, args.seconds + 3 * max(slowest, 40.0))
            slowest = max(slowest, res["worker_s"])
            cycles.append(time.monotonic() - started)
            (traced if mode == "traced" else untraced).append(res)
            setups.append((res["setup_s"], res["scale"]))
            problems += [f"pass {len(untraced) + len(traced)}: {p}" for p in res["problems"]]
            print(f"{mode} {len(untraced) + len(traced)}: wall {res['wall_s']:.4f} s, "
                  f"peak {res['peak_rss_mb']:.1f} MB, setup {res['setup_s']:.4f} s, "
                  f"host scale {res['scale']:.4f}, failed {res['failed']}/{res['attempted']}, "
                  f"gate {'ok' if not res['problems'] else 'FAILED'}")
    except RuntimeError as exc:
        problems.append(str(exc))
    passes = untraced + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)

    if not untraced or args.trace and not traced:
        for p in problems:
            print(f"GATE FAILURE: {p}")
        return 1
    walls = [r["wall_s"] for r in untraced]
    raw_setups = [v for v, _ in setups]
    scaled_walls = [r["wall_s"] * r["scale"] for r in untraced]
    scaled_setups = [v * k for v, k in setups]
    wall = statistics.median(scaled_walls)
    print(f"reference loop {statistics.median(refs):.4f} s ({_spread(refs)})")
    print(f"unscaled wall_s {statistics.median(walls):.4f} s ({_spread(walls)}); "
          f"unscaled setup_s {statistics.median(raw_setups):.4f} s ({_spread(raw_setups)})")
    print(f"wall_s {wall:.4f} s ({_spread(scaled_walls)}); "
          f"setup_s ({_spread(scaled_setups)})")
    print(f"fail_frac {failed / attempted:g} ({failed}/{attempted} curve evaluations)")
    if args.trace:
        metrics = _per_layer(traced, untraced, problems)
        metrics["host.ref_s"] = (statistics.median(refs), "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "pts_per_s": (untraced[0]["sum_n"] / wall, "pts/s"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"GATE FAILURE: {p}")
    if problems:
        print("digests of the last pass: " + json.dumps(passes[-1]["digests"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def _per_layer(traced: list[dict], untraced: list[dict], problems: list[str]) -> dict:
    """Metrics of the traced pass with the median wall (the lower middle
    one for an even count), so its layer self times and remainder add up
    to its wall.  The tracer's overhead is the median over adjacent
    pairs (traced pass i ran right after untraced pass i) of walls
    scaled to the host speed, so drift of the host cancels out."""
    from spans import CALL_COUNTS, COMPUTED_COUNTS, LAYER_SPANS

    for key in CALL_COUNTS + COMPUTED_COUNTS:
        if len({r["layers"][key] for r in traced}) != 1:
            problems.append(f"count {key} differs between traced passes")
    rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = rep["layers"]
    units = dict.fromkeys(LAYER_SPANS.values(), "s")
    units.update(dict.fromkeys(CALL_COUNTS, "count"))
    units.update({"kernels.emax_table.cross_ops": "ops.computed",
                  "optimal.dp_cells": "cells.computed",
                  "kernels.table_mb": "MB.computed",
                  "study.pool.busy_frac": "frac",
                  "trace.unattributed_s": "s"})
    metrics = {key: (layers[key], unit) for key, unit in units.items()}
    metrics["trace.wall_s"] = (rep["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(r["wall_s"] for r in untraced), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] * t["scale"] / (u["wall_s"] * u["scale"])
                          for u, t in zip(untraced, traced)) - 1.0,
        "frac",
    )
    return metrics


if __name__ == "__main__":
    if not (SRC / "polyapprox" / "__init__.py").is_file():
        print(f"run from a polyapprox checkout: {SRC / 'polyapprox'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
