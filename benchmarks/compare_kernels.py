"""Compare this tree's cost-table kernels with another checkout's.

Imports src/polyapprox/_kernels.py of this tree and of the checkout at
--parent side by side, builds the benchmark corpus at --seed
(perfbench/corpus.py), and checks that both sides' E2 tables (the rows
a bounded solve reads, as SegmentCosts builds them) and Emax tables are
equal byte for byte on every ring.  It then builds every ring's tables
--runs times on each side, the two sides in alternating order, and
prints, for the E2 tables, the Emax tables and both, each side's median
and quartiles over the runs of one corpus pass and how many runs the
change won.  In one process the two sides meet the same host, which a
comparison of separate runs on a shared machine cannot promise.  Run
from the repository root:

    python3 benchmarks/compare_kernels.py --parent ../parent --seed 0 --runs 14
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import build_corpus  # noqa: E402


def load_kernels(checkout: Path, name: str):
    """The _kernels module of a checkout, imported under `name`."""
    path = checkout / "src" / "polyapprox" / "_kernels.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def builders(kernels):
    """A side's table builders by name: the E2 table's stored rows, bound
    included, as SegmentCosts builds them, and the Emax table."""
    def e2(xs, ys):
        _, rows = kernels.e2_row_bound(xs, ys)
        return kernels.e2_cost_table(xs, ys, rows)

    return {"e2": e2, "emax": kernels.emax_cost_table}


def timed(build, rings):
    """Seconds to build every ring's table."""
    t0 = time.perf_counter()
    for xs, ys in rings:
        build(xs, ys)
    return time.perf_counter() - t0


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--seed", type=int, default=0, help="corpus seed")
    ap.add_argument("--runs", type=int, default=14, help="corpus passes a side")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2, for quartiles")

    sides = {"parent": builders(load_kernels(args.parent.resolve(), "parent_kernels")),
             "change": builders(load_kernels(ROOT, "change_kernels"))}
    rings = [(c.points[:, 0].astype(np.float64), c.points[:, 1].astype(np.float64))
             for c in build_corpus(args.seed)]
    for xs, ys in rings:
        for name in ("e2", "emax"):
            a, b = (side[name](xs, ys) for side in sides.values())
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                print(f"{name} tables differ at n = {xs.shape[0]}")
                return 1
    print(f"seed {args.seed}: {len(rings)} rings, every E2 and Emax table equal byte for byte")

    runs = {side: {"e2": [], "emax": []} for side in sides}
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for name, build in sides[side].items():
                runs[side][name].append(timed(build, rings))
    for side in runs.values():
        side["both"] = [a + b for a, b in zip(side["e2"], side["emax"])]
    for name in ("e2", "emax", "both"):
        print(f"{name} tables, {len(rings)} rings a run:")
        for side in sides:
            print(f"  {side:<7} {summary(runs[side][name])}")
        wins = sum(c < p for p, c in zip(runs["parent"][name], runs["change"][name]))
        print(f"  change wins {wins}/{args.runs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
