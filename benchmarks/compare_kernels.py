"""Compare this tree's cost-table kernels and schemes with another checkout's.

Imports the polyapprox package of this tree and of the checkout at
--parent side by side, each under its own name, and builds the
benchmark corpus at --seed (perfbench/corpus.py).  It checks that both
sides' E2 tables (the rows a bounded solve reads, as SegmentCosts builds
them) and Emax tables are equal byte for byte on every ring, and that
both sides' split, elim and elim-stab polygons are equal on every ring
at compression ratios 8, 15 and 30, with and without a SegmentCosts
holding the curve's E2 table.  It then times each side --runs times,
the two sides in alternating order, each run building every ring's
tables and then running the three schemes on every ring at the three
ratios, one fresh curve per ring and ratio with its E2 table held
(built untimed), as a study and perfbench's per_curve workload run
them.  For each timing it
prints each side's median and quartiles over the runs and how many runs
the change won.  In one process the two sides meet the same host, which
a comparison of separate runs on a shared machine cannot promise.  Run
from the repository root:

    python3 benchmarks/compare_kernels.py --parent ../parent --seed 0 --runs 14
"""

import argparse
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import build_corpus  # noqa: E402


def load_package(checkout: Path, name: str):
    """The polyapprox package of a checkout, imported under `name`."""
    init = checkout / "src" / "polyapprox" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def builders(kernels):
    """A side's table builders by name: the E2 table's stored rows, bound
    included, as SegmentCosts builds them, and the Emax table."""
    def e2(xs, ys):
        _, rows = kernels.e2_row_bound(xs, ys)
        return kernels.e2_cost_table(xs, ys, rows)

    return {"e2": e2, "emax": kernels.emax_cost_table}


SCHEME_CRS = (8.0, 15.0, 30.0)


def run_schemes(pkg, rings, with_table=True):
    """Every scheme on every ring at each of SCHEME_CRS, on a fresh curve
    per ring and ratio (while a SegmentCosts holds its E2 table, if
    with_table): seconds per scheme, and every polygon's indices."""
    secs = {scheme.value: 0.0 for scheme in pkg.SchemeId}
    polygons = []
    for pts in rings:
        for cr in SCHEME_CRS:
            curve = pkg.DigitalCurve(pts)
            m = pkg.auto_target_m(curve, cr)
            costs = pkg.SegmentCosts(curve)
            if with_table:
                costs.table(pkg.CostKind.SUM_SQUARED)
            for scheme in pkg.SchemeId:
                t0 = time.perf_counter()
                poly = pkg.apply_scheme(scheme, curve, m)
                secs[scheme.value] += time.perf_counter() - t0
                polygons.append(poly.indices.tolist())
            del costs
    return secs, polygons


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

    packages = {"parent": load_package(args.parent.resolve(), "parent_polyapprox"),
                "change": load_package(ROOT, "change_polyapprox")}
    sides = {side: builders(pkg._kernels) for side, pkg in packages.items()}
    corpus = [c.points for c in build_corpus(args.seed)]
    rings = [(pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64)) for pts in corpus]
    for xs, ys in rings:
        for name in ("e2", "emax"):
            a, b = (side[name](xs, ys) for side in sides.values())
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                print(f"{name} tables differ at n = {xs.shape[0]}")
                return 1
    print(f"seed {args.seed}: {len(rings)} rings, every E2 and Emax table equal byte for byte")
    for with_table in (False, True):
        a, b = (run_schemes(pkg, corpus, with_table)[1] for pkg in packages.values())
        if a != b:
            print(f"scheme polygons differ ({'with' if with_table else 'without'} the E2 table)")
            return 1
    print(f"seed {args.seed}: every split, elim and elim-stab polygon equal at cr"
          f" {', '.join(f'{cr:g}' for cr in SCHEME_CRS)}, with and without the E2 table")

    runs = {side: defaultdict(list) for side in sides}
    for i in range(args.runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for name, build in sides[side].items():
                runs[side][name].append(timed(build, rings))
            secs, _ = run_schemes(packages[side], corpus)
            for name, t in secs.items():
                runs[side][name].append(t)
            runs[side]["schemes"].append(sum(secs.values()))
    for side in runs.values():
        side["both"] = [a + b for a, b in zip(side["e2"], side["emax"])]
    report = [(f"{name} tables, {len(rings)} rings", name) for name in ("e2", "emax", "both")]
    report += [(f"{name}, {len(rings)} rings at {len(SCHEME_CRS)} ratios", name)
               for name in ("split", "elim", "elim-stab", "schemes")]
    for what, name in report:
        print(f"{what} a run:")
        for side in sides:
            print(f"  {side:<7} {summary(runs[side][name])}")
        wins = sum(c < p for p, c in zip(runs["parent"][name], runs["change"][name]))
        print(f"  change wins {wins}/{args.runs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
