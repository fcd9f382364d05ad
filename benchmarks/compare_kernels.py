"""Compare this tree's cost-table kernels, schemes or study with another checkout's.

Imports the polyapprox package of this tree and of the checkout at
--parent side by side, each under its own name, and builds the
benchmark corpus at --seed (perfbench/corpus.py), plus, for each --n, a
trace-scale Fourier blob of about that many points.  It checks that
both sides' E2 and Emax tables, as a fresh SegmentCosts builds them
with no bound set (the E2 table's stored rows included), are equal byte
for byte on every ring; that both sides' optimal polygons of either
kind, through the provisional start, are equal on every ring at
compression ratios 8, 15 and 30; and that both sides' split, elim and
elim-stab polygons are equal at those ratios, with and without a
SegmentCosts holding the curve's E2 table.  It then times each side
--runs times, the two sides in alternating order, each run building
every ring's tables and then running the three schemes on every ring
at the three ratios, one fresh curve per ring and ratio with its E2
table held (built untimed), as a study and perfbench's per_curve
workload run them.  For each timing it prints each side's median and
quartiles over the runs and how many runs the change won.  In one process the two sides meet the same host, which
a comparison of separate runs on a shared machine cannot promise.

With --mode study it instead checks that both sides' run_study gives the
same records_csv and correlations_csv on the corpus at each ratio of
SCHEME_CRS, and then times run_study at each ratio, the two sides in
alternating order, every run on fresh curves (built untimed), so that no
per-curve cache outlives a run.  Run from the repository root:

    python3 benchmarks/compare_kernels.py --parent ../parent --seed 0 --runs 14
    python3 benchmarks/compare_kernels.py --parent ../parent --n 2000 --n 4000 --runs 4
    python3 benchmarks/compare_kernels.py --parent ../parent --mode study --runs 10
"""

import argparse
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import build_corpus, fourier_blob  # noqa: E402


def load_package(checkout: Path, name: str):
    """The polyapprox package of a checkout, imported under `name`."""
    init = checkout / "src" / "polyapprox" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def builders(pkg):
    """A side's table builders by name, each taking a ring's points: the
    table of that kind a fresh SegmentCosts builds with no bound set."""
    def build(kind):
        return lambda pts: pkg.SegmentCosts(pkg.DigitalCurve(pts)).table(kind)

    return {"e2": build(pkg.CostKind.SUM_SQUARED), "emax": build(pkg.CostKind.MAX_ERROR)}


SCHEME_CRS = (8.0, 15.0, 30.0)


def trace_ring(n):
    """The points of a Fourier blob (blob seed 21, as the benchmark's
    large workload) of about n points: its 8-connected trace runs about
    7.3 points a unit of radius."""
    return fourier_blob(f"blob_n{n}", 21, n / 7.3, 2 * n).points


def optimal_polygons(pkg, rings):
    """The optimal polygon of each kind through the provisional start,
    at each of SCHEME_CRS, on a fresh SegmentCosts per ring with no bound
    set: every polygon's indices."""
    polygons = []
    for pts in rings:
        curve = pkg.DigitalCurve(pts)
        costs = pkg.SegmentCosts(curve)
        start = pkg.provisional_start_vertex(curve)
        for cr in SCHEME_CRS:
            m = pkg.auto_target_m(curve, cr)
            for kind in pkg.CostKind:
                polygons.append(costs.polygon(start, m, kind).indices.tolist())
    return polygons


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


def run_study(pkg, corpus, cr):
    """pkg's run_study over fresh curves of the corpus at ratio cr:
    (seconds, records_csv, correlations_csv)."""
    curves = [pkg.DigitalCurve(c.points, name=c.name) for c in corpus]
    t0 = time.perf_counter()
    reports = pkg.run_study(curves, target_cr=cr)
    secs = time.perf_counter() - t0
    return secs, pkg.study.records_csv(reports), pkg.study.correlations_csv(reports)


def compare_study(packages, corpus, seed, runs):
    """--mode study: equal outputs, then interleaved run_study timings."""
    for cr in SCHEME_CRS:
        a, b = (run_study(pkg, corpus, cr)[1:] for pkg in packages.values())
        if a != b:
            print(f"run_study outputs differ at cr {cr:g}")
            return 1
    print(f"seed {seed}: records_csv and correlations_csv equal at cr"
          f" {', '.join(f'{cr:g}' for cr in SCHEME_CRS)}")
    times = {side: defaultdict(list) for side in packages}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for cr in SCHEME_CRS:
                times[side][cr].append(run_study(packages[side], corpus, cr)[0])
    for side in times.values():
        side["all"] = [sum(t) for t in zip(*(side[cr] for cr in SCHEME_CRS))]
    for name in (*SCHEME_CRS, "all"):
        what = "every ratio" if name == "all" else f"cr {name:g}"
        print(f"run_study, {len(corpus)} curves, {what}, a run:")
        for side in times:
            print(f"  {side:<7} {summary(times[side][name])}")
        wins = sum(c < p for p, c in zip(times["parent"][name], times["change"][name]))
        print(f"  change wins {wins}/{runs}")
    return 0


def timed(build, rings):
    """Seconds to build every ring's table."""
    t0 = time.perf_counter()
    for pts in rings:
        build(pts)
    return time.perf_counter() - t0


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--seed", type=int, default=0, help="corpus seed")
    ap.add_argument("--runs", type=int, default=14, help="corpus passes a side")
    ap.add_argument("--mode", choices=("kernels", "study"), default="kernels",
                    help="tables and schemes, or run_study end to end")
    ap.add_argument("--n", type=int, action="append", default=[],
                    help="in kernels mode, add a Fourier blob of about this many points"
                         " (repeatable)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2, for quartiles")

    packages = {"parent": load_package(args.parent.resolve(), "parent_polyapprox"),
                "change": load_package(ROOT, "change_polyapprox")}
    if args.mode == "study":
        return compare_study(packages, build_corpus(args.seed), args.seed, args.runs)
    sides = {side: builders(pkg) for side, pkg in packages.items()}
    corpus = [c.points for c in build_corpus(args.seed)] + [trace_ring(n) for n in args.n]
    if args.n:
        print(f"--n rings: n = {', '.join(str(pts.shape[0]) for pts in corpus[-len(args.n):])}")
    for pts in corpus:
        for name in ("e2", "emax"):
            a, b = (side[name](pts) for side in sides.values())
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                print(f"{name} tables differ at n = {pts.shape[0]}")
                return 1
    print(f"seed {args.seed}: {len(corpus)} rings, every E2 and Emax table equal byte for byte")
    a, b = (optimal_polygons(pkg, corpus) for pkg in packages.values())
    if a != b:
        print("optimal polygons differ")
        return 1
    print(f"seed {args.seed}: every optimal E2 and Emax polygon equal at cr"
          f" {', '.join(f'{cr:g}' for cr in SCHEME_CRS)}")
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
                runs[side][name].append(timed(build, corpus))
            secs, _ = run_schemes(packages[side], corpus)
            for name, t in secs.items():
                runs[side][name].append(t)
            runs[side]["schemes"].append(sum(secs.values()))
    for side in runs.values():
        side["both"] = [a + b for a, b in zip(side["e2"], side["emax"])]
    report = [(f"{name} tables, {len(corpus)} rings", name) for name in ("e2", "emax", "both")]
    report += [(f"{name}, {len(corpus)} rings at {len(SCHEME_CRS)} ratios", name)
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
