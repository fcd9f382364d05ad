"""Time the cost-table and DP kernels and the suboptimal schemes.

Builds a noisy digitized ellipse, then times the three hot paths (the
two cost tables and the DP solve) and the suboptimal schemes at
m = --m-max.  The Emax table is also timed on an elongated ellipse
(b = 0.3a), whose long arcs mostly stay under the table's bound, so
that most of its windows are scanned; on 300 integer points of a
circle of radius 10**6, every one of them a vertex of each window's
hull, so that its hull levels are as large as they get; and on the
first ellipse with two points a third of the ring apart swapped, which
makes its sides cross.  Every table row also prints the rows the table
stores, of n, and the peak of the numpy allocations of one build
(tracemalloc), table included.  "emax hull levels" builds, alone, the
hull levels the Emax table builds on the ellipse (and "hull levels,
all-hull" on the circle), as it builds them: its rows column prints
their count.  "e2 cost table" builds the rows a solve to G, the
largest U3 of any start, can read, G included, as SegmentCosts does
with no bound set; "e2, every row" builds all n.  "e2, to U_m" and
"emax, to U_m" build the
tables as a study does, only up to U_m, the cost of the equally spaced
m-gon through the provisional start with m = n / 15, bound included;
the rows of "emax, to U_m" print stored / cut / n, the cut being the
span from which the anchored-moment bound proves every arc above U_m,
and "emax cut, to U_m" times finding it alone.
The DP solves the ellipse's stored E2 and Emax tables from vertex 0
to U3, the cost of the triangle through it, n // 3 and 2n // 3, as
SegmentCosts runs a profile solve with no bound set, and an n x n table
of uniform random costs to its U3, whose rising profile makes the
banded solve fall back to the full DP: its worst case.  "polygon solve"
is a profile solve to m = --m-max on the E2 table plus the walk back
along its chain; "polygon solve, seeded" is the same with the solve run
to U_m, the cost of the equally spaced m-gon, as SegmentCosts.polygon
runs it.
Elimination and stabilize are timed twice: on the closed form, as
`polyapprox approx` runs them, and while a SegmentCosts holds the
ellipse's E2 table, as a study runs them.  Each elimination row drops
the curve's kept last elimination before the call, so it times
elimination, not the reuse of its vertex indices.  Run from the
repository root:

    python3 benchmarks/bench_kernels.py --n 600 --m-max 60 --repeat 3

Trace-scale contours run the same way with --n 2000 (n = 2044) and
--n 4000 (n = 4083): a full table is then 33 and 133 MB, and the
uniform random table's full DP takes about 1 and 6 s a solve.
"""

import argparse
import time
import tracemalloc

import numpy as np

from polyapprox import (
    CostKind, DigitalCurve, SegmentCosts, _kernels, eliminate_to_m, provisional_start_vertex,
    split_to_m, stabilize,
)
from polyapprox.schemes import _ELIMINATED


def noisy_ellipse(n_target: int, seed: int = 0, aspect: float = 0.6) -> np.ndarray:
    """Closed lattice contour with semi-axes a and b = aspect * a, and
    roughly n_target distinct points at the default aspect.

    Wobble comes from smooth random-phase harmonics; white noise would
    shatter the trace into far more lattice cells than requested.
    """
    rng = np.random.default_rng(seed)
    a = n_target / 6.6  # wobbled rounded trace runs about 6.6a for b = 0.6a
    b = a * aspect
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    theta = np.linspace(0.0, 2.0 * np.pi, 8 * n_target, endpoint=False)
    wobble = 1.0 + 0.05 * np.sin(7 * theta + p1) + 0.03 * np.cos(11 * theta + p2)
    xs = np.rint(a * wobble * np.cos(theta)).astype(np.int64)
    ys = np.rint(b * wobble * np.sin(theta)).astype(np.int64)
    pts = np.column_stack([xs, ys])
    # keep first occurrence only, preserving trace order
    _, first = np.unique(pts, axis=0, return_index=True)
    pts = pts[np.sort(first)]
    return pts


def stored_e2_table(xs, ys, bound):
    """The E2 table's rows a solve to `bound` can read, as SegmentCosts
    builds it."""
    return _kernels.e2_cost_table(xs, ys, bound)


def default_e2_table(curve, xs, ys):
    """The E2 table SegmentCosts builds with no bound set: to G, the
    largest U3 of any start."""
    g = SegmentCosts(curve).gon_cost(np.arange(curve.n), 3, CostKind.SUM_SQUARED)
    return stored_e2_table(xs, ys, g)


def u3(tab):
    """U3 from position 0 of a span-major sum table: the triangle
    through 0, n // 3 and 2n // 3, summed in the DP's order."""
    n = tab.shape[1]
    at = np.arange(4) * n // 3
    return np.add.accumulate(tab[np.diff(at), at[1:] % n])[-1]


def emax_cut(xs, ys, bound):
    """The span from which emax_cost_table(xs, ys, bound) probes no
    length: found on the ring shifted to its min corner, as the table
    finds it."""
    x, y = xs - xs.min(), ys - ys.min()
    return _kernels._anchored_cut(x, y, np.stack(_kernels.doubled_prefixes(x, y)),
                                  bound * bound, True)


def levels_built(xs, ys) -> int:
    """How many hull levels emax_cost_table builds on the ring: it asks
    _kernels._hull_levels for each as a scan first needs it."""
    built = 0
    levels = _kernels._hull_levels

    def counted(z):
        nonlocal built
        for level in levels(z):
            built += 1
            yield level

    _kernels._hull_levels = counted
    try:
        _kernels.emax_cost_table(xs, ys)
    finally:
        _kernels._hull_levels = levels
    return built


def hull_levels(xs, ys, count):
    """Levels 0 to count - 1 of the Emax table's hull table, from the
    min corner, each dropped when the next is built, as the table does."""
    levels = _kernels._hull_levels((xs - xs.min()) + 1j * (ys - ys.min()))
    for _ in range(count):
        next(levels)


def eliminate_afresh(curve, m):
    """eliminate_to_m with the curve's last elimination forgotten, so
    that the call eliminates rather than reusing it."""
    _ELIMINATED.pop(curve, None)
    return eliminate_to_m(curve, m)


def timeit(fn, args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def peak_mb(fn, args) -> float:
    """Peak traced allocation of one call, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=600, help="contour size target")
    ap.add_argument("--m-max", type=int, default=60, help="DP vertex budget")
    ap.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = ap.parse_args()

    pts = noisy_ellipse(args.n)
    xs = pts[:, 0].astype(np.float64)
    ys = pts[:, 1].astype(np.float64)
    n = len(pts)
    print(f"contour: n={n}  m_max={args.m_max}  repeat={args.repeat}")

    thin = noisy_ellipse(args.n, aspect=0.3)
    txs = thin[:, 0].astype(np.float64)
    tys = thin[:, 1].astype(np.float64)
    print(f"elongated contour: n={len(thin)}")
    # the sagitta between neighbours (about 55) dwarfs rounding, so every
    # point of the circle is a hull vertex
    theta = 2.0 * np.pi * np.arange(300) / 300
    circle = np.rint(1e6 * np.column_stack((np.cos(theta), np.sin(theta))))
    crossed = pts.astype(np.float64)
    crossed[[0, n // 3]] = crossed[[n // 3, 0]]

    m_max = min(args.m_max, n)
    curve = DigitalCurve(pts)
    e2_tab = default_e2_table(curve, xs, ys)
    # the bounds a study builds the tables to, at cr 15
    p0, m_sub = provisional_start_vertex(curve), round(n / 15)
    u_e2, u_emax = (SegmentCosts(curve).gon_cost(p0, m_sub, kind) for kind in CostKind)
    emax_tab = _kernels.emax_cost_table(xs, ys)
    # uniform random costs: the profile rises, so the banded solve falls
    # back to the full DP
    rising = np.random.default_rng(0).uniform(0.0, 10.0, size=(n, n))
    # the bounds of the solves from vertex 0
    u3_e2, u3_emax = (SegmentCosts(curve).gon_cost(0, 3, kind) for kind in CostKind)
    um_e2 = SegmentCosts(curve).gon_cost(0, m_max, CostKind.SUM_SQUARED)

    def solve(tab, use_max, bound):
        # a study computes a table's band widths once, not once a solve
        return _kernels.dp_solve, (tab, _kernels.cheapest_sides(tab), 0, m_max, use_max,
                                   False, bound)

    def polygon(tab, cheapest, seeded=False):
        dp = _kernels.dp_solve(tab, cheapest, 0, m_max, False, seeded,
                               um_e2 if seeded else u3_e2)
        return _kernels.dp_chain(tab, 0, dp, m_max, False)

    tables = [
        ("e2 cost table", default_e2_table, (curve, xs, ys)),
        ("e2, every row", _kernels.e2_cost_table, (xs, ys, np.inf)),
        ("e2, to U_m", stored_e2_table, (xs, ys, u_e2)),
        ("emax cost table", _kernels.emax_cost_table, (xs, ys)),
        ("emax, to U_m", _kernels.emax_cost_table, (xs, ys, u_emax)),
        ("emax, elongated", _kernels.emax_cost_table, (txs, tys)),
        ("emax, all-hull", _kernels.emax_cost_table, (circle[:, 0], circle[:, 1])),
        ("emax, non-simple", _kernels.emax_cost_table, (crossed[:, 0], crossed[:, 1])),
    ]
    solves = [
        ("emax cut, to U_m", emax_cut, (xs, ys, u_emax)),
        ("dp solve (sum)", *solve(e2_tab, False, u3_e2)),
        ("dp solve (max)", *solve(emax_tab, True, u3_emax)),
        ("dp solve, rising profile", *solve(rising, False, u3(rising))),
        ("polygon solve (sum)", polygon, (e2_tab, _kernels.cheapest_sides(e2_tab))),
        ("polygon solve, seeded", polygon, (e2_tab, _kernels.cheapest_sides(e2_tab), True)),
    ]

    cuts = {"emax, to U_m": f"{emax_cut(xs, ys, u_emax)}/"}
    print(f"{'table':<24} {'time':>10} {'peak':>10} {'rows':>12}")
    for name, fn, call_args in tables:
        stored, ring = fn(*call_args).shape
        rows = f"{stored}/{cuts.get(name, '')}{ring}"
        print(f"{name:<24} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms"
              f" {peak_mb(fn, call_args):>8.2f}MB {rows:>12}")
    for name, ring in (("emax hull levels", (xs, ys)),
                       ("hull levels, all-hull", (circle[:, 0], circle[:, 1]))):
        call_args = (*ring, levels_built(*ring))
        print(f"{name:<24} {timeit(hull_levels, call_args, args.repeat) * 1e3:>8.2f}ms"
              f" {peak_mb(hull_levels, call_args):>8.2f}MB {f'{call_args[2]} levels':>12}")
    print(f"{'kernel':<24} {'time':>10}")
    for name, fn, call_args in solves:
        print(f"{name:<24} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms")

    m = m_max
    eliminated = eliminate_to_m(curve, m)
    schemes = [
        ("split_to_m", split_to_m, (curve, m)),
        ("eliminate_to_m", eliminate_afresh, (curve, m)),
        ("stabilize", stabilize, (curve, eliminated)),
    ]
    print(f"{'scheme (m=' + str(m) + ')':<24} {'time':>10}")
    for name, fn, call_args in schemes:
        print(f"{name:<24} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms")
    # while a SegmentCosts holds the curve's E2 table, as in a study, the
    # schemes look their costs up in it
    costs = SegmentCosts(curve)
    costs.table(CostKind.SUM_SQUARED)
    for name, fn, call_args in schemes[1:]:
        print(f"{name + ', E2 table':<24} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
