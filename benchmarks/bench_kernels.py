"""Time the cost-table and DP kernels and the suboptimal schemes.

Builds a noisy digitized ellipse, then times the three hot paths (the
two cost tables and the DP solve) and the suboptimal schemes at
m = --m-max.  The Emax table is also timed on an elongated ellipse
(b = 0.3a), whose long arcs mostly stay under the table's bound, on
300 integer points of a circle of radius 10**6, every one of them a
vertex of each arc's hull, and on the first ellipse with two points a
third of the ring apart swapped, which makes its sides cross.  Run from
the repository root:

    python3 benchmarks/bench_kernels.py --n 600 --m-max 60 --repeat 3
"""

import argparse
import time

import numpy as np

from polyapprox import DigitalCurve, _kernels, eliminate_to_m, split_to_m, stabilize


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


def timeit(fn, args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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

    rcost = _kernels.dp_cost_matrix(_kernels.e2_cost_table(xs, ys), 0)
    cases = [
        ("e2 cost table", _kernels.e2_cost_table, (xs, ys)),
        ("emax cost table", _kernels.emax_cost_table, (xs, ys)),
        ("emax, elongated", _kernels.emax_cost_table, (txs, tys)),
        ("emax, all-hull", _kernels.emax_cost_table, (circle[:, 0], circle[:, 1])),
        ("emax, non-simple", _kernels.emax_cost_table, (crossed[:, 0], crossed[:, 1])),
        ("dp solve (sum)", _kernels.dp_solve, (rcost, args.m_max, False)),
        ("dp solve (max)", _kernels.dp_solve, (rcost, args.m_max, True)),
    ]

    print(f"{'kernel':<16} {'time':>10}")
    for name, fn, call_args in cases:
        print(f"{name:<16} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms")

    curve = DigitalCurve(pts)
    m = min(args.m_max, n)
    schemes = [
        ("split_to_m", split_to_m, (curve, m)),
        ("eliminate_to_m", eliminate_to_m, (curve, m)),
        ("stabilize", stabilize, (curve, eliminate_to_m(curve, m))),
    ]
    print(f"{'scheme (m=' + str(m) + ')':<16} {'time':>10}")
    for name, fn, call_args in schemes:
        print(f"{name:<16} {timeit(fn, call_args, args.repeat) * 1e3:>8.2f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
