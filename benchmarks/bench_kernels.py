"""Time the jitted kernels against the pure-numpy fallbacks.

Builds a noisy digitized ellipse, then times the three hot paths (the
two cost tables and the DP solve) on both implementations and checks
they agree, and times the suboptimal schemes at m = --m-max.  The Emax
table is also timed on an elongated ellipse (b = 0.3a), whose long arcs
mostly stay under the table's bound, and for both rings the script
prints how many arcs longer than n/2 needed an exact value and how they
got it.  Run from the repository root:

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

    if not _kernels.HAS_NUMBA:
        print("numba not importable; only the numpy path is available")

    thin = noisy_ellipse(args.n, aspect=0.3)
    txs = thin[:, 0].astype(np.float64)
    tys = thin[:, 1].astype(np.float64)
    print(f"elongated contour: n={len(thin)}")

    rcost = _kernels.dp_cost_matrix(_kernels.e2_cost_table_numpy(xs, ys), 0)
    # both Emax tables hold +inf above the same bound, so they are
    # compared with their +inf entries
    cases = [
        ("e2 cost table", _kernels.e2_cost_table_numpy,
         _kernels.e2_cost_table_jit, (xs, ys)),
        ("emax cost table", _kernels.emax_cost_table_numpy,
         _kernels.emax_cost_table_jit, (xs, ys)),
        ("emax, elongated", _kernels.emax_cost_table_numpy,
         _kernels.emax_cost_table_jit, (txs, tys)),
        ("dp solve (sum)", _kernels.dp_solve_numpy,
         _kernels.dp_solve_jit, (rcost, args.m_max, False)),
        ("dp solve (max)", _kernels.dp_solve_numpy,
         _kernels.dp_solve_jit, (rcost, args.m_max, True)),
    ]

    print(f"{'kernel':<16} {'numpy':>10} {'numba':>10} {'speedup':>8}  agree")
    for name, ref, jit, call_args in cases:
        t_np = timeit(ref, call_args, args.repeat)
        if jit is None:
            print(f"{name:<16} {t_np * 1e3:>8.2f}ms {'-':>10} {'-':>8}  -")
            continue
        jit(*call_args)  # compile outside the timed region
        t_jt = timeit(jit, call_args, args.repeat)
        got = jit(*call_args)
        want = ref(*call_args)
        if isinstance(got, tuple):
            # (dp, parent): both paths leave -1 where there is no parent
            dp_g, par_g = got
            dp_w, par_w = want
            ok = np.allclose(dp_g, dp_w, rtol=1e-12, atol=1e-12) and np.array_equal(
                par_g, par_w
            )
        else:
            ok = np.allclose(got, want, rtol=1e-12, atol=1e-12)
        print(
            f"{name:<16} {t_np * 1e3:>8.2f}ms {t_jt * 1e3:>8.2f}ms"
            f" {t_np / t_jt:>7.1f}x  {'yes' if ok else 'NO'}"
        )
        if not ok:
            return 1

    for name, ring_xs, ring_ys in (("contour", xs, ys), ("elongated", txs, tys)):
        counts = {}
        if _kernels._emax_cost_table_hull(ring_xs, ring_ys, counts) is None:
            how = "hulls passed n/3 points: the full scan"
        elif counts["resumed"]:
            how = "the resumed sweep"
        else:
            how = "their tails"
        print(
            f"emax long arcs ({name}): {counts.get('exact', '-')} of"
            f" {counts.get('long', '-')} exact, from {how}"
        )

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
