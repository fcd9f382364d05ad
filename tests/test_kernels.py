"""Equivalence of the kernels with the plain per-entry loops below.

The kernels' tables must equal the loops bit for bit (the Emax table
after the bound rule of bounded_emax_loops), read span-major
(_span_major), and so must the DP's profile, the chains dp_chain walks
back, and every cell its running bound keeps
(_assert_dp_matches_loops): the study relies on byte-identical CSV
output, and the loops state each entry's arithmetic one operation at a
time.
"""

import math
import tracemalloc

import numpy as np
import pytest

from polyapprox import (
    AboveBound, CostKind, CurveTooLarge, DigitalCurve, ErrorProfile, SegmentCosts, _kernels,
    auto_target_m, baseline_from_profile, optimal, provisional_start_vertex, select_start_vertex,
)
from polyapprox.approx_error import E2Costs
from conftest import _ellipse, _fourier_blob, build_corpus, lattice_ring, wide_ring


def _e2_cost_table_loops(xs, ys, px, py, pxx, pyy, pxy):
    n = xs.shape[0]
    out = np.zeros((n, n))
    for u in range(n):
        xu = xs[u]
        yu = ys[u]
        for length in range(2, n):
            v = (u + length) % n
            dx = xs[v] - xu
            dy = ys[v] - yu
            l2 = dx * dx + dy * dy
            k = yu * dx - xu * dy
            a = u + 1
            b = u + length
            sx = px[b] - px[a]
            sy = py[b] - py[a]
            sxx = pxx[b] - pxx[a]
            syy = pyy[b] - pyy[a]
            sxy = pxy[b] - pxy[a]
            cnt = length - 1.0
            num = (
                dy * dy * sxx
                + dx * dx * syy
                - 2.0 * dx * dy * sxy
                + 2.0 * k * dy * sx
                - 2.0 * k * dx * sy
                + cnt * k * k
            )
            if num < 0.0:
                num = 0.0
            out[u, v] = num / l2
    return out


def _emax_cost_table_loops(xs, ys):
    n = xs.shape[0]
    x2 = np.concatenate((xs, xs))
    y2 = np.concatenate((ys, ys))
    out = np.zeros((n, n))
    for u in range(n):
        xu = xs[u]
        yu = ys[u]
        for length in range(2, n):
            v = (u + length) % n
            dx = xs[v] - xu
            dy = ys[v] - yu
            best = 0.0
            for t in range(u + 1, u + length):
                c = (x2[t] - xu) * dy - (y2[t] - yu) * dx
                if c < 0.0:
                    c = -c
                if c > best:
                    best = c
            out[u, v] = best / np.sqrt(dx * dx + dy * dy)
    return out


def _span_major(table):
    """A table of the loops, entry [u, v] the arc u -> v, in the
    kernels' layout: entry [L, e] the arc of L steps ending at e."""
    n = table.shape[0]
    span, end = np.ogrid[:n, :n]
    return table[(end - span) % n, end]


def _dp_solve_loops(rcost, m_max, use_max):
    n1 = rcost.shape[0]
    dp = np.full((m_max + 1, n1), np.inf)
    parent = np.full((m_max + 1, n1), -1, dtype=np.int64)
    for v in range(1, n1):
        dp[1, v] = rcost[v, 0]
        parent[1, v] = 0
    for j in range(2, m_max + 1):
        for v in range(j, n1):
            best = np.inf
            arg = -1
            for u in range(j - 1, v):
                prev = dp[j - 1, u]
                c = rcost[v, u]
                if use_max:
                    val = prev if prev >= c else c
                else:
                    val = prev + c
                if val < best:
                    best = val
                    arg = u
            dp[j, v] = best
            parent[j, v] = arg
    return dp, parent


def _gon_cost(tab, start, m, combine):
    """U_m over a span-major table: the cost of the m-gon through
    positions floor(i n / m), i = 0..m, from start, its sides combined
    left to right, as the DP combines them."""
    n = tab.shape[1]
    at = np.arange(m + 1) * n // m
    return combine.accumulate(tab[np.diff(at), (start + at[1:]) % n])[-1]


def _u3(tab, start, use_max):
    """U3 from start: the triangle through positions 0, n // 3 and
    2n // 3."""
    return _gon_cost(tab, start, 3, np.maximum if use_max else np.add)


def _largest_u3(full):
    """G: the largest U3 of any start over a full span-major sum table."""
    return max(_u3(full, start, False) for start in range(full.shape[1]))


def _random_tables(seed):
    c = lattice_ring(seed, n_lo=8, n_hi=14)
    xs = c.points[:, 0].astype(np.float64)
    ys = c.points[:, 1].astype(np.float64)
    return xs, ys


def _assert_e2_table_is_loops(xs, ys):
    """The full table is the loops', bit for bit, and so are the rows
    0 to R - 1 that the table built to G, the largest U3 of any start,
    stores, R > ceil(n/3).  No entry of the rows it leaves out is at or
    under G, and the band widths of every b <= G are those of the full
    table.  Returns R."""
    n = xs.shape[0]
    want = _span_major(_e2_cost_table_loops(xs, ys, *_kernels.doubled_prefixes(xs, ys)))
    assert _kernels.e2_cost_table(xs, ys, np.inf).tobytes() == want.tobytes()
    g = _largest_u3(want)
    tab = _kernels.e2_cost_table(xs, ys, g)
    rows = tab.shape[0]
    assert tab.tobytes() == want[:rows].tobytes()
    assert rows > -(-n // 3)
    assert not (want[rows:] <= g).any()
    short, full = _kernels.cheapest_sides(want[:rows]), _kernels.cheapest_sides(want)
    bs = np.append(full[full <= g], g)
    assert np.array_equal(short.searchsorted(bs, side="right"),
                          full.searchsorted(bs, side="right"))
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_e2_table_numpy_vs_loops(seed):
    _assert_e2_table_is_loops(*_random_tables(seed))


@pytest.mark.parametrize("n", range(3, 9))
def test_e2_table_exact_on_small_rings(n):
    pts = lattice_ring(n, n_lo=n, n_hi=n).points.astype(np.float64)
    _assert_e2_table_is_loops(pts[:, 0], pts[:, 1])


@pytest.mark.parametrize("blocks", ["several", "one"])
def test_e2_table_blocks_match_loops_exactly(blocks):
    if blocks == "several":
        # n = 606: 13 rows a block, 46 full blocks and a ragged one of 8;
        # the rows kept end inside a block
        pts = _fourier_blob(1, 80.0, 1200).points
        step = _kernels._E2_BLOCK // pts.shape[0]
        assert pts.shape[0] // step >= 2 and pts.shape[0] % step
    else:
        pts = lattice_ring(3, n_lo=40, n_hi=60).points
        assert _kernels._E2_BLOCK // pts.shape[0] >= pts.shape[0]
    rows = _assert_e2_table_is_loops(pts[:, 0].astype(np.float64),
                                     pts[:, 1].astype(np.float64))
    assert rows < pts.shape[0]


def test_e2_table_exact_on_a_non_integer_ring():
    # n = 211: 38 rows a block, the last block ragged (21 rows)
    rng = np.random.default_rng(7)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 211))
    xs = 30.0 * np.cos(theta) + rng.normal(0.0, 0.7, theta.size)
    ys = 18.0 * np.sin(theta) + rng.normal(0.0, 0.7, theta.size)
    assert 211 % (_kernels._E2_BLOCK // 211)
    _assert_e2_table_is_loops(xs, ys)


@pytest.mark.parametrize("bound", [0.0, 50.0, np.inf])
def test_an_e2_build_makes_the_prefixes_once(bound, monkeypatch):
    # the cut and the blocks read one set of the ring's doubled prefixes
    xs, ys = (_fourier_blob(1, 40.0, 600).points[:, k].astype(np.float64) for k in (0, 1))
    made = []
    prefixes = _kernels.doubled_prefixes

    def counted(*args):
        made.append(args)
        return prefixes(*args)

    monkeypatch.setattr(_kernels, "doubled_prefixes", counted)
    tab = _kernels.e2_cost_table(xs, ys, bound)
    assert len(made) == 1
    assert 2 <= tab.shape[0] <= xs.shape[0]


def test_e2_table_working_set_is_a_few_blocks():
    # the table plus temporaries of a few _E2_BLOCK entries; staging the
    # whole table at n x 2n would add twice the table
    pts = _fourier_blob(1, 80.0, 1200).points.astype(np.float64)
    n = pts.shape[0]
    table = 8 * n * n
    slack = 48 * 8 * _kernels._E2_BLOCK
    assert 2 * table > slack
    tracemalloc.start()
    try:
        _kernels.e2_cost_table(pts[:, 0], pts[:, 1], np.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table + slack


def _emax_cost_table_scan(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """emax_cost_table before the bound, by scanning every arc point:
    O(n^3)."""
    n = xs.shape[0]
    x2 = np.concatenate((xs, xs))
    y2 = np.concatenate((ys, ys))
    out = np.zeros((n, n))
    lengths = np.arange(2, n)
    offs = np.arange(1, n - 1)
    for u in range(n):
        xu, yu = xs[u], ys[u]
        vs = (u + lengths) % n
        dx = xs[vs] - xu
        dy = ys[vs] - yu
        wx = x2[u + offs] - xu
        wy = y2[u + offs] - yu
        cross = np.abs(np.outer(wx, dy) - np.outer(wy, dx))
        valid = offs[:, None] < lengths[None, :]
        cross[~valid] = -1.0
        out[u, vs] = cross.max(axis=0) / np.sqrt(dx * dx + dy * dy)
    return out


def _bounded(want):
    """The bound rule, in place: +inf above B, the largest entry over
    arcs of 1 to ceil(n/3) steps."""
    n = want.shape[0]
    bound = max(want[u, (u + k) % n] for u in range(n) for k in range(1, -(-n // 3) + 1))
    want[want > bound] = np.inf
    return want


def bounded_emax_loops(xs, ys):
    return _bounded(_emax_cost_table_loops(xs, ys))


def _scan_bounded(xs, ys):
    # the O(n^3) scan stands in for the loops on larger rings
    return _bounded(_emax_cost_table_scan(xs, ys))


def _emax_cut(xs, ys, bound):
    # emax_cost_table's cut, on the coordinates it finds it on: shifted
    # to the min corner
    x, y = xs - xs.min(), ys - ys.min()
    return _kernels._anchored_cut(x, y, np.stack(_kernels.doubled_prefixes(x, y)),
                                  bound * bound, True)


def _e2_rows(xs, ys, bound):
    """R: the rows e2_cost_table stores for `bound`, its cut."""
    return _kernels._anchored_cut(xs, ys, np.stack(_kernels.doubled_prefixes(xs, ys)), bound,
                                  False)


def _assert_stored_rows(table, want):
    """The table is the oracle's rows up to the last with a finite entry,
    bit for bit (so -0.0 differs from +0.0); every row it drops is +inf
    in the oracle."""
    rows = table.shape[0]
    assert table.dtype == want.dtype and table.shape[1:] == want.shape[1:]
    assert table.tobytes() == want[:rows].tobytes()
    assert np.isinf(want[rows:]).all() and np.isfinite(want[rows - 1]).any()


@pytest.mark.parametrize("seed", range(8))
def test_emax_table_numpy_vs_loops(seed):
    xs, ys = _random_tables(seed)
    a = _kernels.emax_cost_table(xs, ys)
    _assert_stored_rows(a, _span_major(bounded_emax_loops(xs, ys)))


def _walk(corners):
    """Closed ring through every lattice point on the straight sides
    between consecutive corners (each side horizontal, vertical or 45
    degrees)."""
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        steps = max(abs(x1 - x0), abs(y1 - y0))
        sx, sy = (x1 - x0) // steps, (y1 - y0) // steps
        pts += [(x0 + k * sx, y0 + k * sy) for k in range(steps)]
    return np.array(pts, dtype=np.int64)


def _orient(ax, ay, bx, by, cx, cy):
    # twice the signed area of triangle a, b, c: > 0 when c is left of a -> b
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _is_simple(pts):
    """Whether the closed ring through integer points pts has no
    self-contact: adjacent sides meet only at their shared vertex and no
    other two sides touch.  Exact in int64 for spans below 2**31.

    emax_cost_table takes every ring the same way; this labels the test
    families, so that each is known to hold self-touching rings or not.
    """
    pts = np.asarray(pts, dtype=np.int64)
    n = pts.shape[0]
    ax, ay = pts[:, 0], pts[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    cx, cy = np.roll(ax, -2), np.roll(ay, -2)
    if np.any((ax == bx) & (ay == by)):
        return False
    # side a -> b doubling back along b -> c
    turn = _orient(ax, ay, bx, by, cx, cy)
    back = (ax - bx) * (cx - bx) + (ay - by) * (cy - by)
    if np.any((turn == 0) & (back > 0)):
        return False
    # every pair of sides i < k sharing no vertex
    i, k = np.nonzero(np.triu(np.ones((n, n), dtype=bool), 2))
    far = k - i < n - 1
    i, k = i[far], k[far]
    s1 = np.sign(_orient(ax[i], ay[i], bx[i], by[i], ax[k], ay[k]))
    s2 = np.sign(_orient(ax[i], ay[i], bx[i], by[i], bx[k], by[k]))
    s3 = np.sign(_orient(ax[k], ay[k], bx[k], by[k], ax[i], ay[i]))
    s4 = np.sign(_orient(ax[k], ay[k], bx[k], by[k], bx[i], by[i]))
    # with the boxes meeting, closed segments touch iff each one's
    # endpoints are not strictly on one side of the other's line
    meet = (
        (np.minimum(ax[i], bx[i]) <= np.maximum(ax[k], bx[k]))
        & (np.minimum(ax[k], bx[k]) <= np.maximum(ax[i], bx[i]))
        & (np.minimum(ay[i], by[i]) <= np.maximum(ay[k], by[k]))
        & (np.minimum(ay[k], by[k]) <= np.maximum(ay[i], by[i]))
    )
    return not np.any(meet & (s1 * s2 <= 0) & (s3 * s4 <= 0))


def _check_emax_exact(pts, oracle=bounded_emax_loops):
    xs = pts[:, 0].astype(np.float64)
    ys = pts[:, 1].astype(np.float64)
    table = _kernels.emax_cost_table(xs, ys)
    _assert_stored_rows(table, _span_major(oracle(xs, ys)))
    return table


@pytest.mark.parametrize("seed", range(40))
def test_emax_table_exact_on_lattice_rings(seed):
    # angular-order rings up to n=60; rounding makes some self-touching
    _check_emax_exact(lattice_ring(seed, n_lo=4, n_hi=60).points)


RUN_RINGS = {
    "rectangle": _walk([(0, 0), (9, 0), (9, 4), (0, 4)]),
    "thin_rectangle": _walk([(0, 0), (12, 0), (12, 1), (0, 1)]),
    "l_shape": _walk([(0, 0), (8, 0), (8, 3), (3, 3), (3, 9), (0, 9)]),
    "u_shape": _walk([(0, 0), (9, 0), (9, 7), (6, 7), (6, 2), (3, 2), (3, 7), (0, 7)]),
    "diagonal_l": _walk([(0, 0), (6, 6), (3, 9), (-3, 3), (-1, 1)]),
}


@pytest.mark.parametrize("name", sorted(RUN_RINGS))
def test_emax_table_exact_on_collinear_runs(name):
    ring = RUN_RINGS[name]
    assert _is_simple(ring)
    # every start: inside a run, at a corner, just before one
    for shift in range(ring.shape[0]):
        _check_emax_exact(np.roll(ring, shift, axis=0))


@pytest.mark.parametrize("seed", [5, 6])
def test_emax_table_exact_on_corpus_blobs(seed):
    # the corpus generator's 600-sample blobs, n near 300; the loops
    # check the small rings, the scan is their stand-in here
    _check_emax_exact(_fourier_blob(seed, 40.0, 600).points, _scan_bounded)


# side directions of a quarter turn, by angle
QUARTER_10 = [(1, 0), (4, 1), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (1, 4)]
QUARTER_20 = [
    (1, 0), (6, 1), (5, 1), (4, 1), (3, 1), (5, 2), (2, 1), (5, 3), (3, 2), (4, 3),
    (5, 4), (6, 5), (1, 1), (5, 6), (4, 5), (3, 4), (2, 3), (3, 5), (1, 2), (2, 5),
]


def _convex_polygon(run, quarter=QUARTER_10):
    """Strictly convex polygon, 4 * len(quarter) sides, with `run`
    lattice points on each side."""
    sides = []
    for _ in range(4):
        sides += quarter
        quarter = [(-y, x) for x, y in quarter]
    return np.cumsum(np.repeat(sides, run, axis=0), axis=0)


def _level_rows(pts, k):
    """Rows of level k of emax_cost_table's hull table: the most strict
    hull vertices of any window of 2^k points."""
    x, y = (pts[:, j] - pts[:, j].min() for j in (0, 1))
    levels = _kernels._hull_levels((x + 1j * y).astype(np.complex128))
    for _ in range(k):
        next(levels)
    return next(levels)[0].shape[0]


def test_emax_table_exact_when_hulls_outgrow_the_deque():
    # 80-gon, n = 160: the hull of an arc of n/2 points has about 41
    # vertices, and every 64-point window has 33 or more
    ring = _convex_polygon(2, QUARTER_20)
    assert _level_rows(ring, 6) >= 33
    _check_emax_exact(ring)


def test_emax_table_sweeps_when_hulls_pass_a_third_of_n():
    # n = 40: each arc is its own hull
    _check_emax_exact(_convex_polygon(1))


def _circle(n, radius=1e5):
    # integer points on a circle: for n <= 200 at radius 10**5 the
    # sagitta between neighbours (12 or more) outweighs rounding, so
    # every point is a hull vertex of every window
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.rint(radius * np.column_stack((np.cos(theta), np.sin(theta))))


@pytest.mark.parametrize("n", [60, 131, 200])
def test_emax_table_sweeps_all_hull_rings(n):
    ring = _circle(n)
    side = np.roll(ring, -1, axis=0) - ring
    assert (side[:, 0] * np.roll(side[:, 1], -1) > side[:, 1] * np.roll(side[:, 0], -1)).all()
    xs, ys = ring[:, 0], ring[:, 1]
    _assert_stored_rows(_kernels.emax_cost_table(xs, ys), _span_major(_scan_bounded(xs, ys)))
    assert _level_rows(ring, 4) == 16


def _direction(rng):
    # a random primitive lattice direction
    while True:
        a, b = (int(c) for c in rng.integers(-5, 6, size=2))
        if math.gcd(a, b) == 1:
            return np.array([a, b])


def _fuzz_lattice(rng):
    # at least 3 distinct lattice points in angular order, n from 4 to 80
    # before duplicates drop; rounding makes some self-touching
    while True:
        n = int(rng.integers(4, 81))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(2.0, 2.0 + n / 4, n)
        pts = np.rint(radii[:, None] * np.column_stack((np.cos(theta), np.sin(theta))))
        _, first = np.unique(pts, axis=0, return_index=True)
        if first.size >= 3:
            return pts[np.sort(first)]


def _fuzz_thin_rectangle(rng):
    # every lattice point of a rectangle along a random direction d, one
    # or two steps wide
    d = _direction(rng)
    w = np.array([-d[1], d[0]])
    k = np.arange(int(rng.integers(2, 30)))[:, None]
    across = np.arange(int(rng.integers(1, 3)))[:, None]
    far = (k[-1] + 1) * d
    top = far + (across[-1] + 1) * w
    return np.concatenate((k * d, far + across * w, top - k * d, top - far - across * w))


def _fuzz_run_and_apex(rng):
    # a straight run along a random direction, closed by one point off it
    d = _direction(rng)
    while True:
        apex = rng.integers(-20, 21, size=2)
        if d[0] * apex[1] != d[1] * apex[0]:
            break
    run = np.arange(int(rng.integers(2, 40)))[:, None] * d
    return np.concatenate((run, apex[None, :]))


def _swap_points(rng, pts, pairs):
    # distinct points stay distinct; most swaps make sides cross
    pts = pts.copy()
    for _ in range(pairs):
        i, j = rng.choice(pts.shape[0], size=2, replace=False)
        pts[[i, j]] = pts[[j, i]]
    return pts


def _fuzz_crossed(rng):
    # an angular lattice ring with one or two pairs of points swapped
    return _swap_points(rng, _fuzz_lattice(rng), int(rng.integers(1, 3)))


FUZZ_RINGS = {
    "lattice": _fuzz_lattice,
    "thin_rectangle": _fuzz_thin_rectangle,
    "run_and_apex": _fuzz_run_and_apex,
    "crossed": _fuzz_crossed,
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(FUZZ_RINGS))
def test_emax_table_exact_on_fuzzed_rings(family, seed):
    rng = np.random.default_rng(seed)
    simple = []
    for _ in range(12):
        pts = FUZZ_RINGS[family](rng)
        simple.append(_is_simple(pts))
        _check_emax_exact(pts, _scan_bounded)
    # thin rectangles and runs plus an apex are simple; the angular
    # lattice rings can be self-touching, and most crossed rings are
    if family in ("thin_rectangle", "run_and_apex"):
        assert all(simple)
    elif family == "crossed":
        assert not all(simple)


def _crossed_blob():
    # the corpus generator's blob05, n = 294, with two points n/3 apart
    # swapped
    pts = _fourier_blob(5, 40.0, 600).points.copy()
    n = pts.shape[0]
    pts[[10, 10 + n // 3]] = pts[[10 + n // 3, 10]]
    return pts


@pytest.mark.parametrize("pts, oracle", [
    # n = 26 and 82, 13 x 2 and 41 x 2 points: most long arcs run along
    # both long sides, under B
    (RUN_RINGS["thin_rectangle"], bounded_emax_loops),
    (_walk([(0, 0), (40, 0), (40, 1), (0, 1)]), bounded_emax_loops),
    # n = 236; the scan stands in for the slower loops
    (_ellipse("thin", 50.0, 16.0, 400).points, _scan_bounded),
    # n = 12: arcs of up to 10 steps lie on one line, Emax +0.0, not -0.0
    (np.array([(x, 0) for x in range(11)] + [(5, 3)]), bounded_emax_loops),
    # n = 294, sides crossing: the swapped points' spike raises B
    (_crossed_blob(), _scan_bounded),
], ids=["thin_rectangle_26", "thin_rectangle_82", "thin_ellipse_236", "long_side_12",
        "crossed_blob_294"])
def test_emax_table_exact_on_open_long_arcs(pts, oracle):
    # the long arcs under B pass the probes and take their value from
    # both windows
    table = _check_emax_exact(pts, oracle)
    n = pts.shape[0]
    assert np.isfinite(table[-(-n // 2) + 1:]).any()


NON_SIMPLE_RINGS = {
    "figure_eight": _walk([(0, 0), (3, 3), (3, 0), (0, 3)]),
    "fold_back": np.array([[0, 0], [4, 0], [2, 0], [2, 3]]),
    "vertex_on_side": np.array([[0, 0], [4, 0], [4, 4], [3, 4], [2, 0], [1, 4], [0, 4]]),
    # two loops joined by diagonals that cross at (3.5, 2.5)
    "crossed_loops": _walk([(0, 0), (2, 0), (2, 1), (5, 4), (5, 6), (2, 6), (2, 4), (5, 1),
                            (5, -2), (0, -2)]),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLE_RINGS))
def test_emax_table_scans_non_simple_rings(name):
    # a window's hull does not care whether its ring touches itself
    ring = NON_SIMPLE_RINGS[name]
    assert not _is_simple(ring)
    assert np.unique(ring, axis=0).shape == ring.shape
    _check_emax_exact(ring)


def _angular_ring(rng, n):
    # n distinct lattice points in angular order; rounding makes some
    # rings self-touching
    while True:
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(2.0, 2.0 + n / 4, n)
        pts = np.rint(radii[:, None] * np.column_stack((np.cos(theta), np.sin(theta))))
        if np.unique(pts, axis=0).shape[0] == n:
            return pts


def _lattice_cloud(rng, n, span):
    # n distinct lattice points of [0, span)^2 in random order: most
    # sides cross
    assert span * span >= 2 * n
    while True:
        pts = rng.integers(0, span, size=(n, 2))
        if np.unique(pts, axis=0).shape[0] == n:
            return pts


@pytest.mark.parametrize("n", range(3, 41))
def test_emax_table_exact_on_small_rings(n):
    # every n from 3: probes that coincide, a ceil(n/3) - 1 under 16,
    # levels of one or two rows
    rng = np.random.default_rng(n)
    oracle = bounded_emax_loops if n <= 12 else _scan_bounded
    _check_emax_exact(_angular_ring(rng, n), oracle)
    _check_emax_exact(_lattice_cloud(rng, n, 8 + n), oracle)


@pytest.mark.parametrize("n", [6, 10, 18, 34, 66, 130, 258, 514])
def test_emax_table_exact_when_n_minus_2_is_a_power_of_two(n, monkeypatch):
    # the arcs of n - 1 steps have n - 2 = 2^k interior points, one
    # window of the top level; with B lifted to +inf every arc is
    # scanned, those included
    rings = [_walk([(0, 0), ((n - 2) // 2, 0), ((n - 2) // 2, 1), (0, 1)])]
    if n <= 130:
        rings.append(_lattice_cloud(np.random.default_rng(n), n, 2 * n))
    for ring in rings:
        assert ring.shape[0] == n
        xs, ys = (ring[:, k].astype(np.float64) for k in (0, 1))
        want = _emax_cost_table_scan(xs, ys)
        _assert_stored_rows(_kernels.emax_cost_table(xs, ys), _span_major(_bounded(want.copy())))
        want = _span_major(want)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_side_bound", lambda out: np.inf)
            _assert_stored_rows(_kernels.emax_cost_table(xs, ys), want)


@pytest.mark.parametrize("seed", range(6))
def test_emax_table_exact_on_lattice_clouds(seed):
    # random point clouds, n from 3 to 89, spans from 2**4 to 2**25
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(3, 90))
        span = 2 ** int(rng.integers(4, 26))
        _check_emax_exact(_lattice_cloud(rng, n, span), _scan_bounded)


def test_emax_table_exact_at_the_span_bound():
    # x and y spans of EXACT_SPAN - 1, far from the origin: the largest
    # relative coordinates, sort keys and cross products the table takes.
    # Built to 0 and to U_m as well, for the cut's margin: at 0 the cut
    # leaves out rows, and every U_m has entries at or under it up to
    # n - 1 steps
    top = _kernels.EXACT_SPAN - 1
    rng = np.random.default_rng(3)
    pts = np.concatenate((
        [[0, 5], [top, 9], [7, 0], [11, top]], _lattice_cloud(rng, 56, top)))
    assert np.unique(pts, axis=0).shape == pts.shape
    assert (pts.max(axis=0) - pts.min(axis=0) == top).all()
    pts = pts - 3 * 2**40
    _check_emax_exact(pts, _scan_bounded)
    xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
    full = _span_major(_emax_cost_table_scan(xs, ys))
    assert _emax_cut(xs, ys, 0.0) < xs.shape[0]
    for bound in _bounds(full, np.maximum):
        want = np.where(full <= bound, full, np.inf)
        _assert_stored_rows(_kernels.emax_cost_table(xs, ys, bound), want)


def _thin_all_hull(n):
    # integer points of an ellipse of semi-axes 10**6 and 10**5: every
    # point is a hull vertex, and long arcs along the flat sides stay
    # under B, so every level is built and read
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.rint(np.column_stack((1e6 * np.cos(theta), 1e5 * np.sin(theta))))


@pytest.mark.parametrize("block", [1, 100, 1 << 14])
def test_emax_table_exact_across_blocks(block, monkeypatch):
    # one start a merge block, ragged blocks, and the default
    monkeypatch.setattr(_kernels, "_EMAX_BLOCK", block)
    for pts in (_circle(60), _thin_all_hull(40), RUN_RINGS["thin_rectangle"],
                _lattice_cloud(np.random.default_rng(1), 50, 30)):
        _check_emax_exact(pts, _scan_bounded)


def _scan_block_rings():
    """A few rings of every family above."""
    rng = np.random.default_rng(7)
    rings = [lattice_ring(seed, n_lo=4, n_hi=60).points for seed in range(6)]
    rings += [FUZZ_RINGS[family](rng) for family in sorted(FUZZ_RINGS) for _ in range(4)]
    rings += [_crossed_blob(), *NON_SIMPLE_RINGS.values()]
    rings += [_circle(60), _circle(131), _thin_all_hull(40), _convex_polygon(2, QUARTER_20)]
    rings += [np.roll(ring, shift, axis=0) for ring in RUN_RINGS.values() for shift in (0, 3)]
    rings += [_ellipse("thin", 50.0, 16.0, 400).points, _half_disc()]
    for n in range(3, 41):
        small = np.random.default_rng(n)
        rings += [_angular_ring(small, n), _lattice_cloud(small, n, 8 + n)]
    return rings


def test_emax_table_exact_at_any_scan_block(monkeypatch):
    # a scan budget of 1 gives every length a block of its own, and one
    # of 2**22 puts each level's lengths, and all the long-arc probes, in
    # one block: neither changes a table
    for pts in _scan_block_rings():
        xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
        want = _span_major(_scan_bounded(xs, ys))
        for budget in (1, 1 << 22):
            with monkeypatch.context() as m:
                m.setattr(_kernels, "_EMAX_SCAN", budget)
                _assert_stored_rows(_kernels.emax_cost_table(xs, ys), want)


@pytest.mark.parametrize("ring", [_fourier_blob(1, 40.0, 600), _ellipse("wide", 55.0, 30.0, 700)],
                         ids=["blob01", "ellipse_wide"])
def test_emax_table_grows_only_for_blocks_it_keeps(ring, monkeypatch):
    # on blob01 and ellipse_wide of the corpus (n = 331 and 316) the
    # probes of arcs up to n - 1 steps come at or under B, so those arcs
    # are scanned, on the top hull level, though the table keeps about
    # half its rows: the build holds its hull levels and less than one
    # n-row table
    levels = _kernels._hull_levels
    built = 0

    def counted(z):
        nonlocal built
        for level in levels(z):
            built += 1
            yield level

    monkeypatch.setattr(_kernels, "_hull_levels", counted)
    pts = ring.points.astype(np.float64)
    n = pts.shape[0]
    rel = pts - pts.min(axis=0)
    tracemalloc.start()
    try:
        table = _kernels.emax_cost_table(pts[:, 0], pts[:, 1])
        before, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        alone = levels(rel[:, 0] + 1j * rel[:, 1])
        for _ in range(built):
            next(alone)
        del alone
        own = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert built == int(np.log2(n - 2)) + 1
    assert table.shape[0] < 0.55 * n
    assert peak - own < 8 * n * n


def _strict_hull(points):
    """Strict hull vertices of a list of (x, y) tuples: Andrew's
    monotone chain, one point at a time."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return set(pts)
    hull = set()
    for seq in (pts, pts[::-1]):
        chain = []
        for q in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (q[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (q[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(q)
        hull.update(chain)
    return hull


def _assert_hull_level(wx, wy, rel, k):
    """Level k of _hull_levels on the ring rel: below _RAW_LEVELS,
    read-only views whose [:, s, u] is the window of 2^k points from u +
    s, in ring order; from there on, views whose [:, 0, u] holds exactly
    the strict hull vertices of the window from u."""
    n = rel.shape[0]
    assert wx.shape[1:] == (2**k + 1, n)
    if k < _kernels._RAW_LEVELS:
        at = (np.arange(2**k)[:, None, None] + np.arange(2**k + 1)[:, None]
              + np.arange(n)) % n
        assert wx.shape[0] == 2**k and not (wx.flags.writeable or wy.flags.writeable)
        assert np.array_equal(wx, rel[at, 0]) and np.array_equal(wy, rel[at, 1]), k
        return
    for u in range(n):
        window = [tuple(rel[(u + j) % n]) for j in range(2**k)]
        got = set(zip(wx[:, 0, u].tolist(), wy[:, 0, u].tolist()))
        assert got == _strict_hull(window), (k, u)


@pytest.mark.parametrize("name", ["circle", "crossed_blob", "cloud", "collinear_runs"])
def test_hull_levels_hold_the_strict_hull_vertices(name):
    # levels 0 to 3 hold every window's 2^k points, and every window of
    # each later level its strict hull vertices and no other point
    pts = {
        "circle": _circle(40),
        "crossed_blob": _crossed_blob()[::3],
        "cloud": _lattice_cloud(np.random.default_rng(4), 70, 40),
        "collinear_runs": RUN_RINGS["u_shape"],
    }[name].astype(np.float64)
    n = pts.shape[0]
    rel = pts - pts.min(axis=0)
    levels = _kernels._hull_levels(rel[:, 0] + 1j * rel[:, 1])
    for k in range(int(np.log2(n - 2)) + 1):
        _assert_hull_level(*next(levels), rel, k)


def _half_disc():
    # integer points of the upper half of a circle of radius 10**5 (each
    # a strict hull vertex), then 19 points along the flat side
    theta = np.pi * np.arange(40) / 39
    arc = np.rint(1e5 * np.column_stack((np.cos(theta), np.sin(theta))))
    flat = np.column_stack((np.arange(-90000, 100000, 10000), np.zeros(19)))
    return np.concatenate((arc, flat))


def _chain_lengths(hull):
    """Lengths of the strict lower and upper chains of a set of points in
    strictly convex position: the ends, the least and the greatest in
    (x, y) order, and the points below, or above, the line through
    them."""
    pts = sorted(hull)
    if len(pts) < 3:
        return len(pts), len(pts)
    (x0, y0), (x1, y1) = pts[0], pts[-1]
    side = [np.sign((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) for x, y in pts[1:-1]]
    return 2 + side.count(-1), 2 + side.count(1)


def test_hull_levels_merge_chains_of_unequal_height(monkeypatch):
    # on a half-disc a window's upper chain can hold every arc point while
    # its lower chain holds two or three: each merged level, the first
    # from the raw 8-point windows, holds every window's strict hull
    # vertices, and each kind's chains are as tall as its own longest, as
    # merging the kinds one at a time made them
    merge = _kernels._merged_chains
    merged = []

    def traced(lower, upper, width):
        merged.append(merge(lower, upper, width))
        return merged[-1]

    monkeypatch.setattr(_kernels, "_merged_chains", traced)
    pts = _half_disc()
    n = pts.shape[0]
    rel = pts - pts.min(axis=0)
    levels = _kernels._hull_levels(rel[:, 0] + 1j * rel[:, 1])
    raw = _kernels._RAW_LEVELS
    for k in range(int(np.log2(n - 2)) + 1):
        _assert_hull_level(*next(levels), rel, k)
        if k >= raw:
            lengths = [_chain_lengths(_strict_hull([tuple(rel[(u + j) % n]) for j in range(2**k)]))
                       for u in range(n)]
            lower, n_lower, upper, n_upper = merged[k - raw]
            assert np.array_equal(np.stack((n_lower, n_upper), axis=1), lengths), k
            assert (lower.shape[0], upper.shape[0]) == (n_lower.max(), n_upper.max()), k
    assert 4 * n_lower.max() <= n_upper.max()
    _check_emax_exact(pts, _scan_bounded)


@pytest.mark.parametrize("n", [150, 300])
def test_emax_table_merges_hulls_in_blocks_of_starts(n, monkeypatch):
    # on a ring whose every point is a hull vertex, a level merge takes
    # both kinds' chains and their sorted copy, a block at a time, plus a
    # few blocks of temporaries, however wide its windows
    merge = _kernels._merged_chains
    extra = []

    def traced(lower, upper, width):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = merge(lower, upper, width)
        peak = tracemalloc.get_traced_memory()[1]
        extra.append(peak - before - out[0].nbytes - out[2].nbytes
                     - 2 * (lower.nbytes + upper.nbytes))
        return out

    monkeypatch.setattr(_kernels, "_merged_chains", traced)
    ring = _thin_all_hull(n)
    tracemalloc.start()
    try:
        _kernels.emax_cost_table(ring[:, 0], ring[:, 1])
    finally:
        tracemalloc.stop()
    assert max(extra) < 32 * _kernels._EMAX_BLOCK


def test_emax_build_stays_within_the_admitted_memory():
    # on a thin all-hull ellipse, where the hull levels are largest,
    # building the Emax table, levels included, takes no more than
    # SegmentCosts admits for a curve of n points
    n = 600
    curve = DigitalCurve(_thin_all_hull(n).astype(np.int64))
    costs = SegmentCosts(curve)
    tracemalloc.start()
    try:
        assert costs.table(CostKind.MAX_ERROR).shape == (n, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    need = 8 * n * n * (2 + optimal._LEVEL_TABLES)
    assert 8 * 8 * n * n < peak <= need


@pytest.mark.parametrize("offset", [0, 1])
def test_segment_costs_span_bound(offset):
    # an x span, then a y span, of EXACT_SPAN - 1 + offset: exact tables
    # below EXACT_SPAN, refused from it on
    ring = wide_ring(_kernels.EXACT_SPAN - 1 + offset).points
    for pts in (ring, ring[:, ::-1]):
        curve = DigitalCurve(pts)
        if offset:
            with pytest.raises(CurveTooLarge, match="span"):
                SegmentCosts(curve)
            continue
        table = SegmentCosts(curve).table(CostKind.MAX_ERROR)
        xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
        _assert_stored_rows(table, _span_major(bounded_emax_loops(xs, ys)))


@pytest.mark.parametrize("name, pts, simple", [
    ("triangle", [(0, 0), (3, 0), (0, 2)], True),
    ("collinear_triangle", [(0, 0), (1, 0), (2, 0)], False),
    ("square8", [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)], True),
    ("figure_eight", [(0, 0), (2, 2), (2, 0), (0, 2)], False),
    ("fold_back", [(0, 0), (4, 0), (2, 0), (2, 3)], False),
    ("overlapping_sides", [(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (0, 2)], False),
    ("vertex_on_side", [(0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)], False),
    ("vertex_near_side", [(0, 0), (4, 0), (4, 4), (3, 4), (2, 1), (1, 4), (0, 4)], True),
    ("revisited_point", [(0, 0), (2, 0), (2, 2), (0, 0), (-2, 0), (-2, -2)], False),
    ("zero_length_side", [(0, 0), (2, 0), (2, 0), (0, 2)], False),
    ("concave_comb", [(0, 0), (6, 0), (6, 3), (5, 1), (4, 3), (3, 1), (2, 3), (1, 1), (0, 3)], True),
    ("large_coordinates", [(0, 0), (2**30, 0), (2**30, 2**30), (1, 1)], True),
])
def test_ring_is_simple(name, pts, simple):
    # the oracle that labels the ring families above
    pts = np.array(pts, dtype=np.int64)
    assert _is_simple(pts) is simple
    assert _is_simple(pts[::-1]) is simple


# 600-point rectangle 200 x 100: bottom side indices 0-199, right
# 200-299, top 300-499, left 500-599
BIG_RECTANGLE = _walk([(0, 0), (200, 0), (200, 100), (0, 100)])


@pytest.mark.parametrize("moved, to, simple", [
    (None, None, True),
    (50, (50, 100), False),  # onto the top side, far on in the side order
    (450, (0, 50), False),  # onto the left side, near the end of it
    (450, (1, 50), True),  # next to the left side
])
def test_ring_is_simple_across_blocks(moved, to, simple):
    # a large ring: contacts between sides far apart in the ring order
    pts = BIG_RECTANGLE.copy()
    if moved is not None:
        pts[moved] = to
    assert _is_simple(pts) is simple
    assert _is_simple(pts[::-1]) is simple


def _random_table(seed, n, costs=None):
    """DP input: a random span-major n x n table (uniform in [0, 10), or
    costs drawn from the given values) and a random start."""
    rng = np.random.default_rng(seed)
    if costs is None:
        tab = rng.uniform(0.0, 10.0, size=(n, n))
    else:
        tab = rng.choice(np.asarray(costs, dtype=np.float64), size=(n, n))
    return tab, int(rng.integers(n))


def _rcost(tab, start):
    """The loops' (n+1, n+1) cost matrix of a span-major table for one
    start: rotated position r is curve index (start + r) % n, entry
    [v, u] the side from position u to v, +inf where u >= v and for the
    side 0 -> n around the whole ring."""
    n = tab.shape[0]
    rcost = np.full((n + 1, n + 1), np.inf)
    for v in range(1, n + 1):
        for u in range(v):
            if (u, v) != (0, n):
                rcost[v, u] = tab[v - u, (start + v) % n]
    return rcost


def test_rcost_layout():
    # the side from position u to v spans v - u steps and ends at curve
    # index (start + v) % n
    n, start = 5, 3
    tab = np.arange(n * n, dtype=np.float64).reshape(n, n)
    rcost = _rcost(tab, start)
    assert rcost[1, 0] == tab[1, 4] and rcost[4, 2] == tab[2, 2]
    assert rcost[5, 1] == tab[4, 3] and rcost[3, 0] == tab[3, 1]
    assert np.isinf(rcost[5, 0]) and np.isinf(rcost[2, 2]) and np.isinf(rcost[1, 3])


def _chain(parent, m, v):
    """Positions of the parent chain from (m, v), ending where a parent
    is -1."""
    out = [v]
    for j in range(m, 0, -1):
        v = int(parent[j, v])
        out.append(v)
        if v < 0:
            break
    return out


def _solve(tab, start, m_max, use_max, bound):
    return _kernels.dp_solve(tab, _kernels.cheapest_sides(tab), start, m_max, use_max, False,
                             bound)


def _assert_dp_matches_loops(tab, start, m_max, use_max, rows=None, bound=None):
    """dp_solve to `bound`, U3 by default (_u3), over the table's rows 0
    to rows - 1 (every row by default) against the loops over the full
    table: its pruning contract.

    b_j, for j >= 2, is the least of the bound and the loops' profile
    values dp[2..j-1, n].  The profile dp[3:, n] is the loops' where it
    is at or under the bound and +inf above it, byte for byte; the chain
    dp_chain walks back from (m, n) is the loops' parent chain for every
    m whose profile value is finite, and every finite cell equals the
    loops'.  Every other cell is +inf, and where the loops' cell is
    finite it lies above b_j (b_1 is the bound), or, for j >= 2, before
    the corridor's first position n - (m_max - j) W_j, W_j the widest
    span with a side at most b_j (a cell past the corridor's reach lies
    above b_j).  When a loops' profile value dp[m, n], m >= 3, is above
    b_m or +inf while b_m is below the bound, the solve
    falls back to the full DP over the rows it reads, and the arrays
    are byte-equal but for the loops' cells above the bound, which are
    +inf.  Returns whether it fell back, and how many finite cells of
    the loops' it pruned.
    """
    n = tab.shape[0]
    d2, p2 = _dp_solve_loops(_rcost(tab, start), m_max, use_max)
    if bound is None:
        bound = _u3(tab, start, use_max)
    profile = d2[:, n]
    b = np.full(m_max + 1, np.inf)
    b[1:] = np.minimum.accumulate(np.concatenate(([bound, bound], profile[2:m_max])))
    fell_back = bool(np.any(~(profile[3:] <= b[3:]) & (b[3:] < bound)))
    read = tab[:rows]
    d1 = _solve(read, start, m_max, use_max, bound)
    assert d1.shape == d2.shape
    assert d1[3:, n].tobytes() == np.where(profile[3:] <= bound, profile[3:], np.inf).tobytes()
    for m in range(2, m_max + 1):
        if np.isfinite(d1[m, n]):
            assert _kernels.dp_chain(read, start, d1, m, use_max) == _chain(p2, m, n), m
    kept = np.isfinite(d1)
    assert d1[kept].tobytes() == d2[kept].tobytes()
    lost = ~kept & np.isfinite(d2)
    j, v = np.nonzero(lost)
    width = np.maximum(1, _kernels.cheapest_sides(read).searchsorted(b, side="right"))
    before = (j >= 2) & (v < n - (m_max - j) * width[j])
    assert np.all((d2[lost] > b[j]) | before)
    if fell_back:
        assert d1.tobytes() == np.where(d2 <= bound, d2, np.inf).tobytes()
    return fell_back, int(lost.sum())


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops(use_max):
    for seed in range(6):
        _assert_dp_matches_loops(*_random_table(seed, 12), 6, use_max)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_on_tied_costs(use_max):
    # integer costs 0..3 tie on most cells; dp_chain keeps the loops'
    # first (smallest) predecessor
    for seed in range(3):
        _assert_dp_matches_loops(*_random_table(seed, 40, costs=range(4)), 15, use_max)


@pytest.mark.parametrize("block", [1, 7, 60, 1 << 15])
@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_across_row_blocks(block, use_max, monkeypatch):
    # one position (a row of the loops' matrix) a block, ragged blocks,
    # and the whole layer in one block; random costs fall back to the
    # full DP, a ring's costs keep the band.  Starts past n / 2 split
    # many blocks where the ends pass n - 1.
    monkeypatch.setattr(_kernels, "_DP_BLOCK", block)
    for seed in range(2):
        _assert_dp_matches_loops(*_random_table(seed, 30, costs=range(3)), 30, use_max)
    tab, rows = _ring_table(_ellipse("e", 9.0, 5.0, 80).points, use_max)
    assert rows < tab.shape[0]
    for start in (5, tab.shape[0] - 3):
        fell_back, _ = _assert_dp_matches_loops(tab, start, 20, use_max, rows)
        assert not fell_back


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_with_forbidden_sides(use_max):
    # +inf sides leave some reachable cells without any finite candidate;
    # both paths give them +inf
    tab, start = _random_table(5, 25)
    rng = np.random.default_rng(5)
    tab[rng.uniform(size=tab.shape) < 0.6] = np.inf
    d1 = _solve(tab, start, 12, use_max, _u3(tab, start, use_max))
    j, v = np.nonzero(np.isinf(d1))
    assert np.any((j >= 2) & (v >= j))
    _assert_dp_matches_loops(tab, start, 12, use_max)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_seeds_no_bound_from_a_forbidden_triangle(use_max):
    # one +inf side of the seed triangle makes U3 +inf: layer 2 runs at
    # full width, and the profile, which does not rise, needs no rerun
    pts = _ellipse("e", 9.0, 5.0, 80).points
    tab, _ = _ring_table(pts, use_max)
    n, start = tab.shape[0], 7
    tab[n // 3, (start + n // 3) % n] = np.inf
    widths = _traced_widths(tab, start, 20, use_max, _u3(tab, start, use_max))
    assert widths[0] == n - 1 and min(widths) < n // 4
    fell_back, _ = _assert_dp_matches_loops(tab, start, 20, use_max)
    assert not fell_back


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_unreachable_rows_stay_inf(use_max):
    n1 = 21
    tab, start = _random_table(2, n1 - 1)
    dp = _solve(tab, start, n1 - 1, use_max, _u3(tab, start, use_max))
    rows = np.arange(n1)
    for j in range(1, n1):
        assert np.all(np.isinf(dp[j, rows < j])), j
    assert np.all(np.isinf(dp[0])) and np.isinf(dp[1, n1 - 1])
    # the reachable cells follow the pruning contract
    _assert_dp_matches_loops(tab, start, n1 - 1, use_max)


def _rising_table(n):
    # steps of 1 and 4 cost 0, every other side 10 but the 9-step side
    # 3 -> 0 at 5
    tab = np.full((n, n), 10.0)
    u = np.arange(n)
    tab[u, (u + 1) % n] = tab[u, (u + 4) % n] = 0.0
    tab[3, 0] = 5.0
    return _span_major(tab)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_falls_back_when_the_profile_rises_past_the_band(use_max):
    # n = 12, solved to +inf: the triangle 0 4 8 costs 0, so b_4 = 0 and
    # layer 4's band stops at 4 steps; the best quadrilateral, 0 1 2 3 at
    # 5, ends on the 9-step side.  Its banded value is above b_4 and
    # stored as +inf, so the solve falls back rather than keep a worse
    # quadrilateral.  Solved to U3 = 0, the quadrilateral lies above the
    # bound and comes back +inf, with no fallback
    n = 12
    tab = _rising_table(n)
    fell_back, _ = _assert_dp_matches_loops(tab, 0, n, use_max, bound=np.inf)
    assert fell_back
    dp = _solve(tab, 0, 4, use_max, np.inf)
    assert dp[4, n] == 5.0 and _kernels.dp_chain(tab, 0, dp, 4, use_max) == [12, 3, 2, 1, 0]
    fell_back, _ = _assert_dp_matches_loops(tab, 0, n, use_max)
    assert not fell_back and np.isinf(_solve(tab, 0, 4, use_max, _u3(tab, 0, use_max))[4, n])


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_falls_back_on_rising_random_costs(use_max):
    # uniform random costs solved to +inf: the profile rises, from every
    # start tried
    for seed in range(4):
        tab, start = _random_table(10 + seed, 24)
        fell_back, _ = _assert_dp_matches_loops(tab, start, 24, use_max, bound=np.inf)
        assert fell_back, seed


def _ring_table(pts, use_max):
    """A ring's table with all n rows, the oracle's input (the Emax table
    padded with the +inf rows it leaves out), and the rows SegmentCosts
    stores with no bound set (the E2 table's to G, _largest_u3)."""
    xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
    n = xs.shape[0]
    if not use_max:
        full = _kernels.e2_cost_table(xs, ys, np.inf)
        return full, _e2_rows(xs, ys, _largest_u3(full))
    tab = _kernels.emax_cost_table(xs, ys)
    return np.concatenate((tab, np.full((n - tab.shape[0], n), np.inf))), tab.shape[0]


@pytest.mark.parametrize("name", ["square8", "rectangle", "thin_rectangle", "big_square"])
@pytest.mark.parametrize("use_max", [False, True])
def test_dp_exact_on_tie_heavy_rings(name, use_max):
    # lattice rectangles tie on most cells and their profiles reach 0 at
    # m = 4; the solve at every m_max keeps the loops' profile and chains
    pts = {
        "square8": _walk([(0, 0), (2, 0), (2, 2), (0, 2)]),
        "rectangle": RUN_RINGS["rectangle"],
        "thin_rectangle": RUN_RINGS["thin_rectangle"],
        "big_square": _walk([(0, 0), (7, 0), (7, 7), (0, 7)]),
    }[name]
    n = pts.shape[0]
    tab, rows = _ring_table(pts, use_max)
    for start in sorted({0, 1, n // 3}):
        for m_max in range(3, n + 1):
            fell_back, _ = _assert_dp_matches_loops(tab, start, m_max, use_max, rows)
            assert not fell_back, (start, m_max)


class _CountedReads(np.ndarray):
    """A view that counts the entries of the arrays indexed from it."""

    entries = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(out, np.ndarray):
            out = out.view(np.ndarray)
            _CountedReads.entries += out.size
        return out


class _Widths(np.ndarray):
    """cheapest_sides' array, recording every band width read from it."""

    seen: list = []

    def searchsorted(self, v, side="left"):
        width = super().searchsorted(v, side=side)
        _Widths.seen.append(int(width))
        return width


def _traced_widths(tab, start, m_max, use_max, bound):
    """The band width of each layer 2..m_max of the first pass of a
    profile solve to `bound`."""
    _Widths.seen = []
    cheapest = _kernels.cheapest_sides(tab).view(_Widths)
    _kernels.dp_solve(tab, cheapest, start, m_max, use_max, False, bound)
    return _Widths.seen[:m_max - 1]


@pytest.mark.parametrize("kind", list(CostKind))
def test_dp_prunes_a_corpus_curve_without_fallback(kind, monkeypatch):
    # the study's solves on blob05 (n = 294): the profile to m_max =
    # 3 m_sub from its start vertex falls, so the banded DP answers alone,
    # and its bands read well under half the reachable cells; the seed
    # triangle narrows layer 2, which no profile value bounds yet
    curve = _fourier_blob(5, 40.0, 600)
    m_sub = round(curve.n / 15)
    m_max = 3 * m_sub
    costs = SegmentCosts(curve)
    start = select_start_vertex(curve, m_sub, kind, costs)
    use_max = kind is CostKind.MAX_ERROR
    tab = costs.table(kind)
    full, rows = _ring_table(curve.points, use_max)
    assert rows == tab.shape[0] < curve.n
    runs = []
    layers = _kernels._dp_layers

    def traced(*args):
        runs.append(args[-1] is not None)
        return layers(*args)

    monkeypatch.setattr(_kernels, "_dp_layers", traced)
    fell_back, _ = _assert_dp_matches_loops(full, start, m_max, use_max, rows)
    assert runs == [True] and not fell_back
    _CountedReads.entries = 0
    u3 = costs.gon_cost(start, 3, kind)
    _kernels.dp_solve(tab.view(_CountedReads), _kernels.cheapest_sides(tab), start, m_max,
                      use_max, False, u3)
    n1 = curve.n + 1
    reachable = sum((n1 - j) * (n1 - j + 1) // 2 for j in range(2, m_max + 1))
    assert _CountedReads.entries < 0.5 * reachable
    assert _traced_widths(tab, start, m_max, use_max, u3)[0] < curve.n // 2


def _force_a_rise(monkeypatch):
    """Make every bounded DP pass lose its last profile value, dp[m_max,
    n], as a rising profile does; returns the list of the passes run,
    each "bounded" or "unbounded"."""
    layers = _kernels._dp_layers
    passes = []

    def rising(tab, cheapest, start, m_max, combine, bound):
        passes.append("unbounded" if bound is None else "bounded")
        dp = layers(tab, cheapest, start, m_max, combine, bound)
        if bound is not None:
            dp[m_max, -1] = np.inf
        return dp

    monkeypatch.setattr(_kernels, "_dp_layers", rising)
    return passes


def _e2_builds(monkeypatch):
    """Record the rows of every E2 table built from now on."""
    build = _kernels.e2_cost_table
    rows = []

    def counted(xs, ys, bound):
        tab = build(xs, ys, bound)
        rows.append(tab.shape[0])
        return tab

    monkeypatch.setattr(_kernels, "e2_cost_table", counted)
    return rows


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_rising_profile_reruns_over_the_stored_rows(kind, monkeypatch):
    # a pass made to lose a profile value: the solve reruns unpruned over
    # the table's stored rows, and its profile is the loops' byte for
    # byte.  One pass runs bounded, then one unbounded, on the table as
    # it was, and E2Costs reads no more rows of it; a value above U3
    # would be solved again, on an E2 table built again at most once
    curve = _ellipse("e", 9.0, 5.0, 80)
    n, start, m_max = curve.n, 5, 20
    use_max = kind is CostKind.MAX_ERROR
    full, rows = _ring_table(curve.points, use_max)
    costs = SegmentCosts(curve)
    assert costs.table(kind).shape[0] == rows < n
    builds = _e2_builds(monkeypatch)
    passes = _force_a_rise(monkeypatch)
    dp = costs._solve(start, m_max, kind)
    assert passes == ["bounded", "unbounded"] and not builds
    want, _ = _dp_solve_loops(_rcost(full, start), m_max, use_max)
    assert dp[3:, n].tobytes() == want[3:, n].tobytes()
    kept = np.isfinite(dp)
    assert dp[kept].tobytes() == want[kept].tobytes()
    assert costs.table(kind).tobytes() == full[:rows].tobytes()
    assert E2Costs(curve).rows == (0 if use_max else rows)


def test_a_rising_emax_profile_reruns_on_its_stored_rows(monkeypatch):
    # n = 606: the rerun reads the stored Emax rows in place, beside its
    # dp arrays, a block buffer and the band widths, well under one n x n
    # table (padding the table to n rows would allocate one), and gives
    # the unbounded DP over the padded table at every cell it keeps, the
    # profile included
    curve = _fourier_blob(1, 80.0, 1200)
    n, kind = curve.n, CostKind.MAX_ERROR
    costs = SegmentCosts(curve)
    rows = costs.table(kind).shape[0]
    assert rows < n
    full, _ = _ring_table(curve.points, True)
    want = _kernels._dp_layers(full, _kernels.cheapest_sides(full), 7, 60, np.maximum, None)
    _force_a_rise(monkeypatch)
    tracemalloc.start()
    try:
        dp = costs._solve(7, 60, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    assert costs.table(kind).shape[0] == rows
    kept = np.isfinite(dp)
    assert dp[3:, n].tobytes() == want[3:, n].tobytes()
    assert dp[kept].tobytes() == want[kept].tobytes()


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_profile_above_u3_is_solved_again(kind, monkeypatch):
    # the first solve made to return every profile value +inf, as for a
    # profile above U3(start): the profile is solved again to the
    # largest U_m(start) of m = 3..m_max, which bounds each value, on the
    # E2 table built again at most once, to that bound where it lies
    # above G, and is the loops' byte for byte
    curve = _ellipse("e", 9.0, 5.0, 80)
    n, start, m_max = curve.n, 5, 20
    use_max = kind is CostKind.MAX_ERROR
    full, rows = _ring_table(curve.points, use_max)
    solve = _kernels.dp_solve
    bounds = []

    def above(*args):
        dp = solve(*args)
        if not bounds:
            dp[3:, -1] = np.inf
        bounds.append(args[-1])
        return dp

    monkeypatch.setattr(_kernels, "dp_solve", above)
    builds = _e2_builds(monkeypatch)
    costs = SegmentCosts(curve)
    profile = costs.profile(start, m_max, kind)
    again = max(costs.gon_cost(start, m, kind) for m in range(3, m_max + 1))
    assert bounds == [costs.gon_cost(start, 3, kind), again]
    want, _ = _dp_solve_loops(_rcost(full, start), m_max, use_max)
    assert profile.values[3:].tobytes() == want[3:, n].tobytes()
    assert profile.bound is None
    if use_max:
        assert not builds
    else:
        xs, ys = (curve.points[:, k].astype(np.float64) for k in (0, 1))
        rebuilt = [_e2_rows(xs, ys, again)] if again > _largest_u3(full) else []
        assert builds == [rows] + rebuilt


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_polygon_above_the_e2_tables_bound_builds_it_again(kind, monkeypatch):
    # G forced to 0: the E2 table stores the few rows that hold a 0
    # entry, so a polygon solve to U_m(start) builds it again, once, to
    # U_m(start), and the polygon is the loops'.  The Emax table, built
    # to B, is never built again
    curve = _ellipse("e", 9.0, 5.0, 80)
    n, start, m = curve.n, 5, 12
    use_max = kind is CostKind.MAX_ERROR
    full, rows = _ring_table(curve.points, use_max)
    gon_cost = SegmentCosts.gon_cost

    def low(self, at, count, k):
        return 0.0 if np.ndim(at) else gon_cost(self, at, count, k)

    monkeypatch.setattr(SegmentCosts, "gon_cost", low)
    builds = _e2_builds(monkeypatch)
    costs = SegmentCosts(curve)
    poly = costs.polygon(start, m, kind)
    _, parent = _dp_solve_loops(_rcost(full, start), m, use_max)
    assert poly.indices.tolist() == sorted((start + a) % n for a in _chain(parent, m, n)[1:])
    if use_max:
        assert not builds and costs.table(kind).shape[0] == rows
    else:
        xs, ys = (curve.points[:, k].astype(np.float64) for k in (0, 1))
        again = _e2_rows(xs, ys, costs.gon_cost(start, m, kind))
        assert builds == [_e2_rows(xs, ys, 0.0), again] and builds[0] < again
        assert costs.table(kind).tobytes() == full[:again].tobytes()


def _assert_polygon_matches_loops(tab, start, ms, use_max, rows=None):
    """The solve of each m in ms to U_m (_gon_cost) over the table's
    rows 0 to rows - 1 (every row by default), or, where they leave out
    an entry at or under U_m, over the table built again to U_m, as
    SegmentCosts runs it, against the loops over the full table:
    dp[m, n], the chain dp_chain walks back from it, and every finite
    cell are the loops'."""
    n = tab.shape[0]
    d2, p2 = _dp_solve_loops(_rcost(tab, start), max(ms), use_max)
    combine = np.maximum if use_max else np.add
    for m in ms:
        bound = _gon_cost(tab, start, m, combine)
        read = tab[:rows]
        if (tab[read.shape[0]:] <= bound).any():
            read = _built_to(tab, bound, use_max)
        dp = _kernels.dp_solve(read, _kernels.cheapest_sides(read), start, m, use_max, True,
                               bound)
        want = d2[:m + 1]
        assert dp[m, n].tobytes() == want[m, n].tobytes(), m
        if np.isfinite(dp[m, n]):
            assert _kernels.dp_chain(read, start, dp, m, use_max) == _chain(p2, m, n), m
        kept = np.isfinite(dp)
        assert dp[kept].tobytes() == want[kept].tobytes(), m


def _polygon_families():
    """(name, table, start, m values, rows) for every family of tables
    the profile tests above solve; for rows "ring" the table is the
    ring's points, for _ring_table."""
    out = []
    for seed in range(3):
        tab, start = _random_table(seed, 12)
        out.append((f"random{seed}", tab, start, range(3, 9), None))
        tab, start = _random_table(seed, 40, costs=range(4))
        out.append((f"tied{seed}", tab, start, (3, 5, 9, 15), None))
    tab, start = _random_table(5, 25)
    tab[np.random.default_rng(5).uniform(size=tab.shape) < 0.6] = np.inf
    out.append(("forbidden", tab, start, range(3, 13), None))
    out.append(("rising", _rising_table(12), 0, range(3, 13), None))
    # a cheap seed triangle, a cheaper hexagon 0 1 8 9 16 17, and rows
    # 10 and up left out, every entry of them above U3 but cheaper than
    # most stored sides: a bound above U3, such as the equally spaced
    # hexagon's cost, would keep cells whose best path takes a side left
    # out, so the table is built again to it first
    tab, start = _random_table(7, 24)
    for at in (8, 16, 24):
        tab[8, (start + at) % 24] = 0.001
        tab[1, (start + at - 7) % 24] = tab[7, (start + at) % 24] = 0.0005
    tab[10:] = 0.01 + np.random.default_rng(7).uniform(0.0, 1.0, size=(14, 24))
    out.append(("rows", tab, start, (3, 6, 12, 20), 10))
    for name in ("square8", "rectangle", "big_square"):
        pts = {
            "square8": _walk([(0, 0), (2, 0), (2, 2), (0, 2)]),
            "rectangle": RUN_RINGS["rectangle"],
            "big_square": _walk([(0, 0), (7, 0), (7, 7), (0, 7)]),
        }[name]
        out.append((name, pts, 1, range(3, pts.shape[0] + 1), "ring"))
    out.append(("ellipse", _ellipse("e", 9.0, 5.0, 80).points, 5, (3, 4, 7, 12, 20), "ring"))
    out.append(("blob05", _fourier_blob(5, 40.0, 600).points, 11, (3, 20), "ring"))
    return out


@pytest.mark.parametrize("family", range(len(_polygon_families())))
@pytest.mark.parametrize("use_max", [False, True])
def test_seeded_polygon_solve_matches_loops(family, use_max):
    # solved to U_m, the cost of the equally spaced m-gon, the solve
    # keeps the loops' dp[m, n] and chain, on random, tied, forbidden and
    # rising costs and on rings' stored rows
    name, tab, start, ms, rows = _polygon_families()[family]
    if rows == "ring":
        tab, rows = _ring_table(tab, use_max)
    elif use_max:
        rows = None  # a max table leaves out only +inf rows (dp_solve)
    _assert_polygon_matches_loops(tab, start, ms, use_max, rows)


@pytest.mark.parametrize("kind", list(CostKind))
def test_seeded_polygon_solve_reruns_only_for_its_own_value(kind, monkeypatch):
    # blob05 at m_sub = 20: the seed prunes the lower layers' profile
    # values, which a profile solve would rerun for, but keeps dp[m, n],
    # so one bounded pass answers
    curve = _fourier_blob(5, 40.0, 600)
    m = round(curve.n / 15)
    use_max = kind is CostKind.MAX_ERROR
    tab = SegmentCosts(curve).table(kind)
    start = optimal.provisional_start_vertex(curve)
    passes = []
    layers = _kernels._dp_layers

    def traced(*args):
        passes.append(args[-1] is not None)
        return layers(*args)

    monkeypatch.setattr(_kernels, "_dp_layers", traced)
    dp = _kernels.dp_solve(tab, _kernels.cheapest_sides(tab), start, m, use_max, True,
                           SegmentCosts(curve).gon_cost(start, m, kind))
    assert passes == [True]
    assert np.isinf(dp[3:m, -1]).any() and np.isfinite(dp[m, -1])


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_lost_polygon_value_reruns_over_the_stored_rows(kind, monkeypatch):
    # dp[m, n] forced to +inf: one bounded pass, then one unbounded one
    # over the table's stored rows, which no table built again replaces,
    # and the polygon is the loops'
    curve = _ellipse("e", 9.0, 5.0, 80)
    n, start, m = curve.n, 5, 12
    use_max = kind is CostKind.MAX_ERROR
    full, rows = _ring_table(curve.points, use_max)
    costs = SegmentCosts(curve)
    assert costs.table(kind).shape[0] == rows < n
    builds = _e2_builds(monkeypatch)
    passes = _force_a_rise(monkeypatch)
    poly = costs.polygon(start, m, kind)
    assert passes == ["bounded", "unbounded"] and not builds
    _, parent = _dp_solve_loops(_rcost(full, start), m, use_max)
    assert poly.indices.tolist() == sorted((start + a) % n for a in _chain(parent, m, n)[1:])
    assert costs.table(kind).tobytes() == full[:rows].tobytes()


def _band_cells(widths, n):
    """Cells a first pass reads, from its band widths of layers 2.."""
    return sum(w * (n + 1 - j) for j, w in enumerate(widths, start=2))


@pytest.mark.parametrize("kind", list(CostKind))
def test_seeded_polygon_solve_narrows_the_band(kind):
    # blob05 (n = 294) at m_sub = 20 from its provisional start: the
    # seed of SegmentCosts.polygon widens no layer's band past the
    # profile solve's and holds fewer cells in all
    curve = _fourier_blob(5, 40.0, 600)
    m = round(curve.n / 15)
    use_max = kind is CostKind.MAX_ERROR
    costs = SegmentCosts(curve)
    tab = costs.table(kind)
    start = optimal.provisional_start_vertex(curve)
    _, cheapest, bound = costs._tables[kind]
    costs._tables[kind] = tab, cheapest.view(_Widths), bound
    _Widths.seen = []
    costs.polygon(start, m, kind)
    seeded = _Widths.seen[:m - 1]
    plain = _traced_widths(tab, start, m, use_max, costs.gon_cost(start, 3, kind))
    assert all(a <= b for a, b in zip(seeded, plain))
    assert _band_cells(seeded, curve.n) < _band_cells(plain, curve.n)


def test_dp_tie_breaks_to_smallest_predecessor():
    # two equal-cost paths into the last position; both paths must pick
    # u = 1 (the side u -> v is entry [v - u, v] from start 0)
    n = 4
    tab = np.full((n, n), np.inf)
    tab[1, 1] = tab[2, 2] = 1.0
    tab[3, 0] = tab[2, 0] = 1.0
    tab[2, 3] = tab[1, 3] = 1.0
    tab[1, 0] = 0.0
    rcost = _rcost(tab, 0)
    assert rcost[4, 1] == rcost[4, 2] == rcost[3, 1] == rcost[3, 2] == 1.0
    dp = _solve(tab, 0, 3, False, _u3(tab, 0, False))
    _, parent = _dp_solve_loops(rcost, 3, False)
    assert dp[2, 4] == 2.0
    assert parent[2, 4] == 1 and parent[2, 3] == 1
    assert _kernels.dp_chain(tab, 0, dp, 2, False) == [4, 1, 0]
    assert _kernels.dp_chain(tab, 0, dp, 3, False) == _chain(parent, 3, 4)


def test_profile_solve_reads_the_table_in_place():
    # n = 606: beside its dp array, a profile solve allocates less than
    # one (n + 1)^2 array, the size of the per-start cost matrix it does
    # not build
    curve = _fourier_blob(1, 80.0, 1200)
    n = curve.n
    costs = SegmentCosts(curve)
    m_max = 3 * round(n / 15)
    costs.profile(0, m_max, CostKind.SUM_SQUARED)
    tracemalloc.start()
    try:
        costs.profile(n // 2, m_max, CostKind.SUM_SQUARED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dp = 8 * (m_max + 1) * (n + 1)
    assert peak < dp + 8 * (n + 1) ** 2


def _bounds(full, combine):
    """0, and U_m from position 0 of a full span-major table for a few
    m: the bounds a table is built to below."""
    n = full.shape[0]
    ms = sorted({3, 5, n // 10, n // 4} & set(range(3, n + 1)))
    return [0.0] + [float(_gon_cost(full, 0, m, combine)) for m in ms]


@pytest.mark.parametrize("budget", [None, 1])
def test_bounded_emax_table_is_the_full_table_at_or_under_its_bound(budget, monkeypatch):
    # on a few rings of every family, the non-simple rings and the thin
    # ellipse among them, built to 0 and to U_m: every entry at or under
    # the bound is the scan's bit for bit, every other one +inf, and the
    # rows stop at the last with an entry at or under it.  A scan budget
    # of 1 probes and scans every length on its own
    if budget is not None:
        monkeypatch.setattr(_kernels, "_EMAX_SCAN", budget)
    for pts in _scan_block_rings():
        xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
        full = _span_major(_emax_cost_table_scan(xs, ys))
        for bound in _bounds(full, np.maximum):
            want = np.where(full <= bound, full, np.inf)
            _assert_stored_rows(_kernels.emax_cost_table(xs, ys, bound), want)


def test_emax_cut_leaves_out_only_arcs_above_the_bound():
    # the rings above and some corpus curves, at 0, at U_m and at B:
    # every arc of the cut's span or more lies strictly above the bound
    for pts in _scan_block_rings() + [c.points for c in build_corpus()[::4]]:
        xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
        n = xs.shape[0]
        full = _span_major(_emax_cost_table_scan(xs, ys))
        side_bound = float(full[1:-(-n // 3) + 1].max())
        for bound in _bounds(full, np.maximum) + [side_bound]:
            cut = _emax_cut(xs, ys, bound)
            assert 2 <= cut <= n and (full[cut:] > bound).all(), (n, bound, cut)


def test_emax_cut_is_short_at_the_study_bound():
    # the study's cr-15 bound U_m(p0) on the corpus: the cut leaves at
    # most 0.35n lengths to probe (0.313n at most, measured)
    for curve in build_corpus():
        m_sub = auto_target_m(curve, 15.0)
        bound = SegmentCosts(curve).gon_cost(provisional_start_vertex(curve), m_sub,
                                             CostKind.MAX_ERROR)
        xs, ys = (curve.points[:, k].astype(np.float64) for k in (0, 1))
        assert _emax_cut(xs, ys, bound) <= 0.35 * curve.n, curve.name


def test_e2_row_bound_keeps_every_row_with_an_entry_at_or_under_the_bound():
    # the same rings and some corpus curves, bounds 0 and U_m: no row
    # left out holds an entry at or under the bound, and the bound keeps
    # fewer rows than G on most rings, and at most a third of them on
    # many (G keeps more, always)
    rings = _scan_block_rings() + [c.points for c in build_corpus()[::4]]
    fewer = third = 0
    for pts in rings:
        xs, ys = (pts[:, k].astype(np.float64) for k in (0, 1))
        n = xs.shape[0]
        full = _kernels.e2_cost_table(xs, ys, np.inf)
        default = _e2_rows(xs, ys, _largest_u3(full))
        for bound in _bounds(full, np.add):
            rows = _e2_rows(xs, ys, bound)
            assert 2 <= rows <= n
            assert (full[rows:] > bound).all()
            fewer += rows < default
            third += rows <= n // 3
    assert fewer > 2 * len(rings) and third > len(rings) // 2


def _built_to(full, bound, use_max):
    """A full span-major table as a table built to `bound` stores it: a
    max table +inf above the bound, to its last row with an entry at or
    under it, a sum table to that row (rows 0 and 1 at least)."""
    rows = max(2, 1 + int(np.flatnonzero((full <= bound).any(axis=1)).max(initial=0)))
    tab = np.where(full <= bound, full, np.inf) if use_max else full
    return tab[:rows]


def _bounded_families():
    """(name, full table, start, m_max, use_max) for the bounded solves
    below: random, tied and rising costs for either kind, and rings'
    tables for their own."""
    out = []
    for use_max in (False, True):
        for seed in range(3):
            tab, start = _random_table(seed, 14)
            out.append((f"random{seed}", tab, start, 14, use_max))
            tab, start = _random_table(seed, 30, costs=range(4))
            out.append((f"tied{seed}", tab, start, 12, use_max))
        out.append(("rising", _rising_table(12), 0, 12, use_max))
        for name, pts in (("rectangle", RUN_RINGS["rectangle"]),
                          ("ellipse", _ellipse("e", 9.0, 5.0, 80).points),
                          ("lattice", lattice_ring(3, n_lo=30, n_hi=40).points)):
            out.append((name, _ring_table(pts, use_max)[0], 2, pts.shape[0] // 2, use_max))
    return out


@pytest.mark.parametrize("family", range(len(_bounded_families())))
def test_bounded_solve_is_the_full_dp_at_or_under_its_bound(family):
    # a profile solve seeded with a bound b over a table built to b:
    # every profile value and cell at or under b is the loops', with its
    # chain, and every profile value above b is +inf, on random, tied and
    # rising costs (whose lost values rerun) and on rings' tables
    name, full, start, m_max, use_max = _bounded_families()[family]
    n = full.shape[0]
    combine = np.maximum if use_max else np.add
    d2, p2 = _dp_solve_loops(_rcost(full, start), m_max, use_max)
    for bound in _bounds(full, combine) + [float(d2[m_max, n])]:
        tab = _built_to(full, bound, use_max)
        dp = _kernels.dp_solve(tab, _kernels.cheapest_sides(tab), start, m_max, use_max,
                               False, bound)
        want = np.where(d2[3:, n] <= bound, d2[3:, n], np.inf)
        assert dp[3:, n].tobytes() == want.tobytes(), (name, bound)
        kept = np.isfinite(dp)
        kept[1] = False
        assert dp[kept].tobytes() == d2[kept].tobytes() and (dp[kept] <= bound).all()
        for m in range(3, m_max + 1):
            if np.isfinite(dp[m, n]):
                assert _kernels.dp_chain(tab, start, dp, m, use_max) == _chain(p2, m, n), m


@pytest.mark.parametrize("kind", list(CostKind))
def test_bounded_solve_reruns_only_for_a_value_it_lost(kind, monkeypatch):
    # blob05 (n = 294) with its tables built to U_m from the provisional
    # start, m = n / 15: the profile from the selected start holds +inf
    # above the bound, which asks for no rerun, so one pass answers.  A
    # value forced lost below an earlier one under the bound reruns once
    # over the stored rows, and every cell at or under the bound is the
    # full table's DP
    curve = _fourier_blob(5, 40.0, 600)
    n, m = curve.n, round(curve.n / 15)
    use_max = kind is CostKind.MAX_ERROR
    costs = SegmentCosts(curve)
    bound = costs.gon_cost(optimal.provisional_start_vertex(curve), m, kind)
    costs.set_bound(kind, bound)
    start = select_start_vertex(curve, m, kind, costs)
    rows = costs.table(kind).shape[0]
    full, stored = _ring_table(curve.points, use_max)
    assert rows < stored
    want = _kernels._dp_layers(full, _kernels.cheapest_sides(full), start, 3 * m,
                               np.maximum if use_max else np.add, None)
    want[want > bound] = np.inf
    passes = []
    layers = _kernels._dp_layers

    def traced(*args):
        passes.append(args[-1] is not None)
        return layers(*args)

    monkeypatch.setattr(_kernels, "_dp_layers", traced)
    profile = costs.profile(start, 3 * m, kind)
    assert passes == [True] and profile.bound == bound
    assert np.isinf(profile.values[3]) and np.isfinite(profile.values[3 * m])
    assert profile.values[3:].tobytes() == want[3:, n].tobytes()
    monkeypatch.undo()
    passes = _force_a_rise(monkeypatch)
    dp = costs._solve(start, 3 * m, kind)
    assert passes == ["bounded", "unbounded"] and costs.table(kind).shape[0] == rows
    assert dp[2:].tobytes() == want[2:].tobytes()


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_bounded_solve_computes_its_last_layer_at_n_alone(kind):
    # blob05 (n = 294) from its provisional start: a polygon solve to
    # U_m and a profile solve to U3 answer from one pass, and leave every
    # cell of their last layer before n +inf, though the unpruned pass
    # has some at or under the bound there: no chain under the bound can
    # use them
    curve = _fourier_blob(5, 40.0, 600)
    n, m = curve.n, round(curve.n / 15)
    costs = SegmentCosts(curve)
    start = provisional_start_vertex(curve)
    combine = np.maximum if kind is CostKind.MAX_ERROR else np.add
    for polygon, m_max, bound in ((True, m, costs.gon_cost(start, m, kind)),
                                  (False, 3 * m, costs.gon_cost(start, 3, kind))):
        dp = costs._dp_to(start, m_max, kind, polygon, bound)
        tab, cheapest, _ = costs._tables[kind]
        full = _kernels._dp_layers(tab, cheapest, start, m_max, combine, None)
        assert np.isfinite(dp[m_max, n]) and np.isinf(dp[m_max, :n]).all(), polygon
        assert (full[m_max, :n] <= bound).any(), polygon


def _trace_scale_rings():
    """A Fourier blob of about 1000 points, as a boundary trace gives
    them, and a thin ellipse whose every point is a hull vertex."""
    return {"blob": _fourier_blob(21, 1000 / 7.3, 2000),
            "thin_all_hull": DigitalCurve(_thin_all_hull(600).astype(np.int64))}


@pytest.mark.parametrize("ring", ["blob", "thin_all_hull"])
@pytest.mark.parametrize("kind", list(CostKind))
def test_trace_scale_solves_are_the_unpruned_pass_at_or_under_the_bound(ring, kind):
    # too large for the loops: from two starts, the polygon solve of
    # m_sub = n / 15 sides to U_m and the profile solve to 3 m_sub at U3,
    # as SegmentCosts runs them, against _dp_layers' unpruned pass over
    # the table they solved on, every cell above the bound set to +inf:
    # the same profile bytes (dp[m_sub, n] for the polygon), the same
    # chains, and every cell the solve keeps the unpruned pass's
    curve = _trace_scale_rings()[ring]
    n, m = curve.n, auto_target_m(curve, 15.0)
    costs = SegmentCosts(curve)
    use_max = kind is CostKind.MAX_ERROR
    combine = np.maximum if use_max else np.add
    p0 = provisional_start_vertex(curve)
    for start in (p0, (p0 + n // 2) % n):
        for polygon, m_max, bound in ((True, m, costs.gon_cost(start, m, kind)),
                                      (False, 3 * m, costs.gon_cost(start, 3, kind))):
            dp = costs._dp_to(start, m_max, kind, polygon, bound)
            tab, cheapest, _ = costs._tables[kind]
            want = _kernels._dp_layers(tab, cheapest, start, m_max, combine, None)
            want[want > bound] = np.inf
            counts = [m_max] if polygon else range(3, m_max + 1)
            assert dp[counts, n].tobytes() == want[counts, n].tobytes(), (start, polygon)
            assert np.isfinite(dp[m_max, n]), (start, polygon)
            for k in counts:
                if np.isfinite(dp[k, n]):
                    assert (_kernels.dp_chain(tab, start, dp, k, use_max)
                            == _kernels.dp_chain(tab, start, want, k, use_max)), (start, k)
            kept = np.isfinite(dp)
            assert dp[kept].tobytes() == want[kept].tobytes(), (start, polygon)


@pytest.mark.parametrize("kind", list(CostKind))
def test_a_polygon_above_the_bound_raises(kind, monkeypatch):
    # the optimal m-gon above the bound its table is built to comes back
    # +inf, from one DP pass with no rerun, and is not walked back
    curve = _ellipse("e", 9.0, 5.0, 80)
    costs = SegmentCosts(curve)
    best = costs.profile(5, 6, kind).values[6]
    assert best > 0.0
    costs.set_bound(kind, 0.5 * best)
    passes = []
    layers = _kernels._dp_layers

    def traced(*args):
        passes.append(args[-1] is not None)
        return layers(*args)

    monkeypatch.setattr(_kernels, "_dp_layers", traced)
    with pytest.raises(AboveBound) as exc:
        costs.polygon(5, 6, kind)
    assert exc.value.counts == (6,)
    assert passes == [True]


def test_baseline_from_profile_raises_for_reads_above_the_bound(square8):
    # values 9 8 5 4 3 at m = 3..7 under a bound of 6: those at 3 and 4
    # are +inf.  An error above the bound, and a value read above it at
    # m_sub or at m_lo - 1, raise with the counts read; every other read
    # is the unbounded profile's
    vals = np.array([np.nan] * 3 + [9.0, 8.0, 5.0, 4.0, 3.0])
    full = ErrorProfile(square8, 0, CostKind.SUM_SQUARED, 7, vals)
    cut = ErrorProfile(square8, 0, CostKind.SUM_SQUARED, 7, np.where(vals > 6.0, np.inf, vals),
                       6.0)
    for m_sub, error, counts in [(5, 6.5, ()), (4, 4.5, (4,)), (5, 5.5, (4,)), (3, 5.5, (3, 4)),
                                 (6, 6.0, (4,))]:
        with pytest.raises(AboveBound) as exc:
            baseline_from_profile(cut, m_sub, error)
        assert exc.value.counts == counts, (m_sub, error)
    for m_sub, error in [(5, 4.5), (6, 4.0), (7, 2.0), (5, 3.0), (5, 5.0), (6, 3.5)]:
        assert baseline_from_profile(cut, m_sub, error) == baseline_from_profile(full, m_sub, error)
    # with no bound, +inf is a value like any other
    assert baseline_from_profile(ErrorProfile(square8, 0, CostKind.SUM_SQUARED, 7, cut.values),
                                 7, 3.5).m_optimal == 6.5


def test_gon_cost_is_the_tables_bit_for_bit():
    # U_m from its arcs, with no table and then while the instance holds
    # its E2 table (read through E2Costs), against _gon_cost over the
    # full tables, on every fifth start of each corpus curve at its m
    # for cr 8, 15 and 30, and at m = 3
    for curve in build_corpus():
        n = curve.n
        keys = [(start, m) for m in {3, round(n / 8), round(n / 15), round(n / 30)}
                for start in range(0, n, 5)]
        want = {}
        for kind in CostKind:
            use_max = kind is CostKind.MAX_ERROR
            full, _ = _ring_table(curve.points, use_max)
            combine = np.maximum if use_max else np.add
            want[kind] = [_gon_cost(full, start, m, combine) for start, m in keys]
        costs = SegmentCosts(curve)
        for held in (False, True):
            if held:
                costs.table(CostKind.SUM_SQUARED)
            assert (E2Costs(curve).rows > 0) == held
            for kind in CostKind:
                got = [costs.gon_cost(start, m, kind) for start, m in keys]
                assert got == want[kind], (curve.name, kind, held)


def test_gon_cost_over_starts_is_the_largest_of_theirs():
    # over an array of starts, U_m is the largest of the starts' own
    # values bit for bit, with no table and while the instance holds its
    # E2 table, on every third corpus curve at m = 3 and at its m for cr
    # 15, over every start and over every seventh
    for curve in build_corpus()[::3]:
        n = curve.n
        costs = SegmentCosts(curve)
        for held in (False, True):
            if held:
                costs.table(CostKind.SUM_SQUARED)
            for kind in CostKind:
                for m in (3, round(n / 15)):
                    for starts in (np.arange(n), np.arange(1, n, 7)):
                        want = max(costs.gon_cost(int(s), m, kind) for s in starts)
                        got = costs.gon_cost(starts, m, kind)
                        assert got.hex() == want.hex(), (curve.name, kind, m, held)
