"""Equivalence of the kernels with the plain per-entry loops below.

The kernels' tables and DP arrays must equal the loops bit for bit (the
Emax table after the bound rule of bounded_emax_loops): the study relies
on byte-identical CSV output, and the loops state each entry's
arithmetic one operation at a time.
"""

import math
import tracemalloc

import numpy as np
import pytest

from polyapprox import CostKind, CurveTooLarge, DigitalCurve, SegmentCosts, _kernels
from conftest import _ellipse, _fourier_blob, lattice_ring, wide_ring


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


def _random_tables(seed):
    c = lattice_ring(seed, n_lo=8, n_hi=14)
    xs = c.points[:, 0].astype(np.float64)
    ys = c.points[:, 1].astype(np.float64)
    return xs, ys


def _assert_e2_table_is_loops(xs, ys):
    want = _e2_cost_table_loops(xs, ys, *_kernels.doubled_prefixes(xs, ys))
    assert _kernels.e2_cost_table(xs, ys).tobytes() == want.tobytes()


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
        # n = 606: 13 rows a block, 46 full blocks and a ragged one of 8
        pts = _fourier_blob(1, 80.0, 1200).points
        step = _kernels._E2_BLOCK // pts.shape[0]
        assert pts.shape[0] // step >= 2 and pts.shape[0] % step
    else:
        pts = lattice_ring(3, n_lo=40, n_hi=60).points
        assert _kernels._E2_BLOCK // pts.shape[0] >= pts.shape[0]
    _assert_e2_table_is_loops(pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64))


def test_e2_table_exact_on_a_non_integer_ring():
    # n = 211: 38 rows a block, the last block ragged (21 rows)
    rng = np.random.default_rng(7)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 211))
    xs = 30.0 * np.cos(theta) + rng.normal(0.0, 0.7, theta.size)
    ys = 18.0 * np.sin(theta) + rng.normal(0.0, 0.7, theta.size)
    assert 211 % (_kernels._E2_BLOCK // 211)
    _assert_e2_table_is_loops(xs, ys)


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
        _kernels.e2_cost_table(pts[:, 0], pts[:, 1])
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


def _assert_same_bytes(table, want):
    """Bit equality, so -0.0 differs from +0.0."""
    assert table.dtype == want.dtype and table.shape == want.shape
    assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_emax_table_numpy_vs_loops(seed):
    xs, ys = _random_tables(seed)
    a = _kernels.emax_cost_table(xs, ys)
    _assert_same_bytes(a, bounded_emax_loops(xs, ys))


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


def _is_simple(pts):
    return _kernels.ring_is_simple(pts[:, 0], pts[:, 1])


@pytest.fixture
def emax_path(monkeypatch):
    """Names of the window providers emax_cost_table swept: _arc_hulls
    on a simple ring, _arc_prefixes on any other."""
    taken = []
    for name in ("_arc_hulls", "_arc_prefixes"):
        def traced(z, z2, fn=getattr(_kernels, name), name=name):
            taken.append(name)
            return fn(z, z2)
        monkeypatch.setattr(_kernels, name, traced)
    return taken


def _check_emax_exact(pts, emax_path, provider, oracle=bounded_emax_loops):
    xs = pts[:, 0].astype(np.float64)
    ys = pts[:, 1].astype(np.float64)
    table = _kernels.emax_cost_table(xs, ys)
    assert emax_path == ["_arc_" + provider]
    _assert_same_bytes(table, oracle(xs, ys))
    return table


@pytest.mark.parametrize("seed", range(40))
def test_emax_table_exact_on_lattice_rings(seed, emax_path):
    # angular-order rings up to n=60; rounding makes some self-touching
    pts = lattice_ring(seed, n_lo=4, n_hi=60).points
    _check_emax_exact(pts, emax_path, "hulls" if _is_simple(pts) else "prefixes")


RUN_RINGS = {
    "rectangle": _walk([(0, 0), (9, 0), (9, 4), (0, 4)]),
    "thin_rectangle": _walk([(0, 0), (12, 0), (12, 1), (0, 1)]),
    "l_shape": _walk([(0, 0), (8, 0), (8, 3), (3, 3), (3, 9), (0, 9)]),
    "u_shape": _walk([(0, 0), (9, 0), (9, 7), (6, 7), (6, 2), (3, 2), (3, 7), (0, 7)]),
    "diagonal_l": _walk([(0, 0), (6, 6), (3, 9), (-3, 3), (-1, 1)]),
}


@pytest.mark.parametrize("name", sorted(RUN_RINGS))
def test_emax_table_exact_on_collinear_runs(name, emax_path):
    ring = RUN_RINGS[name]
    assert _is_simple(ring)
    # every start: inside a run, at a corner, just before one
    for shift in range(ring.shape[0]):
        emax_path.clear()
        _check_emax_exact(np.roll(ring, shift, axis=0), emax_path, "hulls")


@pytest.mark.parametrize("seed", [5, 6])
def test_emax_table_exact_on_corpus_blobs(seed, emax_path):
    # the corpus generator's 600-sample blobs, n near 300
    pts = _fourier_blob(seed, 40.0, 600).points
    _check_emax_exact(pts, emax_path, "hulls")


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


def _sweep_slots(pts):
    """Deque slots of _arc_hulls once the sweep reaches ceil(n/2) steps."""
    z = (pts[:, 0] + 1j * pts[:, 1]).astype(np.complex128)
    hulls = _kernels._arc_hulls(z, np.concatenate((z, z)))
    for _ in range(2, -(-z.shape[0] // 2) + 1):
        hull = next(hulls)
    return hull.shape[0]


def test_emax_table_exact_when_hulls_outgrow_the_deque(emax_path):
    # 80-gon, n = 160: the hull of an arc of n/2 points has about 41
    # vertices, so the deques outgrow their first _HULL_SLOTS slots
    # several times before the sweep stops, and stay below n/3
    ring = _convex_polygon(2, QUARTER_20)
    assert 41 > 2 * _kernels._HULL_SLOTS and 3 * 48 <= ring.shape[0]
    assert _sweep_slots(ring) == 48
    emax_path.clear()
    _check_emax_exact(ring, emax_path, "hulls")


def test_emax_table_sweeps_when_hulls_pass_a_third_of_n(emax_path):
    # n = 40: each arc is its own hull, and the sweep still takes it
    _check_emax_exact(_convex_polygon(1), emax_path, "hulls")


@pytest.mark.parametrize("n", [60, 131, 200])
def test_emax_table_sweeps_all_hull_rings(n, emax_path):
    # integer points on a circle of radius 10**5: the sagitta between
    # neighbours (12 or more) outweighs rounding, so every point is a
    # hull vertex and the deques grow past n/3 slots
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = np.rint(1e5 * np.column_stack((np.cos(theta), np.sin(theta))))
    side = np.roll(ring, -1, axis=0) - ring
    assert (side[:, 0] * np.roll(side[:, 1], -1) > side[:, 1] * np.roll(side[:, 0], -1)).all()
    xs, ys = ring[:, 0], ring[:, 1]
    table = _kernels.emax_cost_table(xs, ys)
    assert emax_path == ["_arc_hulls"]
    assert table.tobytes() == _scan_bounded(xs, ys).tobytes()
    assert 3 * _sweep_slots(ring) > n


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
def test_emax_table_exact_on_fuzzed_rings(family, seed, emax_path):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        pts = FUZZ_RINGS[family](rng).astype(np.float64)
        xs, ys = pts[:, 0], pts[:, 1]
        _assert_same_bytes(_kernels.emax_cost_table(xs, ys), _scan_bounded(xs, ys))
    # thin rectangles and runs plus an apex are simple; the angular
    # lattice rings can be self-touching, and most crossed rings are
    if family in ("thin_rectangle", "run_and_apex"):
        assert set(emax_path) == {"_arc_hulls"}
    elif family == "crossed":
        assert "_arc_prefixes" in emax_path


def _crossed_blob():
    # the corpus generator's blob05, n = 294, with two points n/3 apart
    # swapped
    pts = _fourier_blob(5, 40.0, 600).points.copy()
    n = pts.shape[0]
    pts[[10, 10 + n // 3]] = pts[[10 + n // 3, 10]]
    return pts


@pytest.mark.parametrize("pts, oracle, provider", [
    # n = 26 and 82, 13 x 2 and 41 x 2 points: most long arcs run along
    # both long sides, under B
    (RUN_RINGS["thin_rectangle"], bounded_emax_loops, "hulls"),
    (_walk([(0, 0), (40, 0), (40, 1), (0, 1)]), bounded_emax_loops, "hulls"),
    # n = 236; the scan stands in for the slower loops
    (_ellipse("thin", 50.0, 16.0, 400).points, _scan_bounded, "hulls"),
    # n = 12: arcs of up to 10 steps lie on one line, Emax +0.0, not -0.0
    (np.array([(x, 0) for x in range(11)] + [(5, 3)]), bounded_emax_loops, "hulls"),
    # n = 294, sides crossing: the swapped points' spike raises B
    (_crossed_blob(), _scan_bounded, "prefixes"),
], ids=["thin_rectangle_26", "thin_rectangle_82", "thin_ellipse_236", "long_side_12",
        "crossed_blob_294"])
def test_emax_table_exact_on_open_long_arcs(pts, oracle, provider, emax_path):
    # the long arcs under B take their value from both frozen windows
    table = _check_emax_exact(pts, emax_path, provider, oracle)
    n = pts.shape[0]
    length = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    assert np.isfinite(table[length > -(-n // 2)]).any()


NON_SIMPLE_RINGS = {
    "figure_eight": _walk([(0, 0), (3, 3), (3, 0), (0, 3)]),
    "fold_back": np.array([[0, 0], [4, 0], [2, 0], [2, 3]]),
    "vertex_on_side": np.array([[0, 0], [4, 0], [4, 4], [3, 4], [2, 0], [1, 4], [0, 4]]),
    # two loops joined by diagonals that cross at (3.5, 2.5)
    "crossed_loops": _walk([(0, 0), (2, 0), (2, 1), (5, 4), (5, 6), (2, 6), (2, 4), (5, 1),
                            (5, -2), (0, -2)]),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLE_RINGS))
def test_emax_table_scans_non_simple_rings(name, emax_path):
    # every point of every window, as Melkman's hull does not hold
    ring = NON_SIMPLE_RINGS[name]
    assert not _is_simple(ring)
    assert np.unique(ring, axis=0).shape == ring.shape
    _check_emax_exact(ring, emax_path, "prefixes")


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
        _assert_same_bytes(table, bounded_emax_loops(xs, ys))


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
    pts = np.array(pts, dtype=np.int64)
    assert _is_simple(pts) is simple
    assert _kernels.ring_is_simple(pts[::-1, 0], pts[::-1, 1]) is simple


# 600-point rectangle 200 x 100: bottom side indices 0-199, right
# 200-299, top 300-499, left 500-599
BIG_RECTANGLE = _walk([(0, 0), (200, 0), (200, 100), (0, 100)])


@pytest.mark.parametrize("moved, to, simple", [
    (None, None, True),
    (50, (50, 100), False),  # onto the top side: found in the first block
    (450, (0, 50), False),  # onto the left side: found in the second block
    (450, (1, 50), True),  # next to the left side
])
def test_ring_is_simple_across_blocks(moved, to, simple):
    pts = BIG_RECTANGLE.copy()
    n = pts.shape[0]
    # the first block of side pairs holds rows 0..step-1, so the two
    # moves of vertex 50 and 450 are found in different blocks
    step = _kernels._SIMPLE_BLOCK // n
    assert 50 < step <= 449
    if moved is not None:
        pts[moved] = to
    assert _is_simple(pts) is simple
    assert _kernels.ring_is_simple(pts[::-1, 0], pts[::-1, 1]) is simple


def _random_rcost(seed, n, costs=None):
    """DP input from a random n x n table (uniform in [0, 10), or costs
    drawn from the given values) and a random start."""
    rng = np.random.default_rng(seed)
    if costs is None:
        tab = rng.uniform(0.0, 10.0, size=(n, n))
    else:
        tab = rng.choice(np.asarray(costs, dtype=np.float64), size=(n, n))
    return _kernels.dp_cost_matrix(tab, int(rng.integers(n)))


def test_dp_cost_matrix_layout():
    n, start = 5, 3
    tab = np.arange(n * n, dtype=np.float64).reshape(n, n)
    rcost = _kernels.dp_cost_matrix(tab, start)
    assert rcost.shape == (n + 1, n + 1) and rcost.flags.c_contiguous
    for v in range(n + 1):
        for u in range(n + 1):
            if u < v and (u, v) != (0, n):
                assert rcost[v, u] == tab[(start + u) % n, (start + v) % n]
            else:
                assert rcost[v, u] == np.inf


def _dp_cost_matrix_gather(tab, start):
    # one fancy-index gather of the rotated table, then the same masks
    n = tab.shape[0]
    ridx = (start + np.arange(n + 1)) % n
    rcost = tab.T[np.ix_(ridx, ridx)]
    rows = np.arange(n + 1)
    rcost[rows[None, :] >= rows[:, None]] = np.inf
    rcost[n, 0] = np.inf
    return rcost


@pytest.mark.parametrize("n", [3, 5, 50, 351])
def test_dp_cost_matrix_matches_gather(n):
    tab = np.random.default_rng(n).uniform(0.0, 10.0, size=(n, n))
    for start in sorted({0, 1, n // 3, n - 1}):
        got = _kernels.dp_cost_matrix(tab, start)
        assert got.tobytes() == _dp_cost_matrix_gather(tab, start).tobytes(), start


def _assert_dp_is_loops(rcost, m_max, use_max):
    d1, p1 = _kernels.dp_solve(rcost, m_max, use_max)
    d2, p2 = _dp_solve_loops(rcost, m_max, use_max)
    assert d1.tobytes() == d2.tobytes()
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops(use_max):
    for seed in range(6):
        _assert_dp_is_loops(_random_rcost(seed, 12), 6, use_max)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_on_tied_costs(use_max):
    # integer costs 0..3 tie on most cells; both paths keep the first
    # (smallest) predecessor
    for seed in range(3):
        _assert_dp_is_loops(_random_rcost(seed, 40, costs=range(4)), 15, use_max)


@pytest.mark.parametrize("block", [1, 7, 60, 1 << 15])
@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_across_row_blocks(block, use_max, monkeypatch):
    # one row a block, ragged blocks, and the whole layer in one block
    monkeypatch.setattr(_kernels, "_DP_BLOCK", block)
    for seed in range(2):
        _assert_dp_is_loops(_random_rcost(seed, 30, costs=range(3)), 30, use_max)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_numpy_vs_loops_with_forbidden_sides(use_max):
    # +inf sides leave some reachable cells without any finite candidate;
    # both paths give them +inf and parent -1
    rcost = _random_rcost(5, 25)
    rng = np.random.default_rng(5)
    rcost[rng.uniform(size=rcost.shape) < 0.6] = np.inf
    d1, _ = _kernels.dp_solve(rcost, 12, use_max)
    j, v = np.nonzero(np.isinf(d1))
    assert np.any((j >= 2) & (v >= j))
    _assert_dp_is_loops(rcost, 12, use_max)


@pytest.mark.parametrize("use_max", [False, True])
def test_dp_unreachable_rows_stay_inf_and_minus_one(use_max):
    n1 = 21
    dp, parent = _kernels.dp_solve(_random_rcost(2, n1 - 1), n1 - 1, use_max)
    rows = np.arange(n1)
    for j in range(1, n1):
        assert np.all(np.isinf(dp[j, rows < j])), j
        assert np.all(parent[j, rows < j] == -1), j
        assert np.all(np.isfinite(dp[j, j:n1 - 1])), j
    assert np.all(np.isinf(dp[0])) and np.all(parent[0] == -1)


def test_dp_tie_breaks_to_smallest_predecessor():
    # two equal-cost paths into the last column; both paths must pick u=1
    # (entry [v, u] is the side u -> v)
    n = 4
    rcost = np.full((n + 1, n + 1), np.inf)
    rcost[1, 0] = rcost[2, 0] = 1.0
    rcost[4, 1] = rcost[4, 2] = 1.0
    rcost[3, 1] = rcost[3, 2] = 1.0
    rcost[4, 3] = 0.0
    for solver in (_kernels.dp_solve, _dp_solve_loops):
        dp, parent = solver(rcost, 3, False)
        assert dp[2, 4] == 2.0
        assert parent[2, 4] == 1
        assert parent[2, 3] == 1
