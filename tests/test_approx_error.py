import math
import warnings

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    DegenerateSegment,
    DigitalCurve,
    InvalidCounts,
    PolygonApprox,
    SchemeId,
    SegmentCosts,
    apply_scheme,
    auto_target_m,
    compression_ratio,
    parse_chain_code,
    polygon_errors,
)
from polyapprox import _kernels
from polyapprox.approx_error import E2Costs
from conftest import (
    arc_sum_sq,
    build_corpus,
    lattice_ring,
    perpendicular_distance,
    polygon_errors_naive,
    polygon_errors_points,
    prefixes_of,
    segment_errors,
    segment_errors_naive,
)


def test_perpendicular_distance_hand_values():
    assert perpendicular_distance((0, 0), (4, 0), (2, 3)) == 3.0
    assert perpendicular_distance((0, 0), (5, 5), (3, 3)) == 0.0
    # 3-4-5: distance from (3,0) to the line through (0,0)-(3,4) is 12/5
    assert perpendicular_distance((0, 0), (3, 4), (3, 0)) == pytest.approx(2.4, rel=1e-15)


def test_perpendicular_distance_degenerate():
    with pytest.raises(DegenerateSegment):
        perpendicular_distance((1, 2), (1, 2), (0, 0))


def test_segment_errors_single_interior_point():
    c = DigitalCurve(np.array([[0, 0], [1, 1], [2, 0]]))
    se = segment_errors(c, 0, 2)
    assert se.sum_sq == 1.0
    assert se.max_e == 1.0


def test_segment_errors_adjacent_empty_arc(square8):
    se = segment_errors(square8, 3, 4)
    assert se == segment_errors_naive(square8, 3, 4)
    assert (se.sum_sq, se.max_e) == (0.0, 0.0)


def test_segment_errors_collinear_midpoint(square8):
    # corner to corner across one edge: the midpoint sits on the chord
    se = segment_errors(square8, 0, 2)
    assert se.sum_sq == 0.0
    assert se.max_e == 0.0


def test_segment_errors_same_index_rejected(square8):
    with pytest.raises(DegenerateSegment):
        segment_errors(square8, 2, 2)
    with pytest.raises(DegenerateSegment):
        segment_errors(square8, 2, 10)   # 10 % 8 == 2


def test_segment_errors_wrapped_arc(square8):
    # arc from 6 back around to 1 covers points 7 and 0
    se = segment_errors(square8, 6, 1)
    ref = segment_errors_naive(square8, 6, 1)
    assert se.sum_sq == pytest.approx(ref.sum_sq, rel=1e-12, abs=1e-12)
    assert se.max_e == pytest.approx(ref.max_e, rel=1e-12, abs=1e-12)


def test_segment_errors_matches_naive_everywhere():
    # closed form over moment tables vs direct loop, all (u, v) pairs
    for seed in range(30):
        c = lattice_ring(seed)
        for u in range(c.n):
            for v in range(c.n):
                if u == v:
                    continue
                fast = segment_errors(c, u, v)
                ref = segment_errors_naive(c, u, v)
                assert fast.sum_sq == pytest.approx(ref.sum_sq, rel=1e-9, abs=1e-9)
                assert fast.max_e == pytest.approx(ref.max_e, rel=1e-9, abs=1e-9)


def test_moment_tables_prefix_structure(square8):
    x = square8.points[:, 0].astype(float)
    y = square8.points[:, 1].astype(float)
    px, py, pxx, pyy, pxy = _kernels.doubled_prefixes(x, y)
    n = square8.n
    assert all(len(p) == 2 * n + 1 and p[0] == 0.0 for p in (px, py, pxx, pyy, pxy))
    assert px[2 * n] == pytest.approx(2.0 * x.sum())
    assert py[n] == pytest.approx(y.sum())
    assert pxx[n] == pytest.approx((x * x).sum())
    assert pyy[2 * n] == pytest.approx(2.0 * (y * y).sum())
    assert pxy[n] == pytest.approx((x * y).sum())


def test_e2_costs_read_the_table_bit_for_bit():
    # every arc u != v of the closed form, array and scalar, against the
    # lookups and gathers in a live SegmentCosts' E2 table: every arc at
    # once, single arcs, and arrays whose spans straddle the stored rows
    corpus = build_corpus()
    for curve in (corpus[3], corpus[11]):
        n = curve.n
        pts = curve.points
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        closed = E2Costs(curve)
        # no table held: no rows, so every arc is the closed form's
        assert closed.rows == 0
        want = closed.arcs(u, v)
        scalar = [closed.arc(int(a), int(b)) for a, b in zip(u[::61], v[::61])]
        assert np.array(scalar).tobytes() == want[::61].tobytes()
        costs = SegmentCosts(curve)
        costs.table(CostKind.SUM_SQUARED)
        lookup = E2Costs(curve)
        rows = lookup.rows
        # the table stops short of n rows: arcs past it are the closed form's
        assert 0 < rows < n
        assert lookup.arcs(u, v).tobytes() == want.tobytes()
        assert lookup.arcs(1, 0) == closed.arcs(1, 0) and lookup.arcs(1, 2) == 0.0
        assert [lookup.arc(int(a), int(b)) for a, b in zip(u[::61], v[::61])] == scalar
        # scalar u, v to arcs, on both sides of the rows and with none
        for e2 in (closed, lookup):
            got = [e2.arcs(int(a), int(b)) for a, b in zip(u[::61], v[::61])]
            assert np.array(got).tobytes() == want[::61].tobytes()
        # starts 7 and n - 2 against ends whose spans from 7 straddle the
        # rows, broadcast, against the scalar closed form
        starts = np.array([[7], [n - 2]])
        ends = (7 + np.arange(rows - 3, rows + 3)) % n
        prefixes = prefixes_of(pts)
        expect = np.array([[arc_sum_sq(pts, prefixes, int(a), int(b)) for b in ends]
                           for a in starts[:, 0]])
        for e2 in (closed, lookup):
            assert e2.arcs(starts, ends).tobytes() == expect.tobytes()
        # both sides at every split point, in order from p, on arcs that
        # wrap past index 0 or not, short and long, past the stored rows
        for p, q in [(0, n // 2), (n - 5, 7), (3, 5), (4, 3), (n // 3, 2), (n - 1, 0),
                     (7, 7 + rows), (7, 6 + rows)]:
            js = (p + np.arange(1, (q - p) % n)) % n
            want = closed.arcs(p, js) + closed.arcs(js, q)
            assert closed.splits(p, q).tobytes() == want.tobytes()
            assert lookup.splits(p, q).tobytes() == want.tobytes()


def test_moment_tables_build_accepts_floats():
    pts = np.array([[0.5, 0.25], [2.5, 0.25], [1.5, 3.75]])
    px, py, *_ = _kernels.doubled_prefixes(pts[:, 0], pts[:, 1])
    assert px[3] == pytest.approx(4.5)
    assert py[6] == pytest.approx(8.5)


def test_polygon_validation(square8):
    p = PolygonApprox(square8, [4, 0, 6, 2])
    assert p.m == 4
    assert list(p.indices) == [0, 2, 4, 6]   # sorted on construction
    assert len(p) == 4
    with pytest.raises(InvalidCounts):
        PolygonApprox(square8, [0, 2])
    with pytest.raises(InvalidCounts):
        PolygonApprox(square8, [0, 2, 2])
    with pytest.raises(InvalidCounts):
        PolygonApprox(square8, [0, 2, 8])
    with pytest.raises(InvalidCounts):
        PolygonApprox(square8, [[0, 2], [4, 6]])


def test_polygon_rejects_indices_the_int64_cast_would_change(square8):
    with pytest.raises(InvalidCounts, match="64-bit integers"):
        PolygonApprox(square8, [0.5, 2.7, 4.2, 6.9])
    with pytest.raises(InvalidCounts, match="64-bit integers"):
        PolygonApprox(square8, [0, 2, 2**64])
    with pytest.raises(InvalidCounts, match="64-bit integers"):
        PolygonApprox(square8, np.array([0.0, 2.0, np.nan]))
    # whole floats and unsigned ints survive the cast unchanged
    assert list(PolygonApprox(square8, [0.0, 2.0, 4.0]).indices) == [0, 2, 4]
    assert list(PolygonApprox(square8, np.array([6, 2, 4], np.uint64)).indices) == [2, 4, 6]


def test_polygon_equality(square8):
    a = PolygonApprox(square8, [0, 2, 4])
    b = PolygonApprox(square8, [4, 2, 0])
    c = PolygonApprox(square8, [0, 2, 5])
    assert a == b
    assert a != c
    assert a != "not a polygon"


def test_polygon_vertex_points(square8):
    p = PolygonApprox(square8, [0, 2, 4, 6])
    assert np.array_equal(p.vertex_points(), [[0, 0], [2, 0], [2, 2], [0, 2]])


def test_polygon_errors_identity_is_zero():
    c = lattice_ring(3)
    p = PolygonApprox(c, range(c.n))
    assert polygon_errors(c, p) == (0.0, 0.0)


def test_polygon_errors_square_corners(square8):
    p = PolygonApprox(square8, [0, 2, 4, 6])
    assert polygon_errors(square8, p) == (0.0, 0.0)


def test_polygon_errors_hexagon_alternate():
    # regular-ish hexagon, keep alternate vertices
    c = DigitalCurve(np.array([[4, 0], [2, 4], [-2, 4], [-4, 0], [-2, -4], [2, -4]]))
    p = PolygonApprox(c, [0, 2, 4])
    e2, emax = polygon_errors(c, p)
    ref2, refmax = polygon_errors_naive(c, p)
    assert e2 == pytest.approx(ref2, rel=1e-12)
    assert emax == pytest.approx(refmax, rel=1e-12)
    assert e2 > 0.0 and emax > 0.0


def test_polygon_errors_matches_naive_random():
    rng = np.random.default_rng(11)
    for seed in range(25):
        c = lattice_ring(seed + 100)
        m = int(rng.integers(3, c.n + 1))
        idx = rng.choice(c.n, size=m, replace=False)
        p = PolygonApprox(c, idx)
        e2, emax = polygon_errors(c, p)
        ref2, refmax = polygon_errors_naive(c, p)
        assert e2 == pytest.approx(ref2, rel=1e-9, abs=1e-9)
        assert emax == pytest.approx(refmax, rel=1e-9, abs=1e-9)


def _side_emax_reference(points, n, u, v):
    # scalar loop: max |cross| over the arc points, then one division
    xu, yu = float(points[u, 0]), float(points[u, 1])
    dx, dy = float(points[v, 0]) - xu, float(points[v, 1]) - yu
    best = 0.0
    for t in range(u + 1, u + (v - u) % n):
        w = t % n
        best = max(best, abs((float(points[w, 0]) - xu) * dy - (float(points[w, 1]) - yu) * dx))
    return best / math.sqrt(dx * dx + dy * dy)


def test_emax_matches_scalar_loop_bit_for_bit(corpus):
    rng = np.random.default_rng(13)
    polys = [PolygonApprox(c, range(0, c.n, 8)) for c in corpus]
    for seed in range(30):
        c = lattice_ring(seed + 400)
        m = int(rng.integers(3, c.n + 1))  # m = n gives only empty arcs
        polys.append(PolygonApprox(c, rng.choice(c.n, size=m, replace=False)))
    for p in polys:
        c, idx = p.curve, p.indices.tolist()
        sides = list(zip(idx, idx[1:] + idx[:1]))  # the last side wraps
        want = [_side_emax_reference(c.points, c.n, u, v) for u, v in sides]
        assert polygon_errors(c, p)[1] == max(want), c.name
        assert [segment_errors(c, u, v).max_e for u, v in sides] == want, c.name


def _scalar_e2(curve, indices):
    # arc_sum_sq of each side, the last one wrapping, summed left to right
    idx = indices.tolist()
    e2 = 0.0
    for u, v in zip(idx, idx[1:] + idx[:1]):
        e2 += arc_sum_sq(curve.points, prefixes_of(curve.points), u, v)
    return e2


def test_polygon_e2_is_the_scalar_sum_bit_for_bit(corpus):
    # the sides' E2 summed left to right: the scalar sum's value and its
    # np.float64 type, so the same repr, with no E2 table held and while
    # a SegmentCosts holds it, on every scheme's polygon of the corpus at
    # cr 8, 15 and 30, on a triangle whose long side lies past the
    # table's rows, and on lattice rings
    polys = [apply_scheme(scheme, c, auto_target_m(c, cr))
             for c in corpus for cr in (8, 15, 30) for scheme in SchemeId]
    polys += [PolygonApprox(c, [0, 1, 2]) for c in corpus]
    rng = np.random.default_rng(17)
    for seed in range(20):
        c = lattice_ring(seed + 700)
        m = int(rng.integers(3, c.n))  # m < n: some side has an interior
        polys.append(PolygonApprox(c, rng.choice(c.n, size=m, replace=False)))
    by_curve = {}
    for p in polys:
        by_curve.setdefault(p.curve, []).append(p)
    for curve, group in by_curve.items():
        want = [repr(_scalar_e2(curve, p.indices)) for p in group]
        assert [repr(polygon_errors(curve, p)[0]) for p in group] == want, curve.name
        costs = SegmentCosts(curve)
        costs.table(CostKind.SUM_SQUARED)
        assert [repr(polygon_errors(curve, p)[0]) for p in group] == want, curve.name
        del costs


@pytest.mark.parametrize("indices, message", [
    ([0, 4, 8, 10], "points 8 and 10 coincide"),
    ([8, 9, 10], "points 10 and 8 coincide"),
])
def test_polygon_errors_reject_a_coincident_side_without_a_warning(indices, message):
    # a rectangle with a one-pixel spur: points 8 and 10 coincide at
    # (2, 2), so a side between them has no line; the first such side in
    # order is named, and no 0 / 0 of the E2 closed form warns
    c = parse_chain_code("0 0\n00002244264466")
    p = PolygonApprox(c, indices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSegment) as err:
            polygon_errors(c, p)
    assert str(err.value) == message


def test_polygon_errors_rejects_foreign_curve(square8):
    other = DigitalCurve(square8.points.copy())
    p = PolygonApprox(other, [0, 2, 4, 6])
    with pytest.raises(InvalidCounts):
        polygon_errors(square8, p)


def test_polygon_errors_points_matches_curve_path(square8):
    p = PolygonApprox(square8, [0, 2, 5])
    assert polygon_errors_points(square8.points, p.indices) == polygon_errors(square8, p)


def test_compression_ratio():
    assert compression_ratio(100, 4) == 25.0
    assert compression_ratio(7, 7) == 1.0
    assert round(compression_ratio(1578, 77), 2) == 20.49
    with pytest.raises(InvalidCounts):
        compression_ratio(10, 2)
    with pytest.raises(InvalidCounts):
        compression_ratio(4, 5)
    with pytest.raises(InvalidCounts):
        compression_ratio(2, 2)
