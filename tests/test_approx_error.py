import gc
import math
import weakref

import numpy as np
import pytest

from polyapprox import (
    DegenerateSegment,
    DigitalCurve,
    InvalidCounts,
    PolygonApprox,
    compression_ratio,
    moment_tables,
    polygon_errors,
)
from polyapprox import _kernels
from conftest import (
    lattice_ring,
    perpendicular_distance,
    polygon_errors_naive,
    polygon_errors_points,
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
    px, py, pxx, pyy, pxy = moment_tables(square8)
    n = square8.n
    x = square8.points[:, 0].astype(float)
    y = square8.points[:, 1].astype(float)
    assert all(len(p) == 2 * n + 1 and p[0] == 0.0 for p in (px, py, pxx, pyy, pxy))
    assert px[2 * n] == pytest.approx(2.0 * x.sum())
    assert py[n] == pytest.approx(y.sum())
    assert pxx[n] == pytest.approx((x * x).sum())
    assert pyy[2 * n] == pytest.approx(2.0 * (y * y).sum())
    assert pxy[n] == pytest.approx((x * y).sum())


def test_moment_tables_cached_per_curve(square8):
    assert moment_tables(square8) is moment_tables(square8)
    other = DigitalCurve(square8.points.copy())
    assert moment_tables(other) is not moment_tables(square8)


def test_moment_tables_do_not_keep_curves_alive(square8):
    curve = DigitalCurve(square8.points.copy())
    moment_tables(curve)
    ref = weakref.ref(curve)
    del curve
    gc.collect()
    assert ref() is None


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
