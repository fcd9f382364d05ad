import numpy as np
import pytest

from polyapprox import (
    DegenerateSegment,
    DigitalCurve,
    InvalidCounts,
    PolygonApprox,
    SchemeId,
    apply_scheme,
    auto_target_m,
    eliminate_stabilized_to_m,
    eliminate_to_m,
    polygon_errors,
    split_to_m,
    stabilize,
)
from polyapprox.approx_error import arc_sum_sq, moment_tables
from polyapprox.curve import parse_chain_code
from polyapprox.optimal import provisional_start_vertex
from conftest import build_corpus, lattice_ring, perpendicular_distance, segment_errors_naive


def eliminate_replay(curve, m):
    """Independent elimination: every cost recomputed from scratch each
    round with the naive loop, minimum taken at the lowest index."""
    n = curve.n
    alive = list(range(n))
    while len(alive) > m:
        best_cost = None
        best_pos = -1
        k = len(alive)
        for pos in range(k):
            p = alive[(pos - 1) % k]
            q = alive[(pos + 1) % k]
            c = segment_errors_naive(curve, p, q).sum_sq
            if best_cost is None or c < best_cost or (
                c == best_cost and alive[pos] < alive[best_pos]
            ):
                best_cost = c
                best_pos = pos
        del alive[best_pos]
    return alive


def eliminate_reference(curve, m):
    """Scalar elimination: n arc_sum_sq costs, np.argmin per step (ties
    on the lowest index), the two neighbours rescored by arc_sum_sq."""
    n = curve.n
    pts = curve.points
    prefixes = moment_tables(curve)
    nxt = np.arange(1, n + 1) % n
    prv = np.arange(-1, n - 1) % n
    cost = np.empty(n)
    for i in range(n):
        cost[i] = arc_sum_sq(pts, prefixes, int(prv[i]), int(nxt[i]))
    alive = n
    while alive > m:
        i = int(np.argmin(cost))
        p, q = int(prv[i]), int(nxt[i])
        prv[q] = p
        nxt[p] = q
        cost[i] = np.inf
        cost[p] = arc_sum_sq(pts, prefixes, int(prv[p]), q)
        cost[q] = arc_sum_sq(pts, prefixes, p, int(nxt[q]))
        alive -= 1
    return PolygonApprox(curve, np.nonzero(np.isfinite(cost))[0])


def _farthest_on_arc(curve, u, v):
    """(max deviation, its index) over the open arc u -> v by one
    perpendicular_distance per point; ties take the lowest curve index.
    (-1.0, -1) for an empty arc."""
    n = curve.n
    interior = [(u + t) % n for t in range(1, (v - u) % n)]
    if not interior:
        return -1.0, -1
    pu = curve.point(u)
    pv = curve.point(v)
    best = -1.0
    arg = -1
    for w in interior:
        e = perpendicular_distance(pu, pv, curve.point(w))
        if e > best or (e == best and w < arg):
            best = e
            arg = w
    return best, arg


def split_reference(curve, m):
    """Scalar split: the same seeds and rounds as split_to_m, each side
    scored point by point by _farthest_on_arc."""
    s0 = provisional_start_vertex(curve)
    rel = curve.points.astype(np.float64) - curve.points[s0].astype(np.float64)
    s1 = int(np.argmax((rel * rel).sum(axis=1)))
    verts = sorted((s0, s1))
    while len(verts) < m:
        best = (-1.0, -1, -1)  # (deviation, split point, side start)
        k = len(verts)
        for i in range(k):
            u = verts[i]
            e, w = _farthest_on_arc(curve, u, verts[(i + 1) % k])
            if w >= 0 and (e > best[0] or (e == best[0] and u < best[2])):
                best = (e, w, u)
        verts.append(best[1])
        verts.sort()
    return PolygonApprox(curve, verts)


def stabilize_reference(curve, poly):
    """Scalar stabilize: every candidate position scored by two
    arc_sum_sq calls, visited in arc order."""
    n = curve.n
    pts = curve.points
    prefixes = moment_tables(curve)
    verts = [int(v) for v in poly.indices]
    m = len(verts)
    for _ in range(50):
        moved = False
        for i in range(m):
            p = verts[(i - 1) % m]
            cur = verts[i]
            q = verts[(i + 1) % m]
            # the current position competes on its own cost, so an equal
            # candidate elsewhere never displaces it
            best_j = cur
            best_cost = arc_sum_sq(pts, prefixes, p, cur) + arc_sum_sq(pts, prefixes, cur, q)
            for t in range(1, (q - p) % n):
                j = (p + t) % n
                if j == cur:
                    continue
                c = arc_sum_sq(pts, prefixes, p, j) + arc_sum_sq(pts, prefixes, j, q)
                if c < best_cost or (c == best_cost and best_j != cur and j < best_j):
                    best_cost = c
                    best_j = j
            if best_j != cur:
                verts[i] = best_j
                moved = True
        if not moved:
            break
    return PolygonApprox(curve, sorted(verts))


def test_split_square_finds_corners(square8):
    p = split_to_m(square8, 4)
    assert list(p.indices) == [0, 2, 4, 6]
    assert polygon_errors(square8, p) == (0.0, 0.0)


def test_split_m_equals_n_returns_everything():
    c = lattice_ring(7)
    p = split_to_m(c, c.n)
    assert list(p.indices) == list(range(c.n))


def test_split_m3_is_seeds_plus_one(square8):
    p = split_to_m(square8, 3)
    s0 = provisional_start_vertex(square8)
    rel = square8.points - square8.points[s0]
    s1 = int(np.argmax((rel * rel).sum(axis=1)))
    assert p.m == 3
    assert s0 in p.indices and s1 in p.indices


def test_split_deterministic():
    c = lattice_ring(31)
    assert split_to_m(c, 5) == split_to_m(c, 5)


def test_eliminate_square_drops_midpoints_first(square8):
    p = eliminate_to_m(square8, 4)
    assert list(p.indices) == [0, 2, 4, 6]


def test_eliminate_m_equals_n_is_identity():
    c = lattice_ring(13)
    p = eliminate_to_m(c, c.n)
    assert list(p.indices) == list(range(c.n))


def test_eliminate_matches_naive_replay():
    for seed in range(25):
        c = lattice_ring(seed + 700)
        for m in (5, 4, 3):
            got = list(eliminate_to_m(c, m).indices)
            want = sorted(eliminate_replay(c, m))
            assert got == want, (seed, m)


def test_stabilize_snaps_displaced_corner_back(square8):
    shifted = PolygonApprox(square8, [1, 2, 4, 6])
    fixed = stabilize(square8, shifted)
    assert list(fixed.indices) == [0, 2, 4, 6]


def test_stabilize_keeps_optimal_polygon(square8):
    corners = PolygonApprox(square8, [0, 2, 4, 6])
    assert stabilize(square8, corners) == corners


def test_stabilize_full_polygon_unchanged():
    c = lattice_ring(17)
    p = PolygonApprox(c, range(c.n))
    assert stabilize(c, p) == p


def test_stabilize_never_increases_e2_and_is_idempotent():
    rng = np.random.default_rng(23)
    for seed in range(20):
        c = lattice_ring(seed + 900)
        m = int(rng.integers(3, c.n))
        idx = rng.choice(c.n, size=m, replace=False)
        p = PolygonApprox(c, idx)
        before, _ = polygon_errors(c, p)
        q = stabilize(c, p)
        after, _ = polygon_errors(c, q)
        assert after <= before + 1e-12
        assert stabilize(c, q) == q


@pytest.mark.parametrize("cr", [8.0, 15.0, 30.0])
def test_stabilize_matches_reference_on_corpus(cr):
    moved = 0
    for c in build_corpus():
        p = eliminate_to_m(c, auto_target_m(c, cr))
        q = stabilize(c, p)
        assert q == stabilize_reference(c, p), c.name
        moved += q != p
    assert moved > 0


def _rectangle(w, h):
    # lattice boundary of a w x h rectangle: long collinear runs, so
    # many positions of a vertex tie on cost (plateaus)
    return DigitalCurve(np.array(
        [(x, 0) for x in range(w)] + [(w, y) for y in range(h)]
        + [(w - x, h) for x in range(w)] + [(0, h - y) for y in range(h)]
    ))


def test_stabilize_matches_reference_on_plateaus_and_ties(square8):
    # every polygon on the 8-point square
    for bits in range(1, 1 << 8):
        idx = [i for i in range(8) if bits >> i & 1]
        if len(idx) >= 3:
            p = PolygonApprox(square8, idx)
            assert stabilize(square8, p) == stabilize_reference(square8, p), idx
    rng = np.random.default_rng(29)
    curves = [_rectangle(6, 3), _rectangle(9, 5)] + [lattice_ring(s + 900) for s in range(20)]
    for c in curves:
        for _ in range(15):
            m = int(rng.integers(3, c.n))
            p = PolygonApprox(c, rng.choice(c.n, size=m, replace=False))
            assert stabilize(c, p) == stabilize_reference(c, p), (c.name, list(p.indices))


@pytest.mark.parametrize("cr", [8.0, 15.0, 30.0])
def test_split_and_eliminate_match_references_on_corpus(corpus, cr):
    for c in corpus:
        m = auto_target_m(c, cr)
        assert split_to_m(c, m) == split_reference(c, m), c.name
        assert eliminate_to_m(c, m) == eliminate_reference(c, m), c.name


def _small_cases(square8):
    # square8 and lattice rectangles (collinear plateaus, so many costs
    # and deviations tie) at every m; lattice rings at a spread of m
    for m in range(3, square8.n + 1):
        yield square8, m
    for w, h in [(4, 2), (6, 3), (9, 5), (7, 7), (12, 4)]:
        c = _rectangle(w, h)
        for m in range(3, c.n + 1):
            yield c, m
    for seed in range(20):
        c = lattice_ring(seed + 1300)
        for m in sorted({3, 4, max(3, c.n // 3), c.n // 2, c.n - 1, c.n}):
            yield c, m


def test_split_and_eliminate_match_references_on_ties(square8):
    for c, m in _small_cases(square8):
        assert split_to_m(c, m) == split_reference(c, m), (c.name, m)
        assert eliminate_to_m(c, m) == eliminate_reference(c, m), (c.name, m)


def test_stabilize_matches_reference_on_tied_rectangles():
    # plateau-heavy rectangles, from the eliminated polygon and from
    # every other vertex, where slots see their neighbours move often
    for w, h in [(4, 2), (6, 3), (9, 5), (7, 7), (12, 4), (20, 3)]:
        c = _rectangle(w, h)
        for m in range(3, c.n + 1):
            p = eliminate_to_m(c, m)
            assert stabilize(c, p) == stabilize_reference(c, p), (c.name, m)
        for k in (2, 3):
            p = PolygonApprox(c, range(0, c.n, k))
            assert stabilize(c, p) == stabilize_reference(c, p), (c.name, k)


def _outcome(fn, curve, m):
    try:
        return fn(curve, m).indices.tolist()
    except DegenerateSegment as exc:
        return type(exc)


def test_schemes_raise_like_references_on_revisited_points():
    rings = [
        # a rectangle with a one-pixel spur: points 8 and 10 coincide
        parse_chain_code("0 0\n00002244264466"),
        # points 0 and 3 coincide, and split meets them as one side
        DigitalCurve(np.array([[3, 2], [2, 2], [3, 0], [3, 2], [3, 1]])),
    ]
    for fn, ref in [(split_to_m, split_reference), (eliminate_to_m, eliminate_reference)]:
        raised = False
        for c in rings:
            got = [_outcome(fn, c, m) for m in range(3, c.n + 1)]
            assert got == [_outcome(ref, c, m) for m in range(3, c.n + 1)], fn.__name__
            raised |= DegenerateSegment in got
        assert raised, fn.__name__


def test_stabilize_rejects_coincident_candidates():
    # point 3 revisits point 1, so moving vertex 2 between 1 and 3 would
    # give a side with no defining line
    c = DigitalCurve(np.array([[0, 0], [2, 0], [3, 1], [2, 0], [0, 2]]))
    p = PolygonApprox(c, [0, 1, 3])
    with pytest.raises(DegenerateSegment):
        stabilize_reference(c, p)
    with pytest.raises(DegenerateSegment):
        stabilize(c, p)


def test_stabilize_rejects_foreign_polygon(square8):
    other = DigitalCurve(square8.points.copy())
    p = PolygonApprox(other, [0, 2, 4, 6])
    with pytest.raises(InvalidCounts):
        stabilize(square8, p)


def test_schemes_emit_exactly_m_distinct_vertices():
    for seed in range(10):
        c = lattice_ring(seed + 1100)
        for m in (3, 4, 6):
            for scheme in SchemeId:
                p = apply_scheme(scheme, c, m)
                assert p.m == m
                assert len(set(p.indices.tolist())) == m
                assert list(p.indices) == sorted(p.indices)


def test_apply_scheme_dispatch(square8):
    assert apply_scheme(SchemeId.SPLIT, square8, 4) == split_to_m(square8, 4)
    assert apply_scheme(SchemeId.ELIMINATE, square8, 4) == eliminate_to_m(square8, 4)
    assert apply_scheme(SchemeId.ELIMINATE_STABILIZED, square8, 4) == (
        eliminate_stabilized_to_m(square8, 4)
    )


def test_scheme_m_range_checks(square8):
    for fn in (split_to_m, eliminate_to_m, eliminate_stabilized_to_m):
        with pytest.raises(InvalidCounts):
            fn(square8, 2)
        with pytest.raises(InvalidCounts):
            fn(square8, 9)


def test_auto_target_m():
    big = DigitalCurve(np.array([[i, i * i] for i in range(50)]))
    assert auto_target_m(big, 10.0) == 5
    n1578 = 1578
    # round(1578 / 20.49) lands on the published 77-vertex budget
    assert max(3, min(n1578, round(n1578 / 20.49))) == 77
    small = lattice_ring(2)
    assert auto_target_m(small, 100.0) == 3
    assert auto_target_m(small, 1.0) == small.n
    with pytest.raises(InvalidCounts):
        auto_target_m(small, 0.5)
