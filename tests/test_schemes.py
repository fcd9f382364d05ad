import gc
import weakref

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
    eliminate_stabilized_to_m,
    eliminate_to_m,
    polygon_errors,
    split_to_m,
    stabilize,
)
from polyapprox import _kernels, approx_error, schemes
from polyapprox.curve import parse_chain_code
from polyapprox.optimal import provisional_start_vertex
from conftest import (
    arc_sum_sq,
    build_corpus,
    lattice_ring,
    perpendicular_distance,
    prefixes_of,
    segment_errors_naive,
)


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
    prefixes = prefixes_of(pts)
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
    prefixes = prefixes_of(pts)
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


def on_both_paths(monkeypatch, curve, run, far=None):
    """run()'s result on the closed form, then while a SegmentCosts holds
    the curve's E2 table, with the closed form made to fail on every arc
    of a span the table stores, so that only lookups and gathers in the
    table can answer for those; longer arcs, past its rows, are the
    closed form's, and each call for them is appended to `far`.  The
    curve's kept elimination is dropped before each run, so that both
    runs eliminate."""
    ref = approx_error._E2_TABLES.get(curve)
    assert ref is None or ref() is None, "a table outlived its SegmentCosts"
    schemes._ELIMINATED.pop(curve, None)
    closed = run()
    schemes._ELIMINATED.pop(curve, None)
    costs = SegmentCosts(curve)
    rows = costs.table(CostKind.SUM_SQUARED).shape[0]
    arc_e2, e2_arc_costs = approx_error._arc_e2, _kernels.e2_arc_costs

    def past_rows(u, v):
        if np.any((np.asarray(v) - u) % curve.n < rows):
            raise AssertionError("a scheme evaluated the closed form on a stored span")
        if far is not None:
            far.append((u, v))
        return True

    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "e2_arc_costs",
                   lambda xs, ys, pre, u, v: past_rows(u, v) and e2_arc_costs(xs, ys, pre, u, v))
        mp.setattr(approx_error, "_arc_e2",
                   lambda xs, ys, pre, n, u, v: past_rows(u, v) and arc_e2(xs, ys, pre, n, u, v))
        table = run()
    return closed, table


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
def test_stabilize_matches_reference_on_corpus(cr, monkeypatch):
    moved = 0
    for c in build_corpus():
        p = eliminate_to_m(c, auto_target_m(c, cr))
        want = stabilize_reference(c, p)
        for q in on_both_paths(monkeypatch, c, lambda: stabilize(c, p)):
            assert q == want, c.name
        moved += want != p
    assert moved > 0


def _rectangle(w, h):
    # lattice boundary of a w x h rectangle: long collinear runs, so
    # many positions of a vertex tie on cost (plateaus)
    return DigitalCurve(np.array(
        [(x, 0) for x in range(w)] + [(w, y) for y in range(h)]
        + [(w - x, h) for x in range(w)] + [(0, h - y) for y in range(h)]
    ), name=f"rect{w}x{h}")


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


def _split_and_eliminate(curve, m):
    return [split_to_m(curve, m), eliminate_to_m(curve, m)]


@pytest.mark.parametrize("cr", [8.0, 15.0, 30.0])
def test_split_and_eliminate_match_references_on_corpus(corpus, cr, monkeypatch):
    for c in corpus:
        m = auto_target_m(c, cr)
        want = [split_reference(c, m), eliminate_reference(c, m)]
        for got in on_both_paths(monkeypatch, c, lambda: _split_and_eliminate(c, m)):
            assert got == want, c.name


def _rolled(curve, shift):
    return DigitalCurve(np.roll(curve.points, shift, axis=0), name=f"{curve.name}>>{shift}")


def _tied_across_zero(w, h):
    # the w x h rectangle rolled so that index 0 sits inside its bottom
    # run, and inside its left run: tied deviations and costs on arcs
    # that wrap past index n - 1
    c = _rectangle(w, h)
    return [_rolled(c, -(w // 2)), _rolled(c, max(1, h // 2))]


def _small_cases(square8):
    # square8 and lattice rectangles (collinear plateaus, so many costs
    # and deviations tie) at every m, also rolled to put a tied run
    # across index 0; lattice rings at a spread of m
    for c in [square8, _rolled(square8, 1), _rolled(square8, -1)]:
        for m in range(3, c.n + 1):
            yield c, m
    for w, h in [(4, 2), (6, 3), (9, 5), (7, 7), (12, 4)]:
        for c in [_rectangle(w, h)] + _tied_across_zero(w, h):
            for m in range(3, c.n + 1):
                yield c, m
    for seed in range(20):
        c = lattice_ring(seed + 1300)
        for m in sorted({3, 4, max(3, c.n // 3), c.n // 2, c.n - 1, c.n}):
            yield c, m


def test_split_and_eliminate_match_references_on_ties(square8, monkeypatch):
    for c, m in _small_cases(square8):
        want = [split_reference(c, m), eliminate_reference(c, m)]
        for got in on_both_paths(monkeypatch, c, lambda: _split_and_eliminate(c, m)):
            assert got == want, (c.name, m)


def test_stabilize_matches_reference_on_tied_rectangles(monkeypatch):
    # plateau-heavy rectangles (2 x 2 is square8), also rolled to put a
    # tied run across index 0, from the eliminated polygon, from every
    # other vertex, where slots see their neighbours move often, and
    # from random polygons, some of whose moves tie across index 0
    rng = np.random.default_rng(31)
    for w, h in [(2, 2), (4, 2), (6, 3), (9, 5), (7, 7), (12, 4), (20, 3)]:
        for c in [_rectangle(w, h)] + _tied_across_zero(w, h):
            starts = [eliminate_reference(c, m) for m in range(3, c.n + 1)]
            starts += [PolygonApprox(c, range(0, c.n, k)) for k in (2, 3)]
            starts += [PolygonApprox(c, rng.choice(c.n, size=int(rng.integers(3, c.n)),
                                                   replace=False)) for _ in range(10)]
            want = [stabilize_reference(c, p) for p in starts]
            for got in on_both_paths(monkeypatch, c, lambda: [stabilize(c, p) for p in starts]):
                assert got == want, c.name


def test_schemes_read_arcs_past_the_stored_rows(monkeypatch):
    # elimination to a triangle, and stabilize from a triangle with a
    # slot between far neighbours, rescore arcs longer than the rows the
    # E2 table stores: the closed form answers those, with the same bits
    c = build_corpus()[5]
    n = c.n
    # slot 0 is scored first, between vertices n - 2 steps apart
    triangle = PolygonApprox(c, [0, n // 2, n // 2 + 2])
    for run in (lambda: eliminate_to_m(c, 3), lambda: stabilize(c, triangle)):
        far = []
        closed, table = on_both_paths(monkeypatch, c, run, far)
        assert far and closed == table


def test_elim_stab_reuses_the_elimination(monkeypatch):
    # as in a study: elim, then elim-stab, on one curve while a
    # SegmentCosts holds its E2 table; the heap loop runs once, and
    # elim-stab's polygon is stabilize's of a fresh curve's elimination
    eliminated = []
    eliminate = schemes._eliminate

    def counted(curve, m):
        eliminated.append(m)
        return eliminate(curve, m)

    monkeypatch.setattr(schemes, "_eliminate", counted)
    for c in build_corpus()[:6]:
        m = auto_target_m(c, 15.0)
        costs = SegmentCosts(c)
        costs.table(CostKind.SUM_SQUARED)
        eliminated.clear()
        elim = apply_scheme(SchemeId.ELIMINATE, c, m)
        elim_stab = apply_scheme(SchemeId.ELIMINATE_STABILIZED, c, m)
        assert eliminated == [m]
        fresh = DigitalCurve(c.points, name=c.name)
        assert elim.indices.tolist() == eliminate_to_m(fresh, m).indices.tolist()
        want = stabilize(fresh, eliminate_to_m(fresh, m))
        assert elim_stab.indices.tolist() == want.indices.tolist(), c.name
        # another m eliminates again
        assert eliminate_to_m(c, m + 1).m == m + 1
        assert eliminated == [m, m, m + 1]


def test_kept_elimination_dies_with_its_curve():
    c = _rectangle(9, 5)
    gc.collect()
    before = len(schemes._ELIMINATED)
    poly = eliminate_to_m(c, 6)
    m, kept = schemes._ELIMINATED[c]
    # indices only: nothing that holds the curve or a table
    assert m == 6 and kept == poly.indices.tolist()
    assert all(type(i) is int for i in kept)
    held = weakref.ref(c)
    del c, poly
    gc.collect()
    assert held() is None
    assert len(schemes._ELIMINATED) == before


def test_elimination_keeps_no_error():
    # the m check comes before the kept result; an elimination that
    # raises keeps nothing, so a second call raises again
    c = parse_chain_code("0 0\n00002244264466")
    with pytest.raises(InvalidCounts):
        eliminate_to_m(c, 2)
    for _ in range(2):
        with pytest.raises(DegenerateSegment):
            eliminate_to_m(c, 5)
    assert c not in schemes._ELIMINATED
    square = _rectangle(2, 2)
    eliminate_to_m(square, 4)
    with pytest.raises(InvalidCounts):
        eliminate_to_m(square, square.n + 1)
    assert schemes._ELIMINATED[square][0] == 4


@pytest.mark.parametrize("cr", [0.5, float("nan")])
def test_auto_target_m_rejects_ratios_not_at_least_one(square8, cr):
    with pytest.raises(InvalidCounts):
        auto_target_m(square8, cr)


def test_e2_table_dies_with_its_segment_costs():
    c = build_corpus()[0]
    m = auto_target_m(c, 15.0)
    costs = SegmentCosts(c)
    table = costs.table(CostKind.SUM_SQUARED)
    held = weakref.ref(table)
    with_table = [apply_scheme(s, c, m) for s in SchemeId]
    del costs, table
    assert held() is None
    assert approx_error._E2_TABLES[c]() is None
    assert [apply_scheme(s, c, m) for s in SchemeId] == with_table


def test_cost_tables_are_read_only(square8):
    costs = SegmentCosts(square8)
    for kind in CostKind:
        table = costs.table(kind)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 1] = 1.0


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
