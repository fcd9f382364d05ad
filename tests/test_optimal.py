import itertools
import math
import tracemalloc

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    CurveTooLarge,
    DegenerateSegment,
    DigitalCurve,
    ErrorProfile,
    InvalidCounts,
    SegmentCosts,
    baseline_from_profile,
    polygon_errors,
    provisional_start_vertex,
    select_start_vertex,
)
from polyapprox import _kernels
from polyapprox.schemes import auto_target_m, split_to_m
from conftest import baseline_for, lattice_ring, segment_errors_naive, square_ring


def brute_force_values(curve, start, m_lo, m_hi, kind):
    """Exhaustive minimum over all vertex subsets containing start.

    Shares nothing with the DP: per-side costs come from the naive loop.
    """
    n = curve.n
    cache = {}

    def side(u, v):
        if (u, v) not in cache:
            se = segment_errors_naive(curve, u, v)
            cache[(u, v)] = se.sum_sq if kind is CostKind.SUM_SQUARED else se.max_e
        return cache[(u, v)]

    others = [i for i in range(n) if i != start]
    out = {}
    for m in range(m_lo, m_hi + 1):
        best = math.inf
        for combo in itertools.combinations(others, m - 1):
            verts = sorted((start, *combo))
            if kind is CostKind.SUM_SQUARED:
                total = 0.0
                for i in range(m):
                    total += side(verts[i], verts[(i + 1) % m])
            else:
                total = 0.0
                for i in range(m):
                    total = max(total, side(verts[i], verts[(i + 1) % m]))
            if total < best:
                best = total
        out[m] = best
    return out


def synthetic_profile(square8, values_by_m):
    m_max = max(values_by_m)
    vals = np.full(m_max + 1, np.nan)
    for m, v in values_by_m.items():
        vals[m] = v
    return ErrorProfile(square8, 0, CostKind.SUM_SQUARED, m_max, vals)


def test_profile_square_corner_start_hits_zero(square8):
    prof = SegmentCosts(square8).profile(0, 8, CostKind.SUM_SQUARED)
    assert prof.value(4) == 0.0
    assert prof.value(8) == 0.0          # m = n reproduces the curve
    assert prof.value(3) > 0.0
    with pytest.raises(InvalidCounts):
        prof.value(2)
    with pytest.raises(InvalidCounts):
        prof.value(9)


def test_profile_items_spans_3_to_m_max(square8):
    prof = SegmentCosts(square8).profile(0, 6, CostKind.MAX_ERROR)
    ms = [m for m, _ in prof.items()]
    assert ms == [3, 4, 5, 6]
    assert np.isnan(prof.values[2])


def test_profile_matches_brute_force_both_kinds():
    for seed in range(12):
        c = lattice_ring(seed + 300)
        start = provisional_start_vertex(c)
        for kind in (CostKind.SUM_SQUARED, CostKind.MAX_ERROR):
            prof = SegmentCosts(c).profile(start, 6, kind)
            ref = brute_force_values(c, start, 3, 6, kind)
            for m in range(3, 7):
                assert prof.value(m) == pytest.approx(ref[m], abs=1e-9), (
                    seed, kind, m)


def test_optimal_polygon_achieves_profile_value():
    for seed in range(8):
        c = lattice_ring(seed + 500)
        start = provisional_start_vertex(c)
        costs = SegmentCosts(c)
        for kind in (CostKind.SUM_SQUARED, CostKind.MAX_ERROR):
            for m in (3, 4, 5):
                poly = costs.polygon(start, m, kind)
                assert poly.m == m
                assert start in poly.indices
                e2, emax = polygon_errors(c, poly)
                got = e2 if kind is CostKind.SUM_SQUARED else emax
                prof = costs.profile(start, m, kind)
                assert got == pytest.approx(prof.value(m), abs=1e-9)


def test_optimal_polygon_deterministic():
    c = lattice_ring(42)
    start = provisional_start_vertex(c)
    a = SegmentCosts(c).polygon(start, 5, CostKind.SUM_SQUARED)
    b = SegmentCosts(c).polygon(start, 5, CostKind.SUM_SQUARED)
    assert a == b


def test_segment_costs_shared_across_kinds_and_starts():
    c = lattice_ring(9)
    costs = SegmentCosts(c)
    p1 = costs.polygon(0, 4, CostKind.SUM_SQUARED)
    p2 = SegmentCosts(c).polygon(0, 4, CostKind.SUM_SQUARED)
    assert p1 == p2
    assert costs.table(CostKind.SUM_SQUARED) is costs.table(CostKind.SUM_SQUARED)


def test_band_widths_are_computed_once_a_table(monkeypatch):
    # every solve of one kind reads the same cheapest_sides array
    calls = []
    real = _kernels.cheapest_sides
    monkeypatch.setattr(_kernels, "cheapest_sides", lambda tab: calls.append(tab) or real(tab))
    c = lattice_ring(9)
    costs = SegmentCosts(c)
    for kind in CostKind:
        for start in (0, c.n // 2):
            costs.profile(start, 6, kind)
            costs.polygon(start, 4, kind)
    assert [id(t) for t in calls] == [id(costs.table(kind)) for kind in CostKind]


def test_segment_costs_rejects_coincident_points():
    c = DigitalCurve(np.array([[0, 0], [1, 0], [0, 0], [-1, 0]]) + 5)
    with pytest.raises(DegenerateSegment, match="points 0 and 2"):
        SegmentCosts(c)


def test_segment_costs_reports_coincident_points_at_large_x():
    # x = 2**31 overflows a packed x * 2**32 + y key onto (-2**31, 0)
    x = 2**31
    c = DigitalCurve(np.array([[x, 0], [x, 1], [-x, 0], [x, 1], [x, 5]]))
    with pytest.raises(DegenerateSegment) as err:
        SegmentCosts(c)
    assert str(err.value) == f"points 1 and 3 coincide at ({x}, 1)"


def test_segment_costs_refuses_a_curve_too_large_before_allocating():
    # n = 20000: two 3.2 GB tables and ten more for the Emax build's
    # hull levels
    c = square_ring(5000)
    tracemalloc.start()
    try:
        with pytest.raises(CurveTooLarge) as err:
            SegmentCosts(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "n=20000 points need about 38.4 GB of cost tables, over the 2 GB limit"
    )
    assert peak < 100_000


def test_segment_costs_accepts_a_curve_at_the_limit():
    # 8 n^2 (2 + 10) is 1.9997e9 bytes at n = 4564, 2.0032e9 at 4568
    assert SegmentCosts(square_ring(4564 // 4)).curve.n == 4564
    with pytest.raises(CurveTooLarge, match="n=4568 "):
        SegmentCosts(square_ring(4568 // 4))


def test_solve_range_checks():
    c = lattice_ring(1)
    costs = SegmentCosts(c)
    with pytest.raises(InvalidCounts):
        costs.profile(-1, 4, CostKind.SUM_SQUARED)
    with pytest.raises(InvalidCounts):
        costs.profile(c.n, 4, CostKind.SUM_SQUARED)
    with pytest.raises(InvalidCounts):
        costs.profile(0, 2, CostKind.SUM_SQUARED)
    with pytest.raises(InvalidCounts):
        costs.profile(0, c.n + 1, CostKind.SUM_SQUARED)


def test_provisional_start_square_tie_breaks_low(square8):
    # all four corners are equally far from the centroid
    assert provisional_start_vertex(square8) == 0


def test_provisional_start_farthest():
    c = DigitalCurve(np.array([[10, 0], [0, 2], [-3, 0], [0, -2]]))
    assert provisional_start_vertex(c) == 0


def test_select_start_square_second_corner(square8):
    start = select_start_vertex(square8, 4, CostKind.SUM_SQUARED, SegmentCosts(square8))
    assert start == 2


def test_select_start_triangle_next_vertex():
    c = DigitalCurve(np.array([[9, 0], [-1, 3], [-1, -3]]))
    # only one 3-gon exists; start becomes the vertex after the farthest
    assert provisional_start_vertex(c) == 0
    assert select_start_vertex(c, 3, CostKind.SUM_SQUARED, SegmentCosts(c)) == 1


def test_select_start_full_polygon_next_vertex():
    c = DigitalCurve(np.array([[8, 0], [4, 7], [-4, 7], [-8, 0], [-4, -7], [4, -7]]))
    p0 = provisional_start_vertex(c)
    assert select_start_vertex(c, 6, CostKind.SUM_SQUARED, SegmentCosts(c)) == (p0 + 1) % 6


def test_select_start_range_check(square8):
    with pytest.raises(InvalidCounts):
        select_start_vertex(square8, 2, CostKind.SUM_SQUARED, SegmentCosts(square8))


def m_optimal(prof, error_sub):
    """The vertex count a baseline reads off prof for error_sub (m_sub 3)."""
    return baseline_from_profile(prof, 3, error_sub).m_optimal


def test_interpolate_linear_midpoint(square8):
    prof = synthetic_profile(square8, {3: 90, 4: 85, 5: 80, 6: 75, 7: 70,
                                       8: 65, 9: 60, 10: 50, 11: 30})
    assert m_optimal(prof, 40.0) == pytest.approx(10.5, abs=1e-12)


def test_interpolate_exact_hit(square8):
    prof = synthetic_profile(square8, {3: 90, 4: 85, 5: 80, 6: 75, 7: 70,
                                       8: 65, 9: 60, 10: 50, 11: 30})
    assert m_optimal(prof, 70.0) == 7.0


def test_interpolate_plateau_resolves_to_fewer_vertices(square8):
    prof = synthetic_profile(square8, {3: 90, 4: 60, 5: 60, 6: 60, 7: 20})
    assert m_optimal(prof, 60.0) == 4.0
    # just under the plateau interpolates inside the next strict descent
    assert 6.0 < m_optimal(prof, 59.0) < 7.0


def test_interpolate_out_of_range_sides(square8):
    prof = synthetic_profile(square8, {3: 90, 4: 50, 5: 30})
    low = baseline_from_profile(prof, 3, 90.5)
    assert (low.m_optimal, low.clamped) == (3.0, True)
    high = baseline_from_profile(prof, 3, 29.0)
    assert (high.m_optimal, high.clamped) == (5.0, True)
    # the ends themselves are on the profile, not clamped
    assert not baseline_from_profile(prof, 3, 90.0).clamped
    assert not baseline_from_profile(prof, 3, 30.0).clamped
    # a rising profile that meets both tests clamps low: that test is first
    rising = synthetic_profile(square8, {3: 50, 4: 40, 5: 60})
    both = baseline_from_profile(rising, 3, 55.0)
    assert (both.m_optimal, both.clamped) == (3.0, True)


def test_interpolate_random_bracketing_oracle(square8):
    # independent scan for the bracketing pair, then the same line formula
    rng = np.random.default_rng(5)
    vals = {3: 100.0}
    v = 100.0
    for m in range(4, 12):
        v -= float(rng.uniform(1.0, 10.0))
        vals[m] = v
    prof = synthetic_profile(square8, vals)
    for _ in range(50):
        q = float(rng.uniform(vals[11], vals[3]))
        got = m_optimal(prof, q)
        bracket = [m for m in range(3, 12) if vals[m] <= q]
        lo = min(bracket)
        if vals[lo] == q:
            want = float(lo)
        else:
            want = (lo - 1) + (vals[lo - 1] - q) / (vals[lo - 1] - vals[lo])
        assert got == pytest.approx(want, abs=1e-12)


def test_baseline_from_profile_reads_and_clamps(square8):
    prof = synthetic_profile(square8, {3: 90, 4: 50, 5: 30})
    b = baseline_from_profile(prof, 4, 40.0)
    assert b.error_optimal == 50.0
    assert 4.0 < b.m_optimal < 5.0
    assert not b.clamped

    worse = baseline_from_profile(prof, 4, 95.0)
    assert worse.m_optimal == 3.0 and worse.clamped

    better = baseline_from_profile(prof, 4, 10.0)
    assert better.m_optimal == 5.0 and better.clamped

    # m_sub is read first, so a bad one raises even where the error clamps
    with pytest.raises(InvalidCounts):
        baseline_from_profile(prof, 6, 95.0)
    # a NaN error meets neither clamp and reads as NaN
    nan = baseline_from_profile(prof, 4, math.nan)
    assert math.isnan(nan.m_optimal) and not nan.clamped


def test_baseline_square_corners_self_evaluation(square8):
    from polyapprox import PolygonApprox

    poly = PolygonApprox(square8, [0, 2, 4, 6])
    b = baseline_for(square8, poly, CostKind.SUM_SQUARED)
    assert b.error_optimal == 0.0
    assert b.m_optimal == 4.0
    assert not b.clamped


def test_baseline_cross_checked_against_enumeration():
    # split-scheme polygon scored against a brute-force profile
    for seed in (21, 22, 23):
        c = lattice_ring(seed)
        poly = split_to_m(c, 4)
        b = baseline_for(c, poly, CostKind.SUM_SQUARED)
        start = b.start_index
        m_max = min(c.n, 12)
        ref = brute_force_values(c, start, 3, m_max, CostKind.SUM_SQUARED)
        assert b.error_optimal == pytest.approx(ref[4], abs=1e-9)
        e2, _ = polygon_errors(c, poly)
        if not b.clamped:
            ms = sorted(ref)
            lo = min(m for m in ms if ref[m] <= e2 + 1e-15)
            assert b.m_optimal >= lo - 1 - 1e-12
            assert b.m_optimal <= lo + 1e-12


def unbounded_emax_table(curve):
    """The exact Emax table with no +inf entries: the kernel's hull table
    with the bound B lifted to +inf, so that every arc is scanned."""
    pts = curve.points.astype(np.float64)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels, "_side_bound", lambda out: np.inf)
        return _kernels.emax_cost_table(pts[:, 0], pts[:, 1])


@pytest.fixture(scope="module")
def corpus_emax_tables(corpus):
    return [unbounded_emax_table(curve) for curve in corpus]


@pytest.mark.parametrize("cr", [8, 15, 30])
def test_emax_bound_keeps_every_optimum_on_the_corpus(corpus, corpus_emax_tables, cr):
    # the bounded table, which stores its rows up to the last with a
    # finite entry, against the exact one: same start vertex, same
    # profile and same polygons, on every corpus ring
    kind = CostKind.MAX_ERROR
    for curve, exact in zip(corpus, corpus_emax_tables):
        n = curve.n
        bounded = SegmentCosts(curve)
        table = bounded.table(kind)
        finite = np.isfinite(table)
        stored, dropped = exact[:table.shape[0]], exact[table.shape[0]:]
        assert np.array_equal(table[finite], stored[finite])
        assert min(stored[~finite].min(initial=np.inf), dropped.min(initial=np.inf)) > (
            table[finite].max())
        full = SegmentCosts(curve)
        full._keep(kind, exact)
        m_sub = auto_target_m(curve, cr)
        start = select_start_vertex(curve, m_sub, kind, bounded)
        assert start == select_start_vertex(curve, m_sub, kind, full)
        m_max = min(n, 3 * m_sub)
        assert np.array_equal(
            bounded.profile(start, m_max, kind).values,
            full.profile(start, m_max, kind).values,
            equal_nan=True,
        )
        for s in (start, provisional_start_vertex(curve), n // 2):
            for m in (3, 5, m_sub):
                assert bounded.polygon(s, m, kind) == full.polygon(s, m, kind)
