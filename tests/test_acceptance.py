"""End-to-end acceptance gate for the whole package.

Each test covers one contract the library must honor, prints a single
PASS line with the measured margin (visible under `pytest -s`), and
fails loudly otherwise.  The slow exhaustive checks stay under a minute
on a desktop machine.
"""

import math

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    SchemeId,
    SegmentCosts,
    apply_scheme,
    auto_target_m,
    compression_ratio,
    optimal_profile,
    pearson,
    polygon_errors,
    provisional_start_vertex,
    rosin_merit,
    run_study,
    select_start_vertex,
    stabilize,
    theorem_identity_check,
)
from polyapprox.study import PAIRINGS, study_outputs
from conftest import baseline_for, lattice_ring, perpendicular_distance, polygon_errors_points
from test_optimal import brute_force_values

BOTH_KINDS = (CostKind.SUM_SQUARED, CostKind.MAX_ERROR)


@pytest.fixture(scope="module")
def study_reports(corpus):
    return run_study(corpus)


def _passed(what: str, detail: str):
    print(f"PASS: {what} ({detail})")


def test_01_profile_matches_exhaustive_search():
    worst = 0.0
    # rings whose Emax table holds +inf for sides no optimum can use
    bounded = 0
    for seed in range(200):
        curve = lattice_ring(seed)
        start = provisional_start_vertex(curve)
        costs = SegmentCosts(curve)
        bounded += bool(np.isinf(costs.table(CostKind.MAX_ERROR)).any())
        m_hi = min(6, curve.n)
        for kind in BOTH_KINDS:
            profile = optimal_profile(curve, start, m_hi, kind, costs)
            oracle = brute_force_values(curve, start, 3, m_hi, kind)
            for m, want in oracle.items():
                worst = max(worst, abs(profile.value(m) - want))
    assert worst <= 1e-9
    assert bounded == 200
    _passed(
        "optimal profiles equal exhaustive subset enumeration",
        f"200 curves ({bounded} with +inf Emax sides), both cost kinds,"
        f" max residual {worst:.3g}",
    )


def test_02_profile_monotone_on_corpus(corpus):
    steps = 0
    worst = -math.inf
    for curve in corpus:
        costs = SegmentCosts(curve)
        m_sub = auto_target_m(curve, 15.0)
        m_max = min(curve.n, 3 * m_sub)
        for kind in BOTH_KINDS:
            start = select_start_vertex(curve, m_sub, kind, costs)
            vals = costs.profile(start, m_max, kind).values
            for m in range(3, m_max):
                worst = max(worst, vals[m + 1] - vals[m])
                steps += 1
                assert vals[m + 1] <= vals[m] + 1e-9, (curve.name, kind, m)
    _passed(
        "error profiles never increase with vertex count",
        f"{steps} steps over {len(corpus)} curves, worst rise {worst:.3g}",
    )


def test_03_identities_hold_across_study(study_reports):
    checked = 0
    worst = 0.0
    for report in study_reports:
        for record in report.records:
            for name, residual in theorem_identity_check(record).items():
                worst = max(worst, residual)
                assert residual <= 1e-9, (record.curve, record.scheme, name)
            chain = abs(record.we3 * record.cr - record.we2)
            chain /= max(1.0, abs(record.we2))
            worst = max(worst, chain)
            assert chain <= 1e-9, (record.curve, record.scheme, "we3*cr=we2")
            checked += 1
    assert checked >= 60
    _passed(
        "merit/weighted-measure identities hold on every study record",
        f"{checked} records, max relative residual {worst:.3g}",
    )


def _strict_descent_m(curve, costs, kind, target):
    """Vertex count near target where the profile drops on both sides.

    Plateaus make the interpolated vertex count credit a smaller m, so
    the fixed-point check below needs a genuinely strict step.
    """
    n = curve.n
    for delta in range(11):
        cands = [target] if delta == 0 else [target - delta, target + delta]
        for cand in cands:
            if cand < 4 or 3 * cand < cand + 1 or cand + 1 > min(n, 3 * cand):
                continue
            start = select_start_vertex(curve, cand, kind, costs)
            prof = costs.profile(start, min(n, 3 * cand), kind)
            v = prof.values
            gap = 1e-6 * (1.0 + v[cand - 1])
            if v[cand] < v[cand - 1] - gap and v[cand + 1] < v[cand] - gap:
                return cand, start
    raise AssertionError(f"no strict descent near m={target} on {curve.name}")


def test_04_optimal_polygon_scores_100_against_itself(corpus):
    worst = 0.0
    for curve in corpus:
        costs = SegmentCosts(curve)
        target = auto_target_m(curve, 15.0)
        for kind in BOTH_KINDS:
            m_sub, start = _strict_descent_m(curve, costs, kind, target)
            poly = costs.polygon(start, m_sub, kind)
            assert start in poly.indices
            baseline = baseline_for(curve, poly, kind, costs)
            assert baseline.start_index == start
            e2, emax = polygon_errors(curve, poly)
            if kind is CostKind.SUM_SQUARED:
                bd = rosin_merit(e2, m_sub, baseline)
            else:
                bd = rosin_merit(emax, m_sub, baseline)
            worst = max(worst, abs(bd.merit - 100.0))
            assert abs(bd.merit - 100.0) <= 1e-6, (curve.name, kind)
    _passed(
        "optimal polygons score merit 100 against their own baseline",
        f"both cost kinds, worst deviation {worst:.3g}",
    )


def test_05_compression_ratio_example():
    cr = compression_ratio(1578, 77)
    assert f"{cr:.2f}" == "20.49"
    _passed("1578 points over 77 vertices compresses at 20.49", f"cr={cr!r}")


def test_06_correlations_stay_far_from_unity(study_reports):
    worst = 0.0
    for report in study_reports:
        assert len(report.records) >= 20
        assert not report.skipped_pairings, report.skipped_pairings
        for key, r in report.pearson.items():
            assert math.isfinite(r), (report.scheme, key)
            worst = max(worst, abs(r))
            assert abs(r) <= 0.9, (report.scheme, key, r)
    _passed(
        "weighted-vs-merit correlations are nowhere near unity",
        f"{len(study_reports)} schemes x {len(PAIRINGS)} pairings, max |r| {worst:.4f}",
    )


def _pearson_direct(xs, ys):
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def test_07_pearson_against_direct_covariance():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
    assert pearson([0, 1, 2], [0, 1, 0]) == 0.0
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        xs = [float(v) for v in rng.normal(0.0, 5.0, size=20)]
        ys = [float(v) for v in rng.normal(1.0, 3.0, size=20)]
        worst = max(worst, abs(pearson(xs, ys) - _pearson_direct(xs, ys)))
    assert worst <= 1e-12
    _passed(
        "pearson matches an independent covariance computation",
        f"3 exact cases, 10 random 20-point series, max diff {worst:.3g}",
    )


def test_08_schemes_emit_exact_vertex_counts(corpus):
    polys = 0
    for curve in corpus:
        m = auto_target_m(curve, 15.0)
        for scheme in SchemeId:
            poly = apply_scheme(scheme, curve, m)
            idx = poly.indices
            assert len(idx) == m
            assert len(set(int(i) for i in idx)) == m
            assert all(0 <= i < curve.n for i in idx)
            assert all(idx[i] < idx[i + 1] for i in range(m - 1))
            e2_before, _ = polygon_errors(curve, poly)
            stab = stabilize(curve, poly)
            e2_after, _ = polygon_errors(curve, stab)
            assert e2_after <= e2_before + 1e-12 * (1.0 + e2_before), (
                curve.name,
                scheme,
            )
            polys += 1
    _passed(
        "every scheme returns exactly m distinct vertices; stabilize never hurts",
        f"{polys} polygons across {len(corpus)} curves",
    )


def test_09_study_outputs_are_reproducible(corpus, study_reports):
    again = run_study(corpus)
    first = study_outputs(study_reports)
    second = study_outputs(again)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    _passed(
        "consecutive study runs emit byte-identical CSV and SVG",
        f"{len(first)} artifacts compared",
    )


def _rigid(points, theta, tx, ty):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T + np.array([tx, ty])


def test_10_errors_transform_predictably():
    rng = np.random.default_rng(99)
    worst_rigid = 0.0
    worst_scale = 0.0
    for seed in range(300, 320):
        curve = lattice_ring(seed, n_lo=8, n_hi=14)
        pts = curve.points_float()
        m = int(rng.integers(4, min(8, curve.n) + 1))
        idx = sorted(int(i) for i in rng.choice(curve.n, size=m, replace=False))
        e2, emax = polygon_errors_points(pts, idx)

        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        tx, ty = (float(v) for v in rng.uniform(-50.0, 50.0, size=2))
        moved = _rigid(pts, theta, tx, ty)
        e2_r, emax_r = polygon_errors_points(moved, idx)
        worst_rigid = max(worst_rigid, abs(e2_r - e2), abs(emax_r - emax))
        assert abs(e2_r - e2) <= 1e-6
        assert abs(emax_r - emax) <= 1e-6

        d = perpendicular_distance(pts[0], pts[2], pts[1])
        d_r = perpendicular_distance(moved[0], moved[2], moved[1])
        worst_rigid = max(worst_rigid, abs(d_r - d))
        assert abs(d_r - d) <= 1e-6

        s = float(rng.uniform(0.3, 9.0))
        e2_s, emax_s = polygon_errors_points(pts * s, idx)
        rel = max(
            abs(e2_s - s * s * e2) / max(1.0, abs(s * s * e2)),
            abs(emax_s - s * emax) / max(1.0, abs(s * emax)),
        )
        d_s = perpendicular_distance(pts[0] * s, pts[2] * s, pts[1] * s)
        rel = max(rel, abs(d_s - s * d) / max(1.0, abs(s * d)))
        worst_scale = max(worst_scale, rel)
        assert rel <= 1e-9
    _passed(
        "errors are rigid-motion invariant and scale linearly/quadratically",
        f"20 curves, worst rigid drift {worst_rigid:.3g}, "
        f"worst scaling residual {worst_scale:.3g}",
    )
