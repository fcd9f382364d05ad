import gc
import hashlib
import math
import statistics
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from polyapprox import (
    AllZero,
    ConstantSeries,
    CostKind,
    DigitalCurve,
    LengthMismatch,
    MeasureSeries,
    PolyApproxError,
    SchemeId,
    SegmentCosts,
    apply_scheme,
    auto_target_m,
    build_record,
    direction_agreement,
    emit_svg_line_diagram,
    evaluate_curve,
    pearson,
    run_study,
    scale_for_plot,
    study_series,
)
from polyapprox import _kernels, approx_error, measures, optimal, schemes, study
from polyapprox.study import (
    PAIRINGS,
    correlations_csv,
    pairing_slug,
    records_csv,
    study_outputs,
)
from polyapprox._kernels import EXACT_SPAN
from conftest import baseline_for, build_corpus, lattice_ring, square_ring, wide_ring


def scaled_square8(scale):
    pts = np.array([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)])
    return DigitalCurve(pts * scale, name=f"sq{scale}")


def test_pearson_perfect_lines():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_pearson_symmetric_cancellation():
    assert pearson([0, 1, 2], [0, 1, 0]) == 0.0


def test_pearson_frozen_five_point():
    # frozen from exact Fraction arithmetic
    r = pearson([1, 2, 4, 5, 8], [3, 2, 7, 6, 10])
    assert r == pytest.approx(0.9386522045811475, abs=1e-15)


def test_pearson_matches_stdlib():
    rng = np.random.default_rng(77)
    for _ in range(10):
        xs = rng.normal(size=20)
        ys = 0.3 * xs + rng.normal(size=20)
        assert pearson(xs, ys) == pytest.approx(
            statistics.correlation(list(xs), list(ys)), abs=1e-12
        )


def test_pearson_stays_clipped():
    xs = [1e-8 * k for k in range(3)]
    assert abs(pearson(xs, xs)) <= 1.0


def test_pearson_input_checks():
    with pytest.raises(LengthMismatch):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [3, 4])
    with pytest.raises(ConstantSeries):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(ConstantSeries):
        pearson([1, 2, 3], [7, 7, 7])


def test_direction_agreement_hand_cases():
    assert direction_agreement([1, 2, 1], [2, 3, 1]) == [True, True]
    assert direction_agreement([1, 2], [2, 1], inverse_pairing=True) == [True]
    assert direction_agreement([1, 1], [1, 2]) == [False]
    # zero steps only agree with zero steps, inverted or not
    assert direction_agreement([1, 1], [2, 2]) == [True]
    assert direction_agreement([1, 1], [2, 2], inverse_pairing=True) == [True]


def test_direction_agreement_checks():
    with pytest.raises(LengthMismatch):
        direction_agreement([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        direction_agreement([1], [1])


def test_scale_for_plot():
    s = MeasureSeries("raw", ("a", "b", "c"), (1.0, 2.0, 4.0))
    t = scale_for_plot(s)
    assert t.values == (25.0, 50.0, 100.0)
    assert t.label.startswith("raw (x")
    assert direction_agreement(s.values, t.values) == [True, True]


def test_scale_for_plot_peak_already_100():
    s = MeasureSeries("m", ("a", "b"), (100.0, 100.0))
    t = scale_for_plot(s)
    assert t.values == (100.0, 100.0)


def test_scale_for_plot_all_zero():
    with pytest.raises(AllZero):
        scale_for_plot(MeasureSeries("z", ("a",), (0.0,)))


def test_measure_series_validation():
    with pytest.raises(LengthMismatch):
        MeasureSeries("bad", ("a", "b"), (1.0,))
    with pytest.raises(LengthMismatch):
        MeasureSeries("bad", ("a",), (math.inf,))


def test_run_study_structure():
    corpus = build_corpus()[:4]
    reports = run_study(corpus, target_cr=15.0)
    assert [r.scheme for r in reports] == list(SchemeId)
    for rep in reports:
        assert len(rep.records) == 4
        assert set(rep.pearson) == {k for k, *_ in PAIRINGS}
        for key in rep.agreement:
            assert len(rep.agreement[key]) == 3
        assert not rep.skipped_curves
        for rec in rep.records:
            assert rec.scheme == rep.scheme.value


def test_run_study_calls_apply_scheme_with_three_positional_arguments(monkeypatch):
    # perfbench/spans.py traces the schemes through a wrapper of exactly
    # this signature; another argument would crash every traced run
    original = study.apply_scheme
    calls = []

    def wrapper(scheme, crv, m):
        calls.append(scheme)
        return original(scheme, crv, m)

    monkeypatch.setattr(study, "apply_scheme", wrapper)
    corpus = build_corpus()[:3]
    reports = run_study(corpus, target_cr=15.0)
    assert calls == list(SchemeId) * len(corpus)
    assert all(len(rep.records) == len(corpus) for rep in reports)
    # the study keeps no curve's E2 table once it returns
    for curve in corpus:
        assert approx_error._E2_TABLES[curve]() is None


def _profile_solves(monkeypatch, corpus, cr):
    """Per (curve, kind), in order, the (m_max, bound) of every profile
    solve a study at cr asks for, through a wrapper of
    SegmentCosts._solve with exactly the positional arguments
    perfbench/spans.py traces it with; another argument would crash
    every traced run."""
    original = SegmentCosts._solve
    asked = {}

    def wrapper(self, start, m_max, kind):
        asked.setdefault((self.curve, kind), []).append((m_max, self._bounds[kind]))
        return original(self, start, m_max, kind)

    monkeypatch.setattr(SegmentCosts, "_solve", wrapper)
    reports = run_study(corpus, target_cr=cr)
    monkeypatch.undo()
    assert not reports[0].skipped_curves
    return asked


def test_profiles_solve_to_m_sub_unless_a_scheme_beats_it(monkeypatch):
    # each kind's profile goes to m_sub on a table built to U_m(p0), and
    # on to 3 m_sub only where some scheme's error is below the optimal
    # error at m_sub; a solve is repeated at its depth only on a table
    # rebuilt at a larger bound, for an error or a value read above the
    # bound.  On the seed-0 corpus, at cr 15 no scheme beats m_sub and 3
    # of the 44 profiles are rebuilt once; at cr 30, 5 go deeper and 14
    # are rebuilt, 7 of them twice
    corpus = build_corpus()
    for cr, total, deep, rebuilt in ((15.0, 47, 0, 3), (30.0, 70, 5, 14)):
        solves = _profile_solves(monkeypatch, corpus, cr)
        assert len(solves) == 2 * len(corpus)
        assert sum(map(len, solves.values())) == total
        deeper = again = 0
        for (curve, kind), seq in solves.items():
            m_sub = auto_target_m(curve, cr)
            p0 = optimal.provisional_start_vertex(curve)
            assert seq[0] == (m_sub, SegmentCosts(curve).gon_cost(p0, m_sub, kind))
            for (m0, b0), (m1, b1) in zip(seq, seq[1:]):
                assert (m1 == min(curve.n, 3 * m_sub) > m0 == m_sub and b1 == b0
                        or m1 == m0 and b1 > b0), (curve.name, kind)
            deeper += any(m != m_sub for m, _ in seq)
            again += seq[-1][1] != seq[0][1]
        assert (deeper, again) == (deep, rebuilt), cr


def _full_depth_records(curve, m_sub):
    """evaluate_curve's records with every profile solved to 3 m_sub (at
    most n), by baseline_for."""
    costs = SegmentCosts(curve)
    out = {}
    for scheme in SchemeId:
        poly = apply_scheme(scheme, curve, m_sub)
        b_e2, b_em = (baseline_for(curve, poly, kind, costs) for kind in CostKind)
        out[scheme] = build_record(curve, poly, b_e2, b_em, curve_id=curve.name,
                                   scheme=scheme.value)
    return out


def _outcome(evaluate, curve, m_sub):
    """Each record's repr (exact floats, NaN equal to NaN), or the name
    of the error the evaluation raised."""
    try:
        return {scheme: repr(rec) for scheme, rec in evaluate(curve, m_sub).items()}
    except PolyApproxError as exc:
        return type(exc).__name__


def _study_records(curve, m_sub):
    return evaluate_curve(curve, None, tuple(SchemeId), m_sub, "printed")


def _assert_full_depth_records(corpus, cr):
    for curve in corpus:
        m_sub = auto_target_m(curve, cr)
        got = _outcome(_study_records, curve, m_sub)
        assert isinstance(got, dict)
        assert got == _outcome(_full_depth_records, curve, m_sub), curve.name


@pytest.mark.parametrize("cr", [8.0, 15.0, 30.0])
def test_evaluate_curve_matches_the_full_depth_profiles_on_the_corpus(cr):
    _assert_full_depth_records(build_corpus(), cr)


@pytest.mark.parametrize("seed", [1, 2])
def test_evaluate_curve_matches_the_full_depth_profiles_on_held_out_corpora(seed):
    # cr 30, where a table is rebuilt at a larger bound most often
    _assert_full_depth_records(build_corpus(seed), 30.0)


@pytest.mark.parametrize("lowered", ["below_the_errors", "to_the_errors"])
def test_evaluate_curve_rebuilds_for_reads_above_the_bound(lowered, monkeypatch):
    # each kind's profile solved on a table rebuilt, after the
    # select-start solves, at half the largest scheme error, so that it
    # is rebuilt for the errors, or at that error, so that it is rebuilt
    # for the values read above it: the records are still the full-depth
    # ones
    original = study._kind_baselines
    rebuilds = []

    def lower(costs, kind, start, m_sub, m_max, errors):
        bound = max(errors) * (0.5 if lowered == "below_the_errors" else 1.0)
        costs.set_bound(kind, bound)
        out = original(costs, kind, start, m_sub, m_max, errors)
        rebuilds.append(costs._bounds[kind] != bound)
        return out

    monkeypatch.setattr(study, "_kind_baselines", lower)
    for cr in (8.0, 15.0, 30.0):
        rebuilds.clear()
        _assert_full_depth_records(build_corpus()[::3], cr)
        assert all(rebuilds) if lowered == "below_the_errors" else any(rebuilds), cr


# sha256 of the seed-0 corpus study's records.csv and correlations.csv;
# perfbench/digests.json pins them at cr 15
STUDY_DIGESTS = {
    8.0: ("26b219e6018cd200c5962061624e4efaab9cdfaee6c7329c768a6fb655af6009",
          "411aca05ed949df2c03d42df3fa26de5c6e421f5e18c990891c438646eb7992e"),
    30.0: ("ed2a0d416316374c3c2460b2edfe8528798be19299712a5a1ff9b7fec8c4696e",
           "84325ed08c5ab467fb611f494196556d37f56d4edcff2ba522c413ed916bc9aa"),
}


@pytest.mark.parametrize("cr", sorted(STUDY_DIGESTS))
def test_study_outputs_keep_their_digests_at_other_ratios(cr):
    reports = run_study(build_corpus(), target_cr=cr)
    got = tuple(hashlib.sha256(emit(reports).encode("ascii")).hexdigest()
                for emit in (records_csv, correlations_csv))
    assert got == STUDY_DIGESTS[cr]


@pytest.mark.parametrize("cr", [3.0, 5.0])
def test_evaluate_curve_matches_the_full_depth_profiles_on_lattice_rings(cr):
    # small rings whose rows clamp at both ends of the profile
    clamped = 0
    for seed in range(40):
        curve = lattice_ring(seed)
        m_sub = auto_target_m(curve, cr)
        got = _outcome(_study_records, curve, m_sub)
        assert got == _outcome(_full_depth_records, curve, m_sub), seed
        if isinstance(got, dict):
            clamped += sum("clamped=True" in rec for rec in got.values())
    assert clamped


def test_run_study_with_no_schemes_reports_nothing():
    assert run_study(build_corpus()[:2], schemes=()) == []


def test_run_study_exact_fit_corpus_skips_pairings():
    # squares at three scales: every scheme lands on the 4 corners
    corpus = [scaled_square8(s) for s in (1, 2, 3)]
    reports = run_study(corpus, target_cr=2.0)
    for rep in reports:
        assert all(rec.rosin.merit == 100.0 for rec in rep.records)
        assert all(rec.e2 == 0.0 for rec in rep.records)
        # reciprocal pairings die on 1/0, direct ones on constant series
        for key in ("we", "we2", "we_inf"):
            assert "reciprocal" in rep.skipped_pairings[key]
            assert math.isnan(rep.pearson[key])
        for key in ("we3", "fg"):
            assert "ConstantSeries" in rep.skipped_pairings[key]
    # a skipped pairing gets no line diagram
    assert list(study_outputs(reports)) == ["records.csv", "correlations.csv"]


def test_run_study_names_unnamed_curves():
    pts = np.array([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)])
    corpus = [DigitalCurve(pts), DigitalCurve(pts + 5), DigitalCurve(pts * 3)]
    reports = run_study(corpus, target_cr=2.0)
    ids = [rec.curve_id for rec in reports[0].records]
    assert ids == ["curve000", "curve001", "curve002"]


def test_run_study_skips_degenerate_curve_and_continues():
    # second curve has coincident non-consecutive points
    good = scaled_square8(2)
    bad = DigitalCurve(np.array([[0, 0], [1, 0], [0, 0], [-1, 0]]) + 9, name="pinch")
    reports = run_study([good, bad], target_cr=2.0)
    for rep in reports:
        assert len(rep.records) == 1
        assert len(rep.skipped_curves) == 1
        cid, reason = rep.skipped_curves[0]
        assert cid == "pinch"
        assert "DegenerateSegment" in reason


def test_run_study_at_a_nan_ratio_skips_every_curve_as_below_one():
    corpus = [scaled_square8(2), scaled_square8(3)]
    nan = run_study(corpus, target_cr=float("nan"))
    half = run_study(corpus, target_cr=0.5)
    assert all(len(rep.skipped_curves) == 2 for rep in nan)
    assert repr(nan) == repr(half).replace("got 0.5", "got nan")


def test_run_study_computes_each_polygons_errors_once(monkeypatch):
    # evaluate_curve hands the errors it scored the baselines with to
    # build_record, which then computes none
    calls = []
    real = study.polygon_errors

    def counted(curve, poly):
        calls.append((curve.name, poly.m))
        return real(curve, poly)

    monkeypatch.setattr(study, "polygon_errors", counted)
    monkeypatch.setattr(measures, "polygon_errors", counted)
    corpus = build_corpus()[:2]
    reports = run_study(corpus, target_cr=15.0)
    assert len(calls) == len(corpus) * len(SchemeId)
    assert all(len(rep.records) == len(corpus) for rep in reports)


def test_evaluate_curve_reads_past_the_held_rows_by_the_closed_form(monkeypatch):
    # one rule for every E2 that approx_error evaluates during
    # evaluate_curve, on any corpus curve at cr 8, 15 or 30: each arc the
    # closed form is given, on arrays or one at a time, has a span at or
    # past the rows of the E2 table held at that moment (0 with none
    # held).  At cr 30 some scheme reads past the rows of a held table,
    # so the check is not vacuous
    curve, past_held = None, []

    def held_rows():
        ref = approx_error._E2_TABLES.get(curve)
        table = None if ref is None else ref()
        return 0 if table is None else table.shape[0]

    def check(u, v, cr):
        rows = held_rows()
        assert np.all((np.asarray(v) - u) % curve.n >= rows), (curve.name, cr)
        if rows:
            past_held.append(cr)

    e2_arc_costs, arc_e2 = _kernels.e2_arc_costs, approx_error._arc_e2

    def arrays(xs, ys, prefixes, u, v):
        if sys._getframe(1).f_globals["__name__"] == approx_error.__name__:
            check(u, v, cr)
        return e2_arc_costs(xs, ys, prefixes, u, v)

    def one(xs, ys, prefixes, n, u, v):
        check(u, v, cr)
        return arc_e2(xs, ys, prefixes, n, u, v)

    monkeypatch.setattr(_kernels, "e2_arc_costs", arrays)
    monkeypatch.setattr(approx_error, "_arc_e2", one)
    for curve in build_corpus():
        for cr in (8.0, 15.0, 30.0):
            evaluate_curve(curve, None, tuple(SchemeId), auto_target_m(curve, cr), "printed")
    assert 30.0 in past_held


def test_back_to_back_studies_keep_no_per_curve_state():
    # five studies of fresh curves, each dropped after its study: no
    # curve's E2 table or elimination outlives it, and the traced memory
    # grows by less than `bound` over the four rounds after the first.
    # Those rounds grew by 17-27 KB on python 3.11 with numpy 2.4, 1.5-8
    # KB a round and falling, in small blocks (tuples among them) that
    # the interpreter keeps on its free lists, which tracemalloc still
    # counts.  A loop of plain tuple builds, with no numpy, creeps alike
    # and stops once the lists are full (about 96 KB after 500 rounds),
    # and back-to-back studies level off at about 47 KB after 125 rounds.
    # A curve of this subset holds about 5.5 KB of points, 28 KB of
    # doubled prefixes and 0.6 MB of E2 table, so leaking every round's
    # curves, their prefixes or any one table crosses the bound
    bound = 64_000
    subset = [(c.points, c.name) for c in build_corpus()[:4]]
    maps = (approx_error._E2_TABLES, schemes._ELIMINATED)
    gc.collect()
    # entries of curves other tests keep alive, as session fixtures: none
    # when this test runs alone
    before = [len(m) for m in maps]

    def one_round():
        curves = [DigitalCurve(pts, name=name) for pts, name in subset]
        run_study(curves, target_cr=15.0)
        alive = [weakref.ref(c) for c in curves]
        del curves
        gc.collect()
        assert [r() for r in alive] == [None] * len(alive)
        assert all(len(m) <= k for m, k in zip(maps, before))

    tracemalloc.start()
    try:
        one_round()
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            one_round()
        growth = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert growth < bound


def test_run_study_skips_a_curve_too_large_with_one_warning(caplog):
    reports = run_study([scaled_square8(2), square_ring(5000)], target_cr=2.0)
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "square5000" in warnings[0].getMessage()
    for rep in reports:
        assert len(rep.records) == 1
        [(cid, reason)] = rep.skipped_curves
        assert cid == "square5000"
        assert reason.startswith("CurveTooLarge: n=20000 points need about 38.4 GB")


def test_run_study_skips_a_curve_too_wide_with_one_warning(caplog):
    wide = wide_ring(EXACT_SPAN)
    reports = run_study([scaled_square8(2), wide], target_cr=2.0)
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert wide.name in warnings[0].getMessage()
    for rep in reports:
        assert len(rep.records) == 1
        [(cid, reason)] = rep.skipped_curves
        assert cid == wide.name
        assert reason.startswith("CurveTooLarge: coordinates span 67108864 by 5")


def test_study_series_labels_and_values():
    corpus = build_corpus()[:4]
    reports = run_study(corpus, target_cr=15.0)
    rep = reports[0]
    weighted, merit = study_series(rep, "we")
    assert weighted.label == "1/we"
    assert merit.label == "merit"
    assert weighted.values == tuple(1.0 / r.we for r in rep.records)
    direct, merit2 = study_series(rep, "fg")
    assert direct.label == "fg"
    assert direct.values == tuple(r.fg for r in rep.records)
    w3, m3 = study_series(rep, "we_inf")
    assert m3.label == "merit_emax"
    assert m3.values == tuple(r.rosin_emax.merit for r in rep.records)


def test_svg_minimal_two_points():
    a = MeasureSeries("a", ("p", "q"), (10.0, 100.0))
    b = MeasureSeries("b", ("p", "q"), (100.0, 40.0))
    svg = emit_svg_line_diagram(a, b, [False])
    text = svg.decode("ascii")
    assert text.startswith("<svg ")
    assert text.endswith("</svg>\n")
    assert text.count("<polyline") == 2
    # one step line (blue: disagree) plus two black axes
    assert text.count('stroke="blue" stroke-width="1"') == 1
    assert text.count('stroke="black"') == 2


def test_svg_agree_flags_color_step_lines():
    a = MeasureSeries("a", ("p", "q", "r"), (1.0, 2.0, 3.0))
    b = MeasureSeries("b", ("p", "q", "r"), (2.0, 3.0, 4.0))
    svg = emit_svg_line_diagram(a, b, [True, True]).decode("ascii")
    assert svg.count('stroke="yellow" stroke-width="1"') == 2
    assert svg.count('stroke="blue" stroke-width="1"') == 0


def test_svg_byte_deterministic():
    a = MeasureSeries("a", ("p", "q", "r"), (5.0, 80.0, 33.3))
    b = MeasureSeries("b", ("p", "q", "r"), (60.0, 22.0, 91.0))
    assert emit_svg_line_diagram(a, b, [True, False]) == emit_svg_line_diagram(
        a, b, [True, False]
    )


def test_svg_length_checks():
    a = MeasureSeries("a", ("p", "q"), (1.0, 2.0))
    b = MeasureSeries("b", ("p", "q", "r"), (1.0, 2.0, 3.0))
    with pytest.raises(LengthMismatch):
        emit_svg_line_diagram(a, b, [True])
    c = MeasureSeries("c", ("p", "q"), (3.0, 4.0))
    with pytest.raises(LengthMismatch):
        emit_svg_line_diagram(a, c, [True, False])


def test_csv_emitters():
    corpus = build_corpus()[:3]
    reports = run_study(corpus, target_cr=15.0)
    rcsv = records_csv(reports)
    lines = rcsv.strip().split("\n")
    assert lines[0].startswith("curve,scheme,")
    assert len(lines) == 1 + 3 * len(SchemeId)
    ccsv = correlations_csv(reports)
    clines = ccsv.strip().split("\n")
    assert clines[0] == "scheme,pairing,r,n_curves"
    assert len(clines) == 1 + len(SchemeId) * len(PAIRINGS)
    assert pairing_slug("we_inf") == "meritemax_vs_recip_weinf"
    files = study_outputs(reports)
    slugs = ["merit_vs_recip_we", "merit_vs_recip_we2", "merit_vs_we3",
             "meritemax_vs_recip_weinf", "merit_vs_fg"]
    assert list(files) == ["records.csv", "correlations.csv"] + [
        f"{scheme}_{slug}.svg" for scheme in ("split", "elim", "elim-stab") for slug in slugs
    ]
    assert files["records.csv"] == rcsv.encode("ascii")
    assert files["correlations.csv"] == ccsv.encode("ascii")
    weighted, merit = study_series(reports[1], "we3")
    assert files["elim_merit_vs_we3.svg"] == emit_svg_line_diagram(
        scale_for_plot(weighted), scale_for_plot(merit), reports[1].agreement["we3"]
    )
