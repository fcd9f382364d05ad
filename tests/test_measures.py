import math

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    InvalidGeometry,
    OptimalBaseline,
    PolygonApprox,
    ZeroError,
    build_record,
    curve_geometry,
    fg_measure,
    figure_of_merit,
    record_for_polygon,
    rosin_merit,
    theorem_identity_check,
    weighted_foms,
)
from polyapprox.measures import CSV_HEADER, record_to_csv_row
from polyapprox.schemes import eliminate_to_m
from conftest import lattice_ring


def test_figure_of_merit():
    assert figure_of_merit(1.0, 1.0) == 1.0
    assert figure_of_merit(12.5, 3.2) == 3.90625
    # published contour scale: cr 20.4935, e2 689.55
    assert figure_of_merit(20.4935, 689.55) == pytest.approx(
        0.029720107, rel=1e-7
    )
    with pytest.raises(ZeroError):
        figure_of_merit(5.0, 0.0)


def test_weighted_family_hand_values():
    w = weighted_foms(20.0, 500.0, 2.0)
    assert w == {"we": 25.0, "we2": 1.25, "we3": 0.0625, "we_inf": 0.1}


def test_weighted_family_exact_fit_is_zero():
    w = weighted_foms(4.0, 0.0, 0.0)
    assert set(w.values()) == {0.0}


def test_weighted_family_unit_cr_collapses():
    w = weighted_foms(1.0, 7.5, 3.0)
    assert w["we"] == w["we2"] == w["we3"] == 7.5
    assert w["we_inf"] == 3.0


def test_rosin_merit_hand_values():
    b = OptimalBaseline(error_optimal=50.0, m_optimal=8.0, start_index=0)
    r = rosin_merit(100.0, 10, b)
    assert r.fidelity == 50.0
    assert r.efficiency == 80.0
    # sqrt(4000), frozen from a 50-digit evaluation
    assert r.merit == pytest.approx(63.245553203367585, rel=1e-15)


def test_rosin_merit_emax_hand_values():
    b = OptimalBaseline(error_optimal=1.0, m_optimal=6.0, start_index=0)
    r = rosin_merit(2.0, 8, b)
    assert r.fidelity == 50.0
    assert r.efficiency == 75.0
    # sqrt(3750)
    assert r.merit == pytest.approx(61.237243569579455, rel=1e-15)


def test_rosin_merit_self_comparison_is_100():
    b = OptimalBaseline(error_optimal=42.0, m_optimal=9.0, start_index=0)
    r = rosin_merit(42.0, 9, b)
    assert (r.fidelity, r.efficiency, r.merit) == (100.0, 100.0, 100.0)


def test_rosin_merit_exact_fit_rule():
    b = OptimalBaseline(error_optimal=0.0, m_optimal=4.0, start_index=0)
    r = rosin_merit(0.0, 4, b)
    assert r.merit == 100.0
    # a zero suboptimal error with a nonzero optimal one is contradictory
    bad = OptimalBaseline(error_optimal=3.0, m_optimal=4.0, start_index=0)
    with pytest.raises(ZeroError):
        rosin_merit(0.0, 4, bad)


def test_rosin_merit_carries_baseline_fields():
    b = OptimalBaseline(error_optimal=5.0, m_optimal=6.5, start_index=3, clamped=True)
    r = rosin_merit(20.0, 10, b)
    assert r.error_optimal == 5.0
    assert r.m_optimal == 6.5
    assert r.clamped is True


def test_fg_measure_zero_error():
    # sigmoid at zero is 1/2, so the error term is exactly 1 + c
    assert fg_measure(20.0, 0.0, 5.0, "printed") == 1.025
    assert fg_measure(20.0, 0.0, 5.0, "unit") == 0.025


def test_fg_measure_unit_ratio_case():
    # cr=10, e2=25, d=5: exponent is exactly -1; frozen 50-digit values
    assert fg_measure(10.0, 25.0, 5.0, "printed") == pytest.approx(
        1.2810585786300049, rel=1e-15
    )
    assert fg_measure(10.0, 25.0, 5.0, "unit") == pytest.approx(
        0.2810585786300049, rel=1e-14
    )


def test_fg_measure_large_error_limit():
    # sigmoid saturates at 1, printed variant tends to (1/cr + 3) / 2
    v = fg_measure(4.0, 1e9, 1.0, "printed")
    assert v == pytest.approx(0.5 * (0.25 + 3.0), rel=1e-12)


def test_fg_measure_rejects_bad_inputs():
    with pytest.raises(InvalidGeometry):
        fg_measure(10.0, 4.0, 0.0)
    with pytest.raises(InvalidGeometry):
        fg_measure(10.0, 4.0, -1.0)
    with pytest.raises(InvalidGeometry):
        fg_measure(10.0, 4.0, 5.0, variant="fancy")


def test_build_record_fields():
    c = lattice_ring(40)
    poly = eliminate_to_m(c, 4)
    rec = record_for_polygon(c, poly, scheme="elim")
    assert rec.curve_id == c.name
    assert rec.scheme == "elim"
    assert rec.n == c.n and rec.m == 4
    assert rec.cr == c.n / 4
    assert rec.we == pytest.approx(rec.e2 / rec.cr, rel=1e-15)
    assert rec.we2 == pytest.approx(rec.e2 / rec.cr**2, rel=1e-15)
    assert rec.we3 == pytest.approx(rec.we2 / rec.cr, rel=1e-15)
    assert rec.we_inf == pytest.approx(rec.emax / rec.cr, rel=1e-15)
    if rec.e2 > 0:
        assert rec.fom == pytest.approx(rec.cr / rec.e2, rel=1e-15)
    g = curve_geometry(c)
    assert rec.fg == pytest.approx(fg_measure(rec.cr, rec.e2, g.d), rel=1e-15)


def test_build_record_with_explicit_baselines():
    c = lattice_ring(41)
    poly = eliminate_to_m(c, 5)
    from polyapprox import optimal_baseline

    b_e2 = optimal_baseline(c, poly, CostKind.SUM_SQUARED)
    b_em = optimal_baseline(c, poly, CostKind.MAX_ERROR)
    rec = build_record(c, poly, b_e2, b_em, curve_id="x", scheme="elim")
    assert rec.curve_id == "x"
    assert rec.rosin.error_optimal == b_e2.error_optimal
    assert rec.rosin_emax.error_optimal == b_em.error_optimal
    assert 0.0 < rec.rosin.merit <= 100.0 + 1e-9


def test_theorem_identities_on_pipeline_output():
    for seed in (50, 51, 52, 53):
        c = lattice_ring(seed)
        poly = eliminate_to_m(c, 5)
        rec = record_for_polygon(c, poly, scheme="elim")
        res = theorem_identity_check(rec)
        assert set(res) == {"sum_sq", "sum_sq_squared_cr", "max_error"}
        for name, r in res.items():
            assert r <= 1e-9, (seed, name, r)


def test_theorem_identities_self_comparison(square8):
    poly = PolygonApprox(square8, [0, 2, 4, 6])
    rec = record_for_polygon(square8, poly, scheme="elim")
    assert rec.rosin.merit == 100.0
    res = theorem_identity_check(rec)
    assert all(r == 0.0 for r in res.values())


def test_csv_row_shape():
    c = lattice_ring(44)
    poly = eliminate_to_m(c, 4)
    rec = record_for_polygon(c, poly, scheme="elim")
    row = record_to_csv_row(rec)
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == c.name
    assert fields[1] == "elim"
    assert fields[2] == str(c.n)
    assert fields[-1] in ("true", "false")
    # numeric fields round-trip
    assert float(fields[4]) == rec.cr
    assert float(fields[15]) == rec.rosin.merit
