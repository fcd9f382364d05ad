import math
import warnings

import numpy as np
import pytest

from polyapprox import (
    DigitalCurve,
    DuplicateConsecutive,
    InvalidDigit,
    MalformedLine,
    NotClosed,
    TooFewPoints,
    centroid,
    chain_code_of,
    curve_geometry,
    inertia_line,
    curve,
    load_curve,
    parse_chain_code,
    parse_point_list,
)
from conftest import lattice_ring


def test_curve_basic():
    c = DigitalCurve(np.array([[0, 0], [4, 0], [4, 4], [0, 4]]))
    assert c.n == 4
    assert len(c) == 4
    assert c.point(0) == (0, 0)
    assert c.point(5) == (4, 0)     # circular
    assert c.point(-1) == (0, 4)
    assert c.points.dtype == np.int64


def test_curve_points_frozen():
    c = DigitalCurve(np.array([[0, 0], [4, 0], [4, 4]]))
    with pytest.raises(ValueError):
        c.points[0, 0] = 9


def test_curve_rejects_bad_shapes():
    with pytest.raises(MalformedLine):
        DigitalCurve(np.array([0, 1, 2]))
    with pytest.raises(MalformedLine):
        DigitalCurve(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(TooFewPoints):
        DigitalCurve(np.array([[0, 0], [1, 0]]))


def test_curve_rejects_consecutive_duplicates():
    with pytest.raises(DuplicateConsecutive):
        DigitalCurve(np.array([[0, 0], [0, 0], [1, 1]]))
    # wraparound pair counts too
    with pytest.raises(DuplicateConsecutive):
        DigitalCurve(np.array([[0, 0], [1, 0], [1, 1], [0, 0]]))


@pytest.mark.parametrize("bad", [
    [[0.5, 0.0], [4.9, 0.0], [4.0, 4.7], [0.0, 4.0]],   # would truncate to a square
    [[1e19, 0.0], [1.0, 1.0], [2.0, 0.0]],              # would wrap past int64
    [[math.nan, 0.0], [1.0, 1.0], [2.0, 0.0]],
    np.array([[2**63, 0], [1, 1], [2, 0]], dtype=np.uint64),
    [[10**20, 0], [1, 1], [2, 0]],                     # a Python int past int64
])
def test_curve_rejects_coordinates_that_are_not_int64(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedLine, match="64-bit integers"):
            DigitalCurve(bad)


def test_curve_accepts_integral_floats_and_int_pairs():
    square = [[0, 0], [4, 0], [4, 4], [0, 4]]
    for pts in (np.array(square, dtype=np.float64), square, np.array(square, np.uint64)):
        c = DigitalCurve(pts)
        assert c.points.dtype == np.int64
        assert c.points.tolist() == square


def test_curve_copies_a_callers_int64_array():
    pts = np.array([[0, 0], [4, 0], [4, 4]], dtype=np.int64)
    c = DigitalCurve(pts)
    assert c.points is not pts
    pts[0, 0] = 9  # the caller's array stays writable
    assert c.point(0) == (0, 0)


def test_parse_point_list():
    c = parse_point_list("0 0\n4 0\n4 4\n0 4")
    assert c.n == 4
    assert c.point(2) == (4, 4)


def test_parse_point_list_skips_blank_and_comment_lines():
    c = parse_point_list("# header\n\n0 0\n  4 0\n\n4 4\n# trailing\n0 4\n")
    assert c.n == 4


def test_parse_point_list_errors():
    with pytest.raises(DuplicateConsecutive):
        parse_point_list("0 0\n0 0\n1 1")
    with pytest.raises(TooFewPoints):
        parse_point_list("0 0\n1 0")
    for empty in ("", b"", "# only a comment\n\n"):
        with pytest.raises(TooFewPoints, match="got 0"):
            parse_point_list(empty)
    with pytest.raises(MalformedLine, match="line 2"):
        parse_point_list("0 0\n1\n2 2")
    with pytest.raises(MalformedLine, match="line 3"):
        parse_point_list("0 0\n1 0\n2.5 1")
    with pytest.raises(MalformedLine, match="line 1"):
        parse_point_list("a b\n1 0\n2 2")


def test_parse_point_list_rejects_bytes_that_are_not_utf8():
    with pytest.raises(MalformedLine, match="byte 5: not UTF-8"):
        parse_point_list(b"# caf\xe9\n0 0\n4 0\n4 4\n")
    # a UTF-8 comment is fine
    assert parse_point_list("# café\n0 0\n4 0\n4 4\n".encode()).n == 3


def test_parse_point_list_rejects_coordinates_past_int64():
    with pytest.raises(MalformedLine, match="64-bit integers"):
        parse_point_list("100000000000000000000 0\n1 1\n2 0\n")
    with pytest.raises(MalformedLine, match="64-bit integers"):
        parse_chain_code("9223372036854775807 0\n0246")
    top = 2**63 - 1
    assert parse_point_list(f"{top} 0\n{top} 1\n0 0\n").point(0) == (top, 0)


def test_parse_chain_code_unit_square():
    c = parse_chain_code("0 0\n0246")
    assert c.n == 4
    assert [c.point(i) for i in range(4)] == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_parse_chain_code_not_closed():
    with pytest.raises(NotClosed):
        parse_chain_code("0 0\n02")


def test_parse_chain_code_bad_digit_position():
    with pytest.raises(InvalidDigit, match="position 2"):
        parse_chain_code("0 0\n0286")


def test_parse_chain_code_malformed_header():
    with pytest.raises(MalformedLine):
        parse_chain_code("0 0")
    with pytest.raises(MalformedLine):
        parse_chain_code("zero zero\n0246")


def test_parse_chain_code_rejects_content_after_the_code_line():
    # a second code line was once dropped, leaving a closed square
    with pytest.raises(MalformedLine, match="line 3: .*'0000'"):
        parse_chain_code("0 0\n0246\n0000\n")
    # a code wrapped over two lines was once read as an open trace
    with pytest.raises(MalformedLine, match="line 3: .*'4466'"):
        parse_chain_code("0 0\n0022\n4466\n")
    assert parse_chain_code("0 0\n0246\n# done\n\n").n == 4


def test_chain_code_round_trip():
    code = "001122334455667700224466"
    c = parse_chain_code(f"3 -2\n{code}")
    assert chain_code_of(c) == code
    again = parse_chain_code(f"3 -2\n{chain_code_of(c)}")
    assert np.array_equal(again.points, c.points)


def test_chain_code_of_rejects_long_steps():
    c = DigitalCurve(np.array([[0, 0], [2, 0], [1, 1]]))
    with pytest.raises(InvalidDigit):
        chain_code_of(c)


def test_load_curve_dispatch(tmp_path):
    p = tmp_path / "sq.pts"
    p.write_text("0 0\n4 0\n4 4\n0 4\n")
    c = load_curve(p)
    assert c.n == 4
    assert c.name == "sq"

    q = tmp_path / "sq.chn"
    q.write_text("0 0\n0246\n")
    c2 = load_curve(q)
    assert c2.n == 4
    assert c2.name == "sq"

    # explicit format wins over a foreign extension
    r = tmp_path / "sq.dat"
    r.write_text("0 0\n4 0\n4 4\n0 4\n")
    assert load_curve(r, fmt="pts").n == 4
    with pytest.raises(MalformedLine):
        load_curve(r)
    with pytest.raises(MalformedLine):
        load_curve(r, fmt="xyz")


def test_load_curve_reads_every_format_in_the_table(tmp_path):
    bodies = {".pts": "0 0\n1 0\n1 1\n0 1\n", ".chn": "0 0\n0246\n"}
    assert set(curve.FORMATS) == set(bodies)
    for ext, body in bodies.items():
        by_ext = tmp_path / f"sq{ext}"
        by_ext.write_text(body)
        named = tmp_path / "sq.txt"
        named.write_text(body)
        for c in (load_curve(by_ext), load_curve(named, fmt=ext[1:])):
            assert c.points.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


def test_load_curve_rejects_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "cafe.pts"
    p.write_bytes(b"# caf\xe9\n0 0\n4 0\n4 4\n")
    with pytest.raises(MalformedLine) as e:
        load_curve(p)
    assert str(e.value).startswith(f"{p}: byte 5: not UTF-8")


def test_centroid_hand_values():
    sq = DigitalCurve(np.array([[0, 0], [4, 0], [4, 4], [0, 4]]))
    assert centroid(sq) == (2.0, 2.0)
    tri = DigitalCurve(np.array([[0, 0], [3, 0], [0, 3]]))
    assert centroid(tri) == (1.0, 1.0)


def test_centroid_regular_octagon():
    k = np.arange(8)
    pts = np.stack(
        [np.round(50 * np.cos(k * np.pi / 4)), np.round(50 * np.sin(k * np.pi / 4))],
        axis=1,
    ).astype(np.int64)
    c = DigitalCurve(pts)
    cx, cy = centroid(c)
    assert cx == pytest.approx(0.0, abs=1e-12)
    assert cy == pytest.approx(0.0, abs=1e-12)


def test_inertia_line_collinear_points():
    axis = inertia_line(DigitalCurve(np.array([[0, 0], [1, 0], [2, 0], [5, 0]])))
    assert axis.direction == (1.0, 0.0)
    assert axis.point == (2.0, 0.0)


def test_inertia_line_rectangle_long_axis():
    # 4x2 outline: long axis is x, canonical sign positive
    pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2),
           (3, 2), (2, 2), (1, 2), (0, 2), (0, 1)]
    axis = inertia_line(DigitalCurve(np.array(pts)))
    assert axis.direction[0] == pytest.approx(1.0, abs=1e-12)
    assert axis.direction[1] == pytest.approx(0.0, abs=1e-12)


def test_inertia_line_isotropic_tie_break():
    sq = DigitalCurve(np.array([[0, 0], [4, 0], [4, 4], [0, 4]]))
    assert inertia_line(sq).direction == (1.0, 0.0)


def test_inertia_line_diagonal():
    pts = DigitalCurve(np.array([[0, 0], [2, 2], [4, 4], [6, 6], [3, 2]]))
    axis = inertia_line(pts)
    # dominant spread is along y=x; direction is unit length
    assert math.hypot(*axis.direction) == pytest.approx(1.0, rel=1e-15)
    assert axis.direction[0] == pytest.approx(axis.direction[1], rel=0.2)


def test_inertia_direction_is_unit_and_canonical():
    for seed in range(20):
        axis = inertia_line(lattice_ring(seed))
        ux, uy = axis.direction
        assert math.hypot(ux, uy) == pytest.approx(1.0, rel=1e-12)
        assert ux > 0.0 or (ux == 0.0 and uy > 0.0)


def test_geometry_cross_shape():
    # (+-2, 0), (0, +-1): axis x, d1 = 2, d2 = 1
    g = curve_geometry(DigitalCurve(np.array([[2, 0], [0, 1], [-2, 0], [0, -1]])))
    assert g.centroid == (0.0, 0.0)
    assert g.inertia.direction == (1.0, 0.0)
    assert g.d1 == pytest.approx(2.0, abs=1e-12)
    assert g.d2 == pytest.approx(1.0, abs=1e-12)
    assert g.d == pytest.approx(3.0, abs=1e-12)


def test_geometry_d1_circle_radius():
    # the 12 lattice points at distance 5 from the origin, in angle order
    quarter = np.array([[5, 0], [4, 3], [3, 4]])
    turn = np.array([[0, 1], [-1, 0]])  # row vector times this turns by 90°
    pts = np.concatenate([quarter @ np.linalg.matrix_power(turn, k) for k in range(4)])
    g = curve_geometry(DigitalCurve(pts))
    assert g.centroid == (0.0, 0.0)
    assert g.d1 == 5.0


def test_curve_geometry_matches_centroid_and_inertia_line(corpus):
    for c in corpus:
        g = curve_geometry(c)
        assert g.centroid == centroid(c)
        assert g.inertia == inertia_line(c)
