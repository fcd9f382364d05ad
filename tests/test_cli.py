import numpy as np
import pytest

from polyapprox import load_curve, parse_point_list, run_study
from polyapprox.cli import main
from polyapprox._kernels import EXACT_SPAN
from polyapprox.study import study_outputs
from conftest import build_corpus, lattice_ring, square_ring, wide_ring


SQUARE = "0 0\n1 0\n2 0\n2 1\n2 2\n1 2\n0 2\n0 1\n"


@pytest.fixture
def square_pts(tmp_path):
    p = tmp_path / "square.pts"
    p.write_text(SQUARE)
    return p


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for c in build_corpus()[:5]:
        body = "".join(f"{x} {y}\n" for x, y in c.points)
        (d / f"{c.name}.pts").write_text(body)
    return d


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "polyapprox" in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1


def test_approx_square(square_pts, tmp_path, capsys):
    rc = main(["approx", "--in", str(square_pts), "--scheme", "elim",
               "--m", "4", "--out", str(tmp_path)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line == "n=8 m=4 cr=2.0 e2=0.0 emax=0.0"
    out = tmp_path / "square_elim_m4.pts"
    poly = parse_point_list(out.read_text())
    assert np.array_equal(poly.points, [[0, 0], [2, 0], [2, 2], [0, 2]])


def test_approx_m_too_small(square_pts, capsys):
    with pytest.raises(SystemExit) as e:
        main(["approx", "--in", str(square_pts), "--m", "2"])
    assert e.value.code == 1
    assert "error: need 3 <= m <= 8, got m=2" in capsys.readouterr().err


def test_approx_m_exceeding_n(square_pts, capsys):
    with pytest.raises(SystemExit) as e:
        main(["approx", "--in", str(square_pts), "--m", "9"])
    assert e.value.code == 1
    assert "error: need 3 <= m <= 8, got m=9" in capsys.readouterr().err


def test_approx_conflicting_budgets(square_pts):
    with pytest.raises(SystemExit) as e:
        main(["approx", "--in", str(square_pts), "--m", "4", "--target-cr", "3"])
    assert e.value.code == 1


@pytest.mark.parametrize("budget, message", [
    (["--m", "4", "--target-cr", "5"], "pass either --m or --target-cr, not both"),
    (["--target-cr", "0.5"], "target-cr must be >= 1"),
], ids=["m-and-target-cr", "target-cr-below-1"])
def test_approx_usage_is_checked_before_the_file_is_read(tmp_path, capsys, budget, message):
    with pytest.raises(SystemExit) as e:
        main(["approx", "--in", str(tmp_path / "missing.pts"), *budget])
    assert e.value.code == 1
    assert message in capsys.readouterr().err


def test_approx_missing_file_is_data_error(tmp_path, capsys):
    rc = main(["approx", "--in", str(tmp_path / "nope.pts")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_approx_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.pts"
    bad.write_text("a b\n1 2\n3 4\n")
    rc = main(["approx", "--in", str(bad)])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_approx_chain_code_input(tmp_path, capsys):
    chn = tmp_path / "sq.chn"
    chn.write_text("0 0\n00224466\n")
    rc = main(["approx", "--in", str(chn), "--m", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert "m=4" in capsys.readouterr().out


def test_approx_format_override(tmp_path, capsys):
    raw = tmp_path / "square.contour"
    raw.write_text(SQUARE)
    rc = main(["approx", "--in", str(raw), "--format", "pts", "--m", "4",
               "--out", str(tmp_path)])
    assert rc == 0


def test_profile_csv_output(square_pts, capsys):
    rc = main(["profile", "--in", str(square_pts), "--m", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,error"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert set(rows) == {3, 4, 5, 6, 7, 8}   # m_max = min(n, 3*m)
    assert rows[4] == 0.0
    assert rows[3] > 0.0


def test_profile_emax_kind(square_pts, capsys):
    rc = main(["profile", "--in", str(square_pts), "--m", "4", "--cost", "emax"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[2].split(",")[1]) == 0.0   # m=4 row


def test_profile_of_a_curve_too_large_is_data_error(tmp_path, capsys):
    big = tmp_path / "big.pts"
    big.write_text("".join(f"{x} {y}\n" for x, y in square_ring(5000).points))
    rc = main(["profile", "--in", str(big), "--m", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "n=20000" in err and "38.4 GB" in err


def test_profile_of_a_curve_too_wide_is_data_error(tmp_path, capsys):
    wide = tmp_path / "wide.pts"
    wide.write_text("".join(f"{x} {y}\n" for x, y in wide_ring(EXACT_SPAN).points))
    rc = main(["profile", "--in", str(wide), "--m", "3", "--cost", "emax"])
    assert rc == 2
    assert "span 67108864 by 5" in capsys.readouterr().err


def test_merit_outputs_header_and_row(square_pts, capsys):
    rc = main(["merit", "--in", str(square_pts), "--scheme", "elim", "--m", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("curve,scheme,")
    fields = lines[1].split(",")
    assert fields[0] == "square"
    assert fields[1] == "elim"
    assert float(fields[15]) == 100.0    # merit of the exact fit


def test_merit_prints_the_study_row(tmp_path, capsys):
    # merit and study share one evaluator: the same row, byte for byte
    d = tmp_path / "corpus"
    d.mkdir()
    for c in build_corpus()[:3]:
        (d / f"{c.name}.pts").write_text("".join(f"{x} {y}\n" for x, y in c.points))
    out = tmp_path / "out"
    assert main(["study", "--corpus", str(d), "--out", str(out)]) == 0
    header, *rows = (out / "records.csv").read_text().splitlines()
    capsys.readouterr()
    checked = 0
    for path in sorted(d.iterdir()):
        for scheme in ("split", "elim", "elim-stab"):
            rc = main(["merit", "--in", str(path), "--scheme", scheme, "--target-cr", "15"])
            assert rc == 0
            row = next(r for r in rows if r.startswith(f"{path.stem},{scheme},"))
            assert capsys.readouterr().out == f"{header}\n{row}\n"
            checked += 1
    assert checked == len(rows) == 9


def test_study_writes_outputs(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["study", "--corpus", str(corpus_dir), "--out", str(out)])
    assert rc == 0
    assert (out / "records.csv").is_file()
    assert (out / "correlations.csv").is_file()
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 15   # 3 schemes x 5 pairings
    assert "elim_merit_vs_recip_we.svg" in svgs
    header = (out / "records.csv").read_text().split("\n")[0]
    assert header.startswith("curve,scheme,")
    corpus = [load_curve(p) for p in sorted(corpus_dir.iterdir())]
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert written == study_outputs(run_study(corpus))


def test_study_rerun_is_byte_identical(corpus_dir, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["study", "--corpus", str(corpus_dir), "--out", str(out1)]) == 0
    assert main(["study", "--corpus", str(corpus_dir), "--out", str(out2)]) == 0
    for name in ["records.csv", "correlations.csv"] + [
        p.name for p in out1.glob("*.svg")
    ]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_study_logs_a_skipped_curve_once(corpus_dir, tmp_path, capsys, caplog):
    # a rectangle with a one-pixel spur: the schemes reject its revisited point
    (corpus_dir / "spur.chn").write_text("0 0\n00002244264466")
    rc = main(["study", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")])
    assert rc == 0
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "spur" in warnings[0].getMessage()
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("curves=5 skipped=1 clamped=0 schemes=3 ")


def test_study_summary_counts_clamped_rows(tmp_path, capsys):
    # small lattice rings at 4 vertices: a scheme's polygon is often
    # worse than the optimal triangle, so its baseline clamps to m = 3
    d = tmp_path / "rings"
    d.mkdir()
    for seed in (1, 3, 4, 7, 9):
        c = lattice_ring(seed, 10, 30)
        (d / f"ring{seed}.pts").write_text("".join(f"{x} {y}\n" for x, y in c.points))
    out = tmp_path / "out"
    rc = main(["study", "--corpus", str(d), "--out", str(out), "--target-cr", "5"])
    assert rc == 0
    rows = (out / "records.csv").read_text().splitlines()[1:]
    clamped = sum(row.endswith(",true") for row in rows)
    assert clamped > 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith(f"curves=5 skipped=0 clamped={clamped} schemes=3 ")


def test_study_missing_corpus_is_data_error(tmp_path, capsys):
    rc = main(["study", "--corpus", str(tmp_path / "void")])
    assert rc == 2


def test_study_empty_corpus_is_data_error(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    rc = main(["study", "--corpus", str(d)])
    assert rc == 2


def test_study_has_no_threads_option(corpus_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["study", "--corpus", str(corpus_dir), "--out", str(tmp_path), "--threads", "2"])
    assert e.value.code == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_target_cr_validation(square_pts):
    with pytest.raises(SystemExit) as e:
        main(["approx", "--in", str(square_pts), "--target-cr", "0.5"])
    assert e.value.code == 1


@pytest.mark.parametrize("command", ["approx", "profile", "study"])
def test_nan_target_cr_is_a_usage_error(square_pts, command, capsys):
    where = ["--corpus", str(square_pts.parent)] if command == "study" else [
        "--in", str(square_pts)]
    with pytest.raises(SystemExit) as e:
        main([command, *where, "--target-cr", "nan"])
    assert e.value.code == 1
    assert "target-cr must be >= 1" in capsys.readouterr().err


def test_coordinate_past_int64_is_data_error(tmp_path, capsys):
    big = tmp_path / "big.pts"
    big.write_text("100000000000000000000 0\n1 1\n2 0\n")
    assert main(["approx", "--in", str(big)]) == 2
    assert "64-bit integers" in capsys.readouterr().err


def test_study_with_a_file_that_is_not_utf8_is_data_error(corpus_dir, tmp_path, capsys):
    (corpus_dir / "cafe.pts").write_bytes(b"# caf\xe9\n0 0\n4 0\n4 4\n")
    assert main(["study", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 2
    assert f"{corpus_dir / 'cafe.pts'}: byte 5: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_formats_come_from_the_curve_table(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["approx", "--help"])
    assert "--format {auto,pts,chn}" in capsys.readouterr().out
    d = tmp_path / "none"
    d.mkdir()
    (d / "square.txt").write_text(SQUARE)
    assert main(["study", "--corpus", str(d)]) == 2
    assert "no .pts or .chn files" in capsys.readouterr().err
