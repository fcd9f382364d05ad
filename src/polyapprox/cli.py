"""Command-line front end.

Subcommands: approx (emit one polygon), profile (optimal error versus
vertex count), merit (full measure record for one polygon), study
(corpus evaluation with correlations and line diagrams).  Usage problems
exit 1; unreadable or malformed data, or a curve too large for its cost
tables, exits 2.  Files are written to a temporary name and renamed
into place so failures leave no partial output.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .approx_error import check_count, polygon_errors
from .curve import FORMATS, load_curve
from .exceptions import InvalidCounts, PolyApproxError
from .measures import CSV_HEADER, NISE_SHIFTS, record_to_csv_row
from .optimal import CostKind, SegmentCosts, select_start_vertex
from .schemes import DEFAULT_TARGET_CR, SchemeId, apply_scheme, auto_target_m
from .study import evaluate_curve, run_study, study_outputs

_SCHEMES = {s.value: s for s in SchemeId}
_COSTS = {k.value: k for k in CostKind}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_atomic(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _add_common(p: _Parser):
    p.add_argument("--format", choices=["auto", *(e[1:] for e in FORMATS)],
                   default="auto", help="input format, otherwise by extension")
    p.add_argument("--out", default=".", help="output directory")


def _add_target(p: _Parser):
    p.add_argument("--m", type=int, default=None, help="vertex count (>= 3)")
    p.add_argument("--target-cr", type=float, default=None,
                   help=f"vertex budget as n / target-cr (default {DEFAULT_TARGET_CR:g})")


def build_parser() -> _Parser:
    parser = _Parser(prog="polyapprox", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="approximate one curve")
    p_approx.add_argument("--in", dest="infile", required=True)
    p_approx.add_argument("--scheme", choices=sorted(_SCHEMES), default="elim")
    _add_target(p_approx)
    _add_common(p_approx)

    p_profile = sub.add_parser("profile", help="optimal error vs vertex count")
    p_profile.add_argument("--in", dest="infile", required=True)
    p_profile.add_argument("--cost", choices=sorted(_COSTS), default="e2")
    _add_target(p_profile)
    _add_common(p_profile)

    p_merit = sub.add_parser("merit", help="measure one polygon against its baseline")
    p_merit.add_argument("--in", dest="infile", required=True)
    p_merit.add_argument("--scheme", choices=sorted(_SCHEMES), default="elim")
    p_merit.add_argument("--nise-variant", choices=tuple(NISE_SHIFTS), default="printed")
    _add_target(p_merit)
    _add_common(p_merit)

    p_study = sub.add_parser("study", help="evaluate a corpus directory")
    p_study.add_argument("--corpus", required=True)
    p_study.add_argument("--target-cr", type=float, default=DEFAULT_TARGET_CR)
    p_study.add_argument("--nise-variant", choices=tuple(NISE_SHIFTS), default="printed")
    p_study.add_argument("--out", default=".", help="output directory")
    return parser


def _load_with_m(parser: _Parser, args):
    """The curve and its vertex count.  Usage is checked before the file
    is read, except --m against n, which needs the curve."""
    if args.m is not None and args.target_cr is not None:
        parser.error("pass either --m or --target-cr, not both")
    target = args.target_cr if args.target_cr is not None else DEFAULT_TARGET_CR
    if not target >= 1.0:  # NaN too
        parser.error("target-cr must be >= 1")
    curve = load_curve(args.infile, args.format)
    if args.m is None:
        return curve, auto_target_m(curve, target)
    try:
        check_count(args.m, curve.n)
    except InvalidCounts as exc:
        parser.error(str(exc))
    return curve, args.m


def _cmd_approx(parser, args) -> int:
    curve, m = _load_with_m(parser, args)
    scheme = _SCHEMES[args.scheme]
    poly = apply_scheme(scheme, curve, m)
    e2, emax = polygon_errors(curve, poly)
    cr = curve.n / poly.m
    stem = Path(args.infile).stem
    out = Path(args.out) / f"{stem}_{scheme.value}_m{poly.m}.pts"
    body = "".join(f"{x} {y}\n" for x, y in poly.vertex_points())
    _write_atomic(out, body.encode("ascii"))
    print(f"n={curve.n} m={poly.m} cr={cr} e2={e2} emax={emax}")
    return 0


def _cmd_profile(parser, args) -> int:
    curve, m_sub = _load_with_m(parser, args)
    kind = _COSTS[args.cost]
    costs = SegmentCosts(curve)
    start = select_start_vertex(curve, m_sub, kind, costs)
    m_max = min(curve.n, 3 * m_sub)
    profile = costs.profile(start, m_max, kind)
    lines = ["m,error"]
    for m, err in profile.items():
        lines.append(f"{m},{err}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_merit(parser, args) -> int:
    curve, m = _load_with_m(parser, args)
    scheme = _SCHEMES[args.scheme]
    record = evaluate_curve(curve, curve.name, (scheme,), m, args.nise_variant)[scheme]
    print(CSV_HEADER)
    print(record_to_csv_row(record))
    return 0


def _cmd_study(parser, args) -> int:
    if not args.target_cr >= 1.0:  # NaN too
        parser.error("target-cr must be >= 1")
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise PolyApproxError(f"corpus directory not found: {corpus_dir}")
    paths = sorted(p for p in corpus_dir.iterdir() if p.suffix.lower() in FORMATS)
    if not paths:
        raise PolyApproxError(f"no {' or '.join(FORMATS)} files in {corpus_dir}")
    corpus = [load_curve(p) for p in paths]
    reports = run_study(corpus, target_cr=args.target_cr, nise_variant=args.nise_variant)
    out = Path(args.out)
    for name, data in study_outputs(reports).items():
        _write_atomic(out / name, data)
    # run_study has logged each skipped curve once
    kept = len(reports[0].records) if reports else 0
    skipped = len(reports[0].skipped_curves) if reports else 0
    clamped = sum(r.clamped for report in reports for r in report.records)
    print(
        f"curves={kept} skipped={skipped} clamped={clamped} schemes={len(reports)} out={out}"
    )
    return 0


_COMMANDS = {
    "approx": _cmd_approx,
    "profile": _cmd_profile,
    "merit": _cmd_merit,
    "study": _cmd_study,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (PolyApproxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
