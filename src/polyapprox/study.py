"""Corpus-level comparison of merit against the weighted measures.

For every curve in a corpus, each scheme produces a polygon at a shared
vertex budget; merit-style and weighted measures are recorded and then
compared two ways: a product-moment correlation over the corpus, and a
step-by-step direction agreement that mirrors reading two line diagrams
side by side.  Weighted measures enter the comparison as reciprocals
(they are lower-is-better) except we3, which is compared directly, and
fg, which is also compared directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .curve import DigitalCurve, curve_geometry
from .exceptions import (
    AboveBound,
    AllZero,
    ConstantSeries,
    LengthMismatch,
    PolyApproxError,
    ZeroError,
)
from .measures import CSV_HEADER, MeasureRecord, build_record, record_to_csv_row
from .optimal import (
    CostKind,
    OptimalBaseline,
    SegmentCosts,
    baseline_from_profile,
    provisional_start_vertex,
    select_start_vertex,
)
from .approx_error import polygon_errors
from .schemes import DEFAULT_TARGET_CR, SchemeId, apply_scheme, auto_target_m

__all__ = [
    "MeasureSeries",
    "StudyReport",
    "pearson",
    "direction_agreement",
    "scale_for_plot",
    "evaluate_curve",
    "run_study",
    "study_series",
    "emit_svg_line_diagram",
]

logger = logging.getLogger(__name__)

# key, weighted source column, transform, compare-inverted, merit column,
# the slug that names the pairing in correlations.csv and the SVG files
PAIRINGS = (
    ("we", "we", "reciprocal", False, "merit", "merit_vs_recip_we"),
    ("we2", "we2", "reciprocal", False, "merit", "merit_vs_recip_we2"),
    ("we3", "we3", "direct", True, "merit", "merit_vs_we3"),
    ("we_inf", "we_inf", "reciprocal", False, "merit_emax", "meritemax_vs_recip_weinf"),
    ("fg", "fg", "direct", False, "merit", "merit_vs_fg"),
)
_PAIRING_ROWS = {row[0]: row for row in PAIRINGS}


@dataclass(frozen=True)
class MeasureSeries:
    """One measure sampled across the corpus, in corpus order."""

    label: str
    curve_ids: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.curve_ids) != len(self.values):
            raise LengthMismatch(
                f"{len(self.curve_ids)} ids vs {len(self.values)} values"
            )
        if not all(math.isfinite(v) for v in self.values):
            raise LengthMismatch(f"series {self.label!r} has non-finite values")


@dataclass
class StudyReport:
    """Everything the study produced for one scheme."""

    scheme: SchemeId
    records: list[MeasureRecord]
    pearson: dict[str, float]
    agreement: dict[str, list[bool]]
    skipped_pairings: dict[str, str] = field(default_factory=dict)
    skipped_curves: list[tuple[str, str]] = field(default_factory=list)


def pearson(xs, ys) -> float:
    """Product-moment correlation, clipped into [-1, 1]."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"series shapes differ: {x.shape} vs {y.shape}")
    if x.shape[0] < 3:
        raise LengthMismatch(f"need at least 3 points, got {x.shape[0]}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries("correlation of a constant series is undefined")
    r = float(dx @ dy) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def direction_agreement(a, b, inverse_pairing: bool = False) -> list[bool]:
    """Per-step flag: do the two series move the same way?

    With inverse_pairing the second series is expected to mirror the
    first, so a rise agrees with a fall.  Zero steps only agree with
    zero steps either way.
    """
    av = list(a)
    bv = list(b)
    if len(av) != len(bv):
        raise LengthMismatch(f"{len(av)} vs {len(bv)} points")
    if len(av) < 2:
        raise LengthMismatch("need at least 2 points to step")
    flags = []
    for i in range(len(av) - 1):
        da = float(av[i + 1]) - float(av[i])
        db = float(bv[i + 1]) - float(bv[i])
        sa = (da > 0) - (da < 0)
        sb = (db > 0) - (db < 0)
        if inverse_pairing:
            sb = -sb
        flags.append(sa == sb)
    return flags


def scale_for_plot(series: MeasureSeries) -> MeasureSeries:
    """Rescale so the largest magnitude is 100; label keeps the factor."""
    peak = max(abs(v) for v in series.values)
    if peak == 0.0:
        raise AllZero(f"series {series.label!r} is all zeros")
    factor = 100.0 / peak
    return MeasureSeries(
        label=f"{series.label} (x{factor:g})",
        curve_ids=series.curve_ids,
        values=tuple(v * factor for v in series.values),
    )


def evaluate_curve(
    curve: DigitalCurve,
    curve_id: str | None,
    schemes: tuple[SchemeId, ...],
    m_sub: int,
    nise_variant: str,
) -> dict[SchemeId, MeasureRecord]:
    """Every measure of each scheme's m_sub-vertex polygon on one curve.

    The optimal baselines come from one SegmentCosts: per cost kind, one
    start vertex and one profile, shared by the schemes.  Each kind's
    table is built only up to U_m(p0), the cost of the equally spaced
    m_sub-gon through the provisional start p0, which bounds the
    select-start solve from p0, and to more only where a baseline reads
    past it (_kind_baselines).  The schemes run on the held E2 table.  A
    curve_id of None names the record after the curve.
    """
    n = curve.n
    geometry = curve_geometry(curve)
    costs = SegmentCosts(curve)
    kinds = (CostKind.SUM_SQUARED, CostKind.MAX_ERROR)
    p0 = provisional_start_vertex(curve)
    for kind in kinds:
        costs.set_bound(kind, costs.gon_cost(p0, m_sub, kind))
    starts = [select_start_vertex(curve, m_sub, kind, costs) for kind in kinds]
    scored = []
    for scheme in schemes:
        poly = apply_scheme(scheme, curve, m_sub)
        scored.append((scheme, poly, polygon_errors(curve, poly)))
    m_max = min(n, 3 * m_sub)
    baselines = [
        _kind_baselines(costs, kind, start, m_sub, m_max, [errors[k] for *_, errors in scored])
        for k, (kind, start) in enumerate(zip(kinds, starts))
    ]
    out = {}
    for (scheme, poly, errors), b_e2, b_em in zip(scored, *baselines):
        out[scheme] = build_record(
            curve,
            poly,
            b_e2,
            b_em,
            curve_id=curve_id,
            scheme=scheme.value,
            nise_variant=nise_variant,
            geometry=geometry,
            errors=errors,
        )
    return out


def _kind_baselines(costs: SegmentCosts, kind: CostKind, start: int, m_sub: int, m_max: int,
                    errors: list[float]) -> list[OptimalBaseline]:
    """The baseline of each error of one kind, from the profile from
    start on costs' bounded table.

    The profile is solved to m_sub.  If an error lies above the bound,
    the table is rebuilt at the larger of the errors and U_m(start),
    which bounds the value at m_sub, and the profile solved again.  With
    every error at or under the bound, a value above it compares with
    each error as a number does, so the profile is solved on to m_max
    exactly where some error is below the value at m_sub: only then can
    a baseline read past m_sub.  If a value that a baseline reads, at
    m_sub or at m_lo - 1, lies above the bound, the table is rebuilt
    once at the largest U_m(start) of those counts m, and the profile
    solved again to the same depth.
    """
    if not errors:
        return []
    profile = costs.profile(start, m_sub, kind)
    if max(errors) > profile.bound:
        costs.set_bound(kind, max(max(errors), costs.gon_cost(start, m_sub, kind)))
        profile = costs.profile(start, m_sub, kind)
    if m_sub < m_max and min(errors) < profile.values[m_sub]:
        profile = costs.profile(start, m_max, kind)
    out, needed = [], set()
    for error in errors:
        try:
            out.append(baseline_from_profile(profile, m_sub, error))
        except AboveBound as exc:
            needed.update(exc.counts)
    if not needed:
        return out
    costs.set_bound(kind, max(costs.gon_cost(start, m, kind) for m in needed))
    profile = costs.profile(start, profile.m_max, kind)
    return [baseline_from_profile(profile, m_sub, error) for error in errors]


def _pairing_values(records, row) -> tuple[list[float], list[float]]:
    """(weighted, merit) values of one PAIRINGS row over records, the
    weighted ones as compared: reciprocal where the row says so.

    Raises ZeroError where a reciprocal meets a zero weighted value.
    """
    _, source, transform, _, merit_col, _ = row
    weighted = [getattr(r, source) for r in records]
    if transform == "reciprocal":
        if any(v == 0.0 for v in weighted):
            raise ZeroError(f"1/{source} is undefined: {source} is 0 on an exact fit")
        weighted = [1.0 / v for v in weighted]
    merit = [
        (r.rosin_emax.merit if merit_col == "merit_emax" else r.rosin.merit)
        for r in records
    ]
    return weighted, merit


def run_study(
    corpus: list[DigitalCurve],
    schemes: tuple[SchemeId, ...] = tuple(SchemeId),
    target_cr: float = DEFAULT_TARGET_CR,
    nise_variant: str = "printed",
    threads: int = 1,
) -> list[StudyReport]:
    """Evaluate every scheme over a corpus and correlate the measures.

    Curves are evaluated one at a time, in corpus order.  A curve that
    fails to evaluate is logged and skipped rather than aborting the
    study.  `threads` is ignored: it is kept only because perfbench
    passes it, and the next change to the benchmark (ROADMAP D18) drops
    it.
    """
    evaluated = []
    skipped = []
    for i, curve in enumerate(corpus):
        curve_id = curve.name or f"curve{i:03d}"
        try:
            m_sub = auto_target_m(curve, target_cr)
            evaluated.append(evaluate_curve(curve, curve_id, schemes, m_sub, nise_variant))
        except PolyApproxError as exc:
            logger.warning("skipping %s: %s", curve_id, exc)
            skipped.append((curve_id, f"{type(exc).__name__}: {exc}"))

    reports = []
    for scheme in schemes:
        records = [r[scheme] for r in evaluated]
        corr: dict[str, float] = {}
        agree: dict[str, list[bool]] = {}
        skips: dict[str, str] = {}
        for row in PAIRINGS:
            key, _, _, inverted, *_ = row
            try:
                weighted, merit = _pairing_values(records, row)
            except ZeroError:
                skips[key] = "non-finite reciprocal (exact fit in corpus)"
                corr[key] = math.nan
                continue
            try:
                corr[key] = pearson(merit, weighted)
            except (ConstantSeries, LengthMismatch) as exc:
                skips[key] = f"{type(exc).__name__}: {exc}"
                corr[key] = math.nan
            if len(records) >= 2:
                agree[key] = direction_agreement(weighted, merit, inverted)
        reports.append(
            StudyReport(
                scheme=scheme,
                records=records,
                pearson=corr,
                agreement=agree,
                skipped_pairings=skips,
                skipped_curves=list(skipped),
            )
        )
    return reports


def study_series(report: StudyReport, key: str) -> tuple[MeasureSeries, MeasureSeries]:
    """(weighted, merit) series for one pairing, transformed as compared."""
    row = _PAIRING_ROWS[key]
    _, source, transform, _, merit_col, _ = row
    ids = tuple(r.curve_id for r in report.records)
    weighted, merit = _pairing_values(report.records, row)
    label = f"1/{source}" if transform == "reciprocal" else source
    return (
        MeasureSeries(label, ids, tuple(weighted)),
        MeasureSeries(merit_col, ids, tuple(merit)),
    )


_SVG_W = 1200
_SVG_H = 600
_MARGIN_L = 60.0
_MARGIN_R = 20.0
_MARGIN_T = 20.0
_MARGIN_B = 40.0


def _svg_x(i: int, count: int) -> float:
    span = _SVG_W - _MARGIN_L - _MARGIN_R
    if count == 1:
        return _MARGIN_L
    return _MARGIN_L + span * i / (count - 1)


def _svg_y(v: float) -> float:
    span = _SVG_H - _MARGIN_T - _MARGIN_B
    return (_SVG_H - _MARGIN_B) - span * v / 100.0


def emit_svg_line_diagram(
    weighted: MeasureSeries, merit: MeasureSeries, flags: list[bool]
) -> bytes:
    """Two overlaid line diagrams with per-step agreement markers.

    The weighted series draws in blue, the merit series in yellow; a
    vertical line at each step is yellow where the step agrees and blue
    where it disagrees.  Output is byte-deterministic: fixed canvas,
    fixed precision, no timestamps.
    """
    count = len(weighted.values)
    if count != len(merit.values):
        raise LengthMismatch(f"{count} vs {len(merit.values)} points")
    if len(flags) != count - 1:
        raise LengthMismatch(f"{len(flags)} flags for {count} points")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    for i, ok in enumerate(flags):
        x = _svg_x(i, count)
        color = "yellow" if ok else "blue"
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T:.2f}" x2="{x:.2f}" '
            f'y2="{_SVG_H - _MARGIN_B:.2f}" stroke="{color}" stroke-width="1"/>'
        )
    axis = (
        f'<line x1="{_MARGIN_L:.2f}" y1="{_SVG_H - _MARGIN_B:.2f}" '
        f'x2="{_SVG_W - _MARGIN_R:.2f}" y2="{_SVG_H - _MARGIN_B:.2f}" '
        f'stroke="black" stroke-width="1"/>'
        f'<line x1="{_MARGIN_L:.2f}" y1="{_MARGIN_T:.2f}" '
        f'x2="{_MARGIN_L:.2f}" y2="{_SVG_H - _MARGIN_B:.2f}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(axis)
    for series, color in ((weighted, "blue"), (merit, "yellow")):
        coords = " ".join(
            f"{_svg_x(i, count):.2f},{_svg_y(v):.2f}"
            for i, v in enumerate(series.values)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + 10:.2f}" y="{_MARGIN_T + 16:.2f}" '
        f'fill="blue" font-size="14">{weighted.label}</text>'
        f'<text x="{_MARGIN_L + 10:.2f}" y="{_MARGIN_T + 34:.2f}" '
        f'fill="#b8860b" font-size="14">{merit.label}</text>'
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def records_csv(reports: list[StudyReport]) -> str:
    lines = [CSV_HEADER]
    for report in reports:
        for record in report.records:
            lines.append(record_to_csv_row(record))
    return "\n".join(lines) + "\n"


def pairing_slug(key: str) -> str:
    return _PAIRING_ROWS[key][-1]


def correlations_csv(reports: list[StudyReport]) -> str:
    lines = ["scheme,pairing,r,n_curves"]
    for report in reports:
        for key, *_ in PAIRINGS:
            r = report.pearson.get(key, math.nan)
            lines.append(
                f"{report.scheme.value},{pairing_slug(key)},{r},{len(report.records)}"
            )
    return "\n".join(lines) + "\n"


def study_outputs(reports: list[StudyReport]) -> dict[str, bytes]:
    """The study's output files by name, in the order they are written:
    records.csv, correlations.csv, then per scheme one line diagram for
    each pairing that was compared."""
    out = {
        "records.csv": records_csv(reports).encode("ascii"),
        "correlations.csv": correlations_csv(reports).encode("ascii"),
    }
    for report in reports:
        for key, *_ in PAIRINGS:
            if key in report.skipped_pairings or key not in report.agreement:
                continue
            weighted, merit = study_series(report, key)
            out[f"{report.scheme.value}_{pairing_slug(key)}.svg"] = emit_svg_line_diagram(
                scale_for_plot(weighted), scale_for_plot(merit), report.agreement[key]
            )
    return out
