"""Quality measures for polygonal approximations.

Two families are covered.  Standalone figures: compression ratio over
squared error (fom) and the weighted variants that divide the error by
powers of the compression ratio (we, we2, we3) or use the single largest
deviation (we_inf), plus a sigmoid-normalized error measure (fg) that
maps the squared error through the contour's extent.  Baseline-relative
figures: fidelity (how close the error is to the optimal error at the
same vertex count), efficiency (how few vertices the optimal algorithm
needs to match the error), and merit, their geometric mean, computed
once from squared error and once from max error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .approx_error import PolygonApprox, compression_ratio, polygon_errors
from .curve import CurveGeometry, DigitalCurve, curve_geometry
from .exceptions import InvalidGeometry, ZeroError
from .optimal import CostKind, OptimalBaseline, SegmentCosts, optimal_baseline

__all__ = [
    "RosinBreakdown",
    "MeasureRecord",
    "figure_of_merit",
    "weighted_foms",
    "rosin_merit",
    "fg_measure",
    "build_record",
    "theorem_identity_check",
    "CSV_HEADER",
    "record_to_csv_row",
]


@dataclass(frozen=True)
class RosinBreakdown:
    """Fidelity, efficiency and their geometric mean, plus the baseline
    quantities they were computed from."""

    fidelity: float
    efficiency: float
    merit: float
    error_optimal: float
    m_optimal: float
    clamped: bool


@dataclass(frozen=True)
class MeasureRecord:
    """Every measure for one (curve, scheme) evaluation."""

    curve_id: str
    scheme: str
    n: int
    m: int
    cr: float
    e2: float
    emax: float
    fom: float
    we: float
    we2: float
    we3: float
    we_inf: float
    fg: float
    rosin: RosinBreakdown
    rosin_emax: RosinBreakdown

    @property
    def clamped(self) -> bool:
        """Whether either optimal baseline clamped m_optimal to its range."""
        return self.rosin.clamped or self.rosin_emax.clamped


def figure_of_merit(cr: float, e2: float) -> float:
    """Compression ratio per unit squared error; undefined for exact fits."""
    if e2 == 0.0:
        raise ZeroError("figure of merit is undefined when e2 is 0")
    return cr / e2


def weighted_foms(cr: float, e2: float, emax: float) -> dict[str, float]:
    """Error-per-compression family: we = e2/cr, we2 = e2/cr^2,
    we3 = e2/cr^3, we_inf = emax/cr.  Lower is better for all four."""
    return {
        "we": e2 / cr,
        "we2": e2 / (cr * cr),
        "we3": e2 / (cr * cr * cr),
        "we_inf": emax / cr,
    }


def rosin_merit(error_sub: float, m_sub: int, baseline: OptimalBaseline) -> RosinBreakdown:
    """Merit of a polygon with error error_sub and m_sub vertices
    against the optimal baseline of the same error kind (squared or
    max).  An exact fit scores fidelity 100 when the optimal error is
    also 0, and is contradictory otherwise."""
    if error_sub == 0.0:
        if baseline.error_optimal != 0.0:
            raise ZeroError(
                "suboptimal error is 0 but the optimal baseline error is "
                f"{baseline.error_optimal}"
            )
        fidelity = 100.0
    else:
        fidelity = 100.0 * baseline.error_optimal / error_sub
    efficiency = 100.0 * baseline.m_optimal / m_sub
    return RosinBreakdown(
        fidelity=fidelity,
        efficiency=efficiency,
        merit=math.sqrt(fidelity * efficiency),
        error_optimal=baseline.error_optimal,
        m_optimal=baseline.m_optimal,
        clamped=baseline.clamped,
    )


def fg_measure(cr: float, e2: float, d: float, variant: str = "printed") -> float:
    """Sigmoid-normalized error blended with the inverse compression.

    The squared error is compressed through 2/(1 + exp(-sqrt(e2)/d))
    where d is the contour extent (largest centroid distance plus
    largest distance from the minimum-inertia axis).  The "printed"
    variant shifts the sigmoid term up by 1, the "unit" variant down
    by 1, which moves it onto [0, 1) for an ideal approximation.
    """
    if d <= 0.0:
        raise InvalidGeometry(f"contour extent must be positive, got {d}")
    if variant == "printed":
        c = 1.0
    elif variant == "unit":
        c = -1.0
    else:
        raise InvalidGeometry(f"unknown variant {variant!r}")
    nise = 2.0 / (1.0 + math.exp(-math.sqrt(e2) / d)) + c
    return 0.5 * (1.0 / cr + nise)


def build_record(
    curve: DigitalCurve,
    poly: PolygonApprox,
    baseline_e2: OptimalBaseline,
    baseline_emax: OptimalBaseline,
    curve_id: str | None = None,
    scheme: str = "",
    nise_variant: str = "printed",
    geometry: CurveGeometry | None = None,
) -> MeasureRecord:
    """Assemble the full record for one polygon.

    fom is stored as +inf for an exact fit; the standalone accessor
    raises instead, so the distinction stays visible in the API while
    CSV rows remain writable.
    """
    n = curve.n
    m = poly.m
    cr = compression_ratio(n, m)
    e2, emax = polygon_errors(curve, poly)
    fom = figure_of_merit(cr, e2) if e2 > 0.0 else math.inf
    w = weighted_foms(cr, e2, emax)
    if geometry is None:
        geometry = curve_geometry(curve)
    fg = fg_measure(cr, e2, geometry.d, nise_variant)
    return MeasureRecord(
        curve_id=curve_id if curve_id is not None else (curve.name or "curve"),
        scheme=scheme,
        n=n,
        m=m,
        cr=cr,
        e2=e2,
        emax=emax,
        fom=fom,
        we=w["we"],
        we2=w["we2"],
        we3=w["we3"],
        we_inf=w["we_inf"],
        fg=fg,
        rosin=rosin_merit(e2, m, baseline_e2),
        rosin_emax=rosin_merit(emax, m, baseline_emax),
    )


def record_for_polygon(
    curve: DigitalCurve,
    poly: PolygonApprox,
    curve_id: str | None = None,
    scheme: str = "",
    nise_variant: str = "printed",
    costs: SegmentCosts | None = None,
) -> MeasureRecord:
    """Convenience wrapper that derives both baselines itself."""
    if costs is None:
        costs = SegmentCosts(curve)
    b_e2 = optimal_baseline(curve, poly, CostKind.SUM_SQUARED, costs)
    b_em = optimal_baseline(curve, poly, CostKind.MAX_ERROR, costs)
    return build_record(
        curve, poly, b_e2, b_em, curve_id=curve_id, scheme=scheme,
        nise_variant=nise_variant,
    )


def _rel_residual(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def theorem_identity_check(record: MeasureRecord) -> dict[str, float]:
    """Relative residuals of three algebraic identities tying merit to
    the weighted family.

    With cr_opt = n / m_optimal formed from the merit interpolation and
    the optimal error taken at the suboptimal vertex count:

      merit^2 / 10^4        == (error_opt / cr_opt) / we
      merit^2 / 10^4        == (error_opt / cr_opt^2) / we2 * (cr_opt / cr)
      merit_emax^2 / 10^4   == (emax_opt / cr_opt_emax) / we_inf

    Quantities are compared in cross-multiplied form so exact fits
    (both sides zero) check cleanly.
    """
    n = record.n
    b = record.rosin
    lhs_e2 = (b.fidelity / 100.0) * (b.efficiency / 100.0)
    cr_opt = n / b.m_optimal
    we_opt = b.error_optimal / cr_opt
    r1 = _rel_residual(lhs_e2 * record.we, we_opt)
    we2_opt = b.error_optimal / (cr_opt * cr_opt)
    r2 = _rel_residual(lhs_e2 * record.we2 * record.cr, we2_opt * cr_opt)
    bx = record.rosin_emax
    lhs_em = (bx.fidelity / 100.0) * (bx.efficiency / 100.0)
    cr_opt_em = n / bx.m_optimal
    weinf_opt = bx.error_optimal / cr_opt_em
    r4 = _rel_residual(lhs_em * record.we_inf, weinf_opt)
    return {"sum_sq": r1, "sum_sq_squared_cr": r2, "max_error": r4}


CSV_HEADER = (
    "curve,scheme,n,m,cr,e2,emax,fom,we,we2,we3,we_inf,fg,"
    "fidelity,efficiency,merit,fidelity_emax,efficiency_emax,merit_emax,clamped"
)


def record_to_csv_row(r: MeasureRecord) -> str:
    fields = [
        r.curve_id,
        r.scheme,
        str(r.n),
        str(r.m),
        str(r.cr),
        str(r.e2),
        str(r.emax),
        str(r.fom),
        str(r.we),
        str(r.we2),
        str(r.we3),
        str(r.we_inf),
        str(r.fg),
        str(r.rosin.fidelity),
        str(r.rosin.efficiency),
        str(r.rosin.merit),
        str(r.rosin_emax.fidelity),
        str(r.rosin_emax.efficiency),
        str(r.rosin_emax.merit),
        "true" if r.clamped else "false",
    ]
    return ",".join(fields)
