"""Optimal polygonal approximation by dynamic programming.

For a fixed start vertex, the minimum-error polygon with exactly m
vertices is found by a DP over rotated indices: states are (vertices
used, arc endpoint), transitions append one side, and the closing column
lands back on the start.  Squared error accumulates by addition, max
error by taking maxima.  One DP sweep yields the whole error-versus-m
profile up to m_max; a polygon's vertices are recovered by walking back
from its profile cell through the DP's cells.

The start vertex itself is chosen by a three-pass protocol: approximate
from a provisional start (the point farthest from the centroid), keep
the second vertex of that polygon as the real start, then profile from
it.  The profile is then read twice: the error at the suboptimal
polygon's vertex count m_sub, and the fractional vertex count at which
the optimal error would match the suboptimal polygon's error.  The
second read goes past m_sub only for an error below the profile's at
m_sub, so study.evaluate_curve solves past m_sub only then.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .approx_error import PolygonApprox, check_count, record_e2_table
from .curve import DigitalCurve, centroid
from .exceptions import CurveTooLarge, DegenerateSegment, InvalidCounts

__all__ = [
    "CostKind",
    "ErrorProfile",
    "OptimalBaseline",
    "SegmentCosts",
    "provisional_start_vertex",
    "select_start_vertex",
    "optimal_profile",
    "baseline_from_profile",
]


class CostKind(enum.Enum):
    """How per-side errors combine into a polygon cost."""

    SUM_SQUARED = "e2"
    MAX_ERROR = "emax"


@dataclass(frozen=True)
class ErrorProfile:
    """Optimal error for every vertex count m in [3, m_max].

    values[m] is indexed directly by m; slots below 3 are NaN.  All
    polygons counted contain the start vertex.
    """

    curve: DigitalCurve
    start_index: int
    cost_kind: CostKind
    m_max: int
    values: np.ndarray

    def value(self, m: int) -> float:
        check_count(m, self.m_max)
        return float(self.values[m])

    def items(self):
        for m in range(3, self.m_max + 1):
            yield m, float(self.values[m])


@dataclass(frozen=True)
class OptimalBaseline:
    """Reference quantities for merit: the optimal error at the
    suboptimal vertex count, and the (possibly fractional) vertex count
    where the optimal error matches the suboptimal error.  ``clamped``
    flags an off-profile match that was pinned to the profile edge."""

    error_optimal: float
    m_optimal: float
    start_index: int
    clamped: bool = False


# Most memory one curve's cost tables may take, 8 bytes an entry.  A
# SegmentCosts holds at most both tables at n rows (a rising E2 profile
# builds the E2 table in full, and an Emax build may keep every row, as
# on the corpus's ellipse_thin), and building the Emax table takes its
# hull levels besides: at most _LEVEL_TABLES n x n tables of them on the
# rings where they are largest, those whose every point is a vertex of
# each window's hull and whose long arcs stay under the table's bound,
# such as integer points of a thin ellipse (tracemalloc: at most 10.2
# tables for the build, table included, at n = 100 to 1030, highest
# where n - 2 is a power of two).  So 12 tables of n^2 entries, about
# n = 4560 points.
MAX_TABLE_BYTES = 2 * 10**9
_LEVEL_TABLES = 10


class SegmentCosts:
    """Per-curve cache of forward-arc cost tables.

    The span-major tables depend only on the curve, not on the DP start,
    so one instance serves every start vertex and both cost kinds.  The
    Emax table holds +inf for sides that no optimal polygon of 3 or more
    vertices, nor one tied with it, can use (those above the largest
    Emax of an arc of at most ceil(n/3) steps); its other entries, and
    so every profile value and polygon, are exact.  Each table stores
    only the rows a bounded solve can read: the E2 table rows 0 to R -
    1, as every arc of R or more steps costs more than any solve's
    running bound (_kernels.e2_row_bound), the Emax table rows 0 to its
    last with a finite entry.  A solve whose profile rises reruns
    unbounded: over the stored rows of the Emax table, whose other rows
    are +inf, and over every row of the E2 table, which the instance
    builds in full and keeps from then on.  Curves are rejected
    up front whose tables would take more than MAX_TABLE_BYTES, whose x
    or y coordinates span 2**26 (_kernels.EXACT_SPAN) or more, beyond
    which float64 cross products lose bits, or whose points coincide
    (non-consecutively), which would leave some table entry without a
    defining line.

    Tables are read-only.  While an instance holds the curve's E2 table,
    approx_error.E2Costs reads every arc of a span it stores from it, so
    elimination, stabilize and polygon_errors evaluate the closed form
    only past its rows.  Only a weak reference to it is recorded, so the
    table goes with the instance: a study keeps one curve's tables at a
    time.
    """

    def __init__(self, curve: DigitalCurve):
        n = curve.n
        need = 8 * n * n * (2 + _LEVEL_TABLES)
        if need > MAX_TABLE_BYTES:
            raise CurveTooLarge(
                f"n={n} points need about {need / 1e9:.1f} GB of cost tables,"
                f" over the {MAX_TABLE_BYTES / 1e9:g} GB limit"
            )
        pts = curve.points
        order = np.lexsort((pts[:, 1], pts[:, 0]))  # stable: by x, then y
        ranked = pts[order]
        same = np.all(ranked[1:] == ranked[:-1], axis=1)
        if same.any():
            dup = int(np.argmax(same))
            i, j = sorted((int(order[dup]), int(order[dup + 1])))
            raise DegenerateSegment(
                f"points {i} and {j} coincide at ({pts[i, 0]}, {pts[i, 1]})"
            )
        # Python ints: an int64 difference could wrap
        sx, sy = (int(hi) - int(lo) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0)))
        if max(sx, sy) >= _kernels.EXACT_SPAN:
            raise CurveTooLarge(
                f"coordinates span {sx} by {sy}; the cost tables need spans"
                f" below 2**26"
            )
        self.curve = curve
        # per kind: the table and its band widths, _kernels.cheapest_sides
        self._tables: dict[CostKind, tuple[np.ndarray, np.ndarray]] = {}

    def table(self, kind: CostKind) -> np.ndarray:
        if kind not in self._tables:
            xs, ys = self._coordinates()
            if kind is CostKind.SUM_SQUARED:
                _, rows = _kernels.e2_row_bound(xs, ys)
                tab = _kernels.e2_cost_table(xs, ys, rows)
            else:
                tab = _kernels.emax_cost_table(xs, ys)
            self._keep(kind, tab)
        return self._tables[kind][0]

    def _coordinates(self):
        pts = self.curve.points
        return pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64)

    def _keep(self, kind: CostKind, tab: np.ndarray) -> None:
        tab.setflags(write=False)
        self._tables[kind] = tab, _kernels.cheapest_sides(tab)
        if kind is CostKind.SUM_SQUARED:
            record_e2_table(self.curve, tab)

    def _keep_every_row(self) -> None:
        """Replace the E2 table by one of all n rows, its stored rows
        freed first (the Emax table leaves out only +inf rows)."""
        del self._tables[CostKind.SUM_SQUARED]
        self._keep(CostKind.SUM_SQUARED, _kernels.e2_cost_table(*self._coordinates()))

    def _solve(self, start: int, m_max: int, kind: CostKind):
        """The DP array of a profile solve from start to m_max: the entry
        perfbench/spans.py wraps, with exactly these arguments."""
        return self._dp(start, m_max, kind, False)

    def _dp(self, start: int, m_max: int, kind: CostKind, polygon: bool):
        """_kernels.dp_solve for a profile, or (polygon True) for the
        m_max-gon alone, with its unbounded rerun: the one path that
        profile and polygon solves share."""
        n = self.curve.n
        if not (0 <= start < n):
            raise InvalidCounts(f"start={start} outside [0, {n})")
        check_count(m_max, n, "m_max")
        use_max = kind is CostKind.MAX_ERROR
        dp = _kernels.dp_solve(self.table(kind), self._tables[kind][1], start, m_max, use_max,
                               polygon)
        if dp is None:
            # the bounded pass lost a value it needs past the stored E2
            # rows: the unbounded rerun reads every row, and the table
            # keeps them from now on.  A bounded pass over them would
            # keep the same cells as the one over the stored rows, and
            # lose the same value again, so only the unbounded pass runs.
            self._keep_every_row()
            dp = _kernels._dp_layers(self.table(kind), self._tables[kind][1], start, m_max,
                                     np.add, None)
        return dp

    def profile(self, start: int, m_max: int, kind: CostKind) -> ErrorProfile:
        dp = self._solve(start, m_max, kind)
        n = self.curve.n
        values = np.full(m_max + 1, np.nan)
        values[3:] = dp[3 : m_max + 1, n]
        return ErrorProfile(self.curve, start, kind, m_max, values)

    def polygon(self, start: int, m: int, kind: CostKind) -> PolygonApprox:
        """The optimal m-gon through start, by a solve seeded for that
        polygon alone (_kernels.dp_solve)."""
        dp = self._dp(start, m, kind, True)
        chain = _kernels.dp_chain(self.table(kind), start, dp, m, kind is CostKind.MAX_ERROR)
        n = self.curve.n
        # the chain runs from position n, the start again, back to 0
        return PolygonApprox(self.curve, sorted((start + a) % n for a in chain[1:]))


def provisional_start_vertex(curve: DigitalCurve) -> int:
    """Index of the point farthest from the centroid, lowest on ties."""
    cx, cy = centroid(curve)
    rel = curve.points.astype(np.float64) - (cx, cy)
    d2 = (rel * rel).sum(axis=1)
    return int(np.argmax(d2))


def select_start_vertex(
    curve: DigitalCurve,
    m_sub: int,
    kind: CostKind,
    costs: SegmentCosts,
) -> int:
    """Start vertex for baseline profiles.

    Pass one of the protocol: approximate optimally from the provisional
    start and hand back the second vertex of that polygon in circular
    order, which tends to sit on a genuine corner of the contour.
    """
    check_count(m_sub, curve.n, "m_sub")
    p0 = provisional_start_vertex(curve)
    poly = costs.polygon(p0, m_sub, kind)
    idx = poly.indices
    pos = int(np.nonzero(idx == p0)[0][0])
    return int(idx[(pos + 1) % poly.m])


# perfbench's workloads still call this; the next change to the
# benchmark (ROADMAP D1) moves them to SegmentCosts.profile and drops it.
def optimal_profile(
    curve: DigitalCurve,
    start: int,
    m_max: int,
    kind: CostKind,
    costs: SegmentCosts,
) -> ErrorProfile:
    return costs.profile(start, m_max, kind)


def baseline_from_profile(
    profile: ErrorProfile, m_sub: int, error_sub: float
) -> OptimalBaseline:
    """Read one profile twice: the error at m_sub, and the fractional
    vertex count at which the profile comes down to error_sub.

    That count clamps to 3 when error_sub is above the profile's value
    at 3 (tested first: on a rising profile an error can meet both), and
    to m_max when error_sub is below the value at m_max.  Otherwise
    it is the smallest m with values[m] == error_sub when the error
    lands exactly on the profile (plateaus resolve toward fewer
    vertices, which credits the suboptimal polygon least), else a
    linear interpolation inside the bracketing strict descent.
    """
    error_optimal = profile.value(m_sub)
    vals, m_max = profile.values, profile.m_max
    if error_sub > vals[3]:
        return OptimalBaseline(error_optimal, 3.0, profile.start_index, True)
    if error_sub < vals[m_max]:
        return OptimalBaseline(error_optimal, float(m_max), profile.start_index, True)
    # smallest m whose optimal error does not exceed error_sub
    m_lo = 3
    while vals[m_lo] > error_sub:
        m_lo += 1
    if vals[m_lo] == error_sub:
        m_optimal = float(m_lo)
    else:
        upper, lower = vals[m_lo - 1], vals[m_lo]
        m_optimal = (m_lo - 1) + (upper - error_sub) / (upper - lower)
    return OptimalBaseline(error_optimal, m_optimal, profile.start_index)
