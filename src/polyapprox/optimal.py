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
from .approx_error import E2Costs, PolygonApprox, _arcs_max_e, check_count, record_e2_table
from .curve import DigitalCurve, centroid
from .exceptions import AboveBound, CurveTooLarge, DegenerateSegment, InvalidCounts

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
    polygons counted contain the start vertex.  A profile solved under a
    bound (SegmentCosts.set_bound) holds +inf for each value above it.
    """

    curve: DigitalCurve
    start_index: int
    cost_kind: CostKind
    m_max: int
    values: np.ndarray
    bound: float | None = None

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
# SegmentCosts holds at most both tables at n rows (a table keeps at
# least every row with an entry at or under its bound, which can be all
# n, as for the Emax table of the corpus's ellipse_thin), and building
# the Emax table takes its hull levels besides: at most _LEVEL_TABLES n
# x n tables of them on the rings where they are largest, those whose
# every point is a vertex of each window's hull and whose long arcs stay
# under the table's bound, such as integer points of a thin ellipse
# (tracemalloc: at most 10.2 tables for the build, table included, at n
# = 100 to 1030, highest where n - 2 is a power of two).  So 12 tables
# of n^2 entries, about n = 4560 points.
MAX_TABLE_BYTES = 2 * 10**9
_LEVEL_TABLES = 10


class SegmentCosts:
    """Per-curve cache of forward-arc cost tables.

    The span-major tables depend only on the curve, not on the DP start,
    so one instance serves every start vertex and both cost kinds.
    Every solve runs to a bound (_kernels.dp_solve), on a table built,
    by one kernel call that takes the bound, to store every entry at or
    under it, and gon_cost supplies each bound.

    set_bound(kind, b) builds that kind's table only up to b, and every
    solve on it runs to b: each value at or under b is exact, and each
    value above it comes back +inf; a polygon above b raises AboveBound.
    A new bound drops the table, and the next solve builds it again.

    With no bound set, every value is exact.  The E2 table is built to
    G, the largest U3 of any start; the Emax table to B, the largest
    Emax of an arc of at most ceil(n/3) steps, holding +inf above it
    (_kernels.emax_cost_table): no optimal polygon of 3 or more
    vertices, nor one tied with it, has a side above B, and every U_m
    is at most B.  A polygon solve from start runs to U_m(start), and a
    profile solve to U3(start); a profile value above U3(start) comes
    back +inf, and the profile is solved again to the largest U_m(start)
    of those counts m, which bounds each of their values.  A solve to a
    bound above G builds the E2 table again to that bound first, and
    keeps it.

    Curves are rejected up front whose tables would take more than
    MAX_TABLE_BYTES, whose x or y coordinates span 2**26
    (_kernels.EXACT_SPAN) or more, beyond which float64 cross products
    lose bits, or whose points coincide (non-consecutively), which would
    leave some table entry without a defining line.

    Tables are read-only.  While an instance holds the curve's E2 table,
    approx_error.E2Costs reads every arc of a span it stores from it, so
    elimination, stabilize and polygon_errors evaluate the closed form
    only past its rows: a table is never grown, only built again to a
    new bound.  Only a weak reference to it is recorded, so the table
    goes with the instance: a study keeps one curve's tables at a time.
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
        # per kind: the table, its band widths (_kernels.cheapest_sides)
        # and the bound at or under which it stores every entry
        self._tables: dict[CostKind, tuple[np.ndarray, np.ndarray, float]] = {}
        # per kind: the caller's bound, if any
        self._bounds: dict[CostKind, float] = {}

    def set_bound(self, kind: CostKind, bound: float) -> None:
        """Build the kind's table, and solve on it, only up to `bound`."""
        if self._bounds.get(kind) != bound:
            self._bounds[kind] = bound
            self._tables.pop(kind, None)

    def gon_cost(self, start: int | np.ndarray, m: int, kind: CostKind) -> float:
        """U_m from start: the cost of the m-gon through start + floor(i
        n / m), i = 0..m, from its m arcs, needing no table of its own;
        for an array of starts, the largest of their U_m.  Its sides are
        the table's bits (E2Costs, and the Emax tables' one division of
        the exact largest |cross|), combined left to right as the DP
        combines them, so it equals U_m over any table storing them bit
        for bit."""
        n = self.curve.n
        at = (np.reshape(start, (-1, 1)) + np.arange(m + 1) * n // m) % n
        if kind is CostKind.MAX_ERROR:
            return float(_arcs_max_e(self.curve.points, n, at[:, :-1].ravel(),
                                     at[:, 1:].ravel()).max())
        sides = E2Costs(self.curve).arcs(at[:, :-1], at[:, 1:])
        return float(np.add.accumulate(sides, axis=1)[:, -1].max())

    def table(self, kind: CostKind) -> np.ndarray:
        if kind not in self._tables:
            self._build(kind, self._bounds.get(kind))
        return self._tables[kind][0]

    def _build(self, kind: CostKind, bound: float | None) -> None:
        """Build the kind's table to `bound`, by default to G (E2) or B
        (Emax), and keep it."""
        pts = self.curve.points
        xs, ys = pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64)
        if kind is CostKind.SUM_SQUARED:
            if bound is None:
                bound = self.gon_cost(np.arange(self.curve.n), 3, kind)
            tab = _kernels.e2_cost_table(xs, ys, bound)
        else:
            tab = _kernels.emax_cost_table(xs, ys, bound)
        # B, with no bound, is at or over every bound an Emax solve runs to
        self._keep(kind, tab, np.inf if bound is None else bound)

    def _keep(self, kind: CostKind, tab: np.ndarray, bound: float = np.inf) -> None:
        """Hold `tab`, which stores every entry at or under `bound`."""
        tab.setflags(write=False)
        self._tables[kind] = tab, _kernels.cheapest_sides(tab), bound
        if kind is CostKind.SUM_SQUARED:
            record_e2_table(self.curve, tab)

    def _solve(self, start: int, m_max: int, kind: CostKind):
        """The DP array of a profile solve from start to m_max: the entry
        perfbench/spans.py wraps, with exactly these arguments."""
        return self._dp(start, m_max, kind, False)

    def _dp(self, start: int, m_max: int, kind: CostKind, polygon: bool):
        """The DP array of a profile solve, or (polygon True) of one for
        the m_max-gon alone, to the caller's bound or to gon_cost's: the
        one path that profile and polygon solves share."""
        n = self.curve.n
        if not (0 <= start < n):
            raise InvalidCounts(f"start={start} outside [0, {n})")
        check_count(m_max, n, "m_max")
        bound = self._bounds.get(kind)
        if bound is not None:
            return self._dp_to(start, m_max, kind, polygon, bound)
        # built first, so that gon_cost reads the E2 table, not the
        # closed form
        self.table(kind)
        if polygon:
            return self._dp_to(start, m_max, kind, True, self.gon_cost(start, m_max, kind))
        dp = self._dp_to(start, m_max, kind, False, self.gon_cost(start, 3, kind))
        # the values above U3(start), each at or under its U_m(start)
        rose = 3 + np.flatnonzero(np.isinf(dp[3:, n]))
        if rose.size:
            dp = self._dp_to(start, m_max, kind, False,
                             max(self.gon_cost(start, int(m), kind) for m in rose))
        return dp

    def _dp_to(self, start: int, m_max: int, kind: CostKind, polygon: bool, bound: float):
        """_kernels.dp_solve to `bound`, on the kind's table built again
        to the bound first where it stores less."""
        self.table(kind)
        if self._tables[kind][2] < bound:
            # the stored rows go before the new ones are built
            del self._tables[kind]
            self._build(kind, bound)
        tab, cheapest, _ = self._tables[kind]
        return _kernels.dp_solve(tab, cheapest, start, m_max, kind is CostKind.MAX_ERROR,
                                 polygon, bound)

    def profile(self, start: int, m_max: int, kind: CostKind) -> ErrorProfile:
        dp = self._solve(start, m_max, kind)
        n = self.curve.n
        values = np.full(m_max + 1, np.nan)
        values[3:] = dp[3 : m_max + 1, n]
        return ErrorProfile(self.curve, start, kind, m_max, values, self._bounds.get(kind))

    def polygon(self, start: int, m: int, kind: CostKind) -> PolygonApprox:
        """The optimal m-gon through start, by a solve for that polygon
        alone (_kernels.dp_solve)."""
        dp = self._dp(start, m, kind, True)
        if np.isinf(dp[m, -1]):
            raise AboveBound(f"the optimal {m}-gon lies above the bound"
                             f" {self._bounds.get(kind)}", (m,))
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
# benchmark (ROADMAP D18) moves them to SegmentCosts.profile and drops it.
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

    A profile with a bound holds +inf for each value above it, which
    compares with an error at or under the bound as the value does.  So
    it raises AboveBound for an error_sub above the bound, and where the
    value at m_sub, or the upper end of the descent, lies above it,
    naming both counts where both do.
    """
    error_optimal = profile.value(m_sub)
    vals, m_max, bound = profile.values, profile.m_max, profile.bound
    if bound is not None and error_sub > bound:
        raise AboveBound(f"error {error_sub!r} above the profile's bound {bound!r}")
    # vertex counts whose values are read
    reads = [m_sub]
    if error_sub > vals[3]:
        m_optimal, clamped = 3.0, True
    elif error_sub < vals[m_max]:
        m_optimal, clamped = float(m_max), True
    else:
        clamped = False
        # smallest m whose optimal error does not exceed error_sub
        m_lo = 3
        while vals[m_lo] > error_sub:
            m_lo += 1
        m_optimal = float(m_lo)
        if vals[m_lo] != error_sub:
            reads.append(m_lo - 1)
    above = tuple(m for m in reads if np.isinf(vals[m]))
    if bound is not None and above:
        raise AboveBound(f"the values at m={above} lie above the bound {bound!r}", above)
    if len(reads) > 1:
        upper, lower = vals[m_lo - 1], vals[m_lo]
        m_optimal = (m_lo - 1) + (upper - error_sub) / (upper - lower)
    return OptimalBaseline(error_optimal, m_optimal, profile.start_index, clamped)
