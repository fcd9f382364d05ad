"""Optimal polygonal approximation by dynamic programming.

For a fixed start vertex, the minimum-error polygon with exactly m
vertices is found by a DP over rotated indices: states are (vertices
used, arc endpoint), transitions append one side, and the closing column
lands back on the start.  Squared error accumulates by addition, max
error by taking maxima.  One DP sweep yields the whole error-versus-m
profile up to m_max plus parent pointers for reconstruction.

The start vertex itself is chosen by a three-pass protocol: approximate
from a provisional start (the point farthest from the centroid), keep
the second vertex of that polygon as the real start, then profile from
it.  The profile is then read twice: the error at the suboptimal
polygon's vertex count, and the fractional vertex count at which the
optimal error would match the suboptimal polygon's error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .approx_error import PolygonApprox
from .curve import DigitalCurve, centroid
from .exceptions import CurveTooLarge, DegenerateSegment, InvalidCounts, OutOfRange

__all__ = [
    "CostKind",
    "ErrorProfile",
    "OptimalBaseline",
    "SegmentCosts",
    "provisional_start_vertex",
    "select_start_vertex",
    "optimal_profile",
    "interpolate_m_optimal",
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
        if not (3 <= m <= self.m_max):
            raise InvalidCounts(f"m={m} outside [3, {self.m_max}]")
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


# Most memory one curve's cost tables may take: both n x n tables plus
# two (n+1)^2 arrays for the DP cost matrix and the largest transient,
# 8 bytes an entry.  About n = 7900 points.
MAX_TABLE_BYTES = 2 * 10**9


class SegmentCosts:
    """Per-curve cache of forward-arc cost tables.

    The n x n tables depend only on the curve, not on the DP start, so
    one instance serves every start vertex and both cost kinds.  The
    Emax table holds +inf for sides that no optimal polygon of 3 or more
    vertices, nor one tied with it, can use (those above the largest
    Emax of an arc of at most ceil(n/3) steps); its other entries, and
    so every profile value and polygon, are exact.  Curves are rejected
    up front whose tables would take more than MAX_TABLE_BYTES, whose x
    or y coordinates span 2**26 (_kernels.EXACT_SPAN) or more, beyond
    which float64 cross products lose bits, or whose points coincide
    (non-consecutively), which would leave some table entry without a
    defining line.
    """

    def __init__(self, curve: DigitalCurve):
        n = curve.n
        need = 8 * (2 * n * n + 2 * (n + 1) ** 2)
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
        self._tables: dict[CostKind, np.ndarray] = {}

    def table(self, kind: CostKind) -> np.ndarray:
        tab = self._tables.get(kind)
        if tab is None:
            xs = self.curve.points[:, 0].astype(np.float64)
            ys = self.curve.points[:, 1].astype(np.float64)
            if kind is CostKind.SUM_SQUARED:
                tab = _kernels.e2_cost_table(xs, ys)
            else:
                tab = _kernels.emax_cost_table(xs, ys)
            self._tables[kind] = tab
        return tab

    def _solve(self, start: int, m_max: int, kind: CostKind):
        n = self.curve.n
        if not (0 <= start < n):
            raise InvalidCounts(f"start={start} outside [0, {n})")
        if not (3 <= m_max <= n):
            raise InvalidCounts(f"need 3 <= m_max <= n, got m_max={m_max}, n={n}")
        rcost = _kernels.dp_cost_matrix(self.table(kind), start)
        return _kernels.dp_solve(rcost, m_max, kind is CostKind.MAX_ERROR)

    def profile(self, start: int, m_max: int, kind: CostKind) -> ErrorProfile:
        dp, _ = self._solve(start, m_max, kind)
        n = self.curve.n
        values = np.full(m_max + 1, np.nan)
        values[3:] = dp[3 : m_max + 1, n]
        return ErrorProfile(self.curve, start, kind, m_max, values)

    def polygon(self, start: int, m: int, kind: CostKind) -> PolygonApprox:
        dp, parent = self._solve(start, m, kind)
        n = self.curve.n
        rotated = []
        v = n
        j = m
        while j >= 1:
            u = int(parent[j, v])
            rotated.append(u)
            v = u
            j -= 1
        # parent chain ends on the start itself
        assert rotated[-1] == 0
        original = [(start + a) % n for a in rotated]
        return PolygonApprox(self.curve, sorted(original))


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
    if not (3 <= m_sub <= curve.n):
        raise InvalidCounts(f"need 3 <= m_sub <= n, got m_sub={m_sub}, n={curve.n}")
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


def interpolate_m_optimal(profile: ErrorProfile, error_sub: float) -> float:
    """Fractional vertex count at which the profile crosses error_sub.

    Returns the smallest m with values[m] == error_sub when the query
    lands exactly on the profile (plateaus resolve toward fewer
    vertices, which credits the suboptimal polygon least); otherwise
    interpolates linearly inside the bracketing strict descent.
    """
    vals = profile.values
    m_max = profile.m_max
    if error_sub > vals[3]:
        raise OutOfRange(
            f"error {error_sub} above profile start {vals[3]}", side="low"
        )
    if error_sub < vals[m_max]:
        raise OutOfRange(
            f"error {error_sub} below profile end {vals[m_max]}", side="high"
        )
    # smallest m whose optimal error does not exceed error_sub
    m_lo = 3
    while vals[m_lo] > error_sub:
        m_lo += 1
    if vals[m_lo] == error_sub:
        return float(m_lo)
    upper = vals[m_lo - 1]
    lower = vals[m_lo]
    return (m_lo - 1) + (upper - error_sub) / (upper - lower)


def baseline_from_profile(
    profile: ErrorProfile, m_sub: int, error_sub: float
) -> OptimalBaseline:
    """Read one profile twice: error at m_sub, vertex count at error_sub."""
    error_optimal = profile.value(m_sub)
    try:
        m_optimal = interpolate_m_optimal(profile, error_sub)
        clamped = False
    except OutOfRange as exc:
        m_optimal = 3.0 if exc.side == "low" else float(profile.m_max)
        clamped = True
    return OptimalBaseline(error_optimal, m_optimal, profile.start_index, clamped)
