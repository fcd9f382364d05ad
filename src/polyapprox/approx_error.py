"""Approximation error of polygons drawn on a closed digital curve.

The deviation of a curve point from a polygon side is its perpendicular
distance to the infinite line through the side's endpoints, not to the
clipped segment.  Per-side sums of squared deviations come from moment
prefix tables in O(1) per query; a naive loop is kept as a reference
implementation for tests.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curve import DigitalCurve
from .exceptions import DegenerateSegment, InvalidCounts

__all__ = [
    "MomentTables",
    "SegmentErrors",
    "PolygonApprox",
    "moment_tables",
    "perpendicular_distance",
    "segment_errors",
    "segment_errors_naive",
    "polygon_errors",
    "polygon_errors_naive",
    "polygon_errors_points",
    "compression_ratio",
]


@dataclass(frozen=True)
class SegmentErrors:
    """Errors of one polygon side: sum of squares and the largest single
    deviation over the strictly intervening arc points."""

    sum_sq: float
    max_e: float


@dataclass(frozen=True)
class MomentTables:
    """Doubled prefix sums of x, y, x^2, y^2, xy for circular arc sums.

    Arrays have length 2n + 1 with a leading zero, so the sum over the
    doubled half-open range [a, b) is prefix[b] - prefix[a] for any arc,
    wrapped or not.
    """

    n: int
    px: np.ndarray
    py: np.ndarray
    pxx: np.ndarray
    pyy: np.ndarray
    pxy: np.ndarray

    @classmethod
    def build(cls, points: np.ndarray) -> "MomentTables":
        pts = np.asarray(points, dtype=np.float64)
        return cls(pts.shape[0], *_kernels.doubled_prefixes(pts[:, 0], pts[:, 1]))


# weak keys: a cached curve is freed, with its tables, once unreferenced
_MOMENT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def moment_tables(curve: DigitalCurve) -> MomentTables:
    """Per-curve cached moment tables (curves are immutable)."""
    tables = _MOMENT_CACHE.get(curve)
    if tables is None:
        # setdefault keeps the first build when two threads race
        tables = _MOMENT_CACHE.setdefault(curve, MomentTables.build(curve.points))
    return tables


class PolygonApprox:
    """A polygon whose vertices are a subset of the curve's points.

    Vertex indices are kept sorted ascending; sides connect consecutive
    vertices circularly, so the m arcs partition the whole curve.
    """

    __slots__ = ("curve", "indices")

    def __init__(self, curve: DigitalCurve, indices):
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise InvalidCounts("vertex indices must be one-dimensional")
        m = idx.shape[0]
        n = curve.n
        if not (3 <= m <= n):
            raise InvalidCounts(f"need 3 <= m <= n, got m={m}, n={n}")
        if idx.min() < 0 or idx.max() >= n:
            raise InvalidCounts("vertex index out of range")
        idx = np.sort(idx)
        if np.unique(idx).shape[0] != m:
            raise InvalidCounts("vertex indices must be distinct")
        idx.setflags(write=False)
        self.curve = curve
        self.indices = idx

    @property
    def m(self) -> int:
        return self.indices.shape[0]

    def vertex_points(self) -> np.ndarray:
        return self.curve.points[self.indices]

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other):
        return (
            isinstance(other, PolygonApprox)
            and self.curve is other.curve
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"<PolygonApprox m={self.m} of {self.curve!r}>"


def perpendicular_distance(p_u, p_v, p_w) -> float:
    """Distance from p_w to the infinite line through p_u and p_v."""
    xu, yu = float(p_u[0]), float(p_u[1])
    xv, yv = float(p_v[0]), float(p_v[1])
    xw, yw = float(p_w[0]), float(p_w[1])
    dx = xv - xu
    dy = yv - yu
    if dx == 0.0 and dy == 0.0:
        raise DegenerateSegment(f"segment endpoints coincide at ({xu}, {yu})")
    return abs((xw - xu) * dy - (yw - yu) * dx) / math.hypot(dx, dy)


def _arc_interior(n: int, u: int, v: int) -> range:
    # doubled indices of points strictly between u and v walking forward
    length = (v - u) % n
    return range(u + 1, u + length)


def arc_sum_sq(points: np.ndarray, tables: MomentTables, u: int, v: int) -> float:
    """O(1) sum of squared deviations over the forward arc u -> v."""
    n = tables.n
    xu = float(points[u, 0])
    yu = float(points[u, 1])
    dx = float(points[v, 0]) - xu
    dy = float(points[v, 1]) - yu
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        raise DegenerateSegment(f"points {u} and {v} coincide")
    length = (v - u) % n
    if length <= 1:
        return 0.0
    a = u + 1
    b = u + length
    sx = tables.px[b] - tables.px[a]
    sy = tables.py[b] - tables.py[a]
    sxx = tables.pxx[b] - tables.pxx[a]
    syy = tables.pyy[b] - tables.pyy[a]
    sxy = tables.pxy[b] - tables.pxy[a]
    k = yu * dx - xu * dy
    cnt = float(length - 1)
    num = (
        dy * dy * sxx
        + dx * dx * syy
        - 2.0 * dx * dy * sxy
        + 2.0 * k * dy * sx
        - 2.0 * k * dx * sy
        + cnt * k * k
    )
    return max(num, 0.0) / l2


def _arc_max_e(points: np.ndarray, n: int, u: int, v: int) -> float:
    xu = float(points[u, 0])
    yu = float(points[u, 1])
    dx = float(points[v, 0]) - xu
    dy = float(points[v, 1]) - yu
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        raise DegenerateSegment(f"points {u} and {v} coincide")
    best = 0.0
    for t in _arc_interior(n, u, v):
        w = t % n
        c = abs((float(points[w, 0]) - xu) * dy - (float(points[w, 1]) - yu) * dx)
        if c > best:
            best = c
    return best / math.sqrt(l2)


def segment_errors(
    curve: DigitalCurve, u: int, v: int, tables: MomentTables | None = None
) -> SegmentErrors:
    """Errors of the side from curve point u to curve point v.

    Only points strictly inside the forward arc contribute; the side's
    endpoints are on the line by construction.
    """
    n = curve.n
    u, v = u % n, v % n
    if u == v:
        raise DegenerateSegment(f"u and v are the same index {u}")
    if tables is None:
        tables = moment_tables(curve)
    pts = curve.points
    return SegmentErrors(
        sum_sq=arc_sum_sq(pts, tables, u, v),
        max_e=_arc_max_e(pts, n, u, v),
    )


def segment_errors_naive(curve: DigitalCurve, u: int, v: int) -> SegmentErrors:
    """Reference implementation: direct loop over the arc interior."""
    n = curve.n
    u, v = u % n, v % n
    if u == v:
        raise DegenerateSegment(f"u and v are the same index {u}")
    pu = curve.point(u)
    pv = curve.point(v)
    ss = 0.0
    mx = 0.0
    for t in _arc_interior(n, u, v):
        e = perpendicular_distance(pu, pv, curve.point(t % n))
        ss += e * e
        mx = max(mx, e)
    return SegmentErrors(ss, mx)


def polygon_errors_points(points: np.ndarray, indices) -> tuple[float, float]:
    """(E2, Emax) of a polygon over a raw point array.

    E2 sums the squared deviations of every non-vertex point against its
    covering side; Emax is the largest single deviation.  Exposed at the
    array level so invariance checks can feed transformed float points.
    """
    pts = np.asarray(points, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    n = pts.shape[0]
    m = idx.shape[0]
    tables = MomentTables.build(pts)
    e2 = 0.0
    emax = 0.0
    for i in range(m):
        u = int(idx[i])
        v = int(idx[(i + 1) % m])
        e2 += arc_sum_sq(pts, tables, u, v)
        emax = max(emax, _arc_max_e(pts, n, u, v))
    return e2, emax


def polygon_errors(curve: DigitalCurve, poly: PolygonApprox) -> tuple[float, float]:
    """(E2, Emax) of a polygon on its curve."""
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    pts = curve.points
    tables = moment_tables(curve)
    idx = poly.indices
    m = poly.m
    e2 = 0.0
    emax = 0.0
    for i in range(m):
        u = int(idx[i])
        v = int(idx[(i + 1) % m])
        e2 += arc_sum_sq(pts, tables, u, v)
        emax = max(emax, _arc_max_e(pts, curve.n, u, v))
    return e2, emax


def polygon_errors_naive(curve: DigitalCurve, poly: PolygonApprox) -> tuple[float, float]:
    """Reference double loop for tests."""
    idx = poly.indices
    m = poly.m
    e2 = 0.0
    emax = 0.0
    for i in range(m):
        se = segment_errors_naive(curve, int(idx[i]), int(idx[(i + 1) % m]))
        e2 += se.sum_sq
        emax = max(emax, se.max_e)
    return e2, emax


def compression_ratio(n: int, m: int) -> float:
    """Curve points per polygon vertex."""
    if n < 3 or m < 3 or m > n:
        raise InvalidCounts(f"need 3 <= m <= n, got n={n}, m={m}")
    return n / m
