"""Approximation error of polygons drawn on a closed digital curve.

The deviation of a curve point from a polygon side is its perpendicular
distance to the infinite line through the side's endpoints, not to the
clipped segment.  Per-side sums of squared deviations come from moment
prefix tables in O(1) per query.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import _kernels
from .curve import DigitalCurve
from .exceptions import DegenerateSegment, InvalidCounts

__all__ = [
    "PolygonApprox",
    "moment_tables",
    "arc_sum_sq",
    "polygon_errors",
    "compression_ratio",
]


# weak keys: a cached curve is freed, with its tables, once unreferenced
_MOMENT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def moment_tables(curve: DigitalCurve) -> tuple:
    """Per-curve cached (px, py, pxx, pyy, pxy) of
    _kernels.doubled_prefixes (curves are immutable)."""
    prefixes = _MOMENT_CACHE.get(curve)
    if prefixes is None:
        pts = curve.points.astype(np.float64)
        # setdefault keeps the first build when two threads race
        prefixes = _MOMENT_CACHE.setdefault(
            curve, _kernels.doubled_prefixes(pts[:, 0], pts[:, 1])
        )
    return prefixes


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


def _arc_e2(xs, ys, prefixes, n: int, u: int, v: int):
    """arc_sum_sq on any indexable coordinates and doubled prefixes:
    numpy arrays or Python lists, which give the same bits."""
    xu = float(xs[u])
    yu = float(ys[u])
    dx = float(xs[v]) - xu
    dy = float(ys[v]) - yu
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        raise DegenerateSegment(f"points {u} and {v} coincide")
    length = (v - u) % n
    if length <= 1:
        return 0.0
    px, py, pxx, pyy, pxy = prefixes
    a = u + 1
    b = u + length
    sx = px[b] - px[a]
    sy = py[b] - py[a]
    sxx = pxx[b] - pxx[a]
    syy = pyy[b] - pyy[a]
    sxy = pxy[b] - pxy[a]
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


def arc_sum_sq(points: np.ndarray, prefixes: tuple, u: int, v: int) -> float:
    """O(1) sum of squared deviations over the forward arc u -> v, from
    the points' doubled prefixes (moment_tables)."""
    return _arc_e2(points[:, 0], points[:, 1], prefixes, points.shape[0], u, v)


def _arcs_max_e(points: np.ndarray, n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Largest deviation over each forward arc u[k] -> v[k].

    One array pass over the interior points of every arc; each arc takes
    its max |cross| and then one division by its chord length, as the
    Emax tables do.  Arcs with no interior give 0.
    """
    xu = points[u, 0].astype(np.float64)
    yu = points[u, 1].astype(np.float64)
    dx = points[v, 0] - xu
    dy = points[v, 1] - yu
    l2 = dx * dx + dy * dy
    if (l2 == 0.0).any():
        k = int(np.argmax(l2 == 0.0))
        raise DegenerateSegment(f"points {u[k]} and {v[k]} coincide")
    counts = (v - u) % n - 1
    arc = np.repeat(np.arange(u.shape[0]), counts)
    first = np.cumsum(counts) - counts
    w = (u[arc] + 1 + np.arange(arc.shape[0]) - first[arc]) % n
    cross = np.abs((points[w, 0] - xu[arc]) * dy[arc] - (points[w, 1] - yu[arc]) * dx[arc])
    best = np.zeros(u.shape[0])
    full = counts > 0
    if full.any():
        best[full] = np.maximum.reduceat(cross, first[full])
    return best / np.sqrt(l2)


def _polygon_errors(points: np.ndarray, prefixes: tuple, idx) -> tuple[float, float]:
    u = np.asarray(idx)
    v = np.roll(u, -1)
    e2 = 0.0
    for a, b in zip(u.tolist(), v.tolist()):
        e2 += arc_sum_sq(points, prefixes, a, b)
    return e2, float(_arcs_max_e(points, points.shape[0], u, v).max())


def polygon_errors(curve: DigitalCurve, poly: PolygonApprox) -> tuple[float, float]:
    """(E2, Emax) of a polygon on its curve."""
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    return _polygon_errors(curve.points, moment_tables(curve), poly.indices)


def compression_ratio(n: int, m: int) -> float:
    """Curve points per polygon vertex."""
    if n < 3 or m < 3 or m > n:
        raise InvalidCounts(f"need 3 <= m <= n, got n={n}, m={m}")
    return n / m
