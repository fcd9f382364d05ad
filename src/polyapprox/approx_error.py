"""Approximation error of polygons drawn on a closed digital curve.

The deviation of a curve point from a polygon side is its perpendicular
distance to the infinite line through the side's endpoints, not to the
clipped segment.  Per-side sums of squared deviations come from moment
prefix tables in O(1) per query by one closed form (_kernels.e2_arc_costs,
and _arc_e2 for one arc), or, for the schemes, from the curve's E2 table
while a SegmentCosts holds one, on the spans it stores (E2Costs).
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from . import _kernels
from .curve import DigitalCurve, exact_int64
from .exceptions import DegenerateSegment, InvalidCounts

__all__ = [
    "PolygonApprox",
    "moment_tables",
    "E2Costs",
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


# weak keys and weak values: a curve's E2 table lives as long as the
# SegmentCosts that built it, not as long as the curve
_E2_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def record_e2_table(curve: DigitalCurve, table: np.ndarray) -> None:
    """Let E2Costs read `table`, the curve's E2 cost table, for as long
    as its owner keeps it; only a weak reference is recorded."""
    _E2_TABLES[curve] = weakref.ref(table)


class E2Costs:
    """Summed squared deviation over the forward arcs of one curve:
    arc(u, v) for one arc, as a float, arcs(u, v) for broadcast index
    arrays, and splits(p, q) for the two sides p -> j -> q summed, at
    every j strictly between p and q in order from p.

    While a SegmentCosts that built the curve's E2 table is alive, all
    three read that table (span-major, _kernels.e2_cost_table) for arcs
    of fewer than `rows` steps, the rows it stores: a lookup, a gather,
    and for splits a diagonal, as two strided slices, plus a strided
    column.  `lookup(span, v)` is the table's own item lookup, for
    callers that know an arc's span is below `rows` (None, and `rows`
    0, without a table).  Longer arcs, and every arc without a table,
    are evaluated by the closed form on moment_tables: arc by arc on
    Python floats (raising DegenerateSegment for a side between
    coincident points), and on arrays through one e2_arc_costs call.
    Every table entry is the closed form's value bit for bit, so both
    paths give the same costs.
    """

    __slots__ = ("rows", "lookup", "arc", "arcs", "splits")

    def __init__(self, curve: DigitalCurve):
        n = curve.n
        ref = _E2_TABLES.get(curve)
        table = None if ref is None else ref()
        if table is None:
            rows, item = 0, None
            pts = curve.points_float()
            xs, ys = pts[:, 0], pts[:, 1]
            prefixes = moment_tables(curve)
            # Python floats: one arc at a time is scalar work
            arc = functools.partial(
                _arc_e2, xs.tolist(), ys.tolist(), tuple(p.tolist() for p in prefixes), n
            )
            arcs = functools.partial(_kernels.e2_arc_costs, xs, ys, prefixes)
        else:
            rows, item = table.shape[0], table.item
            flat = table.reshape(-1)

            def arc(u, v):
                span = (v - u) % n
                if span < rows:
                    return item(span, v)
                pts = curve.points
                return _arc_e2(pts[:, 0], pts[:, 1], moment_tables(curve), n, u, v)

            def arcs(u, v):
                span = (v - u) % n
                try:
                    return table[span, v]
                except IndexError:
                    pass
                # a span past the stored rows: the closed form there
                u, v, span = np.broadcast_arrays(u, v, span)
                far = span >= rows
                out = np.array(table[np.where(far, 0, span), v])
                pts = curve.points_float()
                out[far] = _kernels.e2_arc_costs(pts[:, 0], pts[:, 1], moment_tables(curve),
                                                 u[far], v[far])
                return out[()]

        def splits(p, q):
            k = (q - p) % n
            if table is None or k > rows:
                js = (p + np.arange(1, k)) % n
                sides = arcs(np.stack((np.full_like(js, p), js)),
                             np.stack((js, np.full_like(js, q))))
                return sides[0] + sides[1]
            # the side p -> p + t is entry [t, (p + t) % n]: flat entry
            # t (n + 1) + p, less n once p + t passes n - 1
            cut = min(k, n - p) * (n + 1) + p
            firsts = np.concatenate((flat[n + 1 + p:cut:n + 1],
                                     flat[cut - n:k * (n + 1) + p - n:n + 1]))
            return firsts + table[k - 1:0:-1, q]

        self.rows, self.lookup, self.arc, self.arcs, self.splits = rows, item, arc, arcs, splits


def check_count(m: int, n: int, name: str = "m") -> None:
    """The vertex-count rule: a polygon on n curve points has 3 to n
    vertices."""
    if not (3 <= m <= n):
        raise InvalidCounts(f"need 3 <= {name} <= n, got {name}={m}, n={n}")


class PolygonApprox:
    """A polygon whose vertices are a subset of the curve's points.

    Vertex indices are kept sorted ascending; sides connect consecutive
    vertices circularly, so the m arcs partition the whole curve.
    """

    __slots__ = ("curve", "indices")

    def __init__(self, curve: DigitalCurve, indices):
        idx = exact_int64(np.asarray(indices))
        if idx is None:
            raise InvalidCounts("vertex indices must be 64-bit integers")
        if idx.ndim != 1:
            raise InvalidCounts("vertex indices must be one-dimensional")
        m = idx.shape[0]
        n = curve.n
        check_count(m, n)
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
    """e2_arc_costs of one arc u -> v on any indexable coordinates and
    doubled prefixes: numpy arrays or Python lists, which give the same
    bits."""
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
    """(E2, Emax) of the polygon through points[idx].  Emax comes first,
    raising DegenerateSegment on a side between coincident points, whose
    E2 would be 0 / 0; the sides' E2 are summed left to right."""
    u = np.asarray(idx)
    v = np.roll(u, -1)
    emax = float(_arcs_max_e(points, points.shape[0], u, v).max())
    pts = points.astype(np.float64, copy=False)
    e2 = 0.0
    for side in _kernels.e2_arc_costs(pts[:, 0], pts[:, 1], prefixes, u, v):
        e2 += side
    return e2, emax


def polygon_errors(curve: DigitalCurve, poly: PolygonApprox) -> tuple[float, float]:
    """(E2, Emax) of a polygon on its curve."""
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    return _polygon_errors(curve.points, moment_tables(curve), poly.indices)


def compression_ratio(n: int, m: int) -> float:
    """Curve points per polygon vertex."""
    check_count(m, n)
    return n / m
