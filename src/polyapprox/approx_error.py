"""Approximation error of polygons drawn on a closed digital curve.

The deviation of a curve point from a polygon side is its perpendicular
distance to the infinite line through the side's endpoints, not to the
clipped segment.  Per-side sums of squared deviations (E2) are read by
one rule (E2Costs): an arc of a span the curve's E2 table stores is read
from that table while a SegmentCosts holds it, and every other arc is
evaluated in O(1) from doubled moment prefixes by one closed form
(_kernels.e2_arc_costs, and _arc_e2 for one arc).  Every table entry is
its arc's closed-form value bit for bit.
"""

from __future__ import annotations

import functools
import operator
import weakref

import numpy as np

from . import _kernels
from .curve import DigitalCurve, exact_int64
from .exceptions import DegenerateSegment, InvalidCounts

__all__ = [
    "PolygonApprox",
    "E2Costs",
    "polygon_errors",
    "compression_ratio",
]


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

    All three read by one rule.  An arc of fewer than `rows` steps is
    read from the curve's E2 table (span-major, _kernels.e2_cost_table)
    that a live SegmentCosts holds: a lookup, a gather, and for splits a
    diagonal, as two strided slices, plus a strided column.  Every other
    arc is evaluated by the closed form: arc by arc on Python floats
    (raising DegenerateSegment for a side between coincident points),
    and on arrays through one e2_arc_costs call.  With no table held,
    `rows` is 0.  `lookup(span, v)` is the table's own item lookup, for
    callers that know an arc's span is below `rows`.  The closed form's
    doubled prefixes are built on the first arc read past the stored
    rows, and its Python floats on the first such arc read by arc().
    Every table entry is the closed form's value bit for bit, so both
    give the same costs.
    """

    __slots__ = ("rows", "lookup", "arc", "arcs", "splits")

    def __init__(self, curve: DigitalCurve):
        n = curve.n
        ref = _E2_TABLES.get(curve)
        held = None if ref is None else ref()
        table = np.empty((0, n)) if held is None else held
        rows, item, flat = table.shape[0], table.item, table.reshape(-1)

        @functools.cache
        def closed():
            pts = curve.points_float()
            xs, ys = pts[:, 0], pts[:, 1]
            return functools.partial(_kernels.e2_arc_costs, xs, ys,
                                     _kernels.doubled_prefixes(xs, ys))

        @functools.cache
        def closed_arc():
            # Python floats: one arc at a time is scalar work
            xs, ys, prefixes = closed().args
            return functools.partial(_arc_e2, xs.tolist(), ys.tolist(),
                                     tuple(p.tolist() for p in prefixes), n)

        def arc(u, v):
            span = (v - u) % n
            if span < rows:
                return item(span, v)
            return closed_arc()(u, v)

        def arcs(u, v):
            span = np.subtract(v, u) % n
            far = span >= rows
            count = np.count_nonzero(far)
            if count == 0:
                return table[span, v]
            if count == far.size:
                return closed()(u, v)
            # a gather of the stored spans (row 0 in place of the others),
            # then the closed form past the rows
            u, v, span, far = np.broadcast_arrays(u, v, span, far)
            out = table[np.where(far, 0, span), v]
            out[far] = closed()(u[far], v[far])
            return out[()]

        def splits(p, q):
            k = (q - p) % n
            if k > rows:
                # ends holds rows p, j and q: the sides p -> j and
                # j -> q run from ends[:2] to ends[1:]
                ends = np.empty((3, k - 1), dtype=np.int64)
                ends[0], ends[1], ends[2] = p, np.arange(p + 1, p + k) % n, q
                sides = arcs(ends[:2], ends[1:])
                return sides[0] + sides[1]
            # the side p -> p + t is entry [t, (p + t) % n]: flat entry
            # t (n + 1) + p, less n once p + t passes n - 1
            cut = min(k, n - p) * (n + 1) + p
            firsts = np.concatenate((flat[n + 1 + p:cut:n + 1],
                                     flat[cut - n:k * (n + 1) + p - n:n + 1]))
            return firsts + table[k - 1:0:-1, q]

        self.rows, self.lookup, self.arc, self.arcs, self.splits = rows, item, arc, arcs, splits


def check_count(m: int, n: int, name: str = "m") -> None:
    """The vertex-count rule: a polygon on n curve points has a whole
    number of vertices, 3 to n."""
    try:
        operator.index(m)
    except TypeError:
        raise InvalidCounts(f"{name} must be an integer, got {name}={m!r}") from None
    if not (3 <= m <= n):
        raise InvalidCounts(f"need 3 <= {name} <= {n}, got {name}={m}")


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
    """e2_arc_costs of one arc u -> v on float coordinates and their
    doubled prefixes, as numpy arrays or Python lists, which give the
    same bits.  It calls no builtin (no float(), no max()): elimination
    calls it once per rescored arc."""
    xu = xs[u]
    yu = ys[u]
    dx = xs[v] - xu
    dy = ys[v] - yu
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
    cnt = length - 1.0
    num = (
        dy * dy * sxx
        + dx * dx * syy
        - 2.0 * dx * dy * sxy
        + 2.0 * k * dy * sx
        - 2.0 * k * dx * sy
        + cnt * k * k
    )
    # cancellation can leave tiny negatives on collinear arcs
    if num < 0.0:
        num = 0.0
    return num / l2


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


def polygon_errors(curve: DigitalCurve, poly: PolygonApprox) -> tuple[float, float]:
    """(E2, Emax) of a polygon on its curve.  Emax comes first, raising
    DegenerateSegment on a side between coincident points, whose E2
    would be 0 / 0; the sides' E2, read by E2Costs, are summed left to
    right."""
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    u = poly.indices
    v = np.roll(u, -1)
    emax = float(_arcs_max_e(curve.points, curve.n, u, v).max())
    e2 = 0.0
    for side in E2Costs(curve).arcs(u, v):
        e2 += side
    return e2, emax


def compression_ratio(n: int, m: int) -> float:
    """Curve points per polygon vertex."""
    check_count(m, n)
    return n / m
