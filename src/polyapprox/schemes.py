"""Suboptimal approximation schemes: split, eliminate, stabilize.

All three run in low polynomial time and are deterministic: every
tie among floating-point scores resolves to the lowest curve index.
"""

from __future__ import annotations

import enum

import numpy as np

from . import _kernels
from .approx_error import PolygonApprox, arc_sum_sq, moment_tables, perpendicular_distance
from .curve import DigitalCurve
from .exceptions import DegenerateSegment, InvalidCounts
from .optimal import provisional_start_vertex

__all__ = [
    "SchemeId",
    "split_to_m",
    "eliminate_to_m",
    "stabilize",
    "eliminate_stabilized_to_m",
    "apply_scheme",
    "auto_target_m",
]

# relocation sweeps are cheap but each accepted move strictly lowers E2,
# so this cap is a safety net, not the usual stopping reason
_MAX_STABILIZE_PASSES = 50


class SchemeId(enum.Enum):
    SPLIT = "split"
    ELIMINATE = "elim"
    ELIMINATE_STABILIZED = "elim-stab"


def _check_m(curve: DigitalCurve, m: int):
    if not (3 <= m <= curve.n):
        raise InvalidCounts(f"need 3 <= m <= n, got m={m}, n={curve.n}")


def _arc_points(n: int, u: int, v: int):
    length = (v - u) % n
    return [(u + t) % n for t in range(1, length)]


def _farthest_on_arc(curve: DigitalCurve, u: int, v: int):
    """(max deviation, its index) over the open arc u -> v; ties take the
    lowest curve index.  Returns (-1.0, -1) for an empty arc."""
    interior = _arc_points(curve.n, u, v)
    if not interior:
        return -1.0, -1
    pu = curve.point(u)
    pv = curve.point(v)
    best = -1.0
    arg = -1
    for w in interior:
        e = perpendicular_distance(pu, pv, curve.point(w))
        if e > best or (e == best and w < arg):
            best = e
            arg = w
    return best, arg


def split_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    """Grow a polygon by repeatedly splitting the worst side.

    Seeds are the point farthest from the centroid and the point
    farthest from that one.  Each round scores every side by its largest
    deviation and inserts the offending point as a new vertex.
    """
    _check_m(curve, m)
    s0 = provisional_start_vertex(curve)
    rel = curve.points.astype(np.float64) - curve.points[s0].astype(np.float64)
    d2 = (rel * rel).sum(axis=1)
    s1 = int(np.argmax(d2))
    verts = sorted((s0, s1))
    # side score cache: side i runs verts[i] -> verts[i+1] circularly
    scores = {}

    def side_score(u, v):
        key = (u, v)
        if key not in scores:
            scores[key] = _farthest_on_arc(curve, u, v)
        return scores[key]

    while len(verts) < m:
        best = (-1.0, -1, -1)  # (deviation, split point, side start)
        k = len(verts)
        for i in range(k):
            u = verts[i]
            v = verts[(i + 1) % k]
            e, w = side_score(u, v)
            if w < 0:
                continue
            if e > best[0] or (e == best[0] and u < best[2]):
                best = (e, w, u)
        if best[1] < 0:
            raise InvalidCounts("no splittable side left")  # unreachable for m <= n
        verts.append(best[1])
        verts.sort()
    return PolygonApprox(curve, verts)


def eliminate_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    """Shrink from all curve points by deleting the cheapest vertex.

    A vertex's deletion cost is the squared-error sum of the arc its
    neighbours would then span; only the two neighbours of a deleted
    vertex need rescoring.  np.argmin keeps ties on the lowest index.
    """
    _check_m(curve, m)
    n = curve.n
    pts = curve.points
    tables = moment_tables(curve)
    nxt = np.arange(1, n + 1) % n
    prv = np.arange(-1, n - 1) % n
    cost = np.empty(n)
    for i in range(n):
        cost[i] = arc_sum_sq(pts, tables, int(prv[i]), int(nxt[i]))
    alive = n
    while alive > m:
        i = int(np.argmin(cost))
        p, q = int(prv[i]), int(nxt[i])
        prv[q] = p
        nxt[p] = q
        cost[i] = np.inf
        cost[p] = arc_sum_sq(pts, tables, int(prv[p]), q)
        cost[q] = arc_sum_sq(pts, tables, p, int(nxt[q]))
        alive -= 1
    verts = np.nonzero(np.isfinite(cost))[0]
    return PolygonApprox(curve, verts)


def stabilize(curve: DigitalCurve, poly: PolygonApprox) -> PolygonApprox:
    """Relocate vertices one at a time to shed residual squared error.

    Round-robin over vertex slots: each vertex may move anywhere
    strictly between its neighbours if that lowers the combined error of
    its two sides; one e2_arc_costs call scores all its positions.  A
    vertex moves only to a strictly cheaper position, the lowest curve
    index among equal minima, so a vertex already at a minimum stays
    put.  Stops on the first pass with no movement.
    """
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    n = curve.n
    pts = curve.points
    xs = pts[:, 0].astype(np.float64)
    ys = pts[:, 1].astype(np.float64)
    t = moment_tables(curve)
    prefixes = (t.px, t.py, t.pxx, t.pyy, t.pxy)
    verts = [int(v) for v in poly.indices]
    m = len(verts)
    # a coincident pair divides by zero; it raises DegenerateSegment below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STABILIZE_PASSES):
            moved = False
            for i in range(m):
                p = verts[(i - 1) % m]
                q = verts[(i + 1) % m]
                # every position strictly between the neighbours, the
                # current one at (verts[i] - p) % n - 1
                js = (p + np.arange(1, (q - p) % n)) % n
                # rows [p, j, q]: one call scores the sides p -> j and j -> q
                ends = np.stack((np.full_like(js, p), js, np.full_like(js, q)))
                two = _kernels.e2_arc_costs(xs, ys, prefixes, ends[:2], ends[1:])
                cost = two[0] + two[1]
                if not np.isfinite(cost).all():
                    j = int(js[~np.isfinite(cost)][0])
                    u, v = (p, j) if (pts[p] == pts[j]).all() else (j, q)
                    raise DegenerateSegment(f"points {u} and {v} coincide")
                best = cost.min()
                if best < cost[(verts[i] - p) % n - 1]:
                    verts[i] = int(js[cost == best].min())
                    moved = True
            if not moved:
                break
    return PolygonApprox(curve, sorted(verts))


def eliminate_stabilized_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    return stabilize(curve, eliminate_to_m(curve, m))


def apply_scheme(scheme: SchemeId, curve: DigitalCurve, m: int) -> PolygonApprox:
    if scheme is SchemeId.SPLIT:
        return split_to_m(curve, m)
    if scheme is SchemeId.ELIMINATE:
        return eliminate_to_m(curve, m)
    return eliminate_stabilized_to_m(curve, m)


def auto_target_m(curve: DigitalCurve, target_cr: float) -> int:
    """Vertex budget hitting a target compression ratio, clamped to
    the valid range."""
    if target_cr < 1.0:
        raise InvalidCounts(f"target compression ratio must be >= 1, got {target_cr}")
    m = round(curve.n / target_cr)
    return max(3, min(curve.n, m))
