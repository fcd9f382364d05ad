"""Suboptimal approximation schemes: split, eliminate, stabilize.

All three run in low polynomial time and are deterministic: every
tie among floating-point scores resolves to the lowest curve index.
"""

from __future__ import annotations

import enum
import heapq
import math

import numpy as np

from . import _kernels
from .approx_error import PolygonApprox, _arc_e2, moment_tables
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


def split_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    """Grow a polygon by repeatedly splitting the worst side.

    Seeds are the point farthest from the centroid and the point
    farthest from that one.  Each round scores every side by its largest
    deviation and inserts the offending point as a new vertex.  A side
    is scored once, by one array expression over its arc: each point's
    |cross| against the chord over the chord's hypot; ties take the
    lowest curve index.
    """
    _check_m(curve, m)
    n = curve.n
    pts = curve.points_float()
    s0 = provisional_start_vertex(curve)
    rel = pts - pts[s0]
    d2 = (rel * rel).sum(axis=1)
    s1 = int(np.argmax(d2))
    verts = sorted((s0, s1))
    x2 = np.concatenate((pts[:, 0], pts[:, 0]))
    y2 = np.concatenate((pts[:, 1], pts[:, 1]))

    def farthest(u, v):
        """(max deviation, its index) over the open arc u -> v, or
        (-1.0, -1) for an empty arc."""
        length = (v - u) % n
        if length <= 1:
            return -1.0, -1
        xu, yu = float(x2[u]), float(y2[u])
        dx = float(x2[v]) - xu
        dy = float(y2[v]) - yu
        if dx == 0.0 and dy == 0.0:
            raise DegenerateSegment(f"segment endpoints coincide at ({xu}, {yu})")
        arc = slice(u + 1, u + length)
        e = np.abs((x2[arc] - xu) * dy - (y2[arc] - yu) * dx) / math.hypot(dx, dy)
        best = e.max()
        w = (np.flatnonzero(e == best) + (u + 1)) % n
        return float(best), int(w.min())

    # side score cache: side i runs verts[i] -> verts[i+1] circularly
    scores = {}

    while len(verts) < m:
        best = (-1.0, -1, -1)  # (deviation, split point, side start)
        k = len(verts)
        for i in range(k):
            u = verts[i]
            v = verts[(i + 1) % k]
            if (u, v) not in scores:
                scores[u, v] = farthest(u, v)
            e, w = scores[u, v]
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
    vertex need rescoring.  The n starting costs are one e2_arc_costs
    call; a heap of (cost, index) finds the cheapest vertex, ties on the
    lowest index, and entries whose cost has changed since are skipped.
    """
    _check_m(curve, m)
    n = curve.n
    pts = curve.points_float()
    prefixes = moment_tables(curve)
    prv = np.arange(-1, n - 1) % n
    nxt = np.arange(1, n + 1) % n
    coincide = (pts[prv] == pts[nxt]).all(axis=1)
    if coincide.any():
        i = int(np.argmax(coincide))
        raise DegenerateSegment(f"points {int(prv[i])} and {int(nxt[i])} coincide")
    cost = _kernels.e2_arc_costs(pts[:, 0], pts[:, 1], prefixes, prv, nxt).tolist()
    # Python floats from here on: rescoring two neighbours is scalar work
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    prefixes = tuple(p.tolist() for p in prefixes)
    prv = prv.tolist()
    nxt = nxt.tolist()
    heap = list(zip(cost, range(n)))
    heapq.heapify(heap)
    for _ in range(n - m):
        while True:
            c, i = heapq.heappop(heap)
            # a deleted vertex costs inf; a rescored one has a newer entry
            if c == cost[i]:
                break
        p, q = prv[i], nxt[i]
        prv[q] = p
        nxt[p] = q
        cost[i] = math.inf
        cost[p] = _arc_e2(xs, ys, prefixes, n, prv[p], q)
        cost[q] = _arc_e2(xs, ys, prefixes, n, p, nxt[q])
        heapq.heappush(heap, (cost[p], p))
        heapq.heappush(heap, (cost[q], q))
    verts = [i for i in range(n) if cost[i] != math.inf]
    return PolygonApprox(curve, verts)


def stabilize(curve: DigitalCurve, poly: PolygonApprox) -> PolygonApprox:
    """Relocate vertices one at a time to shed residual squared error.

    Round-robin over vertex slots: each vertex may move anywhere
    strictly between its neighbours if that lowers the combined error of
    its two sides; one e2_arc_costs call scores all its positions.  A
    vertex moves only to a strictly cheaper position, the lowest curve
    index among equal minima, so a vertex already at a minimum stays
    put.  Stops on the first pass with no movement.

    A vertex's candidate costs depend only on its two neighbours, and
    once scored it sits where no candidate is strictly cheaper, so only
    slots whose neighbours moved since their last scoring are rescored;
    the moves and the pass count are those of rescoring every slot.
    """
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    n = curve.n
    pts = curve.points
    xs = pts[:, 0].astype(np.float64)
    ys = pts[:, 1].astype(np.float64)
    prefixes = moment_tables(curve)
    verts = [int(v) for v in poly.indices]
    m = len(verts)
    # slot i needs scoring: it has not been scored since a neighbour moved
    stale = [True] * m
    # a coincident pair divides by zero; it raises DegenerateSegment below
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STABILIZE_PASSES):
            moved = False
            for i in range(m):
                if not stale[i]:
                    continue
                stale[i] = False
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
                    stale[i - 1] = stale[(i + 1) % m] = True
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
