"""Suboptimal approximation schemes: split, eliminate, stabilize.

All three run in low polynomial time and are deterministic: every
tie among floating-point scores resolves to the lowest curve index.
"""

from __future__ import annotations

import enum
import heapq
import math
import weakref

import numpy as np

from .approx_error import E2Costs, PolygonApprox, check_count
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

# weak keys: a curve's last elimination, (m, vertex indices), dies with
# the curve; indices only, no table (curves are immutable)
_ELIMINATED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class SchemeId(enum.Enum):
    SPLIT = "split"
    ELIMINATE = "elim"
    ELIMINATE_STABILIZED = "elim-stab"


def _lowest_index(vals: np.ndarray, t: int, first: int, n: int) -> int:
    """Lowest curve index among the entries equal to vals[t], entry k
    being point (first + k) % n: first + t, for t the first extreme,
    unless the arc wraps past index n - 1."""
    if first + len(vals) <= n:
        return first + t
    return int(((np.flatnonzero(vals == vals[t]) + first) % n).min())


def split_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    """Grow a polygon by repeatedly splitting the worst side.

    Seeds are the point farthest from the centroid and the point
    farthest from that one.  Each round splits the side of largest
    deviation at its farthest point, ties on the lowest side start; the
    scored sides wait in a heap of (-deviation, start, end, split point).
    A side is scored once, when a split is still to follow, by one array
    expression over its arc: each point's |cross| against the chord over
    the chord's hypot; ties take the lowest curve index.
    """
    check_count(m, curve.n)
    n = curve.n
    pts = curve.points_float()
    s0 = provisional_start_vertex(curve)
    rel = pts - pts[s0]
    d2 = (rel * rel).sum(axis=1)
    s1 = int(np.argmax(d2))
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    x2 = np.concatenate((pts[:, 0], pts[:, 0]))
    y2 = np.concatenate((pts[:, 1], pts[:, 1]))

    heap = []

    def score(u, v):
        """Push side u -> v with its largest deviation and that point,
        unless its open arc is empty."""
        length = (v - u) % n
        if length <= 1:
            return
        xu, yu = xs[u], ys[u]
        dx = xs[v] - xu
        dy = ys[v] - yu
        if dx == 0.0 and dy == 0.0:
            raise DegenerateSegment(f"segment endpoints coincide at ({xu}, {yu})")
        arc = slice(u + 1, u + length)
        e = np.abs((x2[arc] - xu) * dy - (y2[arc] - yu) * dx) / math.hypot(dx, dy)
        k = int(e.argmax())
        heapq.heappush(heap, (-float(e[k]), u, v, _lowest_index(e, k, u + 1, n)))

    score(s0, s1)
    score(s1, s0)
    verts = [s0, s1]
    while len(verts) < m:
        if not heap:
            raise InvalidCounts("no splittable side left")  # unreachable for m <= n
        _, u, v, w = heapq.heappop(heap)
        verts.append(w)
        if len(verts) < m:
            score(u, w)
            score(w, v)
    return PolygonApprox(curve, verts)


def eliminate_to_m(curve: DigitalCurve, m: int) -> PolygonApprox:
    """Shrink from all curve points by deleting the cheapest vertex.

    A vertex's deletion cost is the squared-error sum of the arc its
    neighbours would then span; only the two neighbours of a deleted
    vertex need rescoring.  Costs come from E2Costs, by its one rule: the
    n starting costs are one arcs() call, and a rescored arc of a span
    the held E2 table stores is one lookup(span, v) call, with no Python
    frame between; any other arc, every one with no table held, is one
    arc() call, the closed form.  A heap of (cost, index) finds the
    cheapest vertex, ties on the lowest index; entries whose cost has
    changed since are skipped, and the cheapest vertex's entry is
    replaced by its first rescored neighbour's, one sift instead of a
    pop and a push.

    Both cost paths give the same polygon, so the vertex indices of a
    curve's last elimination are kept with the curve (weakly) and a
    second call at the same m, as elim-stab's after elim, reuses them.
    """
    check_count(m, curve.n)
    last = _ELIMINATED.get(curve)
    if last is None or last[0] != m:
        last = _ELIMINATED[curve] = m, _eliminate(curve, m)
    return PolygonApprox(curve, last[1])


def _eliminate(curve: DigitalCurve, m: int) -> list[int]:
    """eliminate_to_m's vertex indices, ascending."""
    n = curve.n
    pts = curve.points
    prv = np.arange(-1, n - 1) % n
    nxt = np.arange(1, n + 1) % n
    coincide = (pts[prv] == pts[nxt]).all(axis=1)
    if coincide.any():
        i = int(np.argmax(coincide))
        raise DegenerateSegment(f"points {int(prv[i])} and {int(nxt[i])} coincide")
    costs = E2Costs(curve)
    arc, lookup, rows = costs.arc, costs.lookup, costs.rows
    cost = costs.arcs(prv, nxt).tolist()
    prv = prv.tolist()
    nxt = nxt.tolist()
    heap = list(zip(cost, range(n)))
    heapq.heapify(heap)
    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
    inf = math.inf
    for _ in range(n - m):
        while True:
            c, i = heap[0]
            # a deleted vertex costs inf; a rescored one has a newer entry
            if c == cost[i]:
                break
            heappop(heap)
        p, q = prv[i], nxt[i]
        prv[q] = p
        nxt[p] = q
        cost[i] = inf
        a, b = prv[p], nxt[q]
        span = (q - a) % n
        cost_p = cost[p] = lookup(span, q) if span < rows else arc(a, q)
        span = (b - p) % n
        cost_q = cost[q] = lookup(span, b) if span < rows else arc(p, b)
        heapreplace(heap, (cost_p, p))
        heappush(heap, (cost_q, q))
    return [i for i, c in enumerate(cost) if c != inf]


def stabilize(curve: DigitalCurve, poly: PolygonApprox) -> PolygonApprox:
    """Relocate vertices one at a time to shed residual squared error.

    Round-robin over vertex slots: each vertex may move anywhere
    strictly between its neighbours if that lowers the combined error of
    its two sides.  All its positions are scored at once by
    E2Costs.splits: a gather and a strided column of the curve's E2 table
    when the table a SegmentCosts holds stores every side, else one
    arcs() call.  A vertex moves only to a strictly cheaper position,
    the lowest curve index among equal minima (_lowest_index), so a
    vertex already at a minimum stays put.  Stops on the first pass with
    no movement.

    A vertex's candidate costs depend only on its two neighbours, and
    once scored it sits where no candidate is strictly cheaper, so only
    slots whose neighbours moved since their last scoring are rescored;
    the moves and the pass count are those of rescoring every slot.
    """
    if poly.curve is not curve:
        raise InvalidCounts("polygon does not belong to this curve")
    n = curve.n
    pts = curve.points
    splits = E2Costs(curve).splits
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
                # cost[t] scores position (p + 1 + t) % n, strictly
                # between the neighbours
                cost = splits(p, q)
                if not np.isfinite(cost).all():
                    j = (p + 1 + int(np.argmin(np.isfinite(cost)))) % n
                    u, v = (p, j) if (pts[p] == pts[j]).all() else (j, q)
                    raise DegenerateSegment(f"points {u} and {v} coincide")
                t = int(cost.argmin())
                if cost[t] < cost[(verts[i] - p) % n - 1]:
                    verts[i] = _lowest_index(cost, t, p + 1, n)
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


# the compression ratio a vertex budget aims at when the caller names none
DEFAULT_TARGET_CR = 15.0


def auto_target_m(curve: DigitalCurve, target_cr: float) -> int:
    """Vertex budget hitting a target compression ratio, clamped to
    the valid range."""
    if not target_cr >= 1.0:  # NaN too
        raise InvalidCounts(f"target compression ratio must be >= 1, got {target_cr}")
    m = round(curve.n / target_cr)
    return max(3, min(curve.n, m))
