"""Hot numeric kernels, in numpy.

Three loops dominate the cost of optimal approximation at contour scale:
the O(n^2) squared-error table, the max-error table, and the
O(m_max * n^2) dynamic program: e2_cost_table, emax_cost_table and
dp_solve.  benchmarks/bench_kernels.py times them.

The squared-error table evaluates the closed form of e2_arc_costs on
blocks of about _E2_BLOCK entries, a few dozen rows at contour scale,
laid out by arc start and arc length so that every operand is a sliding
window of a doubled array rather than a gather; a strided copy through
a block-sized staging buffer rotates each block into [start, end] order.

The max-error table holds an arc's exact value where it is at most B,
the largest entry over arcs of at most ceil(n/3) steps, and +inf above
B: no optimal polygon of 3 or more vertices, and no tie with one, has
such a side (_side_bound says why).  Its points must be distinct
integers spanning less than EXACT_SPAN, which SegmentCosts checks.  One
sweep builds it on every ring: to arcs of ceil(n/2) steps, then two
frozen windows per longer arc, of the ceil(n/2) points at each of its
ends, which together cover it.  The first proves most such arcs to be
above B; the larger of the two over the chord is the exact value of the
rest.  Only the points kept per window depend on the ring: on a simple
ring its convex hull, O(n^2 h) for hulls of at most h points (a few
dozen on lattice contours, up to n/2 on a convex ring); on any other
ring every point of the window, O(n^3).

The DP reads its cost matrix with the arc end as the row and the arc
start as the column (dp_cost_matrix builds it); layer j combines and
reduces only the cells it can reach, rows v >= j and columns
j-1 <= u < v, in blocks of rows whose segments are contiguous.

The kernels evaluate the arithmetic of plain per-entry loops, so their
tables and DP arrays equal the loops' bit for bit; the loops live in
tests/test_kernels.py as the oracles that pin this down.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

# perfbench reads this flag for its environment block; the next change
# to the benchmark (ROADMAP D1) drops it.
USE_NUMBA = False


def doubled_prefixes(xs, ys):
    """Prefix sums of x, y, x^2, y^2, xy over the doubled ring.

    Each array has length 2n + 1 with a leading zero: prefix[k] sums the
    doubled indices below k, so a circular-arc sum is a plain difference
    for any wrap.
    """
    x2 = np.concatenate((xs, xs))
    y2 = np.concatenate((ys, ys))
    zero = np.zeros(1)
    px = np.concatenate((zero, np.cumsum(x2)))
    py = np.concatenate((zero, np.cumsum(y2)))
    pxx = np.concatenate((zero, np.cumsum(x2 * x2)))
    pyy = np.concatenate((zero, np.cumsum(y2 * y2)))
    pxy = np.concatenate((zero, np.cumsum(x2 * y2)))
    return px, py, pxx, pyy, pxy


def e2_arc_costs(xs, ys, prefixes, u, v):
    """Summed squared deviation over the forward arcs u -> v.

    u and v are broadcastable arrays of curve indices; prefixes come from
    doubled_prefixes(xs, ys).  The interior of each arc (the points
    strictly between u and v walking forward) is summed in O(1) by
    expanding the squared cross product against the chord into
    prefix-sum differences.  Adjacent pairs cost 0.  The expression and
    its order of operations are those of the scalar approx_error._arc_e2
    (arc_sum_sq), so each entry equals its value bit for bit.
    """
    n = xs.shape[0]
    length = (v - u) % n
    a = u + 1
    b = u + length
    sums = [p[b] - p[a] for p in prefixes]
    return _e2_closed_form(xs[u], ys[u], xs[v], ys[v], sums, length - 1.0)


def _e2_closed_form(xu, yu, xv, yv, sums, cnt, out=None):
    """E2 of arcs from their chord ends, the interior sums (sx, sy, sxx,
    syy, sxy) and the interior point count; the one order of operations
    that e2_arc_costs and e2_cost_table share."""
    sx, sy, sxx, syy, sxy = sums
    dx = xv - xu
    dy = yv - yu
    l2 = dx * dx + dy * dy
    k = yu * dx - xu * dy
    num = (
        dy * dy * sxx
        + dx * dx * syy
        - 2.0 * dx * dy * sxy
        + 2.0 * k * dy * sx
        - 2.0 * k * dx * sy
        + cnt * k * k
    )
    # cancellation can leave tiny negatives on collinear arcs
    return np.divide(np.maximum(num, 0.0), l2, out=out)


# Entries of the squared-error table evaluated per block of rows: small
# enough that the block's temporaries stay in cache.
_E2_BLOCK = 1 << 13


def e2_cost_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Summed squared deviation of every forward arc u -> v.

    Entry [u, v] covers the points strictly between u and v walking
    forward; adjacent pairs cost 0.  Blocks of about _E2_BLOCK entries
    are evaluated by arc start and arc length L: entry u + L of a doubled
    coordinate or prefix array is the arc's far end or prefix bound, so
    every operand is a sliding window, not a gather.  Each row of a
    block, indexed by L, fills both halves of a staging row 2n wide;
    table row u, whose entry v has L = (v - u) % n, is then the n
    entries from column n - u, so one strided view that steps back a
    column per row copies the block into place.
    """
    n = xs.shape[0]
    prefixes = doubled_prefixes(xs, ys)
    doubled = (np.concatenate((xs, xs)), np.concatenate((ys, ys))) + prefixes
    # window[u, L - 2] is doubled entry u + L, for L in [2, n)
    wx, wy, *wsums = (sliding_window_view(a, n)[:, 2:] for a in doubled)
    cnt = np.arange(2, n) - 1.0
    out = np.empty((n, n))
    step = min(max(1, _E2_BLOCK // n), n)
    # lengths 0 and 1 (the diagonal and adjacent pairs) stay 0
    stage = np.zeros((step, 2 * n))
    row, col = stage.strides
    for u0 in range(0, n, step):
        u1 = min(u0 + step, n)
        block = stage[:u1 - u0]
        a = slice(u0 + 1, u1 + 1)
        sums = [w[u0:u1] - p[a, None] for w, p in zip(wsums, prefixes)]
        _e2_closed_form(
            xs[u0:u1, None], ys[u0:u1, None], wx[u0:u1], wy[u0:u1],
            sums, cnt, out=block[:, 2:n],
        )
        block[:, n + 2:] = block[:, 2:n]
        # table row u0 + r starts r rows down and r columns back
        out[u0:u1] = as_strided(
            stage.reshape(-1)[n - u0:], shape=(u1 - u0, n),
            strides=(row - col, col), writeable=False,
        )
    return out


# Coordinates spanning less than this keep every cross product of two
# coordinate differences, and the difference of two such products, below
# 2**53, so float64 evaluates them exactly.
EXACT_SPAN = 2**26

# Deque slots per start before the first growth, and the growth step.
_HULL_SLOTS = 16
_HULL_GROW = 8

# Side pairs ring_is_simple tests per vectorised block.
_SIMPLE_BLOCK = 1 << 18


def emax_cost_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Largest deviation of every forward arc u -> v from its chord, or
    +inf where that exceeds B, the bound of _side_bound.

    The points must be distinct integers spanning less than EXACT_SPAN:
    then every chord has a length and every product below is an integer
    under 2**53, exact in float64.

    The largest |cross| over a set of points is reached at a vertex of
    its convex hull, so column v = u+L scans, for start u, points of
    p[u..u+L-1] relative to p[u] that include every vertex of their hull,
    not the whole arc.  On a simple ring _arc_hulls keeps the hull
    itself: O(n^2 h) for hulls of at most h points.  On any other ring,
    where Melkman's hull does not hold, _arc_prefixes keeps every point
    of the prefix: O(n^3).  Each entry is the exact largest |cross|
    divided once by the chord length: the bits of a scan of every arc
    point, whichever set was scanned.

    The sweep runs to arcs of K = ceil(n/2) steps; B is then known.  A
    longer arc u -> u+L holds two frozen windows that cover it, as
    L < 2K: p[u..u+K-1], column u, and p[u+L-K..u+L-1], column
    s = (u+L-K) % n.  The first window's quotient above B makes the
    entry +inf; every other entry is the larger |cross| of the two
    windows over the chord.  Column s is stored relative to p[s], so its
    crosses shift by cross(p[s] - p[u]), and its largest |cross| is the
    larger magnitude of its shifted maximum and minimum; taking both
    magnitudes keeps a window on the chord's line at the scan's +0.0,
    where negating a zero gives -0.0.  So the long arcs cost at most two
    column scans of the frozen windows.
    """
    n = xs.shape[0]
    z = xs + 1j * ys
    z2 = np.concatenate((z, z))
    out = np.zeros((n, n))
    out_f = out.reshape(-1)
    reach = -(-n // 2)
    simple = ring_is_simple(xs.astype(np.int64), ys.astype(np.int64))
    hulls = (_arc_hulls if simple else _arc_prefixes)(z, z2)
    prod = dev = None

    def column(hull, length):
        # largest slot |cross| against each chord u -> u+length, the
        # chords, and their lengths
        nonlocal prod, dev
        if prod is None or prod.shape != hull.shape:
            prod = np.empty(hull.shape, dtype=np.complex128)
            dev = np.empty(hull.shape)
        d = z2[length:length + n] - z
        np.multiply(hull, d.conj(), out=prod)
        np.abs(prod.imag, out=dev)
        dx, dy = d.real, d.imag
        return dev.max(axis=0), d, np.sqrt(dx * dx + dy * dy)

    for length in range(2, reach + 1):
        hull = next(hulls)
        top, _, norm = column(hull, length)
        _put_column(out_f, length, top / norm)
    bound = _side_bound(out)
    for length in range(reach + 1, n):
        top, d, norm = column(hull, length)
        val = top / norm
        u = np.flatnonzero(val <= bound)
        if u.size:
            lag = length - reach
            # the open arcs' second windows, gathered into the front of
            # prod; mode "clip" writes straight into it, unbuffered
            far = prod.reshape(-1)[:hull.shape[0] * u.size].reshape(-1, u.size)
            np.take(hull, (u + lag) % n, axis=1, out=far, mode="clip")
            chord = d[u].conj()
            far *= chord
            shift = ((z2[u + lag] - z[u]) * chord).imag
            cross = far.imag
            wide = np.maximum(np.abs(cross.max(axis=0) + shift),
                              np.abs(cross.min(axis=0) + shift))
            val[u] = np.maximum(top[u], wide) / norm[u]
        _put_column(out_f, length, val)
    out[out > bound] = np.inf
    return out


def _side_bound(out: np.ndarray) -> float:
    """B: the largest entry of a max-error table over arcs of 1 to
    ceil(n/3) steps.

    No polygon of m >= 3 vertices that is optimal, or tied with the
    optimum, can have a side above B: the polygon through s + floor(k n / m)
    has sides of at most ceil(n/3) steps, so the optimal max error from
    any start s is at most B.
    """
    n = out.shape[0]
    u = np.arange(n)[:, None]
    return out[u, (u + np.arange(1, -(-n // 3) + 1)) % n].max()


def _orient(ax, ay, bx, by, cx, cy):
    # twice the signed area of triangle a, b, c: > 0 when c is left of a -> b
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def ring_is_simple(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Whether the closed ring through integer points xs, ys has no
    self-contact: adjacent sides meet only at their shared vertex and no
    other two sides touch.

    Exact in int64 for coordinate spans below 2**31.  O(n^2) side pairs,
    taken about _SIMPLE_BLOCK at a time; only pairs whose bounding boxes
    meet get the orientation tests.
    """
    n = xs.shape[0]
    ax, ay = xs, ys
    bx, by = np.roll(xs, -1), np.roll(ys, -1)
    cx, cy = np.roll(xs, -2), np.roll(ys, -2)
    if np.any((ax == bx) & (ay == by)):
        return False
    # side a -> b doubling back along b -> c
    turn = _orient(ax, ay, bx, by, cx, cy)
    back = (ax - bx) * (cx - bx) + (ay - by) * (cy - by)
    if np.any((turn == 0) & (back > 0)):
        return False
    xlo, xhi = np.minimum(ax, bx), np.maximum(ax, bx)
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    k = np.arange(n)
    step = max(1, _SIMPLE_BLOCK // n)
    for i0 in range(0, n, step):
        i = k[i0:i0 + step, None]
        # side pairs i < k sharing no vertex whose boxes meet
        near = (
            (k > i + 1) & (k - i < n - 1)
            & (xlo[i] <= xhi) & (xlo <= xhi[i])
            & (ylo[i] <= yhi) & (ylo <= yhi[i])
        )
        ii, kk = np.nonzero(near)
        ii += i0
        s1 = np.sign(_orient(ax[ii], ay[ii], bx[ii], by[ii], ax[kk], ay[kk]))
        s2 = np.sign(_orient(ax[ii], ay[ii], bx[ii], by[ii], bx[kk], by[kk]))
        s3 = np.sign(_orient(ax[kk], ay[kk], bx[kk], by[kk], ax[ii], ay[ii]))
        s4 = np.sign(_orient(ax[kk], ay[kk], bx[kk], by[kk], bx[ii], by[ii]))
        # with the boxes meeting, closed segments touch iff each one's
        # endpoints are not strictly on one side of the other's line
        if np.any((s1 * s2 <= 0) & (s3 * s4 <= 0)):
            return False
    return True


def _cross(e, f):
    # cross product of vectors stored as complex numbers x + iy
    return (e.conj() * f).imag


def _put_column(out_f, length, val):
    """Write val[u] to the flat table's entries [u, (u + length) % n]."""
    n = val.shape[0]
    m = n - length
    out_f[length:m * (n + 1):n + 1] = val[:m]
    out_f[m * (n + 1) + length - n::n + 1] = val[m:]


def _arc_hulls(z: np.ndarray, z2: np.ndarray):
    """Yield, after step j = 1 .. n-2, a (slots, n) array whose column u
    holds the convex hull of p[u..u+j] relative to p[u].

    All n starts advance in lockstep: at step j, start u adds p[u+j] to
    a Melkman deque (exact for a simple polyline).  Points are complex
    numbers x + iy.  Deque slots are circular along axis 0, which grows
    by _HULL_GROW slots when a deque would fill it.  Popped and unwritten
    slots still hold points of the prefix (0 is p[u] itself), which never
    exceed the maximum of a convex function over it, so a column scans
    every slot without a mask.  The yielded array is updated in place by
    the next step, or replaced when it grows.

    Each deque starts as [last, p[u], last], and the ordinary step makes
    it Melkman's triangle at the prefix's first turn.  Before that, a
    collinear q pops both ends to p[u]; one more pop would step onto the
    other end's slot and never stop, as every slot holds a point of the
    same line, so no end pops onto it.  Only a three-entry deque can
    reach that slot, and only at steps j <= R + 1, for R the ring's
    longest circular run of zero turns; only those steps check it.
    """
    n = z.shape[0]
    rows = np.arange(n)
    cap = _HULL_SLOTS
    hull = np.zeros((cap, n), dtype=np.complex128)
    hull_f = hull.reshape(-1)
    # flat slot index (slot * n + start) of each deque's top and bottom
    # end, which both hold its last point; nbr holds the entry inside each
    ends = np.stack((rows + 2 * n, rows))
    ends_f = ends.reshape(-1)
    nbr = np.zeros((2, n), dtype=np.complex128)
    nbr_f = nbr.reshape(-1)
    # pop direction of each end, as a flat slot step; its sign also makes
    # "q strictly inside the edge at this end" a positive cross product
    inward = np.array([[-n], [n]])
    last = z2[1:n + 1] - z
    hull[0] = hull[2] = last
    # R: last[u] is side u -> u+1, so the turns are crosses of neighbours
    bent = np.flatnonzero(_cross(last, np.roll(last, -1)))
    run = (np.diff(bent, append=bent[0] + n) - 1).max()
    for j in range(1, n - 1):
        if j > 1:
            q = z2[j:j + n] - z
            # an end pops while q is not strictly inside its edge
            need = _cross(nbr - last, q - last) * inward <= 0.0
            keys = np.flatnonzero(need)  # end * n + start
            if keys.size:
                moved = np.flatnonzero(need.any(axis=0))
                end = keys // n
                step = inward[end, 0]
                pos = ends_f[keys]
                cur = nbr_f[keys]
                qk = q[keys - end * n]
                # the other end's slot, while the prefix can be straight
                other = ends_f[(keys + n) % (2 * n)] if j <= run + 1 else None
                while keys.size:
                    pos = (pos + step) % hull_f.size
                    ends_f[keys] = pos
                    nxt = (pos + step) % hull_f.size
                    deeper = hull_f[nxt]
                    keep = _cross(deeper - cur, qk - cur) * step <= 0.0
                    if other is not None:
                        # the second pop is the first that could reach it
                        keep &= nxt != other
                        other = None
                    keys, pos, cur, qk, step = (
                        a[keep] for a in (keys, pos, deeper, qk, step)
                    )
                e = ends[:, moved]
                nbr[:, moved] = hull_f[e]
                e = (e - inward) % hull_f.size
                ends[:, moved] = e
                hull_f[e[0]] = hull_f[e[1]] = last[moved] = q[moved]
                # each step adds at most one entry; keep room for it
                if ((e[0] - e[1]) % hull_f.size).max() // n + 1 >= cap:
                    slots = (ends[1] // n + np.arange(cap)[:, None]) % cap
                    ends[0] = (ends[0] - ends[1]) % hull_f.size + rows
                    ends[1] = rows
                    cap += _HULL_GROW
                    hull = np.concatenate((
                        np.take_along_axis(hull, slots, axis=0),
                        np.zeros((_HULL_GROW, n), dtype=np.complex128),
                    ))
                    hull_f = hull.reshape(-1)
        yield hull


def _arc_prefixes(z: np.ndarray, z2: np.ndarray):
    """Yield, after step j = 1 .. n-2, a (j+1, n) array whose column u
    holds every point of p[u..u+j] relative to p[u]: a superset of the
    prefix's hull on any ring."""
    win = sliding_window_view(z2, z.shape[0])
    for j in range(1, z.shape[0] - 1):
        yield win[:j + 1] - z


def dp_cost_matrix(tab: np.ndarray, start: int) -> np.ndarray:
    """The DP's (n+1, n+1) cost matrix for one start vertex.

    Rotated position r is curve index (start + r) % n, so position n is
    the start again, closing the ring.  Entry [v, u] is tab's cost of the
    forward arc from position u to position v; arcs that do not run
    forward (u >= v) and the single side from 0 around to n are +inf.
    """
    n = tab.shape[0]
    # positions below s are curve indices start.., the rest 0..start
    s = n - start
    t = tab.T
    rcost = np.empty((n + 1, n + 1))
    rcost[:s, :s] = t[start:, start:]
    rcost[:s, s:] = t[start:, :start + 1]
    rcost[s:, :s] = t[:start + 1, start:]
    rcost[s:, s:] = t[:start + 1, :start + 1]
    rows = np.arange(n + 1)
    np.copyto(rcost, np.inf, where=rows[None, :] >= rows[:, None])
    rcost[n, 0] = np.inf
    return rcost


# Entries of one DP layer combined and reduced per block of rows: small
# enough that the block stays in cache while its rows are reduced.
_DP_BLOCK = 1 << 15


def dp_solve(rcost: np.ndarray, m_max: int, use_max: bool):
    """Optimal chain costs over a dp_cost_matrix.

    rcost[v, u] is the cost of the side from rotated position u to v.
    dp[j, v] is the best cost of reaching v from 0 with exactly j
    segments; parents record the first (smallest) predecessor attaining
    each optimum, and -1 where there is none.  Layer j touches only the
    cells it can reach: rows v >= j (fewer positions cannot hold j
    sides) and, in each block of about _DP_BLOCK entries of rows v0..v1,
    the columns j-1 <= u < v1 (earlier predecessors are unreachable with
    j-1 sides, later ones do not run forward).  A block is one combine
    and one row argmin over its contiguous row segments; a layer's
    values are its combine recomputed at the chosen predecessors, the
    same bits.  O(m_max n^2) time, one buffer of a block.
    """
    n1 = rcost.shape[0]
    dp = np.full((m_max + 1, n1), np.inf)
    parent = np.full((m_max + 1, n1), -1, dtype=np.int64)
    dp[1, 1:] = rcost[1:, 0]
    parent[1, 1:] = 0
    rows = np.arange(n1)
    step = min(max(1, _DP_BLOCK // n1), n1)
    buf = np.empty(step * n1)
    combine = np.maximum if use_max else np.add
    for j in range(2, m_max + 1):
        prev = dp[j - 1]
        best = parent[j, j:]
        u0 = j - 1
        for v0 in range(j, n1, step):
            v1 = min(v0 + step, n1)
            block = buf[:(v1 - v0) * (v1 - u0)].reshape(v1 - v0, v1 - u0)
            combine(prev[u0:v1], rcost[v0:v1, u0:v1], out=block)
            block.argmin(axis=1, out=best[v0 - j:v1 - j])
        best += u0
        dp[j, j:] = combine(prev[best], rcost[rows[j:], best])
    # from layer 2 on, a row whose candidates all cost +inf has no
    # predecessor
    parent[2:][np.isinf(dp[2:])] = -1
    return dp, parent
