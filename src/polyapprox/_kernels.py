"""Hot numeric kernels, in numpy.

Three loops dominate the cost of optimal approximation at contour scale:
the O(n^2) squared-error table, the max-error table, and the dynamic
program, O(m_max * n^2) at worst: e2_cost_table, emax_cost_table and
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
path builds it on every ring, simple or not: a sparse table whose level
k holds the hull vertices of every window of 2^k points, merged from
level k-1 by Andrew's monotone chain.  Two windows of one level cover
any arc, so an entry scans their vertices, not the arc.

The DP reads its cost matrix with the arc end as the row and the arc
start as the column (dp_cost_matrix builds it), through a row-skewed
view in which the sides of at most W positions ending at each row are
the last W columns.  Costs are >= 0, so a layer may drop every cell
above b, the least profile value found so far, and every side wider
than the widest one costing at most b: what is left is a band of W
columns, in blocks of rows.  The profile, the parent chains and every
cell the band keeps are exact; if the profile rises, the band loses a
profile value and the solve runs once more unpruned (dp_solve says
why).

The kernels evaluate the arithmetic of plain per-entry loops, so their
tables, and the DP's profile, chains and kept cells, equal the loops'
bit for bit; the loops live in tests/test_kernels.py as the oracles
that pin this down.
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

# Entries the max-error table handles per block: window rows times arc
# lengths times starts in a scan, chain rows times starts in a merge.
_EMAX_BLOCK = 1 << 14

# Points spread along each block of long arcs to bound them from below.
_PROBES = 5


def emax_cost_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Largest deviation of every forward arc u -> v from its chord, or
    +inf where that exceeds B, the bound of _side_bound.

    The points must be distinct integers spanning less than EXACT_SPAN:
    relative to the min corner, every coordinate is then below 2**26,
    and every cross product below is an integer under 2**53, exact in
    float64.

    The largest |cross| of a set of points against a chord is reached at
    a strict vertex of its hull.  Level k of _hull_levels holds those of
    every window of 2^k points, and for k = floor(log2(L-1)) the level-k
    windows starting at u+1 and at u+L-2^k cover the interior of the arc
    u -> u+L: the sparse-table cover of range queries.  With d the
    chord, f = cross(d, w) for each window point w and c0 = cross(d,
    p[u]), the entry is max(|max f - c0|, |c0 - min f|) / |d|: the exact
    largest |cross| divided once by the chord length, so the bits of a
    scan of every arc point, +0.0 on a straight arc.  A block of lengths
    reads both windows as slices of the level, with no gather.

    Arcs of at most ceil(n/3) steps come first and give B.  Longer arcs
    go in blocks of lengths: _PROBES points spread along the block's
    shortest arc lie inside all of its arcs and bound each from below.
    A block whose bounds are all above B stays +inf; any other is
    scanned from its first length with a bound at or below B to its
    last.  A level is built when a scan first needs it, and only the
    latest is kept.
    """
    n = xs.shape[0]
    x, y = xs - xs.min(), ys - ys.min()
    # [L, u]: p[u + L]
    ends_x, ends_y = (sliding_window_view(np.concatenate((a, a)), n) for a in (x, y))
    out = np.full((n, n), np.inf)
    out_f = out.reshape(-1)
    out_f[::n + 1] = 0.0
    _put_column(out_f, 1, np.zeros(n))
    third = -(-n // 3)
    levels = _hull_levels(x + 1j * y)
    built, wx, wy = -1, None, None

    def scan(lo, hi, windows):
        # entries of the arcs of lo..hi-1 steps from the points of
        # `windows`, (x, y) pairs of shape (rows, lengths or 1, n)
        dx = ends_x[lo:hi] - x
        dy = ends_y[lo:hi] - y
        top = np.full(dx.shape, -np.inf)
        bottom = np.full(dx.shape, np.inf)
        for px, py in windows:
            f = py * dx
            f -= px * dy
            np.maximum(top, f.max(axis=0), out=top)
            np.minimum(bottom, f.min(axis=0), out=bottom)
        c0 = y * dx - x * dy
        dev = np.maximum(np.abs(top - c0), np.abs(c0 - bottom))
        return dev / np.sqrt(dx * dx + dy * dy)

    def fill(lo, hi):
        nonlocal built, wx, wy
        while lo < hi:
            k = (lo - 1).bit_length() - 1
            while built < k:
                # free the old level before the next is built
                wx = wy = None
                wx, wy = next(levels)
                built += 1
            end = min(hi, 2**(k + 1) + 1, lo + max(1, _EMAX_BLOCK // (wx.shape[0] * n)))
            first, last = slice(1, 2), slice(lo - 2**k, end - 2**k)
            val = scan(lo, end, [(wx[:, first], wy[:, first]), (wx[:, last], wy[:, last])])
            for length, col in zip(range(lo, end), val):
                _put_column(out_f, length, col)
            lo = end

    fill(2, third + 1)
    bound = _side_bound(out)
    step = max(1, _EMAX_BLOCK // (_PROBES * n))
    for lo in range(third + 1, n, step):
        at = 1 + np.arange(1, _PROBES + 1) * (lo - 2) // (_PROBES + 1)
        probe = scan(lo, min(lo + step, n), [(ends_x[at, None], ends_y[at, None])])
        near = np.flatnonzero((probe <= bound).any(axis=1))
        if near.size:
            fill(lo + int(near[0]), lo + int(near[-1]) + 1)
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


def _put_column(out_f, length, val):
    """Write val[u] to the flat table's entries [u, (u + length) % n]."""
    n = val.shape[0]
    m = n - length
    out_f[length:m * (n + 1):n + 1] = val[:m]
    out_f[m * (n + 1) + length - n::n + 1] = val[m:]


def _hull_levels(z: np.ndarray):
    """Yield level k = 0, 1, ... of the hull table of the ring z (points
    as complex numbers x + iy): x and y views of shape (rows, 2^k + 1, n)
    whose [:, s, u] holds every strict hull vertex of p[u+s..u+s+2^k-1],
    padded by repeating one.  Those are the window's lower and upper
    chains.  Level k's are _merged_chains of level k-1's windows u and
    u + 2^(k-1): a point on neither child's lower chain is on no lower
    chain of their union, and likewise for upper chains.
    """
    lower = upper = z[None, :]
    n_lower = n_upper = np.ones(z.shape[0], dtype=np.int64)
    width = 1
    while True:
        yield _level_points(lower, n_lower, upper, n_upper, width)
        lower, n_lower = _merged_chains(lower, width, 1.0)
        upper, n_upper = _merged_chains(upper, width, -1.0)
        width *= 2


def _level_points(lower, n_lower, upper, n_upper, width):
    """A level's views from its chains and their lengths (kept out of
    _hull_levels' frame, which would keep the temporaries): each
    window's lower chain, then its upper chain but for the ends, which
    are the lower chain's, with the first `width` starts repeated."""
    n = lower.shape[1]
    count = np.maximum(n_lower + n_upper - 2, n_lower)
    r = np.arange(count.max())[:, None]
    src = np.where(r < n_lower, r, lower.shape[0] + 1 + r - n_lower)
    src[r >= count] = 0
    q = np.take_along_axis(np.concatenate((lower, upper)), src, axis=0)
    return tuple(sliding_window_view(np.concatenate((a, a[:, :width]), axis=1), n, axis=1)
                 for a in (q.real, q.imag))


def _merged_chains(chain: np.ndarray, width: int, sign: float):
    """Start u's strict lower (sign 1) or upper (sign -1) chain of the
    union of windows u and u + width, from their chains of the same
    kind, columns of `chain`.  Returns the chains, padded past each
    end with its last vertex, and their lengths.

    Each start sorts its points by the exact key x * 2**27 + y (upper
    chains descending), and Andrew's monotone chain runs over them, all
    starts in lockstep, over blocks of starts of about _EMAX_BLOCK
    entries: it pops while the last two points and the next do not turn
    left.  A stack never passes the point it reads, so it lives in the
    rows already read.  A repeated point costs one pop and one push, so
    the padding needs no mask.
    """
    rows, n = 2 * chain.shape[0], chain.shape[1]
    parts, tops = [], []
    step = max(1, _EMAX_BLOCK // rows)
    for a in range(0, n, step):
        lanes = np.arange(a, min(a + step, n))
        pts = np.concatenate((chain[:, lanes], chain[:, (lanes + width) % n]))
        pts = np.take_along_axis(
            pts, np.argsort(sign * (pts.real * 2.0**27 + pts.imag), axis=0), axis=0)
        c = lanes.size
        lane = np.arange(c)
        flat = pts.reshape(-1)
        top = np.full(c, 2)
        below, last = pts[0].copy(), pts[1].copy()
        for q in pts[2:]:
            pop = lane[((last - below).conj() * (q - below)).imag <= 0.0]
            while pop.size:
                top[pop] -= 1
                last[pop] = below[pop]
                pop = pop[top[pop] >= 2]
                below[pop] = flat[(top[pop] - 2) * c + pop]
                turn = (last[pop] - below[pop]).conj() * (q[pop] - below[pop])
                pop = pop[turn.imag <= 0.0]
            flat[top * c + lane] = q
            top += 1
            below, last = last, q.copy()
        np.copyto(pts, last, where=np.arange(rows)[:, None] >= top)
        parts.append(pts)
        tops.append(top)
    top = np.concatenate(tops)
    return np.concatenate([p[:top.max()] for p in parts], axis=1), top


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
    """Optimal chain costs over a dp_cost_matrix, whose costs must be
    >= 0 (or +inf).

    rcost[v, u] is the cost of the side from rotated position u to v.
    dp[j, v] is the best cost of reaching v from 0 with exactly j
    segments; parents record the first (smallest) predecessor attaining
    each optimum, and -1 where there is none.

    Every layer j >= 2 is pruned by b_j, the least profile value
    dp[j', n] over 2 <= j' < j (+inf for j = 2): a cell above b_j is
    stored as +inf with parent -1, and the layer reads only sides of at
    most W_j positions, as every wider side costs more than b_j.  The
    pruning only drops paths, so each value it computes is the cost of a
    real path.  Costs never fall along a path and b never rises, so a
    finite dp[m, n] <= b_m bounds every cell on its optimal chain, and
    every candidate tied with one, by its layer's b_j: the profile value,
    the chain, and every finite cell and its parent are the full DP's.
    A profile value dp[3:, n] that comes back +inf means the profile
    rose (or has no polygon), and the solve runs again with every
    b_j = +inf: the full DP, whose arrays hold every reachable cell.
    """
    dp, parent = _dp_layers(rcost, m_max, use_max, pruned=True)
    if np.isinf(dp[3:, -1]).any():
        dp, parent = _dp_layers(rcost, m_max, use_max, pruned=False)
    return dp, parent


def _skew(rcost):
    """Read-only (n, n) view of an (n + 1, n + 1) dp_cost_matrix whose
    entry [v - 1, k] is rcost[v, v - n + k]: row v - 1 holds the sides
    ending at v, by start, with the sides of at most W positions in the
    last W columns.  A start u < 0 reads the row above, at column
    n + 1 + u > v - 1: its upper triangle, which dp_cost_matrix sets to
    +inf."""
    n1 = rcost.shape[0]
    size = rcost.itemsize
    return as_strided(rcost.reshape(-1)[2:], shape=(n1 - 1, n1 - 1),
                      strides=((n1 + 1) * size, size), writeable=False)


def _dp_layers(rcost, m_max, use_max, pruned):
    """dp_solve's layers, each pruned by the running bound b_j when
    `pruned`, else with every b_j = +inf.

    The layers read rcost through _skew, with no copy, and the previous
    layer through the same skew of the flattened dp array: entry
    [v - 1, k] is dp[j - 1, u] for u = v - n + k, and for u < 0 a cell
    of the layer before, which meets a +inf side.  In each block of
    about _DP_BLOCK entries of rows v0..v1 >= j, the last W_j columns
    with u >= j - 1 on row v1 - 1 (an earlier predecessor is unreachable
    with j - 1 sides) are one combine and one row argmin; a layer's
    values are its combine recomputed at the chosen predecessors, the
    same bits.  A predecessor above b_j needs no mask, as it can only
    win a cell above b_j.  O(m_max n W) time for bands of at most W
    columns, one buffer of a block.
    """
    n1 = rcost.shape[0]
    n = n1 - 1
    dp = np.full((m_max + 1, n1), np.inf)
    parent = np.full((m_max + 1, n1), -1, dtype=np.int64)
    dp[1, 1:] = rcost[1:, 0]
    parent[1, 1:] = 0
    sides = _skew(rcost)
    # row (j - 2) n1 + v - 1 is the previous layer's skew row for v
    prevs = sliding_window_view(dp.reshape(-1)[2:], n)
    # cheapest[L - 1]: the least cost of a side spanning L or more
    # positions (column k spans n - k); copied, as searchsorted would
    # copy a reversed view at every layer
    cheapest = np.minimum.accumulate(sides.min(axis=0))[::-1].copy()
    rows = np.arange(n1)
    cap = min(max(1, _DP_BLOCK // n1), n1) * n1
    buf = np.empty(cap)
    combine = np.maximum if use_max else np.add
    bound = np.inf
    for j in range(2, m_max + 1):
        prev = dp[j - 1]
        preds = prevs[(j - 2) * n1:]
        # the widest span with a side at most b_j; at least 1, so that a
        # layer with none fills with values above b_j
        width = max(1, int(cheapest.searchsorted(bound, side="right")))
        step = max(1, cap // width)
        for v0 in range(j, n1, step):
            v1 = min(v0 + step, n1)
            k = max(n - width, n + j - v1)
            block = buf[:(v1 - v0) * (n - k)].reshape(v1 - v0, n - k)
            combine(preds[v0 - 1:v1 - 1, k:], sides[v0 - 1:v1 - 1, k:], out=block)
            best = parent[j, v0:v1]
            block.argmin(axis=1, out=best)
            best += k - n
        # from skew column k to u = v - n + k; a u < 0 wraps to a +inf
        # side of row v, as its skew entry met one in the row above
        best = parent[j, j:]
        best += rows[j:]
        vals = combine(prev[best], rcost[rows[j:], best])
        vals[vals > bound] = np.inf
        dp[j, j:] = vals
        if pruned:
            bound = min(bound, vals[-1])
    # from layer 2 on, a cell with no finite candidate, or pruned, has no
    # predecessor
    parent[2:][np.isinf(dp[2:])] = -1
    return dp, parent
