"""Hot numeric kernels, in numpy.

Three loops dominate the cost of optimal approximation at contour scale:
the O(n^2) squared-error table, the max-error table, and the dynamic
program, O(m_max * n^2) at worst: e2_cost_table, emax_cost_table and
dp_solve.  benchmarks/bench_kernels.py times them.

Both cost tables are span-major: entry [L, e] is the cost of the
forward arc of L steps that ends at point e, so it starts at (e - L) %
n.  Rows 0 and 1 (a point and an adjacent pair) are 0.  A DP layer
reads the sides ending at a run of positions as slices of the table's
rows, with no copy of the table for its start vertex.  Every solve
runs to a bound b and reads no entry above it, so a table built to b
stores every entry at or under b and only its first rows, those that
hold one.  A study builds both to U_m, the cost of the equally spaced
m-gon through one start; at m = n / 15 that keeps 0.20n rows of the E2
table and 0.16n of the Emax table on the built-in corpus.

Each table takes its bound b and builds no row from its cut R on, a
span from which the moments of the points inside each arc prove it
above b (_anchored_cut; R averages 0.66n on the built-in corpus for the
E2 table to the largest U3 of any start, and is n at b = +inf).  The
squared-error table evaluates the closed form of e2_arc_costs on blocks
of about _E2_BLOCK entries, a few dozen spans by all ends: the arc
starts, and the prefix bound just past them, are reversed sliding
windows of doubled arrays.  One set of prefix sums serves the cut and
the blocks.

The max-error table holds an arc's exact value where it is at most B,
the largest entry over arcs of at most ceil(n/3) steps, or the caller's
bound, and +inf above it: no optimal polygon of 3 or more vertices, and
no tie with one, has a side above B (_side_bound says why).  Its points
must be distinct integers spanning less than EXACT_SPAN, which
SegmentCosts checks.  One path builds it on every ring, simple or not:
a sparse table whose level k holds the hull vertices of every window of
2^k points.  Levels 0 to 3 are the raw windows, strided views of the
ring's points; level 4 and up are merged from level k-1 by Andrew's
monotone chain, one lockstep pass over the lower and upper chains
together.  Two windows of one level cover any arc, so an entry scans
their points, not the arc, with its arithmetic done in place.  It
stores its rows up to the last with a finite entry, and grows only for
a block of arcs that holds an entry at or under the bound; points
spread along a block's arcs skip the others, and no length from the cut
on is probed.  A study's bound U_m cuts at 0.23n on average (at most
0.31n) on the built-in corpus at m = n / 15, against 0.16n rows stored;
B cuts little (at n on most rings).

Costs are >= 0, so a DP layer may drop every cell above b_j, the least
of the solve's bound b and the profile values found so far, and every
side wider than the widest one costing at most b_j: what is left is a
band of W spans.  A layer is computed only in its corridor, the
positions a chain under b_j can use: up to the previous layer's reach
plus W_j, and, to a bound, from n - (m_max - j) W_j on, so the last
layer computes position n alone.  Every profile value at or under b,
and every cell the band and the corridor keep, is exact, and dp_chain
recovers the chains from them; a value above b comes back +inf.  If
the profile rises past a value below b, the band can lose a value at or
under b, and the solve runs once more, unpruned, over the stored rows
(dp_solve).

The kernels evaluate the arithmetic of plain per-entry loops, so their
tables, and the DP's profile, chains and kept cells, equal the loops'
bit for bit; the loops live in tests/test_kernels.py as the oracles
that pin this down.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

# perfbench reads this flag for its environment block; the next change
# to the benchmark (ROADMAP D18) drops it.
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
    its order of operations are those of the scalar approx_error._arc_e2,
    so each entry equals its value bit for bit.
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
    that e2_arc_costs and e2_cost_table share.

    The numerator is summed term by term into one buffer (`out` if
    given), each term formed in a second one, as
    dy dy sxx + dx dx syy - 2 dx dy sxy + 2 k dy sx - 2 k dx sy + cnt k k
    evaluates left to right.  Both buffers take the broadcast shape, 0-d
    for scalar arguments, which then give a scalar."""
    sx, sy, sxx, syy, sxy = sums
    dx = xv - xu
    dy = yv - yu
    ddx, ddy = dx * dx, dy * dy
    k = yu * dx
    k -= xu * dy
    shape = np.broadcast(k, sx, cnt).shape
    num = np.multiply(ddy, sxx, out=np.empty(shape) if out is None else out)
    term = np.multiply(ddx, syy, out=np.empty(shape))
    num += term
    np.multiply(2.0, dx, out=term)
    term *= dy
    term *= sxy
    num -= term
    k2 = 2.0 * k
    np.multiply(k2, dy, out=term)
    term *= sx
    num += term
    np.multiply(k2, dx, out=term)
    term *= sy
    num -= term
    np.multiply(cnt, k, out=term)
    term *= k
    num += term
    # cancellation can leave tiny negatives on collinear arcs
    np.maximum(num, 0.0, out=num)
    return np.divide(num, ddx + ddy, out=num)[()]


# Entries of the squared-error table evaluated per block of spans: small
# enough that the block's temporaries stay in cache.
_E2_BLOCK = 1 << 13


def e2_cost_table(xs: np.ndarray, ys: np.ndarray, bound: float) -> np.ndarray:
    """Summed squared deviation of every forward arc, span-major, in the
    rows a solve to `bound` can read: rows 0 to R - 1, where every entry
    of a row of R steps or more is above the bound (every row, R = n,
    for bound +inf).

    R is the first span L at which lam(u, L) exceeds the bound for every
    start u, with a margin for rounding, or n if there is none
    (_anchored_cut): an arc of L' >= L steps from u holds the points
    lam(u, L) sums and its chord passes through p[u], so its cost is at
    least lam(u, L).  Adding points adds a positive semidefinite matrix
    to the moments, so lam never falls with L, and the bisection over
    (1, n) finds the first such span; lam(u, 1) = 0, so R >= 2.

    The margin covers rounding in both closed forms.  With P2 the
    largest x^2 + y^2 of the ring, every term of either one, over the
    chord's squared length where it divides by it, is at most n P2, and
    the prefix sums they difference are off by at most 4 n^2 P2 2**-53
    each; the errors of the entry and of lam sum to under 240 n^2 P2
    2**-53, so the margin is 2**-44 n^2 P2 (twice that), plus 2**-40
    times the bound for the relative rounding of the entry's division
    and of the comparison.  Rings far from the origin, or very wide, get
    a margin that can swamp every lam, and keep every row.

    Entry [L, e] covers the points strictly between u = (e - L) % n and
    e walking forward; rows 0 and 1 are 0.  Blocks of about _E2_BLOCK
    entries are evaluated by span and end: the start u is doubled entry
    e - L + n, so its coordinates and the prefix bound p[u + 1] are
    reversed sliding windows of doubled arrays, written straight into
    the table.  The far bound p[u + L] is p[e + n] on arcs that wrap past
    index 0 (e < L) and p[e] on the others, the indices e2_arc_costs
    uses.  The ring's doubled_prefixes, made once, serve the cut and the
    blocks.  A row's bits do not depend on how many rows are built.
    """
    n = xs.shape[0]
    prefixes = np.stack(doubled_prefixes(xs, ys))
    rows = _anchored_cut(xs, ys, prefixes, bound, False)
    # starts[n - L, e]: doubled entry e - L + n, the start of arc [L, e]
    starts = [sliding_window_view(np.concatenate((a, a)), n) for a in (xs, ys)]
    # near[:, n - L, e]: p[u + 1] for the start u of arc [L, e]
    near = sliding_window_view(np.tile(prefixes[:, 1:n + 1], 2), n, axis=1)
    lo, hi = prefixes[:, None, :n], prefixes[:, None, n:2 * n]
    ends = np.arange(n)
    out = np.empty((rows, n))
    out[:2] = 0.0
    step = max(1, _E2_BLOCK // n)
    for l0 in range(2, rows, step):
        l1 = min(l0 + step, rows)
        back = slice(n - l0, n - l1, -1)
        spans = np.arange(l0, l1)[:, None]
        a = near[:, back]
        sums = np.empty(a.shape)
        # every arc of the block wraps at ends below l0 and none does from
        # l1 - 1 on; between, the arc of L wraps where e < L
        mid = l1 - 1
        np.subtract(hi[..., :mid], a[..., :mid], out=sums[..., :mid])
        np.subtract(lo[..., mid:], a[..., mid:], out=sums[..., mid:])
        np.subtract(lo[..., l0:mid], a[..., l0:mid], out=sums[..., l0:mid],
                    where=ends[l0:mid] >= spans)
        _e2_closed_form(starts[0][back], starts[1][back], xs, ys, sums, spans - 1.0,
                        out=out[l0:l1])
    return out


def _anchored_cut(xs, ys, moments, g, mean):
    """A span R in (1, n] found by bisection at which lam(u, R) >
    w g (1 + 2**-40) + 2**-44 n^2 P2 for every start u, or n if the
    bisection meets none: w is 1, or R - 1 if `mean`, and P2 the
    largest x^2 + y^2 of the ring.  At g = +inf no span passes.

    lam(u, L) is the least eigenvalue of M, the second moments about
    p[u] of the L - 1 points strictly inside the arc u -> u + L, from
    `moments`, the ring's doubled_prefixes stacked: the least squared
    residual of those points over the lines through p[u] (the anchored
    form of Pearson's principal-axis fit).  The bisection keeps hi at a
    span where the test holds, or n, so R is such a span whether or not
    the test is monotone in L.
    """
    n = xs.shape[0]
    margin = 2.0**-44 * n * n * (xs * xs + ys * ys).max()
    xx, yy, xy = xs * xs, ys * ys, xs * ys

    def above(span):
        # whether lam(u, span) passes the test for every u
        sx, sy, sxx, syy, sxy = moments[:, span:span + n] - moments[:, 1:n + 1]
        c = span - 1.0
        mxx = sxx - 2.0 * xs * sx + c * xx
        myy = syy - 2.0 * ys * sy + c * yy
        mxy = sxy - xs * sy - ys * sx + c * xy
        lam = 0.5 * (mxx + myy) - np.hypot(0.5 * (mxx - myy), mxy)
        return lam.min() > (c if mean else 1.0) * g * (1.0 + 2.0**-40) + margin

    lo, hi = 1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


# Coordinates spanning less than this keep every cross product of two
# coordinate differences, and the difference of two such products, below
# 2**53, so float64 evaluates them exactly.
EXACT_SPAN = 2**26

# Entries the max-error table handles per block: chain rows times starts
# in a merge, window rows times arc lengths times starts in a scan or a
# probe.  A scan holds a few arrays of its block's size and a merge many
# more, so scans take the larger blocks, and fewer numpy calls.
_EMAX_BLOCK = 1 << 14
_EMAX_SCAN = 1 << 15

# Points spread along each block of long arcs to bound them from below.
_PROBES = 5

# Hull levels kept as raw windows of the ring's points (_hull_levels).
_RAW_LEVELS = 4


def emax_cost_table(xs: np.ndarray, ys: np.ndarray, bound: float | None = None
                    ) -> np.ndarray:
    """Largest deviation of every forward arc from its chord, span-major
    as e2_cost_table, or +inf where that exceeds the caller's bound, or
    by default B, the bound of _side_bound.

    The points must be distinct integers spanning less than EXACT_SPAN:
    relative to the min corner, every coordinate is then below 2**26,
    and every cross product below is an integer under 2**53, exact in
    float64.

    The largest |cross| of a set of points against a chord is reached at
    a strict vertex of its hull.  Level k of _hull_levels holds those of
    every window of 2^k points (levels 0 to 3 every point of it), and
    for k = floor(log2(L-1)) the level-k windows starting at u+1 and at
    u+L-2^k cover the interior of the arc u -> u+L: the sparse-table
    cover of range queries.  With d the chord, f = cross(d, w) for each
    window point w and c0 = cross(d, p[u]), the entry is
    max(|max f - c0|, |c0 - min f|) / |d|: the exact
    largest |cross| divided once by the chord length, so the bits of a
    scan of every arc point, +0.0 on a straight arc.  A block of lengths
    reads both windows as slices of the level, with no gather.

    By default, arcs of at most ceil(n/3) steps come first, every one
    scanned, and give B.  Then the table finds its cut R, a span from
    which every arc is proven above the bound b: an arc of R or more
    steps from u holds the R - 1 points inside u -> u + R and its chord
    passes through p[u], so its largest squared distance is at least
    their mean, and that is at least lam(u, R) / (R - 1), their least
    mean squared residual over the lines through p[u].  R is a span
    where every lam(u, R) > (R - 1) b^2 (1 + 2**-40) + 2**-44 n^2 P2
    (_anchored_cut, on the coordinates shifted to the min corner), with
    e2_cost_table's margin: lam's rounding is within 2**-44 n^2 P2, and
    the entry is the exact largest |cross| rounded twice, by the square
    root and the division, which the relative 2**-40 covers (b = 0
    included: a positive integer over a chord length stays positive).
    The mean lam(u, L) / (L - 1) need not grow with L, so R is where the
    bisection over (1, n) ends, a span at which the test held, or n; a
    smaller span may pass it too.  Rows from R on are +inf, and no
    length from R on is probed or scanned.  The longer arcs below R, or
    with a caller's bound every arc of 2 to R - 1 steps, go in blocks of
    lengths: _PROBES points spread along the block's shortest arc lie
    inside all of its arcs and bound each from below.  A block whose
    bounds are all above the bound stays +inf; any other is scanned from
    its first length with a bound at or under it to its last.  A level
    is built when a scan first needs it, and only the latest is kept.
    Scans and probes take blocks of about _EMAX_SCAN entries.  The table
    holds rows 0 to ceil(n/3) by default, rows 0 and 1 with a caller's
    bound, and grows in place, new rows +inf, only when a probed block
    has an entry at or under the bound; a block whose entries all lie
    above it is not written.  It is shrunk at the end to its last row
    with a finite entry: rows past it are +inf, and are not stored.
    """
    n = xs.shape[0]
    x, y = xs - xs.min(), ys - ys.min()
    # [L, u]: p[u + L]
    ends_x, ends_y = (sliding_window_view(np.concatenate((a, a)), n) for a in (x, y))
    third = -(-n // 3)
    out = np.empty((third + 1 if bound is None else 2, n))
    out[:2] = 0.0
    levels = _hull_levels(x + 1j * y)
    built, wx, wy = -1, None, None

    def scan(lo, hi, windows):
        # entries of the arcs of lo..hi-1 steps from the points of
        # `windows`, (x, y) pairs of shape (rows, lengths or 1, n); every
        # value before the division is an exact integer
        dx = ends_x[lo:hi] - x
        dy = ends_y[lo:hi] - y
        top = bottom = None
        for px, py in windows:
            f = py * dx
            f -= px * dy
            if top is None:
                top, bottom = f.max(axis=0), f.min(axis=0)
            else:
                np.maximum(top, f.max(axis=0), out=top)
                np.minimum(bottom, f.min(axis=0), out=bottom)
        c0 = y * dx
        c0 -= x * dy
        top -= c0
        np.subtract(c0, bottom, out=bottom)
        np.abs(top, out=top)
        np.abs(bottom, out=bottom)
        np.maximum(top, bottom, out=top)
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        top /= dx
        return top

    def fill(lo, hi, bound):
        # rows lo..hi-1 of the table: entries above the bound are +inf, a
        # block of lengths with none at or under it is not written, and
        # the table grows to hold the others
        nonlocal built, wx, wy, last
        while lo < hi:
            k = (lo - 1).bit_length() - 1
            while built < k:
                # free the old level before the next is built
                wx = wy = None
                wx, wy = next(levels)
                built += 1
            end = min(hi, 2**(k + 1) + 1, lo + max(1, _EMAX_SCAN // (wx.shape[0] * n)))
            first, rest = slice(1, 2), slice(lo - 2**k, end - 2**k)
            val = scan(lo, end, [(wx[:, first], wy[:, first]), (wx[:, rest], wy[:, rest])])
            over = val > bound
            kept = np.flatnonzero(~over.all(axis=1))
            if not kept.size:
                lo = end
                continue
            val[over] = np.inf
            last = lo + int(kept[-1])
            have = out.shape[0]
            if have < end:
                # in place, new rows +inf: no view of out exists
                out.resize((end, n), refcheck=False)
                out[have:] = np.inf
            # row u of a length is entry (u + length) % n: a roll
            for length, row in zip(range(lo, end), val):
                out[length, length:] = row[:n - length]
                out[length, :length] = row[n - length:]
            lo = end

    # the last row with a finite entry, and the first length to probe
    if bound is None:
        last, first = third, third + 1
        fill(2, third + 1, np.inf)
        bound = _side_bound(out)
    else:
        last, first = 1, 2
    # the first to the last length of each block below the cut whose
    # probes come at or under the bound
    cut = _anchored_cut(x, y, np.stack(doubled_prefixes(x, y)), bound * bound, True)
    step = max(1, _EMAX_SCAN // (_PROBES * n))
    for lo in range(first, cut, step):
        at = 1 + np.arange(1, _PROBES + 1) * (lo - 2) // (_PROBES + 1)
        probe = scan(lo, min(lo + step, cut), [(ends_x[at, None], ends_y[at, None])])
        near = np.flatnonzero((probe <= bound).any(axis=1))
        if near.size:
            fill(lo + int(near[0]), lo + int(near[-1]) + 1, bound)
    out.resize((last + 1, n), refcheck=False)
    return out


def _side_bound(head: np.ndarray) -> float:
    """B: the largest entry of a max-error table over arcs of 1 to
    ceil(n/3) steps, from its rows 0 to ceil(n/3), `head`.

    No polygon of m >= 3 vertices that is optimal, or tied with the
    optimum, can have a side above B: the polygon through s + floor(k n / m)
    has sides of at most ceil(n/3) steps, so the optimal max error from
    any start s is at most B.
    """
    return head[1:].max()


def _hull_levels(z: np.ndarray):
    """Yield level k = 0, 1, ... of the hull table of the ring z (points
    as complex numbers x + iy): x and y views of shape (rows, 2^k + 1, n)
    whose [:, s, u] holds every strict hull vertex of p[u+s..u+s+2^k-1],
    padded by repeating one, and maybe other points of that window.

    Levels 0 to 3 are the raw windows, read-only strided views of the
    ring's points, [r, s, u] = p[u+s+r]: a window of at most 8 points
    holds its hull vertices, and scanning it costs no more than scanning
    its hull.  From level 4 on, a level holds exactly the window's lower
    and upper chains, _merged_chains of the previous level's windows u
    and u + 2^(k-1), both kinds in one pass: level 4 from the raw
    8-point windows, each taken as both its own lower and upper
    candidates, the later levels from their chains, since a point on
    neither child's lower chain is on no lower chain of their union, and
    likewise for upper chains.
    """
    n = z.shape[0]
    # p[t % n] for every t the raw levels read
    ring = np.resize(z, n + 2**_RAW_LEVELS - 1)
    xy = ring.real.copy(), ring.imag.copy()
    for k in range(_RAW_LEVELS):
        w = 2**k
        yield tuple(as_strided(a, (w, w + 1, n), a.strides * 3, writeable=False) for a in xy)
    # [r, u]: p[u + r], the raw windows of the last raw level
    width = 2**(_RAW_LEVELS - 1)
    raw = sliding_window_view(ring, n)[:width]
    lower, n_lower, upper, n_upper = _merged_chains(raw, raw, width)
    while True:
        width *= 2
        yield _level_points(lower, n_lower, upper, n_upper, width)
        lower, n_lower, upper, n_upper = _merged_chains(lower, upper, width)


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


def _merged_chains(lower: np.ndarray, upper: np.ndarray, width: int):
    """Start u's strict lower and upper chains of the union of windows u
    and u + width, from their chains, columns of `lower` and `upper`.
    Returns (lower, lengths, upper, lengths): each kind's chains, padded
    past each end with its last vertex, as tall as its longest.

    A block of starts, about _EMAX_BLOCK entries for both kinds
    together, has two lanes a start: its lower candidates sorted by the
    exact key x * 2**27 + y, and its upper candidates by descending key,
    each kind padded to the block's height with its own last point.
    Andrew's monotone chain runs over every lane in lockstep: it pops
    while the last two points and the next do not turn left.  A stack
    never passes the point it reads, so it lives in the rows already
    read, and a lane's next push goes to flat index `at`, its height
    times the lanes plus the lane.  A repeated point costs one pop and
    one push, so the padding needs no mask.  The lanes are split back
    by kind, each kind's cut to the block's longest chain of its kind
    and copied, so no block's sorted candidates outlive it.
    """
    n = lower.shape[1]
    rows = 2 * max(lower.shape[0], upper.shape[0])
    parts, tops = [], []
    step = max(1, _EMAX_BLOCK // (2 * rows))
    for a in range(0, n, step):
        starts = np.arange(a, min(a + step, n))
        k = starts.size
        c = 2 * k
        pts = np.empty((rows, c), dtype=complex)
        for lanes, chain in ((slice(0, k), lower), (slice(k, c), upper)):
            h = chain.shape[0]
            pts[:h, lanes] = chain[:, starts]
            pts[h:2 * h, lanes] = chain[:, (starts + width) % n]
            pts[2 * h:, lanes] = pts[2 * h - 1, lanes]
        # the keys, then their order in the same name: no key outlives
        # the sort
        order = pts.real * 2.0**27
        order += pts.imag
        order[:, k:] *= -1.0
        order = order.argsort(axis=0)
        pts = np.take_along_axis(pts, order, axis=0)
        flat = pts.reshape(-1)
        lane = np.arange(c)
        at = lane + 2 * c
        below, last = pts[0].copy(), pts[1].copy()
        for q in pts[2:]:
            pop = lane[((last - below).conj() * (q - below)).imag <= 0.0]
            while pop.size:
                head = at[pop] - c
                at[pop] = head
                prev = below[pop]
                last[pop] = prev
                deep = head >= 2 * c
                pop, head, prev = pop[deep], head[deep], prev[deep]
                low = flat[head - 2 * c]
                below[pop] = low
                turn = (prev - low).conj() * (q[pop] - low)
                pop = pop[turn.imag <= 0.0]
            flat[at] = q
            at += c
            below, last = last, q.copy()
        top = (at // c).reshape(2, k)
        np.copyto(pts, last, where=np.arange(rows)[:, None] >= top.reshape(-1))
        pts = pts.reshape(rows, 2, k)
        parts.append([pts[:t.max(), kind].copy() for kind, t in enumerate(top)])
        tops.append(top)
    top = np.concatenate(tops, axis=1)
    chains = []
    for kind, t in enumerate(top):
        out = np.empty((t.max(), n), dtype=complex)
        for a, part in zip(range(0, n, step), parts):
            block = part[kind]
            h, cols = block.shape[0], slice(a, a + block.shape[1])
            out[:h, cols] = block
            out[h:, cols] = block[-1]
        chains.append(out)
    return chains[0], top[0], chains[1], top[1]


def cheapest_sides(tab: np.ndarray) -> np.ndarray:
    """cheapest[L - 1]: the least cost in a span-major table of a side
    spanning L or more steps, for L in [1, R) with R the table's stored
    rows; spans from R on have no entry.  A table's band widths serve
    every start, so it is computed once a table."""
    return np.minimum.accumulate(tab[:0:-1].min(axis=1))[::-1].copy()


# Entries of one DP layer combined and reduced per block of positions:
# small enough that the block stays in cache while it is reduced.
_DP_BLOCK = 1 << 16


def dp_solve(tab, cheapest, start, m_max, use_max, polygon, bound):
    """Optimal chain costs to `bound` over a span-major table whose costs
    are >= 0 (or +inf), with cheapest = cheapest_sides(tab): each profile
    value dp[3:, n] at or under the bound b is exact, and each above it
    +inf.

    Position v is curve index (start + v) % n, so position n is the
    start again, closing the ring, and the side from position u to v is
    tab[v - u, (start + v) % n]; the side 0 -> n, of n steps, has no
    entry and is +inf.  dp[j, v] is the best cost of reaching v from 0
    with exactly j sides (dp_chain recovers the sides).  The table need
    store only the entries at or under b (emax_cost_table and
    e2_cost_table given b): its other entries may be +inf, and its rows
    may stop where every entry of the rows it leaves out is above b.

    Every layer j >= 2 is pruned by b_j, the least of b and the profile
    values dp[j', n] for 2 <= j' < j: a cell above b_j is stored as
    +inf, and the layer reads only sides of at most W_j steps, as every
    wider side costs more than b_j.  Each layer is computed only in its
    corridor (_dp_layers), so a cell that no chain under b_j can use is
    +inf even where it is at or under b_j: every cell of layer m_max but
    n is.  The pruning only drops paths, so each value it computes is
    the cost of a real path.  Costs never fall along a path and b_j
    never rises, so a finite dp[m, n] <= b_m bounds every cell on its
    optimal chain, and every candidate tied with one, by its layer's
    b_j, and puts each inside its layer's corridor: the profile value,
    the chains and every finite cell are the full DP's.

    A value at or under b is lost, +inf, only where b_m < b, as on a
    profile that rises past a lower value; a value that is +inf with
    b_m = b lies above b.  A profile solve reruns where some value is
    +inf though b_m < b.  A polygon solve (polygon True) wants only
    dp[m_max, n] and its chain, and reruns only where that value fails
    the same test.  The rerun is unpruned, over the stored rows, and
    every cell above b is then set to +inf: every cell at or under b is
    the full DP's, as a path that takes a side left out costs more than
    b.  A caller that wants dp[m, n] exact gives a bound at or over it,
    such as U_m, the cost of the m-gon through positions floor(i n /
    m), i = 0..m, combined in DP order; b = +inf prunes by the profile
    values alone.
    """
    n = tab.shape[1]
    combine = np.maximum if use_max else np.add
    dp = _dp_layers(tab, cheapest, start, m_max, combine, bound)
    vals = dp[:, n]
    # value m is +inf though b_m < b: some earlier value is below b
    lost = np.isinf(vals[3:]) & (np.minimum.accumulate(vals[2:-1]) < bound)
    if lost[-1] if polygon else lost.any():
        dp = _dp_layers(tab, cheapest, start, m_max, combine, None)
        dp[dp > bound] = np.inf
    return dp


def _dp_layers(tab, cheapest, start, m_max, combine, bound):
    """dp_solve's layers, each pruned by the running bound b_j seeded
    with `bound`, or, for bound None, unpruned: every b_j = +inf.

    Layer j is computed only in its corridor, the positions a chain
    under b_j can use.  Its band reads sides of at most W_j steps, so it
    stops at reach_j = min(n, reach_(j-1) + W_j), past which every
    predecessor is +inf; reach_1 = W_2, as a bounded pass keeps only the
    sides of layer 1 at or under the bound, and an unbounded one every
    stored side, W_2 being then the widest.  A bounded pass also starts
    layer j at n - (m_max - j) W_j, as each of the at most m_max - j
    sides left from a cell of a chain under b_j to n spans at most W_j
    steps; the last layer computes position n alone.

    In each block of about _DP_BLOCK entries of positions v0..v1 of the
    corridor, spans W_j down to 1 are one combine of the previous layer,
    read as a sliding window over a copy of it padded in front with
    +inf, and the table rows W_j..1 at the block's ends, sliced in two
    where the ends pass n - 1; one minimum over the spans gives the
    layer's cells.  A predecessor u < j - 1, or outside the previous
    corridor, is +inf, as is one above b_j, which can only win a cell
    above b_j.  Layer 1 and the bands read the stored rows only
    (cheapest has one entry a stored span).  O(m_max n W) time for bands
    of at most W spans, one buffer of a block.
    """
    rows, n = tab.shape
    dp = np.full((m_max + 1, n + 1), np.inf)
    v = np.arange(1, rows)
    dp[1, 1:rows] = tab[v, (start + v) % n]
    pruned = bound is not None
    if pruned:
        sides = dp[1]
        sides[sides > bound] = np.inf
    else:
        bound = np.inf
    # prev[n + u] is dp[j - 1, u], +inf around it; preds[k, c] is
    # prev[k + c], for every k a block reads
    prev = np.full(3 * n + 1, np.inf)
    preds = sliding_window_view(prev, n + 1)
    cap = max(_DP_BLOCK, n)
    buf = np.empty(cap)
    for j in range(2, m_max + 1):
        prev[n:2 * n + 1] = dp[j - 1]
        # the widest span with a side at most b_j; at least 1, so that a
        # layer with none fills with values above b_j
        width = max(1, int(cheapest.searchsorted(bound, side="right")))
        if j == 2:
            reach = width
        reach = min(n, reach + width)
        first = max(j, n - (m_max - j) * width) if pruned else j
        step = max(1, cap // width)
        for v0 in range(first, reach + 1, step):
            v1 = min(v0 + step, reach + 1)
            # a span above v1 - j leaves a predecessor below j - 1
            w = min(width, v1 - j)
            block = buf[:w * (v1 - v0)].reshape(w, v1 - v0)
            # row k: span w - k, from u = v - w + k
            ways = preds[n - w + v0:n + v0]
            cut = min(max(n - start, v0), v1)
            for c0, c1, e0 in ((v0, cut, start + v0), (cut, v1, start + cut - n)):
                if c0 < c1:
                    combine(ways[:, c0 - v0:c1 - v0], tab[w:0:-1, e0:e0 + c1 - c0],
                            out=block[:, c0 - v0:c1 - v0])
            np.minimum.reduce(block, axis=0, out=dp[j, v0:v1])
        if pruned:
            vals = dp[j, first:reach + 1]
            vals[vals > bound] = np.inf
            bound = min(bound, dp[j, n])
    return dp


def dp_chain(tab, start, dp, m, use_max):
    """Positions of the optimal chain of m sides from n back to 0, from
    dp_solve's array: at each cell the smallest predecessor u whose
    combine equals the cell, the first minimum of the full DP.  Every
    cell of the chain, and every tied candidate, is one the band kept,
    so it is exact; a side the table does not store costs more than the
    cell, so only stored spans are read."""
    rows, n = tab.shape
    combine = np.maximum if use_max else np.add
    chain = [n]
    v = n
    for j in range(m, 1, -1):
        # spans v - u for u = u0 .. v - 1, every stored one from u = j - 1
        u0 = max(j - 1, v - rows + 1)
        cand = combine(dp[j - 1, u0:v], tab[v - u0:0:-1, (start + v) % n])
        v = u0 + int(np.flatnonzero(cand == dp[j, v])[0])
        chain.append(v)
    chain.append(0)
    return chain
