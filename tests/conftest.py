import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    DigitalCurve,
    SegmentCosts,
    _kernels,
    baseline_from_profile,
    moment_tables,
    polygon_errors,
    select_start_vertex,
)
from polyapprox.approx_error import _arc_e2, _arcs_max_e, _polygon_errors
from polyapprox.exceptions import DegenerateSegment

# the contour corpus is the benchmark's generator at its default seed
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import _ellipse, build_corpus, fourier_blob  # noqa: E402


@dataclass(frozen=True)
class SegmentErrors:
    """Errors of one polygon side: sum of squares and the largest single
    deviation over the strictly intervening arc points."""

    sum_sq: float
    max_e: float


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


def arc_sum_sq(points: np.ndarray, prefixes: tuple, u: int, v: int) -> float:
    """Sum of squared deviations over the forward arc u -> v by the
    library's scalar closed form, from the points' doubled prefixes
    (moment_tables): the oracle the vector closed form and the E2 table
    must match bit for bit."""
    return _arc_e2(points[:, 0], points[:, 1], prefixes, points.shape[0], u, v)


def segment_errors(curve: DigitalCurve, u: int, v: int) -> SegmentErrors:
    """Errors of the side from curve point u to curve point v, by the
    library's arithmetic: arc_sum_sq and the arc max of polygon_errors.

    Only points strictly inside the forward arc contribute; the side's
    endpoints are on the line by construction.
    """
    n = curve.n
    u, v = u % n, v % n
    if u == v:
        raise DegenerateSegment(f"u and v are the same index {u}")
    pts = curve.points
    return SegmentErrors(
        sum_sq=arc_sum_sq(pts, moment_tables(curve), u, v),
        max_e=float(_arcs_max_e(pts, n, np.array([u]), np.array([v]))[0]),
    )


def polygon_errors_points(points: np.ndarray, indices) -> tuple[float, float]:
    """(E2, Emax) of a polygon over a raw point array, by the arithmetic
    of polygon_errors, so invariance checks can feed transformed float
    points."""
    pts = np.asarray(points, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    return _polygon_errors(pts, _kernels.doubled_prefixes(pts[:, 0], pts[:, 1]), idx)


def lattice_ring(seed: int, n_lo: int = 6, n_hi: int = 12) -> DigitalCurve:
    """Small random closed curve: distinct lattice points in angular order."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        radii = rng.uniform(2.0, 9.0, size=n)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        x = np.round(radii * np.cos(theta)).astype(np.int64)
        y = np.round(radii * np.sin(theta)).astype(np.int64)
        pts = np.stack([x, y], axis=1)
        # the cost table wants every coordinate distinct, retry until clean
        if len(np.unique(pts, axis=0)) == n:
            return DigitalCurve(pts, name=f"ring{seed:04d}")


def segment_errors_naive(curve: DigitalCurve, u: int, v: int) -> SegmentErrors:
    """Reference for segment_errors: a direct loop over the points
    strictly between u and v walking forward."""
    n = curve.n
    u, v = u % n, v % n
    if u == v:
        raise DegenerateSegment(f"u and v are the same index {u}")
    pu = curve.point(u)
    pv = curve.point(v)
    ss = 0.0
    mx = 0.0
    for t in range(u + 1, u + (v - u) % n):
        e = perpendicular_distance(pu, pv, curve.point(t % n))
        ss += e * e
        mx = max(mx, e)
    return SegmentErrors(ss, mx)


def polygon_errors_naive(curve: DigitalCurve, poly) -> tuple[float, float]:
    """Reference for polygon_errors: (E2, Emax) summed side by side."""
    idx = poly.indices
    m = poly.m
    e2 = 0.0
    emax = 0.0
    for i in range(m):
        se = segment_errors_naive(curve, int(idx[i]), int(idx[(i + 1) % m]))
        e2 += se.sum_sq
        emax = max(emax, se.max_e)
    return e2, emax


def baseline_for(curve: DigitalCurve, poly, kind: CostKind, costs=None):
    """Optimal baseline of any polygon on the curve, by the steps that
    study.evaluate_curve takes for a scheme's polygon: start vertex at
    poly.m vertices, profile up to 3 * poly.m, read at poly's error."""
    if costs is None:
        costs = SegmentCosts(curve)
    start = select_start_vertex(curve, poly.m, kind, costs)
    profile = costs.profile(start, min(curve.n, 3 * poly.m), kind)
    e2, emax = polygon_errors(curve, poly)
    return baseline_from_profile(
        profile, poly.m, e2 if kind is CostKind.SUM_SQUARED else emax
    )


def square_ring(side: int) -> DigitalCurve:
    """The 4 * side lattice points around a side x side square, in order."""
    t = np.arange(side)
    zero = np.zeros_like(t)
    full = np.full_like(t, side)
    xs = np.concatenate((t, full, side - t, zero))
    ys = np.concatenate((zero, t, full, side - t))
    return DigitalCurve(np.stack([xs, ys], axis=1), name=f"square{side}")


def wide_ring(w: int) -> DigitalCurve:
    """Simple six-point ring whose x span is w."""
    pts = np.array([[0, 0], [w, 1], [w, 3], [w // 2, 2], [1, 5], [0, 3]], dtype=np.int64)
    return DigitalCurve(pts, name=f"wide{w}")


def _fourier_blob(seed: int, r0: float, n_theta: int) -> DigitalCurve:
    """The Fourier blob of `seed`, named as in the corpus."""
    return fourier_blob(f"blob{seed:02d}", seed, r0, n_theta)


@pytest.fixture(scope="session")
def square8() -> DigitalCurve:
    # unit-ish square traced through edge midpoints, n=8
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    return DigitalCurve(np.array(pts, dtype=np.int64), name="square8")


@pytest.fixture(scope="session")
def corpus() -> list[DigitalCurve]:
    return build_corpus()
