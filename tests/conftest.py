import math

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    DigitalCurve,
    SegmentCosts,
    baseline_from_profile,
    perpendicular_distance,
    polygon_errors,
    select_start_vertex,
)
from polyapprox.approx_error import SegmentErrors
from polyapprox.exceptions import DegenerateSegment


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


def _dedup_trace(pts: np.ndarray) -> np.ndarray:
    """Drop repeated coordinates from a dense rounded trace, keeping first
    occurrences, until the ring is globally duplicate free."""
    for _ in range(12):
        _, idx = np.unique(pts, axis=0, return_index=True)
        pts = pts[np.sort(idx)]
        keep = np.any(pts != np.roll(pts, 1, axis=0), axis=1)
        pts = pts[keep]
        if len(np.unique(pts, axis=0)) == len(pts):
            return pts
    raise AssertionError("trace dedup did not converge")


def _radial_curve(name: str, radius_fn, n_theta: int, rotate: float = 0.0) -> DigitalCurve:
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    r = radius_fn(theta)
    x = np.round(r * np.cos(theta + rotate)).astype(np.int64)
    y = np.round(r * np.sin(theta + rotate)).astype(np.int64)
    return DigitalCurve(_dedup_trace(np.stack([x, y], axis=1)), name=name)


def _fourier_blob(seed: int, r0: float, n_theta: int) -> DigitalCurve:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    amps = rng.uniform(2.0, 8.0, size=k)

    def radius(theta):
        r = np.full_like(theta, r0)
        for i in range(k):
            r = r + amps[i] * np.cos((i + 2) * theta + phases[i])
        return r

    return _radial_curve(f"blob{seed:02d}", radius, n_theta)


def _ellipse(name, a, b, n_theta, rotate=0.0):
    def radius(theta):
        return (a * b) / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)

    return _radial_curve(name, radius, n_theta, rotate=rotate)


def _superellipse(name, a, b, p, n_theta):
    def radius(theta):
        return (np.abs(np.cos(theta) / a) ** p + np.abs(np.sin(theta) / b) ** p) ** (
            -1.0 / p
        )

    return _radial_curve(name, radius, n_theta)


def build_corpus() -> list[DigitalCurve]:
    """22 dense digitized contours of mixed character."""
    curves = [_fourier_blob(seed, 40.0, 600) for seed in range(1, 9)]
    curves += [_fourier_blob(seed, 60.0, 900) for seed in range(11, 15)]
    curves += [
        _ellipse("ellipse_wide", 55.0, 30.0, 700),
        _ellipse("ellipse_round", 48.0, 42.0, 700),
        _ellipse("ellipse_thin", 60.0, 22.0, 700),
        _ellipse("ellipse_tilt", 52.0, 33.0, 700, rotate=math.pi / 6.0),
        _superellipse("box_soft", 45.0, 38.0, 4.0, 700),
        _superellipse("diamond_soft", 50.0, 40.0, 1.2, 700),
        _radial_curve("gear", lambda t: 42.0 + 4.0 * np.cos(9.0 * t), 800),
        _radial_curve("capsule", lambda t: 35.0 + 10.0 * np.abs(np.cos(t)), 700),
        _radial_curve("egg", lambda t: 40.0 + 8.0 * np.cos(t) + 3.0 * np.cos(2.0 * t), 700),
        _radial_curve("wobble", lambda t: 45.0 + 3.0 * np.sin(5.0 * t) + 2.0 * np.cos(3.0 * t), 800),
    ]
    return curves


@pytest.fixture(scope="session")
def square8() -> DigitalCurve:
    # unit-ish square traced through edge midpoints, n=8
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)]
    return DigitalCurve(np.array(pts, dtype=np.int64), name="square8")


@pytest.fixture(scope="session")
def corpus() -> list[DigitalCurve]:
    return build_corpus()
