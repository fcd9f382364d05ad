"""Seeded contour generators for the benchmark workloads.

At seed 0 `build_corpus` reproduces the 22-contour test corpus point for
point, and `build_large` gives the two long Fourier blobs (blob seeds 21
and 22, r0=110, 1800 samples).  Any other seed keeps every slot's recipe
and name but draws fresh blob harmonics and turns each parametric shape
by a random angle, so the corpus keeps its mix of shapes and roughly its
sizes while the lattice points change.
"""

from __future__ import annotations

import math

import numpy as np

from polyapprox import DigitalCurve

DEFAULT_SEED = 0

# (blob seed at seed 0, r0, angular samples)
CORPUS_BLOBS = [(s, 40.0, 600) for s in range(1, 9)] + [
    (s, 60.0, 900) for s in range(11, 15)
]
LARGE_BLOBS = [(21, 110.0, 1800), (22, 110.0, 1800)]
SIZE_RTOL = 0.01


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
    raise RuntimeError("trace dedup did not converge")


def _radial_curve(name: str, radius_fn, n_theta: int, rotate: float = 0.0) -> DigitalCurve:
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    r = radius_fn(theta)
    x = np.round(r * np.cos(theta + rotate)).astype(np.int64)
    y = np.round(r * np.sin(theta + rotate)).astype(np.int64)
    return DigitalCurve(_dedup_trace(np.stack([x, y], axis=1)), name=name)


def fourier_blob(name: str, blob_seed: int, r0: float, n_theta: int) -> DigitalCurve:
    rng = np.random.default_rng(blob_seed)
    k = int(rng.integers(2, 6))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    amps = rng.uniform(2.0, 8.0, size=k)

    def radius(theta):
        r = np.full_like(theta, r0)
        for i in range(k):
            r = r + amps[i] * np.cos((i + 2) * theta + phases[i])
        return r

    return _radial_curve(name, radius, n_theta)


def _ellipse(name, a, b, n_theta, rotate=0.0):
    def radius(theta):
        return (a * b) / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)

    return _radial_curve(name, radius, n_theta, rotate=rotate)


def _superellipse(name, a, b, p, n_theta, rotate=0.0):
    def radius(theta):
        return (np.abs(np.cos(theta) / a) ** p + np.abs(np.sin(theta) / b) ** p) ** (
            -1.0 / p
        )

    return _radial_curve(name, radius, n_theta, rotate=rotate)


def resolve_blob_seeds(seed: int, recipes) -> list[int]:
    """The blob seed of every slot: at the default seed the slot's own,
    at another seed the first seeded draw whose size is within SIZE_RTOL
    of the slot's default blob, so the work per slot (up to n^3 for the
    Emax table) stays put while the shape changes.

    The search takes a seed-dependent number of draws, so the benchmark
    runs it once per run and hands the result to every pass."""
    if seed == DEFAULT_SEED:
        return [s for s, _, _ in recipes]
    found = []
    for slot_seed, r0, n_theta in recipes:
        ref_n = fourier_blob("ref", slot_seed, r0, n_theta).n
        for attempt in range(10_000):
            sub = int(np.random.SeedSequence([seed, slot_seed, attempt]).generate_state(1)[0])
            if abs(fourier_blob("draw", sub, r0, n_theta).n - ref_n) <= SIZE_RTOL * ref_n:
                found.append(sub)
                break
        else:
            raise RuntimeError(f"no blob near n={ref_n} for seed {seed}, slot {slot_seed}")
    return found


def _blobs(seed: int, recipes, blob_seeds) -> list[DigitalCurve]:
    if blob_seeds is None:
        blob_seeds = resolve_blob_seeds(seed, recipes)
    if len(blob_seeds) != len(recipes):
        raise ValueError(f"{len(recipes)} blob seeds needed, got {len(blob_seeds)}")
    return [
        fourier_blob(f"blob{slot_seed:02d}", blob_seed, r0, n_theta)
        for (slot_seed, r0, n_theta), blob_seed in zip(recipes, blob_seeds)
    ]


def build_corpus(seed: int = DEFAULT_SEED, blob_seeds=None) -> list[DigitalCurve]:
    """22 dense digitized contours of mixed character.

    `blob_seeds` (from `resolve_blob_seeds(seed, CORPUS_BLOBS)`) skips
    the size search; None runs it."""
    if seed == DEFAULT_SEED:
        turn = [0.0] * 10
    else:
        rng = np.random.default_rng([seed, 1])
        turn = [float(t) for t in rng.uniform(0.0, 2.0 * np.pi, size=10)]
    curves = _blobs(seed, CORPUS_BLOBS, blob_seeds)
    curves += [
        _ellipse("ellipse_wide", 55.0, 30.0, 700, rotate=turn[0]),
        _ellipse("ellipse_round", 48.0, 42.0, 700, rotate=turn[1]),
        _ellipse("ellipse_thin", 60.0, 22.0, 700, rotate=turn[2]),
        _ellipse("ellipse_tilt", 52.0, 33.0, 700, rotate=math.pi / 6.0 + turn[3]),
        _superellipse("box_soft", 45.0, 38.0, 4.0, 700, rotate=turn[4]),
        _superellipse("diamond_soft", 50.0, 40.0, 1.2, 700, rotate=turn[5]),
        _radial_curve("gear", lambda t: 42.0 + 4.0 * np.cos(9.0 * t), 800, rotate=turn[6]),
        _radial_curve(
            "capsule", lambda t: 35.0 + 10.0 * np.abs(np.cos(t)), 700, rotate=turn[7]
        ),
        _radial_curve(
            "egg",
            lambda t: 40.0 + 8.0 * np.cos(t) + 3.0 * np.cos(2.0 * t),
            700,
            rotate=turn[8],
        ),
        _radial_curve(
            "wobble",
            lambda t: 45.0 + 3.0 * np.sin(5.0 * t) + 2.0 * np.cos(3.0 * t),
            800,
            rotate=turn[9],
        ),
    ]
    return curves


def build_large(seed: int = DEFAULT_SEED, blob_seeds=None) -> list[DigitalCurve]:
    """Two long Fourier blobs for the memory-bound, multi-thread workload."""
    return _blobs(seed, LARGE_BLOBS, blob_seeds)


def pts_text(curve: DigitalCurve) -> str:
    """The curve as the "x y" lines of a .pts file."""
    return "".join(f"{x} {y}\n" for x, y in curve.points.tolist())
