"""Invariance oracle on the corpus blobs: the optimal error profiles and
polygons do not move under the lattice's eight symmetries, a
translation, or a change of the ring's first point.

Each symmetry permutes or negates coordinates and the translation is by
integers, so the cost tables see the same arithmetic; the profiles are
compared byte for byte.
"""

import numpy as np
import pytest

from polyapprox import CostKind, DigitalCurve, SegmentCosts

START, M_MAX, M_POLY, SHIFT = 7, 40, 20, 13


def _grid(k: int, swap: bool):
    def move(p):
        if swap:
            p = p[:, ::-1]
        for _ in range(k):
            p = np.stack([-p[:, 1], p[:, 0]], axis=1)
        return p

    return move


# name -> (points -> points, how far the ring's first point moves)
TRANSFORMS = {
    **{
        f"rot{90 * k}{'_swap' if swap else ''}": (_grid(k, swap), 0)
        for k in range(4)
        for swap in (False, True)
    },
    "translate": (lambda p: p + (1000, -777), 0),
    "roll": (lambda p: np.roll(p, -SHIFT, axis=0), SHIFT),
}


@pytest.fixture(scope="module")
def blobs(corpus):
    found = [c for c in corpus if c.name.startswith("blob")]
    assert len(found) == 12
    return found


@pytest.fixture(scope="module")
def reference(blobs):
    """Per blob and kind: the profile's bytes and the m-gon's vertices."""
    out = []
    for blob in blobs:
        costs = SegmentCosts(blob)
        out.append({
            kind: (
                costs.profile(START, M_MAX, kind).values.tobytes(),
                costs.polygon(START, M_POLY, kind).indices.tolist(),
            )
            for kind in CostKind
        })
    return out


@pytest.mark.parametrize("name", TRANSFORMS)
def test_optimal_solves_are_invariant(blobs, reference, name):
    move, shift = TRANSFORMS[name]
    for blob, ref in zip(blobs, reference):
        n = blob.n
        moved = DigitalCurve(move(blob.points))
        assert moved.n == n
        costs = SegmentCosts(moved)
        start = (START - shift) % n
        for kind in CostKind:
            values, vertices = ref[kind]
            assert costs.profile(start, M_MAX, kind).values.tobytes() == values, (
                blob.name, kind)
            poly = costs.polygon(start, M_POLY, kind)
            assert sorted((int(i) + shift) % n for i in poly.indices) == vertices, (
                blob.name, kind)
