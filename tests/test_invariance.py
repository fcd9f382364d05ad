"""Invariance oracle on the corpus blobs: the optimal error profiles and
polygons do not move under the lattice's eight symmetries, a
translation, or a change of the ring's first point; the schemes'
polygons do not move under the symmetries or the translation; and a
trace-scale blob's profiles and optimal polygons do not move under a
turn, a transpose or the translation.

Each symmetry permutes or negates coordinates and the translation is by
integers, so the cost tables see the same arithmetic; the profiles are
compared byte for byte.
"""

import numpy as np
import pytest

from polyapprox import (
    CostKind,
    DigitalCurve,
    SchemeId,
    SegmentCosts,
    apply_scheme,
    auto_target_m,
)
from conftest import fourier_blob

START, M_MAX, M_POLY, SHIFT, CR = 7, 40, 20, 13, 15.0


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


@pytest.fixture(scope="module")
def scheme_reference(blobs):
    """Per blob and scheme: the polygon's vertices at the study's budget."""
    return [
        {s: apply_scheme(s, blob, auto_target_m(blob, CR)).indices.tolist() for s in SchemeId}
        for blob in blobs
    ]


# The roll is left out: the schemes break ties by index order, so a ring
# that starts elsewhere can pick the other of two equal candidates.
@pytest.mark.parametrize("name", [name for name, (_, shift) in TRANSFORMS.items() if not shift])
def test_scheme_polygons_are_invariant(blobs, scheme_reference, name):
    move, _ = TRANSFORMS[name]
    for blob, ref in zip(blobs, scheme_reference):
        moved = DigitalCurve(move(blob.points))
        m = auto_target_m(moved, CR)
        for scheme in SchemeId:
            assert apply_scheme(scheme, moved, m).indices.tolist() == ref[scheme], (
                blob.name, scheme)


def _trace_solves(curve: DigitalCurve, m_max: int) -> dict:
    """Per kind: the profile's bytes and the optimal m_max-gon's vertices."""
    costs = SegmentCosts(curve)
    return {
        kind: (
            costs.profile(START, m_max, kind).values.tobytes(),
            costs.polygon(START, m_max, kind).indices.tolist(),
        )
        for kind in CostKind
    }


@pytest.fixture(scope="module")
def trace_blob():
    """A blob at trace scale, with its profiles and chains to the study's
    depth."""
    blob = fourier_blob("trace", 21, 170.0, 3000)
    assert blob.n == 1280
    m_max = auto_target_m(blob, CR)
    return blob, m_max, _trace_solves(blob, m_max)


@pytest.mark.parametrize("name", ["rot90", "rot0_swap", "translate"])
def test_trace_scale_profiles_are_invariant(trace_blob, name):
    blob, m_max, ref = trace_blob
    move, _ = TRANSFORMS[name]
    assert _trace_solves(DigitalCurve(move(blob.points)), m_max) == ref
