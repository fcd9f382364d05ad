"""Closed digital curves: parsing, chain codes, and contour geometry.

A curve is an ordered ring of integer lattice points; index arithmetic is
circular and closure is implicit (the last point connects back to the
first).  Geometry helpers compute the centroid, the axis through the
centroid that minimizes the summed squared perpendicular deviation, and
the two extents used to normalize error measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    DuplicateConsecutive,
    InvalidDigit,
    MalformedLine,
    NotClosed,
    PolyApproxError,
    TooFewPoints,
)

__all__ = [
    "DigitalCurve",
    "InertiaLine",
    "CurveGeometry",
    "parse_point_list",
    "parse_chain_code",
    "chain_code_of",
    "load_curve",
    "centroid",
    "inertia_line",
    "curve_geometry",
]

# Freeman 8-neighbour steps: code k moves by _CHAIN_STEPS[k].
_CHAIN_STEPS = (
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
)

_STEP_TO_CODE = {step: code for code, step in enumerate(_CHAIN_STEPS)}

# Relative scale below which the second-moment matrix is treated as
# isotropic and the axis direction falls back to (1, 0).
_ISOTROPY_RTOL = 1e-12


def exact_int64(arr: np.ndarray) -> np.ndarray | None:
    """arr as int64, or None if a value would not survive the cast
    unchanged.  Only arrays that do not cast safely (floats, uint64,
    Python ints past int64) are cast and compared."""
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):
            cast = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    return cast if np.array_equal(cast, arr) else None


@dataclass(eq=False)
class DigitalCurve:
    """Ring of integer points with circular indexing.

    ``points`` is anything that converts to an (n, 2) array of integer
    values within int64; the parsers pass lists of int pairs.  It is
    stored as the curve's own int64 array, a copy of the caller's,
    frozen so a curve can be shared safely between caches and polygons.
    """

    points: np.ndarray
    name: str | None = None

    def __post_init__(self):
        pts = np.array(self.points, order="C")  # the curve's own copy
        if pts.size == 0:
            pts = pts.reshape(0, 2)  # an empty list has no second axis
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MalformedLine("points must be an (n, 2) array")
        pts = exact_int64(pts)
        if pts is None:
            raise MalformedLine("coordinates must be 64-bit integers")
        if pts.shape[0] < 3:
            raise TooFewPoints(f"need at least 3 points, got {pts.shape[0]}")
        same = np.all(pts == np.roll(pts, -1, axis=0), axis=1)
        if same.any():
            i = int(np.argmax(same))
            raise DuplicateConsecutive(
                f"points {i} and {(i + 1) % pts.shape[0]} coincide at "
                f"({pts[i, 0]}, {pts[i, 1]})"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def point(self, i: int) -> tuple[int, int]:
        """Point at circular index i (any integer)."""
        p = self.points[i % self.n]
        return int(p[0]), int(p[1])

    def points_float(self) -> np.ndarray:
        return self.points.astype(np.float64)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<DigitalCurve{tag} n={self.n}>"


@dataclass(frozen=True)
class InertiaLine:
    """Axis through ``point`` with unit ``direction``."""

    point: tuple[float, float]
    direction: tuple[float, float]


@dataclass(frozen=True)
class CurveGeometry:
    """Contour extents used by normalized error measures.

    d1 is the largest centroid-to-point distance, d2 the largest
    perpendicular distance to the minimum-inertia axis, and d their sum.
    """

    centroid: tuple[float, float]
    d1: float
    inertia: InertiaLine
    d2: float

    @property
    def d(self) -> float:
        return self.d1 + self.d2


def _content_lines(text: str | bytes) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line that is not blank or a
    '#' comment.  Bytes are decoded as UTF-8."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedLine(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
    return [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and line[0] != "#"
    ]


def _int_pairs(lines: list[tuple[int, str]]) -> list[tuple[int, int]]:
    pts = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected 'x y', got {line!r}")
        try:
            pts.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise MalformedLine(
                f"line {lineno}: coordinates must be integers, got {line!r}"
            ) from None
    return pts


def parse_point_list(text: str | bytes) -> DigitalCurve:
    """Parse "x y" integer lines into a curve.

    Blank lines and lines starting with '#' are skipped.  Real-valued
    coordinates are rejected: the model is a lattice curve.
    """
    return DigitalCurve(_int_pairs(_content_lines(text)))


def parse_chain_code(text: str | bytes) -> DigitalCurve:
    """Parse a start point plus Freeman chain-code string.

    Exactly two content lines: "x0 y0", then a digit string over 0..7.
    The trace must land back on the start point, which is not repeated
    in the returned curve.
    """
    lines = _content_lines(text)
    if len(lines) < 2:
        raise MalformedLine("chain-code input needs a start line and a code line")
    if len(lines) > 2:
        lineno, line = lines[2]
        raise MalformedLine(f"line {lineno}: the code must be one line, got {line!r}")
    pts = _int_pairs(lines[:1])
    x, y = pts[0]
    for pos, ch in enumerate(lines[1][1]):
        if ch not in "01234567":
            raise InvalidDigit(f"code position {pos}: {ch!r} is not in 0..7")
        dx, dy = _CHAIN_STEPS[int(ch)]
        x, y = x + dx, y + dy
        pts.append((x, y))
    if pts[-1] != pts[0]:
        raise NotClosed(
            f"trace ends at ({x}, {y}), start is ({pts[0][0]}, {pts[0][1]})"
        )
    return DigitalCurve(pts[:-1])


def chain_code_of(curve: DigitalCurve) -> str:
    """Inverse of parse_chain_code for 8-connected curves."""
    pts = curve.points
    steps = np.roll(pts, -1, axis=0) - pts
    out = []
    for i, (dx, dy) in enumerate(steps):
        key = (int(dx), int(dy))
        if key not in _STEP_TO_CODE:
            raise InvalidDigit(f"step {i} moves by {key}, not an 8-neighbour step")
        out.append(str(_STEP_TO_CODE[key]))
    return "".join(out)


# Curve file formats by suffix; `load_curve` and the CLI read this table.
FORMATS = {".pts": parse_point_list, ".chn": parse_chain_code}


def load_curve(path: str | Path, fmt: str = "auto") -> DigitalCurve:
    """Load a curve file and name it after the file's stem.

    ``fmt`` is a `FORMATS` suffix without its dot ("pts", "chn"), or
    "auto" to take the format from the file's extension.  The parser
    gets the file's bytes; text formats are UTF-8.  A parse error keeps
    its type, and its message starts with the path.
    """
    path = Path(path)
    ext = path.suffix.lower() if fmt == "auto" else "." + fmt
    if ext not in FORMATS:
        raise MalformedLine(
            f"{path}: unknown extension {ext!r}; pass an explicit format"
            if fmt == "auto" else f"unknown curve format {fmt!r}"
        )
    try:
        curve = FORMATS[ext](path.read_bytes())
    except PolyApproxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    curve.name = path.stem
    return curve


def centroid(curve: DigitalCurve) -> tuple[float, float]:
    c = curve.points_float().mean(axis=0)
    return float(c[0]), float(c[1])


def inertia_line(curve: DigitalCurve) -> InertiaLine:
    """Minimum-inertia axis of a curve's points.

    The direction is the eigenvector of the larger eigenvalue of the
    second central moment matrix; maximizing the spread captured along
    the axis minimizes the perpendicular residual.  A matrix within
    relative tolerance of isotropic has no preferred axis and maps to
    direction (1, 0).  The sign is canonical: positive x, or (0, 1).
    """
    pts = curve.points_float()
    cx, cy = centroid(curve)
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    mxx = float(dx @ dx)
    myy = float(dy @ dy)
    mxy = float(dx @ dy)
    scale = mxx + myy
    if abs(mxx - myy) <= _ISOTROPY_RTOL * scale and abs(mxy) <= _ISOTROPY_RTOL * scale:
        return InertiaLine((cx, cy), (1.0, 0.0))
    half = 0.5 * (mxx - myy)
    lam = 0.5 * (mxx + myy) + math.hypot(half, mxy)
    # two algebraic eigenvector forms; pick the better-conditioned one
    v1 = (lam - myy, mxy)
    v2 = (mxy, lam - mxx)
    vx, vy = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    norm = math.hypot(vx, vy)
    vx, vy = vx / norm, vy / norm
    if vx < 0.0 or (vx == 0.0 and vy < 0.0):
        vx, vy = -vx, -vy
    return InertiaLine((cx, cy), (vx, vy))


def curve_geometry(curve: DigitalCurve) -> CurveGeometry:
    axis = inertia_line(curve)
    (cx, cy), (ux, uy) = axis.point, axis.direction
    rel = curve.points_float() - (cx, cy)
    d1 = float(np.sqrt((rel * rel).sum(axis=1).max()))
    # perpendicular distance to the axis is the cross product with u
    d2 = float(np.abs(rel[:, 0] * uy - rel[:, 1] * ux).max())
    return CurveGeometry((cx, cy), d1, axis, d2)
