"""Turtle tracing of term sequences and SVG output.

Headings are tracked as integer multiples of the turn unit, reduced modulo
the unit's order around the circle (finite for every float or fraction
angle), so rotation never accumulates floating error.  At 90 and 180
degrees the walk stays on the integer lattice and coordinates are exact.

One generator walks the terms.  `trace` keeps its vertices as a
`PolylinePath`, which `to_svg` renders.  `write_svg` writes the same
document without keeping them: it walks once for the bounding box and once
more for the points, which go to the stream a chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence, TextIO

from .limits import require_memory

CCW_COUNT = "ccw-count"
CATEGORICAL_MOD4 = "categorical-mod4"

# Turn units per term under the categorical mapping: right, none, left, about-face.
_CATEGORICAL_UNITS = {0: -1, 1: 0, 2: 1, 3: 2}

# Exact unit vectors, by heading, at the angles whose walk stays on the lattice.
_LATTICE_UNITS = {90: ((1, 0), (0, 1), (-1, 0), (0, -1)), 180: ((1, 0), (-1, 0))}

# Peak bytes per term of `trace` plus `to_svg` (the vertex tuples and the
# document text), an upper bound on the RSS growth measured at 167-183 for
# 10^5 and 10^6 terms at 90, 120 and 72 degrees (Python 3.11, x86-64).
_BYTES_PER_TERM = 264

# Vertices read or formatted at a time by `write_svg`.
CHUNK = 1 << 13


@dataclass(frozen=True)
class PolylinePath:
    """Vertices of a traced walk; one more vertex than input terms.

    ``lattice`` marks exact integer coordinates.
    """

    vertices: tuple[tuple[float, float], ...]
    lattice: bool


def trace(
    terms: Sequence[int],
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
) -> PolylinePath:
    """Walk the terms: draw a unit segment, turn at the arrival point, repeat.

    ``angle`` is the turn unit in degrees (0 < angle <= 180).  Under
    ``ccw-count`` each term t turns t units counterclockwise; under
    ``categorical-mod4`` terms select right / none / left / about-face.
    ``clockwise`` flips chirality.  The turtle starts at the origin heading
    +x.  Move first, then turn: term n is the turn applied at arrival point n.
    """
    check_walk(terms, angle, mapping)
    require_memory(f"a trace of {len(terms)} terms", _BYTES_PER_TERM * len(terms))
    angle = Fraction(angle)
    return PolylinePath(tuple(_walk(terms, angle, mapping, clockwise)),
                        angle in _LATTICE_UNITS)


def write_svg(
    terms: Sequence[int],
    out: TextIO,
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
    *,
    stroke_width: float = 1.0,
    margin: float = 8.0,
) -> None:
    """Write ``to_svg(trace(terms, angle, mapping, clockwise))`` to the open stream ``out``.

    The walk runs twice: once for the bounding box, then again for the
    points, written ``CHUNK`` vertices at a time.  No more than one chunk
    of vertices is held.  The arguments are checked before anything is
    written.
    """
    check_walk(terms, angle, mapping)
    angle = Fraction(angle)
    box = _bounds(_walk(terms, angle, mapping, clockwise))
    out.writelines(_svg_text(_walk(terms, angle, mapping, clockwise), box, stroke_width, margin))


def check_walk(terms: Sequence[int], angle: float | int | Fraction, mapping: str) -> None:
    """Raise ValueError unless ``trace`` and ``write_svg`` take these arguments."""
    if not terms:
        raise ValueError("no terms to trace")
    if not 0 < angle <= 180:
        raise ValueError(f"angle must be within (0, 180], got {angle}")
    if mapping not in (CCW_COUNT, CATEGORICAL_MOD4):
        raise ValueError(f"unknown mapping {mapping!r}")


def _walk(
    terms: Sequence[int], angle: Fraction, mapping: str, clockwise: bool
) -> Iterator[tuple[float, float]]:
    """Yield the vertices of the walk, the origin first: one more than the terms."""
    # Smallest r with r * angle a multiple of 360: headings repeat modulo it.
    order = (360 / angle).numerator

    sign = -1 if clockwise else 1
    if mapping == CCW_COUNT:
        turns = map(sign.__mul__, terms)
    else:
        turn_of = {r: sign * u for r, u in _CATEGORICAL_UNITS.items()}
        turns = (turn_of[t % 4] for t in terms)

    units = dict(enumerate(_LATTICE_UNITS.get(angle, ())))  # heading -> unit vector
    heading = 0
    x, y = (0, 0) if units else (0.0, 0.0)
    yield x, y
    for turn in turns:
        vec = units.get(heading)
        if vec is None:
            vec = units[heading] = _unit_vector(angle, heading)
        x, y = x + vec[0], y + vec[1]
        yield x, y
        heading = (heading + turn) % order


def _unit_vector(angle: Fraction, heading: int) -> tuple[float, float]:
    theta = math.radians(float((heading * angle) % 360))
    return (math.cos(theta), math.sin(theta))


def path_equal(a: PolylinePath, b: PolylinePath, tolerance: float = 0.0) -> bool:
    """True when both paths have the same vertices within ``tolerance``.

    Tolerance 0 demands exact equality, which is meaningful in lattice mode.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    if len(a.vertices) != len(b.vertices):
        return False
    if tolerance == 0:
        return a.vertices == b.vertices
    return all(
        math.hypot(ax - bx, ay - by) <= tolerance
        for (ax, ay), (bx, by) in zip(a.vertices, b.vertices)
    )


def to_svg(
    path: PolylinePath,
    *,
    stroke_width: float = 1.0,
    margin: float = 8.0,
) -> str:
    """Render the path as a standalone SVG 1.1 document with one polyline.

    The viewBox is fitted to the bounding box plus margin; the y axis is
    flipped so counterclockwise in math coordinates reads counterclockwise
    on screen.  Coordinates carry 6 decimal places.
    """
    if not path.vertices:
        raise ValueError("cannot render an empty path")
    box = _bounds(path.vertices)
    return "".join(_svg_text(path.vertices, box, stroke_width, margin))


def _bounds(vertices: Iterable[tuple[float, float]]) -> tuple[float, float, float, float]:
    """(min x, max x, min y, max y) over the vertices.

    Like ``min`` and ``max``, each keeps the first of equal extremes.
    """
    it = iter(vertices)
    min_x, min_y = max_x, max_y = next(it)
    for x, y in it:
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    return min_x, max_x, min_y, max_y


def _svg_text(
    vertices: Iterable[tuple[float, float]],
    box: tuple[float, float, float, float],
    stroke_width: float,
    margin: float,
) -> Iterator[str]:
    """Yield the SVG document of the vertices inside ``box``, the points a chunk at a time."""
    min_x, max_x, min_y, max_y = box
    width = (max_x - min_x) + 2 * margin
    height = (max_y - min_y) + 2 * margin
    yield (
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width:.6f} {height:.6f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{stroke_width}" '
        'points="'
    )
    it = iter(vertices)
    sep = ""
    while points := " ".join(["%.6f,%.6f" % (x - min_x + margin, max_y - y + margin)
                              for x, y in islice(it, CHUNK)]):
        yield sep
        yield points
        sep = " "
    yield '"/>\n</svg>\n'


def reduce_mod(terms: Sequence[int], modulus: int) -> Sequence[int]:
    """Terms reduced mod ``modulus`` (full revolutions dropped); bytes stay bytes."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if isinstance(terms, (bytes, bytearray)):
        return terms.translate(bytes(t % modulus for t in range(256)))
    return [t % modulus for t in terms]
