"""Turtle tracing of term sequences and SVG output.

Headings are tracked as integer multiples of the turn unit, reduced modulo
the unit's order around the circle (finite for every float or fraction
angle), so rotation never accumulates floating error.  At 90 and 180
degrees the walk stays on the integer lattice and coordinates are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .limits import require_memory

CCW_COUNT = "ccw-count"
CATEGORICAL_MOD4 = "categorical-mod4"

# Turn units per term under the categorical mapping: right, none, left, about-face.
_CATEGORICAL_UNITS = {0: -1, 1: 0, 2: 1, 3: 2}

# Exact unit vectors, by heading, at the angles whose walk stays on the lattice.
_LATTICE_UNITS = {90: ((1, 0), (0, 1), (-1, 0), (0, -1)), 180: ((1, 0), (-1, 0))}

# Peak bytes per term of `trace` plus `to_svg` (the vertex tuple, the xs/ys
# lists and the point string): RSS growth measured at 229-263 for 10^5 and
# 10^6 terms at 90, 120 and 72 degrees (Python 3.11, x86-64).
_BYTES_PER_TERM = 264


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
    if not terms:
        raise ValueError("no terms to trace")
    if not 0 < angle <= 180:
        raise ValueError(f"angle must be within (0, 180], got {angle}")
    if mapping not in (CCW_COUNT, CATEGORICAL_MOD4):
        raise ValueError(f"unknown mapping {mapping!r}")
    require_memory(f"a trace of {len(terms)} terms", _BYTES_PER_TERM * len(terms))
    angle = Fraction(angle)
    # Smallest r with r * angle a multiple of 360: headings repeat modulo it.
    order = (360 / angle).numerator

    sign = -1 if clockwise else 1
    if mapping == CCW_COUNT:
        turns = map(sign.__mul__, terms)
    else:
        turn_of = {r: sign * u for r, u in _CATEGORICAL_UNITS.items()}
        turns = (turn_of[t % 4] for t in terms)

    units = dict(enumerate(_LATTICE_UNITS.get(angle, ())))  # heading -> unit vector
    lattice = bool(units)
    heading = 0
    x, y = (0, 0) if lattice else (0.0, 0.0)
    vertices = [(x, y)]
    for turn in turns:
        vec = units.get(heading)
        if vec is None:
            vec = units[heading] = _unit_vector(angle, heading)
        x, y = x + vec[0], y + vec[1]
        vertices.append((x, y))
        heading = (heading + turn) % order
    return PolylinePath(tuple(vertices), lattice)


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
    xs = [v[0] for v in path.vertices]
    ys = [v[1] for v in path.vertices]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    width = (max_x - min_x) + 2 * margin
    height = (max_y - min_y) + 2 * margin
    points = " ".join(
        f"{x - min_x + margin:.6f},{max_y - y + margin:.6f}" for x, y in path.vertices
    )
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width:.6f} {height:.6f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{stroke_width}" '
        f'points="{points}"/>\n'
        "</svg>\n"
    )


def reduce_mod(terms: Sequence[int], modulus: int) -> list[int]:
    """Terms reduced mod ``modulus`` (full revolutions dropped)."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return [t % modulus for t in terms]
