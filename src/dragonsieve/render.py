"""Turtle tracing of term sequences and SVG output.

Headings are tracked as integer multiples of the turn unit, reduced modulo
the unit's order around the circle whenever the angle is rational, so
rotation never accumulates floating error.  At 90 and 180 degrees the walk
stays on the integer lattice and coordinates are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

CCW_COUNT = "ccw-count"
CATEGORICAL_MOD4 = "categorical-mod4"

# Turn units per term under the categorical mapping: right, none, left, about-face.
_CATEGORICAL_UNITS = {0: -1, 1: 0, 2: 1, 3: 2}

# Precompute unit-vector tables only up to this order; beyond it, cache lazily.
_TABLE_LIMIT = 1 << 16


@dataclass(frozen=True)
class TurnProgram:
    """A term sequence plus the geometry that interprets it.

    ``angle`` is the turn unit in degrees (0 < angle <= 180).  Under
    ``ccw-count`` each term t turns t units counterclockwise; under
    ``categorical-mod4`` terms select right / none / left / about-face.
    ``clockwise`` flips chirality for experimentation.
    """

    terms: tuple[int, ...]
    angle: float | int | Fraction = 90
    mapping: str = CCW_COUNT
    clockwise: bool = False

    def __post_init__(self) -> None:
        if self.mapping not in (CCW_COUNT, CATEGORICAL_MOD4):
            raise ValueError(f"unknown mapping {self.mapping!r}")


@dataclass(frozen=True)
class PolylinePath:
    """Vertices of a traced walk; one more vertex than input terms.

    ``lattice`` marks exact integer coordinates.
    """

    vertices: tuple[tuple[float, float], ...]
    lattice: bool


def _turn_units(term: int, mapping: str) -> int:
    if mapping == CCW_COUNT:
        return term
    return _CATEGORICAL_UNITS[term % 4]


def trace(program: TurnProgram) -> PolylinePath:
    """Walk the program: draw a unit segment, turn at the arrival point, repeat.

    The turtle starts at the origin heading +x.  Move first, then turn:
    term n is the turn applied at arrival point n.
    """
    if not program.terms:
        raise ValueError("turn program has no terms")
    angle = Fraction(program.angle)
    if angle <= 0 or angle > 180:
        raise ValueError(f"angle must be within (0, 180], got {program.angle}")

    # Smallest r with r * angle a multiple of 360; r = None for irrational-like
    # angles where the ratio's numerator is impractically large.
    ratio = Fraction(360) / angle
    order: int | None = ratio.numerator if ratio.numerator <= (1 << 40) else None

    lattice = angle == 90 or angle == 180
    if angle == 90:
        units: object = ((1, 0), (0, 1), (-1, 0), (0, -1))
    elif angle == 180:
        units = ((1, 0), (-1, 0))
    elif order is not None and order <= _TABLE_LIMIT:
        units = tuple(
            _unit_vector(angle, h) for h in range(order)
        )
    else:
        units = {}  # lazily filled heading -> vector cache

    sign = -1 if program.clockwise else 1
    heading = 0
    x, y = (0, 0) if lattice else (0.0, 0.0)
    vertices = [(x, y)]
    for term in program.terms:
        if isinstance(units, dict):
            vec = units.get(heading)
            if vec is None:
                vec = units[heading] = _unit_vector(angle, heading)
        else:
            vec = units[heading]
        x, y = x + vec[0], y + vec[1]
        vertices.append((x, y))
        heading += sign * _turn_units(term, program.mapping)
        if order is not None:
            heading %= order
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
    size: int | None = None,
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
    dims = f' width="{size}" height="{size}"' if size is not None else ""
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"{dims} '
        f'viewBox="0 0 {width:.6f} {height:.6f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{stroke_width}" '
        f'points="{points}"/>\n'
        "</svg>\n"
    )


def write_svg(path: PolylinePath, out: str | Path, **options) -> None:
    Path(out).write_text(to_svg(path, **options), encoding="utf-8")


def reduce_mod(terms: Sequence[int], modulus: int) -> list[int]:
    """Terms reduced mod ``modulus`` (full revolutions dropped)."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return [t % modulus for t in terms]
