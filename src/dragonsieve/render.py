"""Turtle tracing of term sequences and SVG output.

Headings are tracked as integer multiples of the turn unit, reduced modulo
the unit's order around the circle (finite for every float or fraction
angle), so rotation never accumulates floating error.  At 90 and 180
degrees the walk stays on the integer lattice and coordinates are exact.

A walk has one representation, the generator `walk`: the vertices,
``CHUNK`` at a time, as an x column and a y column.  No vertex is visited
by Python bytecode: headings are a running sum of the turns reduced by the
order, unit vectors come from per-axis tables (exact ints on the lattice,
filled lazily elsewhere and emptied once they hold more than a chunk's
headings), and coordinates are running sums of the unit vectors, so every
float addition is the one a per-vertex loop would make, in the same order.
`trace`, `write_svg` and `to_svg` are views of its chunks: the vertices one
at a time, the SVG document written to a stream (one walk for the bounding
box, one more for the points), and that document as a string, the one view
that holds more than a chunk.  ``verify`` reads the chunks as `write_svg` does.

Formatting the points runs bytecode once per distinct coordinate of a
chunk, not per vertex: each axis has a memo from a coordinate to its text,
shifted into the viewBox and formatted by its type, an int as
``"%d.000000"`` (the text ``"%.6f"`` gives its float) and any other number
as ``"%.6f"``.  Only `walk` knows the lattice: the formatter sees ints or
floats and nothing else.  The memo is emptied after every chunk, and the
chunk's points are one join of its texts with ``","`` and ``" "`` already
in place between them.  A walk that seldom repeats a coordinate within a
chunk (a straight run, v2 at 72 degrees, v3 at 120) pays for a dict miss
per vertex, and formats more slowly than one ``%`` per chunk of a
per-vertex format would.
"""

from __future__ import annotations

import io
import math
from itertools import accumulate, chain, islice, repeat, starmap
from operator import mod, neg
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

from .limits import BYTES_PER, require_memory

if TYPE_CHECKING:
    from fractions import Fraction

CCW_COUNT = "ccw-count"
CATEGORICAL_MOD4 = "categorical-mod4"

# Turn units per term under the categorical mapping: right, none, left, about-face.
_CATEGORICAL_UNITS = {0: -1, 1: 0, 2: 1, 3: 2}

# Exact unit vectors, by heading, at the angles whose walk stays on the lattice.
_LATTICE_UNITS = {90: ((1, 0), (0, 1), (-1, 0), (0, -1)), 180: ((1, 0), (-1, 0))}

# Vertices read or formatted at a time by `write_svg`.
CHUNK = 1 << 13

# Space around the bounding box in the viewBox, in units of one segment.
MARGIN = 8


def trace(
    terms: Sequence[int],
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
) -> Iterator[tuple[float, float]]:
    """Walk the terms: draw a unit segment, turn at the arrival point, repeat.

    ``angle`` is the turn unit in degrees (0 < angle <= 180).  Under
    ``ccw-count`` each term t turns t units counterclockwise; under
    ``categorical-mod4`` terms select right / none / left / about-face.
    ``clockwise`` flips chirality.  The turtle starts at the origin heading
    +x.  Move first, then turn: term n is the turn applied at arrival point n.

    The arguments are checked at the call.  The result is an iterator over
    the ``(x, y)`` vertices, the origin first, one more than the terms;
    it holds one chunk of `walk` at a time.
    """
    _check_walk(terms, angle, mapping)
    return chain.from_iterable(starmap(zip, walk(terms, angle, mapping, clockwise)))


def write_svg(
    terms: Sequence[int],
    out: TextIO,
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
    *,
    stroke_width: float = 1.0,
) -> None:
    """Write the walk of `trace` as a standalone SVG 1.1 document to the open stream ``out``.

    The document has one polyline.  The viewBox is fitted to the bounding
    box plus ``MARGIN``; the y axis is flipped so counterclockwise in math
    coordinates reads counterclockwise on screen.  Coordinates carry 6
    decimal places.

    The walk runs twice: once for the bounding box, then again for the
    points, written ``CHUNK`` vertices at a time, each distinct coordinate
    of a chunk formatted once.  No more than one chunk of vertices, and of
    their texts, is held.  `check_svg` runs before anything is written.
    """
    check_svg(terms, angle, mapping, stroke_width)
    box = _bounds(walk(terms, angle, mapping, clockwise))
    out.writelines(_svg_text(walk(terms, angle, mapping, clockwise), box, stroke_width))


def check_svg(terms: Sequence[int], angle: float | int | Fraction, mapping: str,
              stroke_width: float) -> None:
    """Raise ValueError unless `write_svg` takes these arguments and fits in memory."""
    _check_walk(terms, angle, mapping)
    if not 0 < stroke_width < math.inf:
        raise ValueError(f"stroke width must be finite and above 0, got {stroke_width}")
    held = "svg byte term" if isinstance(terms, (bytes, bytearray)) else "svg list term"
    require_memory(f"a trace of {len(terms)} terms", BYTES_PER[held] * len(terms)
                   + BYTES_PER["svg chunk vertex"] * min(len(terms) + 1, CHUNK))


def _check_walk(terms: Sequence[int], angle: float | int | Fraction, mapping: str) -> None:
    """Raise ValueError unless ``trace`` and ``write_svg`` take these arguments."""
    if not terms:
        raise ValueError("no terms to trace")
    if not 0 < angle <= 180:
        raise ValueError(f"angle must be within (0, 180], got {angle}")
    if mapping not in (CCW_COUNT, CATEGORICAL_MOD4):
        raise ValueError(f"unknown mapping {mapping!r}")


def walk(
    terms: Sequence[int],
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
) -> Iterator[tuple[list, list]]:
    """Yield the vertices of `trace`'s walk, the origin first, as ``(xs, ys)`` columns.

    Every chunk holds ``CHUNK`` vertices but the last, which holds 1 to
    ``CHUNK`` of them: one more vertex than terms in all.  The arguments
    are not checked: `trace` and `write_svg` check them first.
    """
    order = _order(angle)

    turns = islice(terms, len(terms) - 1)  # the last term turns after the last move
    if mapping == CCW_COUNT:
        if clockwise:
            turns = map(neg, turns)
    else:
        sign = -1 if clockwise else 1
        turn_of = {r: sign * u for r, u in _CATEGORICAL_UNITS.items()}
        turns = map(turn_of.__getitem__, map(mod, turns, repeat(4)))
    headings = map(mod, accumulate(turns, initial=0), repeat(order))

    units = _LATTICE_UNITS.get(angle)
    if units:
        x_of = dict(enumerate(ux for ux, _ in units))
        y_of = dict(enumerate(uy for _, uy in units))
        x = y = 0
    else:
        x_of, y_of = _AxisTable(angle, math.cos), _AxisTable(angle, math.sin)
        x = y = 0.0
    while True:
        chunk = list(islice(headings, CHUNK))
        xs = list(accumulate(map(x_of.__getitem__, chunk), initial=x))
        ys = list(accumulate(map(y_of.__getitem__, chunk), initial=y))
        if len(x_of) > CHUNK:  # a float angle of large order: keep about a chunk's headings
            x_of.clear()
            y_of.clear()
        if len(chunk) < CHUNK:
            yield xs, ys
            return
        x, y = xs.pop(), ys.pop()  # the next chunk's first vertex
        yield xs, ys


def _order(angle: float | int | Fraction) -> int:
    """The smallest r with r * angle a multiple of 360: headings repeat modulo it."""
    num, den = angle.as_integer_ratio()
    return 360 * den // math.gcd(360 * den, num)


class _AxisTable(dict):
    """Heading -> one coordinate of its unit vector, computed on first lookup.

    With the angle the integer ratio ``num / den``, a heading's direction in
    degrees is ``heading * num`` modulo ``360 * den``, over ``den``: exact
    integers, then one correctly rounded division, so the float is the one
    that the fraction ``(heading * angle) % 360`` gives.  `walk` empties it
    when it outgrows a chunk: a cleared value is computed again by the same
    expression, so it is the same float.
    """

    def __init__(self, angle: float | int | Fraction, axis: Callable[[float], float]) -> None:
        super().__init__()
        self.num, self.den = angle.as_integer_ratio()
        self.turn, self.axis = 360 * self.den, axis

    def __missing__(self, heading: int) -> float:
        value = self[heading] = self.axis(math.radians(heading * self.num % self.turn / self.den))
        return value


def to_svg(
    terms: Sequence[int],
    angle: float | int | Fraction = 90,
    mapping: str = CCW_COUNT,
    clockwise: bool = False,
    *,
    stroke_width: float = 1.0,
) -> str:
    """Return the document that `write_svg` writes, as a string.

    Before the walk, the text is charged an svg text vertex's figure for
    each vertex (see `dragonsieve.limits`).
    """
    require_memory(f"the SVG text of {len(terms)} terms",
                   BYTES_PER["svg text vertex"] * (len(terms) + 1))
    out = io.StringIO()
    write_svg(terms, out, angle, mapping, clockwise, stroke_width=stroke_width)
    return out.getvalue()


def _bounds(columns: Iterable[tuple[Sequence, Sequence]]) -> tuple[float, float, float, float]:
    """(min x, max x, min y, max y) over chunks of ``(xs, ys)`` columns.

    Like ``min`` and ``max``, each keeps the first of equal extremes.
    """
    it = iter(columns)
    xs, ys = next(it)
    min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
    for xs, ys in it:
        min_x, max_x = min(min_x, min(xs)), max(max_x, max(xs))
        min_y, max_y = min(min_y, min(ys)), max(max_y, max(ys))
    return min_x, max_x, min_y, max_y


def _svg_text(
    columns: Iterable[tuple[Sequence, Sequence]],
    box: tuple[float, float, float, float],
    stroke_width: float,
) -> Iterator[str]:
    """Yield the SVG document of the vertices inside ``box``, the points a chunk at a time.

    Each axis has a memo of coordinate -> text, emptied after every chunk,
    so a chunk formats each distinct coordinate once and its points are one
    join of the texts.  A coordinate shifted into the viewBox is formatted
    by its type: an int, as on the lattice, by ``"%d.000000"``, which
    gives the text of ``"%.6f"`` without a float conversion, and a float
    or a fraction by ``"%.6f"``.  Coordinates equal under ``==`` (0.0
    and -0.0, or an int and its float) share one text, which is the text
    of either: they shift to the same number.
    """
    min_x, max_x, min_y, max_y = box
    width = (max_x - min_x) + 2 * MARGIN
    height = (max_y - min_y) + 2 * MARGIN
    yield (
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {width:.6f} {height:.6f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{stroke_width}" '
        'points="'
    )

    class TextX(dict):
        def __missing__(self, x):
            v = (x - min_x) + MARGIN
            text = self[x] = "%d.000000" % v if type(v) is int else "%.6f" % v
            return text

    class TextY(dict):
        def __missing__(self, y):
            v = (max_y - y) + MARGIN
            text = self[y] = "%d.000000" % v if type(v) is int else "%.6f" % v
            return text
    text_x, text_y = TextX(), TextY()
    sep = ""
    for xs, ys in columns:
        flat = [" ", None, ",", None] * len(xs)
        flat[0] = sep
        flat[1::4] = map(text_x.__getitem__, xs)
        text_x.clear()  # emptied as soon as it is read, to lower the chunk's peak
        flat[3::4] = map(text_y.__getitem__, ys)
        text_y.clear()
        yield "".join(flat)
        sep = " "
    yield '"/>\n</svg>\n'


def reduce_mod(terms: Sequence[int], modulus: int) -> Sequence[int]:
    """Terms reduced mod ``modulus`` (full revolutions dropped); bytes stay bytes."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if isinstance(terms, (bytes, bytearray)):
        return terms.translate(bytes(t % modulus for t in range(256)))
    return [t % modulus for t in terms]
