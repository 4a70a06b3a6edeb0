from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dragonsieve import (
    format_b_file,
    generate_dci,
    heighway_turns,
    to_svg,
    trace,
    write_svg,
)
from dragonsieve import render
from dragonsieve.cli import main
from dragonsieve.limits import BYTES_PER
from dragonsieve.render import CHUNK, PolylinePath, reduce_mod

# CCW quarter-turn rotation applied h times, for lattice normalization.
def _rot(v, h):
    x, y = v
    for _ in range(h % 4):
        x, y = -y, x
    return (x, y)


# Lattice unit vectors, indexed by heading in quarter turns.
_LATTICE_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _heading(path, s):
    """Heading of 0-based segment s, from its vector vertices[s+1] - vertices[s]."""
    (x0, y0), (x1, y1) = path.vertices[s], path.vertices[s + 1]
    return _LATTICE_UNITS.index((x1 - x0, y1 - y0))


def _unreduced_walk(terms, angle, clockwise):
    """Vertices of the walk with the heading never reduced modulo the angle's order."""
    unit = Fraction(angle)
    heading, x, y = 0, 0.0, 0.0
    vertices = [(x, y)]
    for t in terms:
        theta = math.radians(float((heading * unit) % 360))
        x, y = x + math.cos(theta), y + math.sin(theta)
        vertices.append((x, y))
        heading += -t if clockwise else t
    return tuple(vertices)


def _reference_svg(terms, angle, mapping, clockwise, stroke_width, margin):
    """The SVG document, walked and formatted one vertex at a time.

    The loop version of `write_svg`: a per-vertex turtle walk, a per-vertex
    bounding box and one ``"%.6f,%.6f"`` per point, so a defect shared by
    `to_svg` and `write_svg` still differs from it.
    """
    unit = Fraction(angle)
    order = (360 / unit).numerator
    units = dict(enumerate({90: ((1, 0), (0, 1), (-1, 0), (0, -1)),
                            180: ((1, 0), (-1, 0))}.get(unit, ())))
    heading = 0
    x, y = (0, 0) if units else (0.0, 0.0)
    vertices = [(x, y)]
    for t in terms:
        vec = units.get(heading)
        if vec is None:
            theta = math.radians(float((heading * unit) % 360))
            vec = units[heading] = (math.cos(theta), math.sin(theta))
        x, y = x + vec[0], y + vec[1]
        vertices.append((x, y))
        turn = t if mapping == "ccw-count" else {0: -1, 1: 0, 2: 1, 3: 2}[t % 4]
        heading = (heading + (-turn if clockwise else turn)) % order
    min_x = max_x = vertices[0][0]
    min_y = max_y = vertices[0][1]
    for x, y in vertices:
        if x < min_x:
            min_x = x
        elif x > max_x:
            max_x = x
        if y < min_y:
            min_y = y
        elif y > max_y:
            max_y = y
    points = " ".join("%.6f,%.6f" % (x - min_x + margin, max_y - y + margin)
                      for x, y in vertices)
    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {(max_x - min_x) + 2 * margin:.6f} '
        f'{(max_y - min_y) + 2 * margin:.6f}">\n'
        f'<polyline fill="none" stroke="black" stroke-width="{stroke_width}" '
        f'points="{points}"/>\n</svg>\n'
    )


# Walks of three chunks and a part of one, by how their coordinates repeat: random
# turns (at 60, 90 and 120 degrees every chunk repeats most of its coordinates),
# random turns for a chunk and a half and then a straight run (whose every x is
# new), and a straight run from the first term.
_WALKS = ("random", "random-then-straight", "straight")

# Each walk at each angle; the term type, mapping and chirality run through all
# eight of their combinations over the eighteen cases.
_REPEAT_CASES = [
    (walk, angle, i % 2 == 0, ("ccw-count", "categorical-mod4")[i // 2 % 2], i // 4 % 2 == 1)
    for i, (walk, angle) in enumerate(product(_WALKS, [90, 120, 135, 72, 90.1, Fraction(1, 3)]))
]


def _walk_terms(walk, as_bytes, mapping):
    n = 3 * CHUNK + 100
    rng = random.Random(0)
    straight = 0 if mapping == "ccw-count" else 1  # the term that does not turn
    head = {"random": n, "random-then-straight": CHUNK + CHUNK // 2, "straight": 0}[walk]
    if as_bytes:
        return rng.randbytes(head) + bytes([straight]) * (n - head)
    return [rng.randint(-400, 400) for _ in range(head)] + [straight] * (n - head)


def _memo_misses(terms, angle):
    """Calls of the coordinate memos' ``__missing__`` while `write_svg` writes the walk."""
    misses = 0

    def count(frame, event, arg):
        nonlocal misses
        if (event == "call" and frame.f_code.co_name == "__missing__"
                and type(frame.f_locals.get("self")).__name__ in ("TextX", "TextY")):
            misses += 1

    sys.setprofile(count)
    try:
        write_svg(terms, io.StringIO(), angle)
    finally:
        sys.setprofile(None)
    return misses


class TestTrace:
    def test_golden_v2_prefix(self):
        path = trace((0, 1, 0, 2), 90)
        assert path.vertices == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
        # double turn at the last point reverses the heading
        assert tuple(_heading(path, s) for s in range(4)) == (0, 0, 1, 1)

    def test_all_zero_terms_stay_collinear(self):
        path = trace((0,) * 6, 72)
        for k, (x, y) in enumerate(path.vertices):
            assert abs(x - k) < 1e-12 and abs(y) < 1e-12

    def test_categorical_single_left_turn(self):
        path = trace((2,), 90, "categorical-mod4")
        assert path.vertices == ((0, 0), (1, 0))
        # turn applied after the only move; a second term would head north
        path2 = trace((2, 0), 90, "categorical-mod4")
        assert path2.vertices == ((0, 0), (1, 0), (1, 1))

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            trace((), 90)

    def test_rejects_bad_angle(self):
        for angle in (0, 181, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="angle must be within"):
                trace((0, 1), angle)

    @pytest.mark.parametrize("clockwise", [False, True])
    @pytest.mark.parametrize("angle", [0.01, 90.1, 72])
    def test_reduced_heading_matches_unreduced_walk(self, angle, clockwise):
        # 0.01 and 90.1 are binary floats whose order runs far past 2**16.
        assert (360 / Fraction(angle)).numerator > 2**16 or angle == 72
        terms = generate_dci(3, 3000).terms
        path = trace(terms, angle, clockwise=clockwise)
        assert path.vertices == _unreduced_walk(terms, angle, clockwise)

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ValueError, match="unknown mapping 'spin'"):
            trace((0, 1), 90, "spin")

    def test_vertex_count_law(self):
        rng = random.Random(7)
        for _ in range(100):
            terms = tuple(rng.randrange(6) for _ in range(rng.randrange(1, 40)))
            angle = rng.choice([90, 60, 120, 135, 45, 30])
            path = trace(terms, angle)
            assert len(path.vertices) == len(terms) + 1

    @pytest.mark.parametrize("angle", [60, 120, 135, 150, 36])
    def test_unit_segment_lengths(self, angle):
        terms = generate_dci(2, 500).terms
        path = trace(terms, angle)
        for (x0, y0), (x1, y1) in zip(path.vertices, path.vertices[1:]):
            assert abs(math.hypot(x1 - x0, y1 - y0) - 1.0) < 1e-9

    def test_mod4_reduction_invariance_exact(self):
        terms = generate_dci(2, 2000).terms
        full = trace(terms, 90)
        reduced = trace(reduce_mod(terms, 4), 90)
        assert full.vertices == reduced.vertices

    def test_mod3_reduction_invariance_at_120(self):
        terms = generate_dci(2, 500).terms
        full = trace(terms, 120).vertices
        reduced = trace(reduce_mod(terms, 3), 120).vertices
        assert len(full) == len(reduced)
        assert all(math.dist(a, b) <= 1e-9 for a, b in zip(full, reduced))

    def test_clockwise_mirrors(self):
        terms = (0, 1, 0, 2)
        ccw = trace(terms, 90)
        cw = trace(terms, 90, clockwise=True)
        assert cw.vertices == tuple((x, -y) for x, y in ccw.vertices)

    def test_spike_blocks_are_congruent(self):
        # Between consecutive multiples of 8, the walk repeats one T-shaped
        # template up to rotation.
        template = trace((0, 1, 0, 2, 0, 1, 0), 90).vertices
        path = trace(generate_dci(2, 64).terms, 90)
        for k in range(8):
            s = 8 * k
            h = _heading(path, s)
            ox, oy = path.vertices[s]
            window = tuple(
                _rot((x - ox, y - oy), -h) for x, y in path.vertices[s : s + 8]
            )
            assert window == template


class TestToSvg:
    def test_single_segment_points(self):
        path = trace((0,), 90)
        svg = to_svg(path)
        assert 'viewBox="0 0 17.000000 16.000000"' in svg
        assert 'points="8.000000,8.000000 9.000000,8.000000"' in svg

    def test_document_shape(self):
        svg = to_svg(trace((0, 1, 0, 2), 90))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 1
        assert "viewBox=" in svg

    def test_y_axis_flip(self):
        # A left turn (CCW, +y in math coords) must head up the screen,
        # i.e. toward smaller emitted y.
        path = trace((1, 0), 90)
        svg = to_svg(path)
        pts = svg.split('points="')[1].split('"')[0].split()
        ys = [float(p.split(",")[1]) for p in pts]
        assert ys[2] < ys[1]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_emits_one_point_per_vertex(self, terms):
        path = trace(terms, 90)
        svg = to_svg(path)
        pts = svg.split('points="')[1].split('"')[0].split()
        assert len(pts) == len(path.vertices)

    @pytest.mark.parametrize("vertices", [
        # 0.0 and -0.0, or 1 and 1.0, share whichever text was made first.
        tuple(zip([-0.0, 0.0, 0, 2, -0.0, 3, 0.0, 2, -1, 0],
                  [0.0, -0.0, 0, 0.0, 1, 0, 1, -0.0, 0, -0.0])),
        tuple(zip([-0.0, 0.0, 0, 2.0, -0.0, 3, 0.0, 2, -1, 0],
                  [0.0, -0.0, 0, 0.0, 1.0, 0, 1, -0.0, 0, -0.0])),
        # A non-integral float beside an int is not truncated to a whole number.
        ((0, 0), (0.5, 0.25)),
        ((0, 0), (1, 0.5), (-0.75, 2), (3, -1), (0.1, 0), (1, 1)),
    ], ids=["ints-and-whole-floats", "whole-floats-and-ints", "int-and-halves", "mixed"])
    def test_equal_coordinates_give_one_text(self, vertices):
        # The formatter looks each coordinate's text up by value and formats
        # it by its type, which gives the per-vertex "%.6f" text.
        xs, ys = zip(*vertices)
        min_x, max_y = min(xs), max(ys)
        want = " ".join("%.6f,%.6f" % ((x - min_x) + 8, (max_y - y) + 8) for x, y in vertices)
        svg = to_svg(PolylinePath(vertices))
        assert svg.split('points="')[1].split('"')[0] == want


class TestWriteSvg:
    @given(
        terms=st.lists(st.integers(min_value=0, max_value=255)
                       | st.integers(min_value=-10**6, max_value=10**6),
                       min_size=1, max_size=200),
        angle=st.sampled_from([90, 180, 120, 135, 72, 60, 47.3]),
        mapping=st.sampled_from(["ccw-count", "categorical-mod4"]),
        clockwise=st.booleans(),
        stroke_width=st.sampled_from([1.0, 0.4, 3]),
    )
    @settings(max_examples=200)
    def test_streams_the_document_of_the_trace(self, terms, angle, mapping, clockwise,
                                               stroke_width):
        out = io.StringIO()
        write_svg(terms, out, angle, mapping, clockwise, stroke_width=stroke_width)
        path = trace(terms, angle, mapping, clockwise)
        assert out.getvalue() == to_svg(path, stroke_width=stroke_width)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
        as_bytes=st.booleans(),
        angle=st.sampled_from([90, 90.0, 180, 120, 60, 135, 72, 90.1, Fraction(1, 3)]),
        mapping=st.sampled_from(["ccw-count", "categorical-mod4"]),
        clockwise=st.booleans(),
    )
    # No shrinking: the terms come from a seed, which it cannot simplify.
    @settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.generate])
    def test_equals_the_per_vertex_reference(self, seed, n, as_bytes, angle, mapping,
                                             clockwise):
        # One vertex more than the terms: n = CHUNK - 1 fills one chunk exactly.
        rng = random.Random(seed)
        terms = (rng.randbytes(n) if as_bytes
                 else [rng.randint(-400, 400) for _ in range(n)])
        want = _reference_svg(terms, angle, mapping, clockwise, 1.0, 8.0)
        out = io.StringIO()
        write_svg(terms, out, angle, mapping, clockwise)
        assert out.getvalue() == want
        assert to_svg(trace(terms, angle, mapping, clockwise)) == want

    def test_spans_point_chunks(self):
        # More vertices than one chunk, as bytes, the form the CLI passes.
        terms = generate_dci(3, 20000).terms
        out = io.StringIO()
        write_svg(terms, out, 120, clockwise=True)
        assert out.getvalue() == to_svg(trace(terms, 120, clockwise=True))

    @pytest.mark.parametrize("walk,angle,as_bytes,mapping,clockwise", _REPEAT_CASES)
    def test_equals_the_per_vertex_reference_whether_coordinates_repeat(
            self, walk, angle, as_bytes, mapping, clockwise):
        terms = _walk_terms(walk, as_bytes, mapping)
        want = _reference_svg(terms, angle, mapping, clockwise, 1.0, 8.0)
        out = io.StringIO()
        write_svg(terms, out, angle, mapping, clockwise)
        assert out.getvalue() == want
        assert to_svg(trace(terms, angle, mapping, clockwise)) == want

    @pytest.mark.parametrize("walk", _WALKS)
    @pytest.mark.parametrize("angle", [90, 120])
    def test_formats_each_distinct_coordinate_once_per_chunk(self, walk, angle):
        terms = _walk_terms(walk, True, "ccw-count")
        vertices = trace(terms, angle).vertices
        chunks = [vertices[i : i + CHUNK] for i in range(0, len(vertices), CHUNK)]
        distinct = sum(len({x for x, _ in c}) + len({y for _, y in c}) for c in chunks)
        assert _memo_misses(terms, angle) == distinct

    @pytest.mark.parametrize("terms,angle,mapping,match", [
        ((), 90, "ccw-count", "no terms to trace"),
        ((0, 1), 181, "ccw-count", "angle must be within"),
        ((0, 1), 90, "spin", "unknown mapping 'spin'"),
    ])
    def test_rejects_before_writing(self, terms, angle, mapping, match):
        out = io.StringIO()
        with pytest.raises(ValueError, match=match):
            write_svg(terms, out, angle, mapping)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("stroke_width", [0, -2, math.nan, math.inf])
    def test_rejects_stroke_width_before_writing(self, stroke_width):
        out = io.StringIO()
        match = "stroke width must be finite and above 0"
        with pytest.raises(ValueError, match=match):
            write_svg((0, 1), out, stroke_width=stroke_width)
        assert out.getvalue() == ""
        with pytest.raises(ValueError, match=match):
            to_svg(trace((0, 1)), stroke_width=stroke_width)

    @pytest.mark.parametrize("terms,held", [(bytes(1000), "svg byte term"),
                                            ([0] * 1000, "svg list term")], ids=["bytes", "list"])
    def test_rejects_walk_beyond_memory_before_writing(self, report_physical_memory,
                                                        terms, held):
        # The bytes each term is held in and a chunk vertex's bytes for each vertex of the
        # chunk, and not a byte less.
        need = BYTES_PER[held] * 1000 + BYTES_PER["svg chunk vertex"] * 1001
        report_physical_memory(need - 1)
        out = io.StringIO()
        with pytest.raises(ValueError, match="a trace of 1000 terms would not fit"):
            write_svg(terms, out)
        assert out.getvalue() == ""
        report_physical_memory(need + os.sysconf("SC_PAGE_SIZE"))
        write_svg(terms, out)
        assert out.getvalue().endswith("</svg>\n")

    def test_peak_memory_does_not_grow_with_the_walk(self, traced_peak, monkeypatch):
        # v2 and random turns at 120 degrees: the memo holds no text past its chunk.
        # v2 at 47.3 degrees meets a new heading at nearly every vertex: the
        # unit-vector tables hold no more than about two chunks' headings.
        # At an eighth of CHUNK, an eighth of the terms spans as many chunks.
        monkeypatch.setattr(render, "CHUNK", CHUNK // 8)
        short, long = 10**5 // 8, 4 * 10**5 // 8

        def peak(terms, angle=120):
            with open(os.devnull, "w", encoding="utf-8") as out:
                return traced_peak(lambda: write_svg(terms, out, angle))[2]

        assert peak(generate_dci(2, long).terms) < 2 * peak(generate_dci(2, short).terms)
        rng = random.Random(0)
        assert peak(rng.randbytes(long)) < 2 * peak(rng.randbytes(short))
        assert (peak(generate_dci(2, long).terms, 47.3)
                < 2 * peak(generate_dci(2, short).terms, 47.3))


class TestRenderedDocuments:
    # sha256 of each document as rendered before the walk and the writer
    # worked in column chunks; the text must not change.
    @pytest.mark.parametrize("argv,digest", [
        (["--p", "3", "--limit", "100000"],
         "56ccd35df25d9353ea4ad7684b9700803fbf370230154dba32bcb994ceafd636"),
        (["--p", "2", "--limit", "100000", "--mapping", "mod4", "--angle", "60"],
         "ab68e9c57ca6bff926ea371455ee927c034c0a7c2db2ed02ec415f50056b5887"),
        (["--p", "3", "--limit", "100000", "--mod", "5", "--angle", "72"],
         "adaae94da1e27ffbc6ba6fb71ec7e90672346ce623e13b8600c831a17eb957fe"),
        (["--from-file", "heighway16.bfile", "--angle", "120"],
         "c85b24023ed6cebc0d5e3a5fcceb05764648b0e12dd829c13176d2aa06086196"),
    ], ids=["v3-90", "v2-mod4-60", "v3-mod5-72", "heighway-file-120"])
    def test_render_is_byte_identical(self, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "heighway16.bfile").write_text(format_b_file(heighway_turns(16).terms))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["render", *argv, "-o", "out.svg"]) == 0
        assert hashlib.sha256((tmp_path / "out.svg").read_bytes()).hexdigest() == digest
