from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import TurnProgram, generate_dci, path_equal, to_svg, trace
from dragonsieve.render import reduce_mod

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


class TestTrace:
    def test_golden_v2_prefix(self):
        path = trace(TurnProgram((0, 1, 0, 2), 90))
        assert path.vertices == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
        # double turn at the last point reverses the heading
        assert tuple(_heading(path, s) for s in range(4)) == (0, 0, 1, 1)

    def test_all_zero_terms_stay_collinear(self):
        path = trace(TurnProgram((0,) * 6, 72))
        for k, (x, y) in enumerate(path.vertices):
            assert abs(x - k) < 1e-12 and abs(y) < 1e-12

    def test_categorical_single_left_turn(self):
        path = trace(TurnProgram((2,), 90, "categorical-mod4"))
        assert path.vertices == ((0, 0), (1, 0))
        # turn applied after the only move; a second term would head north
        path2 = trace(TurnProgram((2, 0), 90, "categorical-mod4"))
        assert path2.vertices == ((0, 0), (1, 0), (1, 1))

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            trace(TurnProgram((), 90))

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            trace(TurnProgram((0, 1), 0))
        with pytest.raises(ValueError):
            trace(TurnProgram((0, 1), 181))

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ValueError):
            TurnProgram((0, 1), 90, "spin")

    def test_vertex_count_law(self):
        rng = random.Random(7)
        for _ in range(100):
            terms = tuple(rng.randrange(6) for _ in range(rng.randrange(1, 40)))
            angle = rng.choice([90, 60, 120, 135, 45, 30])
            path = trace(TurnProgram(terms, angle))
            assert len(path.vertices) == len(terms) + 1

    @pytest.mark.parametrize("angle", [60, 120, 135, 150, 36])
    def test_unit_segment_lengths(self, angle):
        terms = tuple(generate_dci(2, 500).terms)
        path = trace(TurnProgram(terms, angle))
        for (x0, y0), (x1, y1) in zip(path.vertices, path.vertices[1:]):
            assert abs(math.hypot(x1 - x0, y1 - y0) - 1.0) < 1e-9

    def test_lattice_mode_flags(self):
        assert trace(TurnProgram((0, 1), 90)).lattice
        assert trace(TurnProgram((0, 1), 180)).lattice
        assert not trace(TurnProgram((0, 1), 120)).lattice

    def test_mod4_reduction_invariance_exact(self):
        terms = tuple(generate_dci(2, 2000).terms)
        full = trace(TurnProgram(terms, 90))
        reduced = trace(TurnProgram(tuple(reduce_mod(terms, 4)), 90))
        assert path_equal(full, reduced, 0.0)

    def test_mod3_reduction_invariance_at_120(self):
        terms = tuple(generate_dci(2, 500).terms)
        full = trace(TurnProgram(terms, 120))
        reduced = trace(TurnProgram(tuple(reduce_mod(terms, 3)), 120))
        assert path_equal(full, reduced, 1e-9)

    def test_clockwise_mirrors(self):
        terms = (0, 1, 0, 2)
        ccw = trace(TurnProgram(terms, 90))
        cw = trace(TurnProgram(terms, 90, clockwise=True))
        assert cw.vertices == tuple((x, -y) for x, y in ccw.vertices)

    def test_spike_blocks_are_congruent(self):
        # Between consecutive multiples of 8, the walk repeats one T-shaped
        # template up to rotation.
        template = trace(TurnProgram((0, 1, 0, 2, 0, 1, 0), 90)).vertices
        path = trace(TurnProgram(tuple(generate_dci(2, 64).terms), 90))
        for k in range(8):
            s = 8 * k
            h = _heading(path, s)
            ox, oy = path.vertices[s]
            window = tuple(
                _rot((x - ox, y - oy), -h) for x, y in path.vertices[s : s + 8]
            )
            assert window == template


class TestPathEqual:
    def test_path_equals_itself(self):
        p = trace(TurnProgram((0, 1, 0), 90))
        assert path_equal(p, p)

    def test_detects_turn_difference(self):
        a = trace(TurnProgram((0, 0, 0), 90))
        b = trace(TurnProgram((0, 1, 0), 90))
        assert not path_equal(a, b)

    def test_length_mismatch(self):
        a = trace(TurnProgram((0, 0), 90))
        b = trace(TurnProgram((0, 0, 0), 90))
        assert not path_equal(a, b)

    def test_tolerance(self):
        a = trace(TurnProgram((1, 1, 1), 120))
        b = trace(TurnProgram((1, 1, 1), 120.0000001))
        assert path_equal(a, b, 1e-6)
        assert not path_equal(a, b, 0.0)

    def test_rejects_negative_tolerance(self):
        p = trace(TurnProgram((0,), 90))
        with pytest.raises(ValueError):
            path_equal(p, p, -1.0)


class TestToSvg:
    def test_single_segment_points(self):
        path = trace(TurnProgram((0,), 90))
        svg = to_svg(path, margin=0.0)
        assert 'points="0.000000,0.000000 1.000000,0.000000"' in svg

    def test_document_shape(self):
        svg = to_svg(trace(TurnProgram((0, 1, 0, 2), 90)))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
        assert 'version="1.1"' in svg
        assert svg.count("<polyline") == 1
        assert "viewBox=" in svg

    def test_y_axis_flip(self):
        # A left turn (CCW, +y in math coords) must head up the screen,
        # i.e. toward smaller emitted y.
        path = trace(TurnProgram((1, 0), 90))
        svg = to_svg(path, margin=0.0)
        pts = svg.split('points="')[1].split('"')[0].split()
        ys = [float(p.split(",")[1]) for p in pts]
        assert ys[2] < ys[1]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_emits_one_point_per_vertex(self, terms):
        path = trace(TurnProgram(tuple(terms), 90))
        svg = to_svg(path)
        pts = svg.split('points="')[1].split('"')[0].split()
        assert len(pts) == len(path.vertices)
