from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import heighway_turns, levy_turns, render, trace
from dragonsieve.valuations import odd_parts_mod4_by_division, valuations_by_division

# Unit vectors by heading in quarter turns, kept apart from the renderer's table.
_QUARTER_TURNS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def v2_at_multiples_of_8(count):
    """v2(8), v2(16), ..., v2(8 * count) from the division oracle."""
    return valuations_by_division(2, 8 * count)[7::8]


def levy_vertices(j, clockwise=False):
    """The Levy C curve of j iterations, segment i heading -popcount(i) quarter turns.

    Segment i heads the sum of the turns 3 + v2(k) for k <= i, which is
    4i - popcount(i) by Legendre's formula; clockwise negates it.
    """
    sign = 1 if clockwise else -1
    x = y = 0
    vertices = [(x, y)]
    for i in range(2 ** (j + 1) - 1):
        dx, dy = _QUARTER_TURNS[sign * i.bit_count() % 4]
        x, y = x + dx, y + dy
        vertices.append((x, y))
    return tuple(vertices)


def heighway_points(j):
    """The paper-folding unfolding of j folds, as complex points.

    Each fold appends the points so far, reversed and turned a quarter
    clockwise about the last one.
    """
    points = [0, 1]
    for _ in range(j):
        e = points[-1]
        points += [e + (p - e) * -1j for p in reversed(points[:-1])]
    return points


def heighway_trace(j):
    """The traced Heighway dragon of j iterations, as complex points.

    `trace` draws one segment per term, so the 2**j - 1 turns need a
    trailing term to draw the last of the 2**j segments.
    """
    return [complex(x, y) for x, y in trace(heighway_turns(j).terms + b"\0", 90).vertices]


class TestLevyTurns:
    def test_zero_iterations(self):
        assert tuple(levy_turns(0).terms) == (3,)

    def test_one_iteration(self):
        assert tuple(levy_turns(1).terms) == (3, 4, 3)

    def test_two_iterations(self):
        assert tuple(levy_turns(2).terms) == (3, 4, 3, 5, 3, 4, 3)

    def test_three_iterations(self):
        assert tuple(levy_turns(3).terms) == (3, 4, 3, 5, 3, 4, 3, 6, 3, 4, 3, 5, 3, 4, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            levy_turns(-1)

    def test_rejects_memory_hostile_counts(self):
        with pytest.raises(ValueError):
            levy_turns(64)

    @pytest.mark.parametrize("j", range(7))
    def test_length_law(self, j):
        assert len(levy_turns(j).terms) == 2 ** (j + 1) - 1

    def test_odd_indexes_are_all_3(self):
        terms = levy_turns(6).terms
        assert all(terms[i] == 3 for i in range(0, len(terms), 2))

    @pytest.mark.parametrize("j", range(1, 8))
    def test_prefix_stability(self, j):
        # Restricting round j to the positions that existed at round j-1
        # gives round j-1 with every term incremented.
        prev = levy_turns(j - 1).terms
        cur = levy_turns(j).terms
        survivors = tuple(cur[2 * i + 1] for i in range(len(prev)))
        assert survivors == tuple(t + 1 for t in prev)


class TestLevyTheorem:
    def test_first_two_indexes(self):
        terms = levy_turns(2).terms
        assert terms[:2] == v2_at_multiples_of_8(2) == bytes([3, 4])

    def test_ten_iterations_pass(self):
        terms = levy_turns(10).terms
        assert len(terms) == 2047
        assert terms == v2_at_multiples_of_8(2047)

    @given(j=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, j):
        terms = levy_turns(j).terms
        assert terms == v2_at_multiples_of_8(2 ** (j + 1) - 1)


class TestHeighwayTurns:
    def test_one_iteration(self):
        assert tuple(heighway_turns(1).terms) == (1,)

    def test_two_iterations(self):
        assert tuple(heighway_turns(2).terms) == (1, 1, 3)

    def test_four_iterations(self):
        assert tuple(heighway_turns(4).terms) == (1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3, 1, 3, 3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            heighway_turns(0)

    @pytest.mark.parametrize("j", range(1, 10))
    def test_length_law(self, j):
        assert len(heighway_turns(j).terms) == 2**j - 1

    @pytest.mark.parametrize("j", range(2, 9))
    def test_inserted_values_alternate(self, j):
        # Fresh insertions of a round occupy the odd positions and
        # alternate 1, 3, 1, 3 in index order.
        terms = heighway_turns(j).terms
        inserted = [terms[i] for i in range(0, len(terms), 2)]
        assert inserted == [1 if k % 2 == 0 else 3 for k in range(len(inserted))]


class TestHeighwayEquivalence:
    def test_four_iterations_match_mod4_prefix(self):
        terms = heighway_turns(4).terms
        assert terms == odd_parts_mod4_by_division(15)

    def test_powers_of_two_are_left_turns(self):
        terms = heighway_turns(8).terms
        mod4 = odd_parts_mod4_by_division(len(terms))
        for j in range(8):
            assert terms[(1 << j) - 1] == 1 == mod4[(1 << j) - 1]

    def test_sixteen_iterations_pass(self):
        terms = heighway_turns(16).terms
        assert len(terms) == 65535
        assert terms == odd_parts_mod4_by_division(65535)

    @given(j=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, j):
        terms = heighway_turns(j).terms
        assert terms == odd_parts_mod4_by_division(2**j - 1)


class TestDragonVertices:
    @pytest.mark.parametrize("clockwise", [False, True])
    @pytest.mark.parametrize("j", range(13))
    def test_levy_segment_headings_are_popcounts(self, j, clockwise):
        path = trace(levy_turns(j).terms, 90, clockwise=clockwise)
        assert path.vertices == levy_vertices(j, clockwise)

    @pytest.mark.parametrize("j", range(1, 14))
    def test_heighway_is_the_paper_folding_unfolding(self, j):
        assert heighway_trace(j) == heighway_points(j)

    def test_mirrored_lattice_table_fails_both_oracles(self, monkeypatch):
        mirrored = tuple((x, -y) for x, y in render._LATTICE_UNITS[90])
        monkeypatch.setitem(render._LATTICE_UNITS, 90, mirrored)
        assert trace(levy_turns(4).terms, 90).vertices != levy_vertices(4)
        assert heighway_trace(4) != heighway_points(4)
