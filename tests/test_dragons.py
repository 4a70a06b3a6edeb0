from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import (
    heighway_turns,
    levy_turns,
    odd_part_mod4,
    valuation_oracle,
)


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
        assert terms[0] == valuation_oracle(2, 8) == 3
        assert terms[1] == valuation_oracle(2, 16) == 4

    def test_ten_iterations_pass(self):
        terms = levy_turns(10).terms
        assert len(terms) == 2047
        assert tuple(terms) == tuple(valuation_oracle(2, 8 * i) for i in range(1, 2048))

    @given(j=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, j):
        terms = levy_turns(j).terms
        assert tuple(terms) == tuple(valuation_oracle(2, 8 * i) for i in range(1, 2 ** (j + 1)))


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
        assert list(terms) == [odd_part_mod4(n) for n in range(1, 16)]

    def test_powers_of_two_are_left_turns(self):
        terms = heighway_turns(8).terms
        for j in range(8):
            assert terms[(1 << j) - 1] == 1 == odd_part_mod4(1 << j)

    def test_sixteen_iterations_pass(self):
        terms = heighway_turns(16).terms
        assert len(terms) == 65535
        assert tuple(terms) == tuple(odd_part_mod4(n) for n in range(1, 65536))

    @given(j=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_matches_oracle(self, j):
        terms = heighway_turns(j).terms
        assert tuple(terms) == tuple(odd_part_mod4(n) for n in range(1, 2**j))
