from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import (
    aperiodicity_witness,
    check_self_containment,
    decimate_terms,
    generate_dci,
    odd_even_parts,
    odd_part_decimation_indexes,
    reconstruct_odd_part,
)


class TestDecimate:
    def test_v2_48_terms(self):
        terms = generate_dci(2, 48).terms
        assert decimate_terms(terms, 2) == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]

    def test_v3_108_terms(self):
        terms = generate_dci(3, 108).terms
        assert decimate_terms(terms, 3)[:9] == [0, 0, 1, 0, 0, 1, 0, 0, 2]

    def test_exact_p_plus_1_keeps_one_term(self):
        seq = generate_dci(5, 6)
        assert decimate_terms(seq.terms, 5) == [seq.term(6)]

    def test_too_short_gives_empty(self):
        assert decimate_terms(generate_dci(5, 4).terms, 5) == []

    def test_raw_rejects_bad_base(self):
        with pytest.raises(ValueError):
            decimate_terms([0, 1, 0], 1)


class TestSelfContainment:
    def test_v2_passes(self):
        terms = generate_dci(2, 48).terms
        assert check_self_containment(terms, 2, 16).passed

    def test_v3_passes(self):
        terms = generate_dci(3, 108).terms
        assert check_self_containment(terms, 3, 27).passed

    def test_constant_raw_sequence_passes_trivially(self):
        # A constant sequence survives any selection; the check is about the
        # decimation identity, not about being a valuation sequence.
        assert check_self_containment([1] * 12, 2, 3).passed

    def test_increasing_raw_sequence_fails(self):
        report = check_self_containment(list(range(1, 13)), 2, 3)
        assert not report.passed
        assert report.failures[0].index == 1

    def test_insufficient_length_raises(self):
        with pytest.raises(ValueError):
            check_self_containment(generate_dci(2, 10).terms, 2, 16)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_nested_levels(self, p):
        terms = generate_dci(p, 5000).terms
        once = decimate_terms(terms, p)
        twice = decimate_terms(once, p)
        assert once == terms[: len(once)]
        assert twice == terms[: len(twice)]


class TestAperiodicityWitness:
    def test_period_2_witness_at_2(self):
        terms = generate_dci(2, 64).terms
        assert aperiodicity_witness(terms, 2) == 2

    def test_period_1_witness_at_1(self):
        terms = generate_dci(2, 64).terms
        assert aperiodicity_witness(terms, 1) == 1

    def test_periodic_control_has_no_witness(self):
        assert aperiodicity_witness([0] * 10, 5) is None

    def test_accepts_valuation_sequence(self):
        assert aperiodicity_witness(generate_dci(3, 100).terms, 3) is not None

    def test_rejects_period_out_of_range(self):
        with pytest.raises(ValueError):
            aperiodicity_witness([0, 1, 0], 3)

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_small_period_disproved(self, p):
        terms = generate_dci(p, 10**4).terms
        for q in range(1, 101):
            assert aperiodicity_witness(terms, q) is not None


class TestOddPartDecimationIndexes:
    def test_level_0_is_odd_numbers(self):
        assert odd_part_decimation_indexes(0, 4) == [1, 3, 5, 7]

    def test_level_1(self):
        assert odd_part_decimation_indexes(1, 3) == [2, 6, 10]

    def test_level_3(self):
        assert odd_part_decimation_indexes(3, 2) == [8, 24]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            odd_part_decimation_indexes(-1, 3)
        with pytest.raises(ValueError):
            odd_part_decimation_indexes(0, 0)

    @given(count=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_levels_partition_initial_segment(self, count):
        # Index families over j partition 1..count exactly once.
        seen = []
        j = 0
        while 1 << j <= count:
            seen.extend(i for i in odd_part_decimation_indexes(j, count) if i <= count)
            j += 1
        assert sorted(seen) == list(range(1, count + 1))


class TestReconstructOddPart:
    def test_first_15(self):
        assert reconstruct_odd_part(15) == [1, 1, 3, 1, 5, 3, 7, 1, 9, 5, 11, 3, 13, 7, 15]

    def test_powers_of_two_hold_1(self):
        out = reconstruct_odd_part(1 << 10)
        for j in range(11):
            assert out[(1 << j) - 1] == 1

    def test_index_40(self):
        assert reconstruct_odd_part(40)[39] == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            reconstruct_odd_part(0)

    def test_matches_division_oracle(self):
        out = reconstruct_odd_part(3000)
        for n in range(1, 3001):
            assert out[n - 1] == odd_even_parts(n).odd_part
