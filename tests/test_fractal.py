from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import (
    aperiodicity_witness,
    decimate_terms,
    generate_dci,
    odd_even_parts,
    reconstruct_odd_part,
)


class TestDecimate:
    def test_v2_48_terms(self):
        terms = generate_dci(2, 48).terms
        assert list(decimate_terms(terms, 2)) == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]

    def test_v3_108_terms(self):
        terms = generate_dci(3, 108).terms
        assert list(decimate_terms(terms, 3)[:9]) == [0, 0, 1, 0, 0, 1, 0, 0, 2]

    def test_exact_p_plus_1_keeps_one_term(self):
        seq = generate_dci(5, 6)
        assert list(decimate_terms(seq.terms, 5)) == [seq.terms[6 - 1]]

    def test_too_short_gives_empty(self):
        assert list(decimate_terms(generate_dci(5, 4).terms, 5)) == []

    def test_raw_rejects_bad_base(self):
        with pytest.raises(ValueError):
            decimate_terms([0, 1, 0], 1)


class TestSelfContainment:
    """Decimation gives back the sequence's own prefix (the identity `verify` checks)."""

    def test_v2_passes(self):
        terms = generate_dci(2, 48).terms
        kept = decimate_terms(terms, 2)
        assert len(kept) == 16
        assert kept == terms[:16]

    def test_v3_passes(self):
        terms = generate_dci(3, 108).terms
        kept = decimate_terms(terms, 3)
        assert len(kept) == 27
        assert kept == terms[:27]

    def test_constant_raw_sequence_passes_trivially(self):
        # A constant sequence survives any selection; the identity is about
        # decimation, not about being a valuation sequence.
        assert decimate_terms([1] * 12, 2) == [1] * 4

    def test_increasing_raw_sequence_fails(self):
        terms = list(range(1, 13))
        kept = decimate_terms(terms, 2)
        assert kept == [3, 6, 9, 12]
        assert kept[0] != terms[0]

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
    """The index families o * 2**j (o odd) as `reconstruct_odd_part` fills them."""

    @staticmethod
    def family(j, count):
        """The indexes where reconstruction placed o = 1, 3, ..., 2 * count - 1 at level j."""
        out = reconstruct_odd_part((2 * count - 1) << j)
        return [n for n in range(1, len(out) + 1) if out[n - 1] << j == n]

    def test_level_0_is_odd_numbers(self):
        assert self.family(0, 4) == [1, 3, 5, 7]

    def test_level_1(self):
        assert self.family(1, 3) == [2, 6, 10]

    def test_level_3(self):
        assert self.family(3, 2) == [8, 24]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            reconstruct_odd_part(-1)
        with pytest.raises(ValueError):
            reconstruct_odd_part(0)

    @given(count=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_levels_partition_initial_segment(self, count):
        # Index families over j partition 1..count exactly once.
        out = reconstruct_odd_part(count)
        seen = []
        j = 0
        while 1 << j <= count:
            seen.extend(n for n in range(1, count + 1) if out[n - 1] << j == n)
            j += 1
        assert sorted(seen) == list(range(1, count + 1))


class TestReconstructOddPart:
    def test_first_15(self):
        assert list(reconstruct_odd_part(15)) == [1, 1, 3, 1, 5, 3, 7, 1, 9, 5, 11, 3, 13, 7, 15]

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

    def test_length_beyond_memory_raises_before_allocating(self, report_physical_memory):
        report_physical_memory(2**16)  # 64 KiB, against 10 bytes a term
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="an odd-part sequence of 200000 terms "
                                                 "would not fit in physical memory"):
                reconstruct_odd_part(200000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_holds_4_bytes_a_term(self):
        n = 10**5
        reconstruct_odd_part(2)  # warm up, so only the array is traced
        tracemalloc.start()
        try:
            out = reconstruct_odd_part(n)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.typecode == "I" and out.itemsize == 4 and len(out) == n
        assert held <= 4 * n + 1000
        # The held array and, while it is placed, the first level's n / 2 odd numbers.
        assert peak <= 6.25 * n
