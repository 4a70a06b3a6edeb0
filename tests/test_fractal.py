from __future__ import annotations

import functools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragonsieve.verify as verify_mod
from dragonsieve import (
    Failure,
    ValuationSequence,
    decimate_terms,
    generate_dci,
    reconstruct_odd_part,
)
from dragonsieve.limits import BYTES_PER
from dragonsieve.valuations import odd_parts_by_division, valuations_by_division
from dragonsieve.verify import FRACTAL_PRIMES


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


@functools.cache
def valuation_column(p: int) -> bytes:
    """v_p(1..(p+1) * 10**6) by the division oracle: each index i + q the property reads."""
    return valuations_by_division(p, (p + 1) * 10**6)


def aperiodicity_report(p, limit):
    """The aperiodicity report for p of `verify_fractal(limit)`."""
    return next(r for r in verify_mod.verify_fractal(limit)
                if r.name == f"aperiodicity-witnesses-p{p}")


class TestAperiodicityWitness:
    """q = p**a * r, p not dividing r, is disproved at i = p**(a+1): v_p(i + q) = a."""

    @staticmethod
    def first_disagreement(terms, q):
        """The least i with terms[i] != terms[i + q] (1-based), the smallest witness of q."""
        return next(i for i in range(1, len(terms) - q + 1) if terms[i - 1] != terms[i + q - 1])

    def test_period_2_witness_at_2(self):
        # The smallest witness of q = 2 is 2 (v2(2) = 1, v2(4) = 2); the
        # closed-form one is 2**(1 + 1) = 4 (v2(4) = 2, v2(6) = 1).
        terms = generate_dci(2, 64).terms
        assert self.first_disagreement(terms, 2) == 2
        assert (terms[4 - 1], terms[4 + 2 - 1]) == (2, 1)

    def test_period_1_witness_at_1(self):
        # The smallest witness of q = 1 is 1 (v2(1) = 0, v2(2) = 1); the
        # closed-form one is 2**(0 + 1) = 2 (v2(2) = 1, v2(3) = 0).
        terms = generate_dci(2, 64).terms
        assert self.first_disagreement(terms, 1) == 1
        assert (terms[2 - 1], terms[2 + 1 - 1]) == (1, 0)

    @given(p=st.sampled_from(FRACTAL_PRIMES), q=st.integers(1, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_witness(self, p, q):
        v = valuation_column(p)
        i = p ** (v[q - 1] + 1)
        assert v[i - 1] == v[q - 1] + 1
        assert v[i + q - 1] == v[q - 1]

    def test_periodic_control_has_no_witness(self, monkeypatch):
        # v2(1..8) repeated has period 8, the first q whose witness term recurs.
        periodic = generate_dci(2, 8).terms * 125
        monkeypatch.setattr(verify_mod, "generate_dci", lambda p, m: (
            ValuationSequence(p, m, periodic) if p == 2 else generate_dci(p, m)))
        assert aperiodicity_report(2, 1000).failure == Failure(8, "witness", None)

    def test_accepts_valuation_sequence(self):
        reports = verify_mod.verify_fractal(100)
        assert [r.summary().rsplit("\t", 1)[0] for r in reports if "aperiodicity" in r.name] == [
            "ok\taperiodicity-witnesses-p2\tcases=93\t-",
            "ok\taperiodicity-witnesses-p3\tcases=91\t-"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_counts_every_period_whose_witness_fits(self, p):
        # Exactly the q with p**(a+1) + q <= 3000 are cases: none is dropped or added.
        v = valuations_by_division(p, 3000)
        fits = sum(p ** (v[q - 1] + 1) + q <= 3000 for q in range(1, 3000))
        report = aperiodicity_report(p, 3000)
        assert (report.passed, report.cases) == (True, fits)

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_small_period_disproved(self, p):
        terms = generate_dci(p, 10**4).terms
        v = valuations_by_division(p, 100)
        for q in range(1, 101):
            i = p ** (v[q - 1] + 1)
            assert terms[i - 1] != terms[i + q - 1]


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
        assert reconstruct_odd_part(3000) == odd_parts_by_division(3000)

    def test_length_beyond_memory_raises_before_allocating(self, report_physical_memory,
                                                           traced_peak):
        need = BYTES_PER["odd-part term"] * 200000
        report_physical_memory(need - 1)

        def build():
            with pytest.raises(ValueError, match="an odd-part sequence of 200000 terms "
                                                 "would not fit in physical memory"):
                reconstruct_odd_part(200000)

        _, _, peak = traced_peak(build)
        assert peak < 10**5
        report_physical_memory(need + os.sysconf("SC_PAGE_SIZE"))
        assert len(reconstruct_odd_part(200000)) == 200000

    def test_holds_4_bytes_a_term(self, traced_peak):
        n = 10**5
        reconstruct_odd_part(2)  # warm up, so only the array is traced
        out, held, peak = traced_peak(lambda: reconstruct_odd_part(n))
        assert out.typecode == "I" and out.itemsize == 4 and len(out) == n
        assert held <= 4 * n + 1000
        # The held array and, while it is placed, the first level's n / 2 odd numbers.
        assert peak <= 6.25 * n
