from __future__ import annotations

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dragonsieve import (
    ValuationSequence,
    decimate_terms,
    generate_dci,
    heighway_turns,
    levy_turns,
)
from dragonsieve.limits import BYTES_PER
from dragonsieve.valuations import (
    CHUNK_TERMS,
    dci_chunks,
    odd_parts_by_division,
    odd_parts_mod4_by_division,
    primes_by_trial_division,
    valuations_by_division,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


class TestGenerateDci:
    def test_base2_first_16(self):
        assert list(generate_dci(2, 16).terms) == [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0, 4]

    def test_base3_first_16(self):
        assert list(generate_dci(3, 16).terms) == [0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0]

    def test_base5_first_16(self):
        assert list(generate_dci(5, 16).terms) == [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]

    def test_length_one(self):
        assert list(generate_dci(2, 1).terms) == [0]

    def test_rejects_base_below_2(self):
        with pytest.raises(ValueError):
            generate_dci(1, 10)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            generate_dci(2, 0)

    def test_one_based_term_access(self):
        terms = generate_dci(2, 16).terms  # term n at position n - 1
        assert terms[1 - 1] == 0
        assert terms[16 - 1] == 4
        assert len(terms) == 16
        with pytest.raises(IndexError):
            terms[17 - 1]

    def test_holds_exactly_m_terms(self):
        with pytest.raises(ValueError):
            ValuationSequence(2, 3, bytes((0, 1, 0, 2)))
        with pytest.raises(ValueError):
            ValuationSequence(2, 3, bytes((0, 1)))

    @given(p=st.sampled_from([*SMALL_PRIMES, 997]), m=st.integers(min_value=1, max_value=5000))
    @example(p=2, m=4096)
    @example(p=2, m=4095)
    @example(p=2, m=4097)
    @example(p=3, m=2187)
    @example(p=3, m=2186)
    @example(p=13, m=2198)
    @example(p=997, m=997)
    @example(p=997, m=996)
    @example(p=997, m=998)
    @settings(max_examples=100, deadline=None)
    def test_exact_length_matches_oracle(self, p, m):
        seq = generate_dci(p, m)
        assert len(seq._full) == m
        assert seq.terms == valuations_by_division(p, m)

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_copy_structure(self, p):
        # The prefix of length p**j starts with p-1 concatenated copies of the
        # length p**(j-1) prefix.
        terms = generate_dci(p, p**3).terms
        block = terms[: p**2]
        for c in range(p - 1):
            assert terms[c * p**2 : (c + 1) * p**2] == block

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_power_positions(self, p):
        m = p**4
        terms = generate_dci(p, m).terms
        j = 1
        while p**j <= m:
            assert terms[p**j - 1] == j
            j += 1

    def test_length_beyond_memory_raises_before_allocating(self, report_physical_memory,
                                                           traced_peak):
        need = BYTES_PER["valuation term"] * 200000
        report_physical_memory(need - 1)

        def build():
            with pytest.raises(ValueError, match="a valuation sequence of 200000 terms "
                                                 "would not fit in physical memory"):
                generate_dci(2, 200000)

        _, _, peak = traced_peak(build)
        assert peak < 10**5
        report_physical_memory(need + os.sysconf("SC_PAGE_SIZE"))
        assert len(generate_dci(2, 200000).terms) == 200000

    def test_lengths_below_2_to_the_16_are_not_checked(self, report_physical_memory):
        # Under 256 KiB, so the sieve's many short rows skip the check.
        report_physical_memory(2**13)
        assert len(generate_dci(2, 2**16 - 1).terms) == 2**16 - 1
        with pytest.raises(ValueError, match="physical memory"):
            generate_dci(2, 2**16)


def whole_dci(p, m):
    """The DCI loop that built every sequence whole, before the stream."""
    seq = bytearray(1)
    while len(seq) * p <= m:
        seq *= p
        seq[-1] += 1
    while len(seq) < m:
        seq += seq[: m - len(seq)]
    return bytes(seq)


def first_block(p):
    """B, the largest power of p within 2^16, or p itself above 2^16."""
    b = 1
    while b * p <= 2**16:
        b *= p
    return b if b > 1 else p


STREAM_PRIMES = [2, 3, 5, 7, 13, 257, 65521, 65537, 1000003]
STREAM_CASES = [
    (p, m) for p in STREAM_PRIMES
    for m in sorted({1, p - 1, p, p + 1, first_block(p) - 1, first_block(p), first_block(p) + 1,
                     2**16 - 1, 2**16 + 1, 3 * 2**16 + 11, 10**6} - {0})
]


class TestDciChunks:
    @pytest.mark.parametrize("p,m", STREAM_CASES, ids=[f"p{p}-m{m}" for p, m in STREAM_CASES])
    def test_join_equals_the_oracle_and_the_whole_loop(self, p, m):
        chunks = list(dci_chunks(p, m))
        assert all(type(chunk) is bytes and 0 < len(chunk) <= 2**16 for chunk in chunks)
        joined = b"".join(chunks)
        assert joined == valuations_by_division(p, m)
        assert joined == whole_dci(p, m)

    @given(p=st.integers(min_value=2, max_value=70)
           | st.sampled_from([65521, 65537, 65539, 131071, 1000003]),
           m=st.integers(min_value=1, max_value=4 * 2**16 + 11))
    # Seams: streams that end one term past a chunk or on a block-final term.
    @example(p=2, m=2**16 + 1)
    @example(p=2, m=3 * 2**16 - 1)
    @example(p=7, m=3 * 7**5 + 1)
    @example(p=67, m=67**2 * 14 + 1)
    @example(p=65521, m=2 * 65521)
    @example(p=65537, m=65537)
    @example(p=65537, m=65538)
    @example(p=131071, m=131071)
    @example(p=131071, m=2 * 131071)
    @example(p=1000003, m=4 * 2**16 + 11)
    @settings(max_examples=100, deadline=None)
    def test_join_equals_the_oracle_for_any_base(self, p, m):
        chunks = list(dci_chunks(p, m))
        assert all(type(chunk) is bytes and 0 < len(chunk) <= 2**16 for chunk in chunks)
        assert b"".join(chunks) == valuations_by_division(p, m)

    def test_generate_dci_is_the_join(self):
        for p, m in [(2, 1), (3, 2**16), (7, 3 * 2**16 + 11), (65537, 2**17 + 5)]:
            assert generate_dci(p, m).terms == b"".join(dci_chunks(p, m))

    @pytest.mark.parametrize("p,m", [(1, 10), (0, 10), (-3, 10), (2, 0), (2, -1), (1, 0)])
    def test_bad_base_or_length_raises_when_called(self, p, m):
        # Before any term is made: the call raises, with nothing iterated.
        with pytest.raises(ValueError, match="base must be at least 2|length must be at least 1"):
            dci_chunks(p, m)

    @pytest.mark.parametrize("p", [2, 65537])
    def test_holds_one_chunk_at_a_time(self, traced_peak, p):
        # 10^7 terms, each chunk dropped before the next is made: the stream
        # holds its template, a chunk and the chunk's bytes, not 10 MB.
        count, _, peak = traced_peak(lambda: sum(map(len, dci_chunks(p, 10**7))))
        assert count == 10**7
        assert peak < 5 * CHUNK_TERMS


def test_terms_are_the_held_bytes():
    # Each construction hands out the bytes it holds: no copy on a read.
    for seq in (generate_dci(3, 100), levy_turns(5), heighway_turns(5)):
        assert type(seq.terms) is bytes
        assert seq.terms is seq.terms
    assert type(decimate_terms(generate_dci(2, 48).terms, 2)) is bytes
    assert type(decimate_terms(list(range(12)), 2)) is list


class TestValuationOracle:
    """Hand-worked values and properties of `valuations_by_division`."""

    def test_v2_of_4(self):
        assert valuations_by_division(2, 4)[4 - 1] == 2

    def test_one_has_no_factors(self):
        assert valuations_by_division(7, 1) == bytes([0])

    def test_162(self):
        assert valuations_by_division(3, 162)[162 - 1] == 4

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_matches_dci(self, p):
        m = 2000
        assert generate_dci(p, m).terms == valuations_by_division(p, m)

    @given(p=st.sampled_from(SMALL_PRIMES), n=st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=200)
    def test_zero_iff_not_divisible(self, p, n):
        column = valuations_by_division(p, n)
        assert [v > 0 for v in column] == [i % p == 0 for i in range(1, n + 1)]


class TestValuationsByDivision:
    @given(p=st.integers(min_value=2, max_value=60), n=st.integers(min_value=0, max_value=3000))
    @example(p=2, n=2048)
    @example(p=59, n=59**2)
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_term_by_term(self, p, n):
        # v is the valuation of i when p**v divides i and p**(v+1) does not.
        column = valuations_by_division(p, n)
        assert type(column) is bytes and len(column) == n
        for i, v in enumerate(column, 1):
            assert i % p**v == 0 != i % p ** (v + 1)

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_rejects_base_below_2(self, p):
        with pytest.raises(ValueError, match="base must be at least 2"):
            valuations_by_division(p, 10)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length must be non-negative"):
            valuations_by_division(2, -1)


class TestOddEvenParts:
    """Hand-worked odd parts from `odd_parts_by_division`, the even part being n & -n."""

    def test_12(self):
        assert (12 & -12, odd_parts_by_division(12)[12 - 1]) == (4, 3)

    def test_first_15_odd_parts(self):
        got = list(odd_parts_by_division(15))
        assert got == [1, 1, 3, 1, 5, 3, 7, 1, 9, 5, 11, 3, 13, 7, 15]

    def test_one(self):
        assert (1 & -1, odd_parts_by_division(1)[0]) == (1, 1)

    @given(n=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_decomposition_identity(self, n):
        # The even part is 2**v2(i), by the valuation oracle.
        odd = odd_parts_by_division(n)
        v2 = valuations_by_division(2, n)
        for i, (o, v) in enumerate(zip(odd, v2, strict=True), 1):
            assert 2**v * o == i and o % 2 == 1


class TestOddPartMod4:
    """Hand-worked values of `odd_parts_mod4_by_division`."""

    def test_first_15(self):
        got = list(odd_parts_mod4_by_division(15))
        assert got == [1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3, 1, 3, 3]

    def test_powers_of_two(self):
        column = odd_parts_mod4_by_division(2**19)
        for j in range(20):
            assert column[2**j - 1] == 1

    def test_22(self):
        assert odd_parts_mod4_by_division(22)[22 - 1] == 3

    @given(n=st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=100)
    def test_always_1_or_3(self, n):
        assert set(odd_parts_mod4_by_division(n)) <= {1, 3}


class TestOddPartsByDivision:
    @given(n=st.integers(min_value=0, max_value=3000))
    @example(n=2048)
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_term_by_term(self, n):
        # o is the odd part of i when o is odd and (i & -i) * o == i.
        column = odd_parts_by_division(n)
        assert column.typecode == "I" and len(column) == n
        mod4 = odd_parts_mod4_by_division(n)
        assert type(mod4) is bytes and len(mod4) == n
        for i, (o, r) in enumerate(zip(column, mod4), 1):
            assert (i & -i) * o == i and o % 2 == 1
            assert r == o % 4

    @pytest.mark.parametrize("column", [odd_parts_by_division, odd_parts_mod4_by_division])
    @pytest.mark.parametrize("n", [-1, -2**40])
    def test_rejects_negative_length(self, column, n):
        with pytest.raises(ValueError, match="length must be non-negative"):
            column(n)


class TestTrialDivision:
    def test_primes_below_30(self):
        assert primes_by_trial_division(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_prime_count_below_1000(self):
        assert len(primes_by_trial_division(1000)) == 168
