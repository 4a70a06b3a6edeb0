from __future__ import annotations

import math

import pytest

from dragonsieve import (
    SieveTable,
    format_table,
    generate_dci,
    next_candidate,
    primes_by_trial_division,
    read_factorization,
    run_sieve,
)


class TestRunSieve:
    def test_headers_at_16(self):
        assert run_sieve(16).prime_headers == [2, 3, 5, 7, 11, 13]

    def test_width_one_has_no_rows(self):
        assert run_sieve(1).prime_headers == []

    def test_25_primes_below_100(self):
        assert len(run_sieve(100).prime_headers) == 25

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            run_sieve(0)

    def test_matches_trial_division(self):
        assert run_sieve(500).prime_headers == primes_by_trial_division(500)

    def test_literal_mode_agrees(self):
        for m in (1, 2, 16, 30):
            assert run_sieve(m, literal=True).prime_headers == run_sieve(m).prime_headers

    def test_rows_hold_valuation_sequences(self):
        table = run_sieve(16)
        for p, row in table.rows():
            assert row.terms == generate_dci(p, 16).terms


class TestNextCandidate:
    def test_empty_table_starts_at_2(self):
        assert next_candidate(SieveTable(10)) == 2

    def test_after_2_and_3_comes_5(self):
        table = SieveTable(10)
        for p in (2, 3):
            table.place_row(p, generate_dci(p, 10))
        assert next_candidate(table) == 5

    def test_exhausted_at_16(self):
        table = run_sieve(16)
        assert next_candidate(table) is None
        assert next_candidate(table, literal=True) is None


class TestReadFactorization:
    def test_24(self):
        table = run_sieve(24)
        assert read_factorization(table, 24).factors == ((2, 3), (3, 1))

    def test_1_is_empty(self):
        assert read_factorization(run_sieve(10), 1).factors == ()

    def test_97_is_prime(self):
        assert read_factorization(run_sieve(100), 97).factors == ((97, 1),)

    def test_rejects_out_of_range(self):
        table = run_sieve(10)
        with pytest.raises(ValueError):
            read_factorization(table, 0)
        with pytest.raises(ValueError):
            read_factorization(table, 11)

    def test_reconstruction_up_to_2000(self):
        table = run_sieve(2000)
        for n in range(2, 2001):
            fact = read_factorization(table, n)
            assert fact.value() == n
            ps = [p for p, _ in fact.factors]
            assert ps == sorted(ps)
            assert all(e >= 1 for _, e in fact.factors)

    def test_composite_marking(self):
        # After the row for p is placed, column h is positive in it iff p | h.
        table = SieveTable(60)
        table.place_row(2, generate_dci(2, 60))
        table.place_row(3, generate_dci(3, 60))
        for h in range(1, 61):
            entries = dict(read_factorization(table, h).factors) if h >= 1 else {}
            assert (3 in entries) == (h % 3 == 0)
            assert (2 in entries) == (h % 2 == 0)

    def test_discovery_order_is_prime_order(self):
        got = run_sieve(200).prime_headers
        assert got == sorted(got)


class TestFormatTable:
    def test_width_3(self):
        table = run_sieve(3)
        assert format_table(table) == ("\t1\t2\t3\n" "2\t0\t1\t0\n" "3\t0\t0\t1\n")

    def test_row_product_reconstructs(self):
        # math.prod over parsed rows doubles as a layout sanity check
        table = run_sieve(12)
        lines = format_table(table).splitlines()
        header = lines[0].split("\t")
        assert header[1:] == [str(n) for n in range(1, 13)]
        n = 12
        exps = {}
        for line in lines[1:]:
            cells = line.split("\t")
            exps[int(cells[0])] = int(cells[n])
        assert math.prod(p**e for p, e in exps.items()) == n
