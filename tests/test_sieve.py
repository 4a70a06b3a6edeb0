from __future__ import annotations

import ast
import inspect
import math
import os
from io import BytesIO
from itertools import starmap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dragonsieve import (
    SieveTable,
    generate_dci,
    heighway_turns,
    levy_turns,
    read_factorization,
    reconstruct_odd_part,
    run_sieve,
)
from dragonsieve import bfile, cli, sieve, valuations
from dragonsieve.valuations import primes_by_trial_division, valuations_by_division


def literal_next(rows, m):
    """Oracle: scan full rows column by column for the first all-zero column > 1."""
    for h in range(2, m + 1):
        if all(row[h - 1] == 0 for row in rows.values()):
            return h
    return None


def literal_sieve(m):
    """Oracle: the sieve with every row placed at full width m, columns scanned literally."""
    rows = {}
    while (p := literal_next(rows, m)) is not None:
        rows[p] = generate_dci(p, m).terms
    return rows


def literal_factors(rows, n):
    """Oracle: column n's positive entries, paired with their rows, in row order."""
    return tuple((p, row[n - 1]) for p, row in rows.items() if row[n - 1] > 0)


def table_text(table):
    """The text `write_table` writes, as a string."""
    out = BytesIO()
    bfile.write_table(table, out)
    return out.getvalue().decode("ascii")


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
        for m in range(1, 61):
            rows = literal_sieve(m)
            table = run_sieve(m)
            assert table.prime_headers == list(rows)
            for n in range(1, m + 1):
                assert read_factorization(table, n) == literal_factors(rows, n)

    def test_78498_primes_below_10_6(self):
        assert len(run_sieve(10**6).prime_headers) == 78498

    def test_rows_hold_valuation_sequences(self):
        table = run_sieve(16)
        for p in table.prime_headers:
            assert table.row(p).terms == generate_dci(p, 16).terms

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 16])
    def test_scan_finds_every_prime_and_leaves_no_column_unreached(self, m):
        # The scan starts at 2, steps from 2 and 3 to 5, and ends past m.
        table = run_sieve(m)
        assert table.prime_headers == primes_by_trial_division(m)
        assert all(read_factorization(table, n) for n in range(2, m + 1))
        assert literal_next({p: table.row(p).terms for p in table.prime_headers}, m) is None


class TestReadFactorization:
    def test_24(self):
        table = run_sieve(24)
        assert read_factorization(table, 24) == ((2, 3), (3, 1))

    def test_1_is_empty(self):
        assert read_factorization(run_sieve(10), 1) == ()

    def test_97_is_prime(self):
        assert read_factorization(run_sieve(100), 97) == ((97, 1),)

    def test_rejects_out_of_range(self):
        table = run_sieve(10)
        with pytest.raises(ValueError):
            read_factorization(table, 0)
        with pytest.raises(ValueError):
            read_factorization(table, 11)

    def test_reconstruction_up_to_2000(self):
        table = run_sieve(2000)
        for n in range(2, 2001):
            pairs = read_factorization(table, n)
            assert math.prod(starmap(pow, pairs)) == n
            ps = [p for p, _ in pairs]
            assert ps == sorted(ps)
            assert all(e >= 1 for _, e in pairs)

    def test_composite_marking(self):
        # After the row for p is placed, column h is positive in it iff p | h.
        table = SieveTable(60)
        table.place_row(2, generate_dci(2, 60))
        table.place_row(3, generate_dci(3, 60))
        for h in range(1, 61):
            entries = dict(read_factorization(table, h)) if h >= 1 else {}
            assert (3 in entries) == (h % 3 == 0)
            assert (2 in entries) == (h % 2 == 0)

    @staticmethod
    def assert_unique_factorization(pairs, n, primes):
        """The conditions that fix n's factorization: its product is n, its primes
        strictly increase and are trial-division primes, and no exponent is 0."""
        assert math.prod(starmap(pow, pairs)) == n
        ps = [p for p, _ in pairs]
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert primes.issuperset(ps)
        assert all(e >= 1 for _, e in pairs)

    def test_exact_up_to_20000(self):
        table = run_sieve(20000)
        primes = set(primes_by_trial_division(20000))
        for n in range(1, 20001):
            self.assert_unique_factorization(read_factorization(table, n), n, primes)

    @given(data=st.data(), m=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_exact_property(self, data, m):
        n = data.draw(st.integers(min_value=1, max_value=m))
        self.assert_unique_factorization(read_factorization(run_sieve(m), n), n,
                                         set(primes_by_trial_division(m)))

    def test_discovery_order_is_prime_order(self):
        got = run_sieve(200).prime_headers
        assert got == sorted(got)


class TestCutoff:
    """Rows are placed while p*p <= m; the primes above sqrt(m) come from the columns no row reaches."""

    @pytest.mark.parametrize(
        "m", sorted({1, 2, 3} | {q * q + d for q in (2, 3, 5, 7, 31, 101) for d in (-1, 0, 1)}))
    def test_primes_and_factorizations_around_a_square(self, m):
        table = run_sieve(m)
        primes = primes_by_trial_division(m)
        assert table.prime_headers == primes
        for n in range(1, m + 1):
            TestReadFactorization.assert_unique_factorization(
                read_factorization(table, n), n, set(primes))

    def test_rows_are_placed_up_to_the_square_root(self, monkeypatch):
        placed = []
        place_row = SieveTable.place_row
        monkeypatch.setattr(SieveTable, "place_row",
                            lambda table, p, row: placed.append(p) or place_row(table, p, row))
        table = run_sieve(10**4)
        assert placed == primes_by_trial_division(100)  # 25 rows, the last 97
        assert len(table.prime_headers) == 1229


class TestUnreachedColumns:
    """The primes above sqrt(m) are read from the columns no row reaches only when asked."""

    @pytest.mark.parametrize("m", [1, 2, 16, 10**5])
    def test_unsieved_table_has_no_headers(self, m):
        table = SieveTable(m)
        assert table.prime_headers == []
        for p in (2, 3, m):
            with pytest.raises(KeyError):
                table.row(p)

    def test_row_of_a_prime_above_the_square_root(self):
        table = run_sieve(100)
        assert table._unreached == 11  # rows 2, 3, 5 and 7 are placed
        for p in (11, 53, 97):
            assert table.row(p).terms == generate_dci(p, 100).terms

    @pytest.mark.parametrize("p", [1, 10, 49, 77, 91, 100, 101, 103])
    def test_no_row_for_one_a_composite_or_a_prime_above_m(self, p):
        with pytest.raises(KeyError):
            run_sieve(100).row(p)

    def test_factorizations_never_list_the_unreached_columns(self, monkeypatch):
        monkeypatch.setattr(SieveTable, "_unreached_primes",
                            lambda table: pytest.fail("listed the unreached columns"))
        table = run_sieve(10**4)
        assert read_factorization(table, 9973) == ((9973, 1),)
        assert read_factorization(table, 2 * 4999) == ((2, 1), (4999, 1))
        assert table.row(9973).terms == generate_dci(9973, 10**4).terms


class TestFormatTable:
    def test_width_3(self):
        table = run_sieve(3)
        assert table_text(table) == ("\t1\t2\t3\n" "2\t0\t1\t0\n" "3\t0\t0\t1\n")

    def test_row_product_reconstructs(self):
        # math.prod over parsed rows doubles as a layout sanity check
        table = run_sieve(12)
        lines = table_text(table).splitlines()
        header = lines[0].split("\t")
        assert header[1:] == [str(n) for n in range(1, 13)]
        n = 12
        exps = {}
        for line in lines[1:]:
            cells = line.split("\t")
            exps[int(cells[0])] = int(cells[n])
        assert math.prod(p**e for p, e in exps.items()) == n

    def test_width_2048_matches_division(self):
        # Covers the two-digit cells v2(1024) = 10 and v2(2048) = 11.
        m = 2048
        numbers = range(1, m + 1)
        lines = ["\t" + "\t".join(str(n) for n in numbers)]
        for p in primes_by_trial_division(m):
            lines.append(f"{p}\t" + "\t".join(map(str, valuations_by_division(p, m))))
        assert table_text(run_sieve(m)) == "\n".join(lines) + "\n"


class TestPlaceRow:
    def test_short_row_is_enough(self):
        # Width 10 holds 5 multiples of 2 and 3 of 3; rows of those lengths suffice.
        table = SieveTable(10)
        table.place_row(2, generate_dci(2, 5))
        table.place_row(3, generate_dci(3, 3))
        assert read_factorization(table, 6) == ((2, 1), (3, 1))
        assert read_factorization(table, 8) == ((2, 3),)

    def test_rejects_row_shorter_than_multiples(self):
        with pytest.raises(ValueError):
            SieveTable(10).place_row(2, generate_dci(2, 4))

    def test_rejects_row_for_other_prime(self):
        with pytest.raises(ValueError):
            SieveTable(10).place_row(2, generate_dci(3, 10))

    def test_rejects_decreasing_order(self):
        table = SieveTable(10)
        table.place_row(3, generate_dci(3, 10))
        with pytest.raises(ValueError):
            table.place_row(2, generate_dci(2, 10))

    def test_rejects_prime_beyond_top_typecode(self):
        # No width up to 2^32 - 1 places a row above 65535 = 2^16 - 1.
        table = SieveTable(70_000)
        with pytest.raises(ValueError, match="65535"):
            table.place_row(65_537, generate_dci(65_537, 1))
        # Nothing was placed: the column is still unreached, read as a prime.
        assert table.prime_headers == []
        assert read_factorization(table, 65_537) == ((65_537, 1),)

    def test_unit_row_is_the_generated_row(self):
        table = SieveTable(30)
        for p in (2, 3, 5):
            table.place_row(p, generate_dci(p, 30))
        table.place_unit_row(7)
        assert read_factorization(table, 28) == ((2, 2), (7, 1))
        assert table.row(7).terms == generate_dci(7, 30).terms


class TestWindows:
    """Rows are placed a window of 2^16 multipliers at a time: the seams between windows."""

    WINDOW = 2**16
    M = 3 * 2**17 + 5  # row 2 spans four windows, row 3 three

    @pytest.fixture(scope="class")
    def table(self):
        return run_sieve(self.M)

    def test_rows_span_several_windows(self):
        assert [len(range(0, self.M // p + 1, self.WINDOW)) for p in (2, 3, 5)] == [4, 3, 2]

    def test_primes(self, table):
        assert table.prime_headers == primes_by_trial_division(self.M)

    def test_factorizations_at_the_seams(self, table):
        # n = p * k for every k within 2 of a multiple of 2^16, in rows 2, 3, 5 and 7.
        primes = set(primes_by_trial_division(self.M))
        ns = [p * k for p in (2, 3, 5, 7) for seam in range(0, self.M // p + 3, self.WINDOW)
              for k in range(seam - 2, seam + 3) if 1 <= k <= self.M // p]
        assert len(ns) == 17 + 11 + 7 + 2
        for n in ns:
            TestReadFactorization.assert_unique_factorization(
                read_factorization(table, n), n, primes)


class TestRow:
    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 15, 17, 18])
    def test_no_row_for_non_header(self, p):
        with pytest.raises(KeyError):
            run_sieve(16).row(p)

    def test_row_is_full_width(self):
        assert run_sieve(16).row(13).terms == generate_dci(13, 16).terms

    def test_no_row_is_placed_without_a_column(self):
        # Row 11 reaches no column of width 10, so the table could not record it.
        table = SieveTable(10)
        with pytest.raises(ValueError, match="does not match"):
            table.place_row(11, generate_dci(11, 1))
        assert table.prime_headers == []

    @staticmethod
    def rows_given(table):
        """The p in 0..m + 2 that `row` gives a full row for; every other p raises KeyError."""
        found = []
        for p in range(table.m + 3):
            try:
                row = table.row(p)
            except KeyError:
                continue
            assert row.terms == generate_dci(p, table.m).terms
            found.append(p)
        return found

    @given(m=st.integers(min_value=1, max_value=3000), rows=st.integers(min_value=0, max_value=16),
           above=st.none() | st.integers())
    @example(m=1, rows=0, above=0)
    @example(m=3000, rows=16, above=None)  # every row up to sqrt(m), 53 the last
    @example(m=3000, rows=16, above=-1)  # and 2999, the largest prime
    @settings(max_examples=60, deadline=None)
    def test_hand_built_table_has_exactly_its_placed_rows(self, m, rows, above):
        # An ascending prefix of the primes up to sqrt(m), then maybe one prime
        # above it.  The table is unfinished, so it lists no unreached column.
        primes = primes_by_trial_division(m)
        below = [p for p in primes if p * p <= m]
        placed = below[:rows]
        if above is not None and len(primes) > len(below):
            placed.append(primes[len(below):][above % (len(primes) - len(below))])
        table = SieveTable(m)
        for p in placed:
            table.place_row(p, generate_dci(p, len(range(p, m + 1, p))))
        assert table.prime_headers == placed
        assert self.rows_given(table) == placed

    @given(m=st.integers(min_value=1, max_value=3000))
    @example(m=2)
    @example(m=4)
    @example(m=961)
    @example(m=3000)
    @settings(max_examples=40, deadline=None)
    def test_sieved_table_has_a_row_for_every_prime(self, m):
        table = run_sieve(m)
        primes = primes_by_trial_division(m)
        assert table.prime_headers == primes
        assert self.rows_given(table) == primes


class TestLimits:
    def test_width_beyond_link_typecode(self):
        with pytest.raises(ValueError, match="column store"):
            SieveTable(2**32)

    def test_width_beyond_memory_raises_before_allocating(self, report_physical_memory,
                                                           traced_peak):
        report_physical_memory(2**20)  # 1 MiB

        def build():
            with pytest.raises(ValueError, match="physical memory"):
                SieveTable(10**6)

        _, _, peak = traced_peak(build)
        assert peak < 10**5
        assert run_sieve(1000).prime_headers[-1] == 997  # 25 KB still fits

    @pytest.mark.parametrize("build", [SieveTable, run_sieve], ids=["unsieved", "sieved"])
    def test_holds_its_columns_and_one_window(self, build, traced_peak):
        # 7 bytes a column, the one window array of 2^16 links and its
        # overallocation: a second image of the window's 256 KiB would not fit.
        m = 2**17 + 1
        _, held, _ = traced_peak(lambda: build(m))
        assert held <= 7 * (m + 1) + 4 * 2**16 + 32 * 1024

    def test_rows_are_not_checked_one_by_one(self, monkeypatch):
        # Each memory check reads the physical memory through os.sysconf.  The
        # 12251 rows of width 2^17 make no check of their own but p = 2's, of
        # 2^16 terms; the table makes one.
        real, calls = os.sysconf, []
        monkeypatch.setattr(os, "sysconf", lambda k: calls.append(k) or real(k))
        table = run_sieve(2**17)
        assert len(table.prime_headers) == 12251
        assert 0 < calls.count("SC_PHYS_PAGES") <= 5

    @staticmethod
    def written_and_peak(table, traced_peak):
        """Bytes `write_table` writes to a counting sink, and its tracemalloc peak."""

        class Sink:
            written = 0

            def write(self, data):
                self.written += len(data)

        sink = Sink()
        _, _, peak = traced_peak(lambda: bfile.write_table(table, sink))
        return sink.written, peak

    def test_table_text_is_written_a_row_at_a_time(self, traced_peak):
        # 25 MB of text from a 120 KB store, holding about one row and the header at a time.
        table = run_sieve(10**4)
        written, peak = self.written_and_peak(table, traced_peak)
        assert written == len(table_text(table)) > 20 * 2**20
        assert peak < 2**20

    def test_header_is_written_in_blocks(self, traced_peak):
        # 0.59 MB of header text; the whole header as one join peaked at 6.8 MB.
        table = SieveTable(10**5)
        written, peak = self.written_and_peak(table, traced_peak)
        assert written == len(table_text(table)) == 588_896
        assert peak < 2**20


# The `operator` and `math` functions that divide, passed by name (say to `map`).
_DIVIDING_NAMES = {"truediv", "floordiv", "mod", "itruediv", "ifloordiv", "imod", "fmod"}


def _divisions(tree):
    ops = (ast.Div, ast.FloorDiv, ast.Mod)
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ops):
            yield ast.unparse(node)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("divmod"):
            yield ast.unparse(node)
        elif (isinstance(node, ast.Name) and node.id in _DIVIDING_NAMES
              or isinstance(node, ast.Attribute) and node.attr in _DIVIDING_NAMES):
            yield ast.unparse(node)


class TestDivisionFree:
    def test_sieve_module_does_not_divide(self):
        assert list(_divisions(ast.parse(inspect.getsource(sieve)))) == []

    def test_cell_writer_does_not_divide(self):
        # The sieve's TSV rows are written through it.
        assert list(_divisions(ast.parse(inspect.getsource(bfile._set_cells)))) == []

    @pytest.mark.parametrize("writer", [bfile.write_rows, bfile.write_table])
    def test_row_writers_do_not_divide(self, writer):
        # They write the sieve's TSV rows, as the cell writer does.
        assert list(_divisions(ast.parse(inspect.getsource(writer)))) == []

    def test_oddpart_command_does_not_divide(self):
        # `--mod4` reduces the reconstructed odd parts, which are positive, by a mask.
        assert list(_divisions(ast.parse(inspect.getsource(cli._cmd_oddpart)))) == []

    def test_generate_dci_does_not_divide(self):
        assert list(_divisions(ast.parse(inspect.getsource(generate_dci)))) == []

    @pytest.mark.parametrize("part", [valuations.dci_chunks, valuations._dci_chunks])
    def test_dci_stream_does_not_divide(self, part):
        # Its one division is CPython's, the length of a `range`.
        assert list(_divisions(ast.parse(inspect.getsource(part)))) == []

    def test_b_file_writer_cuts_its_pieces_without_dividing(self):
        assert list(_divisions(ast.parse(inspect.getsource(bfile.write_b_file)))) == []

    @pytest.mark.parametrize("construction", [levy_turns, heighway_turns])
    def test_dragon_constructions_do_not_divide(self, construction):
        assert list(_divisions(ast.parse(inspect.getsource(construction)))) == []

    def test_reconstruct_odd_part_does_not_divide(self):
        assert list(_divisions(ast.parse(inspect.getsource(reconstruct_odd_part)))) == []

    def test_acceptance_criteria_neither_divide_nor_import_an_oracle(self):
        # The criteria call the verify suites, the one place with oracles.
        tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
        assert list(_divisions(tree)) == []
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert imported.isdisjoint({"valuation_oracle", "valuations_by_division",
                                    "odd_even_parts", "odd_part_mod4",
                                    "odd_parts_by_division", "odd_parts_mod4_by_division",
                                    "primes_by_trial_division", "trial_division_factor"})

    def test_detector_sees_each_form(self):
        src = "a / b\na // b\na % b\nx //= 2\nx %= 3\ndivmod(a, b)\nmath.divmod(a, b)"
        assert len(list(_divisions(ast.parse(src)))) == 7

    def test_detector_sees_dividing_functions_passed_by_name(self):
        src = "map(floordiv, r, s)\nmap(operator.mod, r, repeat(4))\nmath.fmod(a, b)"
        assert list(_divisions(ast.parse(src))) == ["floordiv", "operator.mod", "math.fmod"]
