"""`dragonsieve verify` run in-process through main(argv).

Covers the check runner's contract: a check that raises or runs no cases
fails on its own line while the rest still run, rejected arguments exit 2
before any output, and the report lines stay fixed apart from timing.
"""

from __future__ import annotations

import importlib.util
import operator
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dragonsieve.valuations as valuations_mod
import dragonsieve.verify as verify_mod
from dragonsieve import (
    Failure,
    heighway_turns,
    levy_turns,
    read_factorization,
    reconstruct_odd_part,
    run_sieve,
)
from dragonsieve.cli import main
from dragonsieve.valuations import CHUNK_TERMS, odd_parts_by_division

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


def _load_benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


VERIFY_CHECKS = _load_benchmark_workloads().VERIFY_CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_timing(out: str) -> str:
    return re.sub(r"\t[0-9.]+s$", "", out, flags=re.MULTILINE)


class TestCheckIsolation:
    def test_limit_10_runs_every_check_and_fails(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--limit", "10")
        lines = out.splitlines()
        assert code == 1
        assert err == ""
        assert [line.split("\t")[1] for line in lines[:-1]] == list(VERIFY_CHECKS)
        # Ten terms disprove the periods 1, 2, 3, 5, 6, 7 (p=2) and 1, 2, 4, 5, 7 (p=3);
        # the run fails through the other checks.
        aperiodic = [without_timing(line) for line in lines
                     if "\taperiodicity-witnesses-p" in line]
        assert aperiodic == ["ok\taperiodicity-witnesses-p2\tcases=6\t-",
                             "ok\taperiodicity-witnesses-p3\tcases=5\t-"]
        assert lines[-1] == "FAIL"

    def test_zero_cases_is_a_failure(self, capsys):
        code, out, err = run(capsys, "verify", "sieve", "--limit", "1")
        lines = out.splitlines()
        assert code == 1
        assert err == ""
        assert len(lines) == 3
        for line in lines[:2]:
            assert line.startswith("FAIL\t")
            assert "cases=0" in line
            assert "expected=at least one case" in line
        assert lines[-1] == "FAIL"

    def test_too_short_to_decimate_is_a_failure(self, capsys):
        # Two terms leave nothing after keeping every third.
        code, out, _ = run(capsys, "verify", "fractal", "--limit", "2")
        assert code == 1
        assert without_timing(out).splitlines()[0] == (
            "FAIL\tdecimation-self-containment-p2\tcases=0\t"
            "first: index=0 expected=at least one case actual=0")
        assert out.splitlines()[-1] == "FAIL"


class TestRejectedArguments:
    @pytest.mark.parametrize("argv", [
        ("sieve", "--limit", "0"),
        ("valuations", "--limit", "0"),
        ("levy", "--iterations", "-1"),
        ("heighway", "--iterations", "0"),
        ("all", "--iterations", "-1"),
        # A flag the chosen suite does not take.
        ("levy", "--limit", "5"),
        ("sieve", "--limit", "100", "--iterations", "3"),
        ("fractal", "--small", "--iterations", "3"),
    ])
    def test_exit_2_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_odd_parts_beyond_memory_exit_2(self, capsys, report_physical_memory):
        # 1 MB holds each 150000-term valuation sequence, but not the odd parts.
        report_physical_memory(10**6)
        code, out, err = run(capsys, "verify", "fractal", "--limit", "150000")
        assert (code, out) == (2, "")
        assert err.startswith("error: an odd-part sequence of 150000 terms would not fit")
        assert len(err.splitlines()) == 1


class TestMemory:
    def test_fractal_holds_one_construction_at_a_time(self, report_physical_memory,
                                                      traced_peak):
        # Every construction's own check passes in 999 424 bytes; holding the four
        # sequences with both odd-part columns would peak above it.
        report_physical_memory(999_424)
        reports, _, peak = traced_peak(lambda: verify_mod.verify_fractal(90_000))
        assert [r.name for r in reports if not r.passed] == []
        assert peak < 999_424


def plant_in_stream(monkeypatch, edit):
    """Make `verify` see every p=2 valuation sequence, streamed or joined, as ``edit`` leaves it.

    ``edit`` takes the m terms as a bytearray and returns the terms to stream.
    """
    real = valuations_mod.dci_chunks

    def corrupted(p, m):
        chunks = real(p, m)
        if p != 2:
            return chunks
        terms = bytes(edit(bytearray(b"".join(chunks))))
        return (terms[i : i + CHUNK_TERMS] for i in range(0, len(terms), CHUNK_TERMS))

    # `generate_dci` joins the stream of its own module; `verify` holds its own name for it.
    monkeypatch.setattr(valuations_mod, "dci_chunks", corrupted)
    monkeypatch.setattr(verify_mod, "dci_chunks", corrupted)


def plant_in_v2(monkeypatch, index):
    """Make `verify` see the p=2 valuation sequence with term ``index`` incremented."""
    def increment(terms):
        terms[index - 1] += 1
        return terms

    plant_in_stream(monkeypatch, increment)


class TestPlantedDefect:
    BAD_INDEX = 37  # v2(37) = 0

    def test_first_bad_index_is_reported(self, capsys, monkeypatch):
        plant_in_v2(monkeypatch, self.BAD_INDEX)
        code, out, _ = run(capsys, "verify", "valuations", "--limit", "100")
        lines = out.splitlines()
        assert code == 1
        assert without_timing(lines[0]) == (
            "FAIL\tdci-matches-division-oracle-p2\tcases=100\t"
            f"first: index={self.BAD_INDEX} expected=0 actual=1"
        )
        assert all(line.startswith("ok\t") for line in lines[1:-1])
        assert lines[-1] == "FAIL"
        report = verify_mod.verify_valuations(100)[0]
        assert report.failure == Failure(self.BAD_INDEX, 0, 1)

    def test_bad_last_index_is_reported(self, capsys, monkeypatch):
        plant_in_v2(monkeypatch, 100)  # v2(100) = 2
        code, out, _ = run(capsys, "verify", "valuations", "--limit", "100")
        assert code == 1
        assert without_timing(out).splitlines()[0] == (
            "FAIL\tdci-matches-division-oracle-p2\tcases=100\t"
            "first: index=100 expected=2 actual=3")
        assert verify_mod.verify_valuations(100)[0].failure == Failure(100, 2, 3)

    def test_defect_past_the_first_chunks_is_reported(self, capsys, monkeypatch):
        # Term 2^17 + 5 (v2 = 0) lies in the third chunk of the stream.
        plant_in_v2(monkeypatch, 2**17 + 5)
        code, out, _ = run(capsys, "verify", "valuations", "--limit", str(3 * 2**16 + 11))
        assert code == 1
        assert without_timing(out).splitlines()[0] == (
            "FAIL\tdci-matches-division-oracle-p2\tcases=196619\t"
            "first: index=131077 expected=0 actual=1")

    def test_sequence_a_term_short_is_reported(self, capsys, monkeypatch):
        plant_in_stream(monkeypatch, lambda terms: terms[:-1])
        code, out, _ = run(capsys, "verify", "valuations", "--limit", "100")
        lines = without_timing(out).splitlines()
        assert code == 1
        assert lines[0] == ("FAIL\tdci-matches-division-oracle-p2\tcases=100\t"
                            "first: index=100 expected=2 actual=None")
        assert all(line.startswith("ok\t") for line in lines[1:-1])
        assert lines[-1] == "FAIL"

    @pytest.mark.parametrize("bad_index,line", [
        # Term 3 (v2 = 0) is decimated term 1.
        (3, "FAIL\tdecimation-self-containment-p2\tcases=33\t"
            "first: index=1 expected=0 actual=1"),
        # Term 9 (v2 = 0) is twice-decimated term 1.
        (9, "FAIL\tnested-decimation-p2\tcases=11\t"
            "first: index=1 expected=0 actual=1"),
    ])
    def test_decimation_defect(self, capsys, monkeypatch, bad_index, line):
        plant_in_v2(monkeypatch, bad_index)
        code, out, _ = run(capsys, "verify", "fractal", "--limit", "100")
        assert code == 1
        assert line in without_timing(out).splitlines()
        assert out.splitlines()[-1] == "FAIL"

    def test_aperiodicity_defect_beyond_period_1000(self, capsys, monkeypatch):
        # Term 1003 = 2 + 1001 (v2 = 0) becomes 1, the value of term 2, the witness
        # of every odd period: period 1001 is then undisproved.
        plant_in_v2(monkeypatch, 1003)
        code, out, _ = run(capsys, "verify", "fractal", "--limit", "2000")
        assert code == 1
        assert [line for line in without_timing(out).splitlines()
                if not line.startswith("ok\t")] == [
            "FAIL\taperiodicity-witnesses-p2\tcases=1989\t"
            "first: index=1001 expected=witness actual=None", "FAIL"]

    def test_constant_sequence_has_no_witness(self, capsys, monkeypatch):
        # A constant sequence survives every decimation, but no period has a witness.
        plant_in_stream(monkeypatch, lambda terms: bytes(len(terms)))
        code, out, _ = run(capsys, "verify", "fractal", "--limit", "100")
        assert code == 1
        assert [line for line in without_timing(out).splitlines()
                if not line.startswith("ok\t")] == [
            "FAIL\taperiodicity-witnesses-p2\tcases=93\t"
            "first: index=1 expected=witness actual=None", "FAIL"]

    @pytest.mark.parametrize("suite,iterations,build,index,turn,line", [
        # Levy turn 5 is v2(40) = 3.
        ("levy", "3", levy_turns, 5, 4,
         "FAIL\tlevy-turns-equal-v2-at-multiples-of-8\tcases=15\t"
         "first: index=5 expected=3 actual=4"),
        # Heighway turn 6 is the odd part of 6 mod 4 = 3.
        ("heighway", "4", heighway_turns, 6, 1,
         "FAIL\theighway-turns-equal-odd-part-mod-4\tcases=15\t"
         "first: index=6 expected=3 actual=1"),
        # The last Heighway turn at 16 iterations: 65535 = 3 mod 4.
        ("heighway", "16", heighway_turns, 65535, 1,
         "FAIL\theighway-turns-equal-odd-part-mod-4\tcases=65535\t"
         "first: index=65535 expected=3 actual=1"),
        # The last Levy turn at 10 iterations is v2(16376) = 3: pins the oracle's slice.
        ("levy", "10", levy_turns, 2047, 4,
         "FAIL\tlevy-turns-equal-v2-at-multiples-of-8\tcases=2047\t"
         "first: index=2047 expected=3 actual=4"),
    ])
    def test_dragon_defect(self, capsys, monkeypatch, suite, iterations, build, index, turn,
                           line):
        def corrupted(iterations):
            seq = build(iterations)
            terms = bytearray(seq.terms)
            terms[index - 1] = turn
            return seq._replace(terms=bytes(terms))

        monkeypatch.setattr(verify_mod, build.__name__, corrupted)
        code, out, _ = run(capsys, "verify", suite, "--iterations", iterations)
        assert code == 1
        assert without_timing(out).splitlines() == [line, "FAIL"]


class TestPlantedSieveDefect:
    """Sieve defects at width 1000, where rows are placed for the primes up to 31."""

    @staticmethod
    def sieve_lines(capsys):
        code, out, _ = run(capsys, "verify", "sieve", "--limit", "1000")
        lines = without_timing(out).splitlines()
        assert code == 1 and lines[-1] == "FAIL"
        return lines[:-1]

    def test_chain_end_factor_dropped(self, capsys, monkeypatch):
        # 37, the first n with a prime factor above sqrt(1000), reads as the empty product.
        def dropping(table, n):
            return tuple((p, e) for p, e in read_factorization(table, n) if p * p <= table.m)

        monkeypatch.setattr(verify_mod, "read_factorization", dropping)
        assert self.sieve_lines(capsys) == [
            "ok\tsieve-primes-match-trial-division\tcases=168\t-",
            "FAIL\tfactorization-reconstructs-n\tcases=999\tfirst: index=37 expected=37 actual=1"]

    def test_prime_missing_from_the_list(self, capsys, monkeypatch):
        # 37, the 12th prime, is the first one read from the unreached columns;
        # reading them from 38 drops it.
        def missing_37(limit):
            table = run_sieve(limit)
            assert table._unreached == 37
            table._unreached = 38
            return table

        monkeypatch.setattr(verify_mod, "run_sieve", missing_37)
        assert self.sieve_lines(capsys) == [
            "FAIL\tsieve-primes-match-trial-division\tcases=168\t"
            "first: index=12 expected=37 actual=41",
            "ok\tfactorization-reconstructs-n\tcases=999\t-"]


class TestPlantedOddPartDefect:
    """Odd-part defects, each reported on the line the per-n checks printed."""

    @staticmethod
    def fractal_lines(capsys, limit):
        code, out, _ = run(capsys, "verify", "fractal", "--limit", str(limit))
        lines = without_timing(out).splitlines()
        assert code == 1 and lines[-1] == "FAIL"
        return [line for line in lines if "\todd-" in line]

    @pytest.mark.parametrize("edit,line", [
        # The odd part of 12 is 3.
        (lambda out: out.__setitem__(11, 6),
         "FAIL\todd-part-reconstruction\tcases=100\tfirst: index=12 expected=3 actual=6"),
        # A term short: the odd part of 100 is 25.
        (lambda out: out.pop(),
         "FAIL\todd-part-reconstruction\tcases=100\tfirst: index=100 expected=25 actual=None"),
    ])
    def test_reconstruction_defect(self, capsys, monkeypatch, edit, line):
        def corrupted(max_index):
            out = reconstruct_odd_part(max_index)
            edit(out)
            return out

        monkeypatch.setattr(verify_mod, "reconstruct_odd_part", corrupted)
        assert self.fractal_lines(capsys, 100) == [
            line, "ok\todd-even-decomposition-identity\tcases=100\t-"]

    @pytest.mark.parametrize("odd,identity", [
        # 4 * 6 is not 12, and 6 is even.
        (6, "first: index=12 expected=(12, 1) actual=(24, 0)"),
        # 4 * 5 is not 12, though 5 is odd.
        (5, "first: index=12 expected=(12, 1) actual=(20, 1)"),
    ])
    def test_decomposition_defect(self, capsys, monkeypatch, odd, identity):
        def corrupted(n):
            column = odd_parts_by_division(n)
            column[11] = odd
            return column

        monkeypatch.setattr(verify_mod, "odd_parts_by_division", corrupted)
        assert self.fractal_lines(capsys, 100) == [
            f"FAIL\todd-part-reconstruction\tcases=100\tfirst: index=12 expected={odd} actual=3",
            f"FAIL\todd-even-decomposition-identity\tcases=100\t{identity}"]

    def test_oracle_a_term_short(self, capsys, monkeypatch):
        # The identity holds on every term given, but the column misses n = 100.
        monkeypatch.setattr(verify_mod, "odd_parts_by_division",
                            lambda n: odd_parts_by_division(n - 1))
        assert self.fractal_lines(capsys, 100) == [
            "FAIL\todd-part-reconstruction\tcases=100\tfirst: index=100 expected=None actual=25",
            "FAIL\todd-even-decomposition-identity\tcases=100\t"
            "first: index=100 expected=(100, 1) actual=None"]


def naive_first_mismatch(expected, actual, start=1, same=operator.eq):
    """The per-element reference for `_first_mismatch`: no equality shortcut."""
    expected, actual = list(expected), list(actual)
    for k in range(max(len(expected), len(actual))):
        e = expected[k] if k < len(expected) else None
        a = actual[k] if k < len(actual) else None
        if not same(e, a):
            return Failure(start + k, e, a)
    return None


def within_one(e, a):
    return e is not None and a is not None and abs(a - e) <= 1


# Each kind turns the two term lists into what a check hands the helper.
PAIR_KINDS = {
    "bytes/bytes": lambda e, a: (bytes(e), bytes(a)),
    "list/generator": lambda e, a: (list(e), (t for t in a)),
    "generator/bytes": lambda e, a: ((t for t in e), bytes(a)),
    "list/list": lambda e, a: (list(e), list(a)),
    "range/bytes": lambda e, a: (range(len(e)), bytes(a)),
}


@st.composite
def term_pairs(draw):
    """Two byte-valued term lists: equal, one term changed, or cut or lengthened."""
    expected = draw(st.lists(st.integers(0, 255), max_size=40))
    actual = list(expected)
    edit = draw(st.sampled_from(["equal", "change", "cut", "extend"]))
    if edit == "change" and actual:
        i = draw(st.integers(0, len(actual) - 1))
        actual[i] = draw(st.integers(0, 255))
    elif edit == "cut" and actual:
        del actual[draw(st.integers(0, len(actual) - 1)):]
    elif edit == "extend":
        actual += draw(st.lists(st.integers(0, 255), min_size=1, max_size=3))
    return expected, actual


@given(pair=term_pairs(), kind=st.sampled_from(sorted(PAIR_KINDS)),
       start=st.integers(-5, 10**6), tolerant=st.booleans())
@settings(max_examples=300, deadline=None)
def test_first_mismatch_equals_per_element_reference(pair, kind, start, tolerant):
    same = within_one if tolerant else operator.eq
    got = verify_mod._first_mismatch(*PAIR_KINDS[kind](*pair), start=start, same=same)
    assert got == naive_first_mismatch(*PAIR_KINDS[kind](*pair), start=start, same=same)


@given(pair=term_pairs(), cuts=st.lists(st.integers(0, 45), max_size=6))
@settings(max_examples=300, deadline=None)
def test_chunked_mismatch_equals_the_whole_columns(pair, cuts):
    # The join of the chunks against the column, cut anywhere, empty chunks included.
    expected, actual = map(bytes, pair)
    bounds = [0, *sorted(min(c, len(actual)) for c in cuts), len(actual)]
    chunks = [actual[a:b] for a, b in zip(bounds, bounds[1:])]
    assert (verify_mod._first_chunk_mismatch(expected, chunks)
            == verify_mod._first_mismatch(expected, actual))


def test_small_output_matches_golden(capsys):
    code, out, _ = run(capsys, "verify", "all", "--small")
    assert code == 0
    golden = (FIXTURES / "verify_all_small.txt").read_bytes()
    assert without_timing(out).encode() == golden
