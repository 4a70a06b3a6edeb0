from __future__ import annotations

import argparse
import contextlib
import errno
import importlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
from itertools import starmap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dragonsieve import format_b_file, levy_turns, parse_b_file, sieve, verify
from dragonsieve.cli import SUITES, build_parser, main
from dragonsieve.limits import BYTES_PER
from dragonsieve.valuations import (
    odd_parts_by_division,
    odd_parts_mod4_by_division,
    primes_by_trial_division,
    valuations_by_division,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSieveCommand:
    def test_table_16_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "sieve", "--limit", "16")
        assert code == 0
        assert out.encode() == (FIXTURES / "sieve_table_16.tsv").read_bytes()

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "sieve", "--limit", "30")
        _, second, _ = run(capsys, "sieve", "--limit", "30")
        assert first == second


    def test_table_text_needs_memory_for_the_store_only(self, capsys, report_physical_memory):
        # The width-1000 store fits in 512 KiB and its 340 KB of text streams;
        # 8 KiB holds no store.
        _, want, _ = run(capsys, "sieve", "--limit", "1000")
        report_physical_memory(2**19)
        assert run(capsys, "sieve", "--limit", "1000") == (0, want, "")
        report_physical_memory(2**13)
        code, out, err = run(capsys, "sieve", "--limit", "1000")
        assert (code, out) == (2, "")
        assert err == ("error: a sieve table of width 1000 would not fit in physical memory "
                       f"({2**13} bytes)\n")


class TestSeqCommand:
    def test_b_file_output(self, capsys):
        code, out, _ = run(capsys, "seq", "--p", "2", "--limit", "4")
        assert code == 0
        assert out == "1 0\n2 1\n3 0\n4 2\n"

    def test_bad_base_is_usage_error(self, capsys):
        code, _, err = run(capsys, "seq", "--p", "1", "--limit", "4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_bad_length_is_usage_error(self, capsys, limit):
        assert run(capsys, "seq", "--p", "2", "--limit", limit) == (
            2, "", f"error: length must be at least 1, got {limit}\n")


class TestFactorCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "factor", "24", "--limit", "30")
        assert code == 0
        assert json.loads(out) == {"n": 24, "factors": [[2, 3], [3, 1]]}

    def test_limit_defaults_to_n(self, capsys):
        code, out, _ = run(capsys, "factor", "97")
        assert code == 0
        assert json.loads(out) == {"n": 97, "factors": [[97, 1]]}

    def test_n_above_limit_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "factor", "50", "--limit", "30")
        assert code == 2

    def test_width_beyond_store_is_usage_error(self, capsys):
        code, out, err = run(capsys, "factor", "2", "--limit", str(10**12))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_n_below_one_without_limit_names_n(self, capsys, n):
        # The width defaults to n, but the error names n, as with a width given.
        code, out, err = run(capsys, "factor", n)
        assert (code, out) == (2, "")
        assert err == f"error: n must be within 1..1, got {n}\n"
        code, out, err = run(capsys, "factor", n, "--limit", "10")
        assert err == f"error: n must be within 1..10, got {n}\n"

    @pytest.mark.parametrize("fault", [IndexError, KeyError])
    def test_program_fault_is_not_a_usage_error(self, monkeypatch, fault):
        def run_sieve(m):
            raise fault("planted")

        monkeypatch.setattr("dragonsieve.sieve.run_sieve", run_sieve)
        with pytest.raises(fault, match="planted"):
            main(["factor", "24"])

    @given(data=st.data(), limit=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_contract(self, data, limit):
        # n in 1..L prints n's factorization as one JSON line; any other n is
        # refused with one error line and nothing on stdout.
        n = data.draw(st.integers(min_value=-5, max_value=limit + 5))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["factor", str(n), "--limit", str(limit)])
        out, err = out.getvalue(), err.getvalue()
        if not 1 <= n <= limit:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
            return
        assert (code, err) == (0, "")
        assert out.endswith("\n") and out.count("\n") == 1
        got = json.loads(out)
        assert got.keys() == {"n", "factors"} and got["n"] == n
        pairs = got["factors"]
        ps = [p for p, _ in pairs]
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert set(primes_by_trial_division(limit)).issuperset(ps)
        assert all(e >= 1 for _, e in pairs)
        assert math.prod(starmap(pow, pairs)) == n


# The physical memory that the contract properties report: 1 MiB.
PHYSICAL = 2**20
# Sizes beyond every limit, which a guard refuses before it allocates: 2^17
# sieve columns, decimated terms or odd parts need more than 1 MiB, and a
# `seq` of 2^32 terms is longer than the widest sieve table.
BEYOND = st.integers(min_value=2**32, max_value=2**70)
HUGE = st.integers(min_value=2**17, max_value=2**31) | BEYOND


def run_contract(ok, *argv):
    """Run `main(argv)` in process, reporting `PHYSICAL` bytes of physical memory; its stdout.

    Asserts the contract: if ``ok``, exit 0 with output on stdout and nothing
    on stderr, else exit 2 with one ``error:`` line on stderr and nothing on
    stdout.  Patched inside each example, since Hypothesis refuses
    function-scoped fixtures such as `report_physical_memory`.
    """
    real = os.sysconf
    pages = PHYSICAL // real("SC_PAGE_SIZE")
    out, err = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(out, encoding="ascii", write_through=True)
    with mock.patch.object(os, "sysconf", lambda k: pages if k == "SC_PHYS_PAGES" else real(k)), \
            contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = main(list(map(str, argv)))
    text.detach()
    out, err = out.getvalue(), err.getvalue()
    if ok:
        assert (code, err) == (0, "")
        assert out
    else:
        assert (code, out) == (2, b"")
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    return out


class TestCommandContracts:
    """Each command, in process with generated integer arguments, ends in exit 0 or exit 2."""

    @given(p=st.integers(min_value=-3, max_value=70) | st.sampled_from([65521, 65537, 1000003]),
           limit=st.integers(min_value=-5, max_value=300)
           | st.integers(min_value=301, max_value=10**5) | BEYOND)
    @example(p=2, limit=10**5)
    @example(p=1000003, limit=1)
    @example(p=2, limit=2**32)
    @settings(max_examples=60, deadline=None)
    def test_seq(self, p, limit):
        # `seq` streams any length up to 2^32 - 1, so no valid limit above 10^5 is drawn.
        ok = p >= 2 and 1 <= limit <= 10**5
        out = run_contract(ok, "seq", "--p", p, "--limit", limit)
        if ok:
            assert parse_b_file(io.BytesIO(out)) == valuations_by_division(p, limit)

    @given(limit=st.integers(min_value=-5, max_value=300) | HUGE)
    @example(limit=1)
    @example(limit=300)
    @example(limit=2**17)  # 1.2 MB of columns
    @settings(max_examples=60, deadline=None)
    def test_sieve(self, limit):
        # The TSV has pi(m) * m cells, so no valid limit above 300 is drawn.
        ok = 1 <= limit <= 300
        out = run_contract(ok, "sieve", "--limit", limit)
        if ok:
            lines = ["\t" + "\t".join(map(str, range(1, limit + 1)))]
            lines += [f"{p}\t" + "\t".join(map(str, valuations_by_division(p, limit)))
                      for p in primes_by_trial_division(limit)]
            assert out.decode("ascii") == "\n".join(lines) + "\n"

    @given(p=st.integers(min_value=-3, max_value=40) | st.just(65537),
           limit=st.integers(min_value=-5, max_value=2000) | HUGE,
           levels=st.integers(min_value=-3, max_value=12) | st.just(10**9))
    @example(p=2, limit=1, levels=1)  # ends in an empty row
    @example(p=2, limit=1, levels=2)  # decimates the empty row
    @example(p=2, limit=2**17, levels=0)  # 1.5 MB of rows
    @settings(max_examples=100, deadline=None)
    def test_decimate(self, p, limit, levels):
        ok = p >= 2 and 1 <= limit <= 2000 and levels >= 0
        if ok:  # a row that is already empty is not decimated again
            rows = [valuations_by_division(p, limit)]
            for _ in range(levels):
                if not rows[-1]:
                    ok = False
                    break
                rows.append(rows[-1][p :: p + 1])
        out = run_contract(ok, "decimate", "--p", p, "--limit", limit, "--levels", levels)
        if ok:
            labels = ["Original"] + (["Decimated"] if levels == 1 else
                                     [f"Decimated x{level}" for level in range(1, levels + 1)])
            assert out.decode("ascii").splitlines() == [
                f"{label}:\t" + ", ".join(map(str, row)) for label, row in zip(labels, rows)]

    @given(iterations=st.integers(min_value=-5, max_value=12)
           | st.integers(min_value=40, max_value=10**6))
    @example(iterations=0)
    @settings(max_examples=40, deadline=None)
    def test_levy(self, iterations):
        # Levy turn i is v2(8i), for 2^(j+1) - 1 turns.
        ok = 0 <= iterations <= 12
        out = run_contract(ok, "levy", "--iterations", iterations)
        if ok:
            n = 2 ** (iterations + 1) - 1
            assert parse_b_file(io.BytesIO(out)) == valuations_by_division(2, 8 * n)[7::8]

    @given(iterations=st.integers(min_value=-5, max_value=12)
           | st.integers(min_value=40, max_value=10**6))
    @example(iterations=0)
    @example(iterations=1)
    @settings(max_examples=40, deadline=None)
    def test_heighway(self, iterations):
        # Heighway turn n is the odd part of n mod 4, for 2^j - 1 turns.
        ok = 1 <= iterations <= 12
        out = run_contract(ok, "heighway", "--iterations", iterations)
        if ok:
            n = 2**iterations - 1
            assert parse_b_file(io.BytesIO(out)) == odd_parts_mod4_by_division(n)

    @given(limit=st.integers(min_value=-5, max_value=2000) | HUGE, mod4=st.booleans())
    @example(limit=1, mod4=True)
    @example(limit=2**17, mod4=False)  # 1.3 MB of odd parts
    @settings(max_examples=60, deadline=None)
    def test_oddpart(self, limit, mod4):
        ok = 1 <= limit <= 2000
        out = run_contract(ok, "oddpart", "--limit", limit, *["--mod4"] * mod4)
        if ok:
            want = odd_parts_mod4_by_division(limit) if mod4 else odd_parts_by_division(limit)
            assert list(parse_b_file(io.BytesIO(out))) == list(want)


class TestSequenceCommands:
    def test_levy(self, capsys):
        code, out, _ = run(capsys, "levy", "--iterations", "1")
        assert code == 0
        assert out == "1 3\n2 4\n3 3\n"

    def test_heighway(self, capsys):
        code, out, _ = run(capsys, "heighway", "--iterations", "2")
        assert code == 0
        assert out == "1 1\n2 1\n3 3\n"

    @pytest.mark.parametrize("command", ["levy", "heighway"])
    def test_30_iterations_exceed_8_gib(self, capsys, report_physical_memory, command):
        # 2**31 Levy or 2**30 Heighway terms, a dragon term's bytes each; refused up front.
        report_physical_memory(8 * 2**30)
        code, out, err = run(capsys, command, "--iterations", "30")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "physical memory" in err

    def test_b_file_spans_write_chunks(self, capsys):
        # 2**17 - 1 terms cross the writer's chunk boundaries.
        code, out, _ = run(capsys, "levy", "--iterations", "16")
        assert code == 0
        assert out.encode() == format_b_file(levy_turns(16).terms)

    def test_oddpart(self, capsys):
        code, out, _ = run(capsys, "oddpart", "--limit", "6")
        assert code == 0
        assert out == "1 1\n2 1\n3 3\n4 1\n5 5\n6 3\n"

    def test_oddpart_mod4(self, capsys):
        code, out, _ = run(capsys, "oddpart", "--limit", "6", "--mod4")
        assert out == "1 1\n2 1\n3 3\n4 1\n5 1\n6 3\n"

    def test_decimate_report(self, capsys):
        code, out, _ = run(capsys, "decimate", "--p", "2", "--limit", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("Original:")
        assert lines[1] == "Decimated:\t0, 1, 0, 2"

    def test_decimate_splices_terms_of_two_digits(self, capsys):
        # v_2 reaches 10 at 1024 and 11 at 2048, so both rows hold two-digit terms.
        code, out, _ = run(capsys, "decimate", "--p", "2", "--limit", "2048", "--levels", "2")
        terms = valuations_by_division(2, 2048)
        assert code == 0
        assert out.splitlines() == [
            "Original:\t" + ", ".join(map(str, terms)),
            "Decimated x1:\t" + ", ".join(map(str, terms[2::3])),
            "Decimated x2:\t" + ", ".join(map(str, terms[2::3][2::3])),
        ]

    def test_decimate_prints_its_last_empty_row(self, capsys):
        code, out, _ = run(capsys, "decimate", "--p", "2", "--limit", "10", "--levels", "3")
        assert code == 0
        assert out.splitlines()[1:] == ["Decimated x1:\t0, 1, 0", "Decimated x2:\t0",
                                        "Decimated x3:\t"]

    @pytest.mark.parametrize("limit, levels, most", [("1", "2", 1), ("10", str(10**9), 3)])
    def test_decimating_an_empty_row_is_usage_error(self, capsys, limit, levels, most):
        code, out, err = run(capsys, "decimate", "--p", "2", "--limit", limit, "--levels", levels)
        assert (code, out) == (2, "")
        assert err == (f"error: levels must be at most {most} for limit {limit}: "
                       f"decimated x{most} is already empty\n")

    def test_negative_levels_is_usage_error(self, capsys):
        code, out, err = run(capsys, "decimate", "--p", "2", "--limit", "12", "--levels", "-1")
        assert (code, out) == (2, "")
        assert err == "error: levels must be non-negative, got -1\n"


class TestRenderCommand:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "v2.svg"
        code, out, _ = run(
            capsys, "render", "--p", "2", "--limit", "64", "--angle", "90",
            "-o", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith('<?xml')
        assert "<polyline" in text

    def test_from_b_file(self, capsys, tmp_path):
        src = tmp_path / "terms.bfile"
        src.write_text("1 0\n2 1\n3 0\n4 2\n")
        out_file = tmp_path / "curve.svg"
        code, _, _ = run(capsys, "render", "--from-file", str(src), "-o", str(out_file))
        assert code == 0
        assert out_file.exists()

    def test_makes_the_output_directory(self, capsys, tmp_path):
        out_file = tmp_path / "nested" / "out.svg"
        code, _, _ = run(capsys, "render", "--p", "2", "--limit", "16", "-o", str(out_file))
        assert code == 0
        assert out_file.exists()

    @pytest.mark.parametrize("line,quoted", [
        (b"2 1 7", "'2 1 7'"),
        (b"2", "'2'"),
        (b"2 x", "'2 x'"),
        # A byte that is not ASCII is quoted as an escape; neither \x1c nor a
        # bare CR separates fields or lines.
        (b"2 \xd9\xa3", r"'2 \\xd9\\xa3'"),
        (b"2\x1c1", r"'2\x1c1'"),
        (b"2 1\r3 0", r"'2 1\r3 0'"),
    ], ids=["2 1 7", "2", "2 x", "non-ascii", "file-separator", "bare-cr"])
    def test_malformed_b_file_line_is_usage_error(self, capsys, tmp_path, line, quoted):
        src = tmp_path / "terms.bfile"
        src.write_bytes(b"# header\n1 0\n" + line + b"\n3 0\n")
        out_file = tmp_path / "curve.svg"
        code, out, err = run(capsys, "render", "--from-file", str(src), "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == (f"error: b-file line 3: expected '<index> <value>' "
                       f"as two integers, got {quoted}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("text,line,index", [
        ("0 1\n1 1\n2 0\n", 1, 0),  # OEIS A014577, offset 0
        ("# A000000\n\n5 1\n6 3\n", 3, 5),
    ])
    def test_b_file_not_from_index_1_is_usage_error(self, capsys, tmp_path, text, line, index):
        src = tmp_path / "terms.bfile"
        src.write_text(text)
        out_file = tmp_path / "sub" / "x.svg"
        code, out, err = run(capsys, "render", "--from-file", str(src), "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == f"error: b-file line {line}: first index {index}, expected 1\n"
        assert not out_file.parent.exists()

    def test_b_file_is_refused_at_its_first_term_line(self, capsys, tmp_path):
        # Line 4 is malformed, but the offset on line 1 is reported: the
        # file is refused before the parse reaches line 4.
        src = tmp_path / "terms.bfile"
        src.write_text("0 1\n1 1\n2 0\n3 x\n")
        code, out, err = run(capsys, "render", "--from-file", str(src), "-o",
                             str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err == "error: b-file line 1: first index 0, expected 1\n"

    @pytest.mark.parametrize("head,held", [(0, "svg byte term"), (256, "svg list term")],
                             ids=["bytes", "list"])
    def test_from_file_guard_charges_what_the_parse_holds(self, capsys, tmp_path,
                                                          report_physical_memory, head, held):
        # A term of 256 makes the parse a list of ints.  10^4 terms need the bytes each is
        # held in, plus a chunk vertex's bytes for each of 8192 vertices, and not a byte less.
        src = tmp_path / "terms.bfile"
        src.write_bytes(format_b_file([head] + [1] * 9999))
        argv = ("render", "--from-file", str(src), "-o", str(tmp_path / "x.svg"))
        need = BYTES_PER[held] * 10**4 + BYTES_PER["svg chunk vertex"] * 8192
        page = os.sysconf("SC_PAGE_SIZE")
        report_physical_memory(need - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: a trace of 10000 terms would not fit in physical memory")
        report_physical_memory(need + page)
        assert run(capsys, *argv)[0] == 0

    def test_trace_beyond_memory_is_usage_error(self, capsys, tmp_path, report_physical_memory):
        # 64 KiB cannot hold the trace and SVG text of 1000 terms.
        report_physical_memory(2**16)
        out_file = tmp_path / "sub" / "x.svg"
        code, out, err = run(capsys, "render", "--p", "2", "--limit", "1000",
                             "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: a trace of 1000 terms would not fit in physical memory")
        assert len(err.splitlines()) == 1
        assert not out_file.parent.exists()

    @pytest.mark.parametrize("flags,memory,message", [
        (["--angle", "200"], None, "error: angle must be within"),
        ([], 2**16, "error: a trace of 1000 terms would not fit in physical memory"),
        (["--p", "2"], None, "error: render takes exactly one of --p and --from-file"),
        (["--limit", "5"], None, "error: render --limit applies to --p, not to --from-file"),
        (["--stroke-width", "0"], None, "error: stroke width must be finite and above 0"),
        (["--stroke-width", "nan"], None, "error: stroke width must be finite and above 0"),
    ], ids=["bad-angle", "beyond-memory", "with-p", "with-limit", "zero-stroke", "nan-stroke"])
    def test_rejected_from_file_writes_nothing(self, capsys, tmp_path, report_physical_memory,
                                               flags, memory, message):
        src = tmp_path / "terms.bfile"
        src.write_bytes(format_b_file(bytes(1000)))
        if memory:
            report_physical_memory(memory)
        out_file = tmp_path / "sub" / "x.svg"
        code, out, err = run(capsys, "render", "--from-file", str(src), *flags,
                             "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert not out_file.parent.exists()

    def test_missing_source_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "-o", str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err == "error: render takes exactly one of --p and --from-file\n"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("modulus", ["0", "-3"])
    def test_non_positive_mod_is_usage_error(self, capsys, tmp_path, modulus):
        out_file = tmp_path / "x.svg"
        code, out, err = run(
            capsys, "render", "--p", "2", "--limit", "16", "--mod", modulus,
            "-o", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_file.exists()


    @pytest.mark.parametrize("angle", ["inf", "nan", "-inf", "200"])
    def test_out_of_range_angle_is_usage_error(self, capsys, tmp_path, angle):
        out_file = tmp_path / "sub" / "x.svg"
        code, out, err = run(
            capsys, "render", "--p", "2", "--limit", "16", f"--angle={angle}",
            "-o", str(out_file),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: angle must be within") and len(err.splitlines()) == 1
        assert not out_file.parent.exists()

    @pytest.mark.parametrize("fault", [MemoryError(), OSError(errno.ENOSPC, "No space left")],
                             ids=["out-of-memory", "disk-full"])
    def test_failed_write_leaves_no_svg(self, capsys, tmp_path, monkeypatch, fault):
        def write_svg(terms, out, *args, **kwargs):
            out.write("<?xml")
            raise fault

        monkeypatch.setattr("dragonsieve.render.write_svg", write_svg)
        out_file = tmp_path / "x.svg"
        code, out, err = run(capsys, "render", "--p", "2", "--limit", "16", "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_file.exists()


class TestVerifyCommand:
    def test_levy_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "levy", "--iterations", "8")
        assert code == 0
        assert "ok\tlevy-turns-equal-v2-at-multiples-of-8\tcases=511" in out
        assert out.rstrip().endswith("PASS") or out.splitlines()[-1] == "PASS"

    def test_sieve_scope(self, capsys):
        code, out, _ = run(capsys, "verify", "sieve", "--limit", "100")
        assert code == 0
        assert "sieve-primes-match-trial-division" in out

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--small")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_all_takes_every_suites_flags(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--small", "--limit", "300",
                           "--iterations", "3")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus-scope"])
        assert exc.value.code == 2

    def test_removed_max_period_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--max-period", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_every_flag_sets_a_suite_parameter(self):
        # No `verify` flag outlives the verify_<suite> parameter it sets.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {opt for action in sub.choices["verify"]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        params = {name: set(inspect.signature(getattr(verify, f"verify_{name}")).parameters)
                  for name in SUITES}
        assert flags - {"--help", "--small"} == {
            "--" + k.replace("_", "-") for taken in params.values() for k in taken}
        assert all(set(default) == set(small) == params[name]
                   for name, (default, small) in SUITES.items())


class TestSequenceSizeGuards:
    @pytest.mark.parametrize("argv", [
        ["decimate", "--p", "2"],
        ["oddpart"],
        ["render", "--p", "2", "-o", "sub/x.svg"],
        ["verify", "valuations"],
        ["verify", "fractal"],
        ["verify", "render"],
    ], ids=["decimate", "oddpart", "render",
            "verify-valuations", "verify-fractal", "verify-render"])
    def test_beyond_memory_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                          report_physical_memory, traced_peak, argv):
        # 64 KiB holds none of these commands' 200000 terms; nothing is built.
        # Each command imports its modules when it runs: import them first, so
        # that the peak counts what the command allocates, not the imports.
        for name in ("bfile", "fractal", "render", "valuations", "verify"):
            importlib.import_module(f"dragonsieve.{name}")
        report_physical_memory(2**16)
        monkeypatch.chdir(tmp_path)
        (code, out, err), _, peak = traced_peak(lambda: run(capsys, *argv, "--limit", "200000"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "of 200000 terms would not fit" in err
        assert len(err.splitlines()) == 1
        assert peak < 10**5
        assert not (tmp_path / "sub").exists()

    def test_seq_streams_past_physical_memory(self, capsys, report_physical_memory):
        # `seq` holds about one chunk of its 200000 terms, so 64 KiB refuses nothing.
        _, want, _ = run(capsys, "seq", "--p", "2", "--limit", "200000")
        assert want.encode() == format_b_file(valuations_by_division(2, 200000))
        report_physical_memory(2**16)
        assert run(capsys, "seq", "--p", "2", "--limit", "200000") == (0, want, "")

    @pytest.mark.parametrize("limit", [2**32, 10**12])
    def test_seq_longer_than_the_widest_sieve_table_is_usage_error(self, capsys, limit):
        assert sieve.MAX_WIDTH == 2**32 - 1
        code, out, err = run(capsys, "seq", "--p", "2", "--limit", str(limit))
        assert (code, out) == (2, "")
        assert err == f"error: seq --limit must be at most {2**32 - 1}, got {limit}\n"


def start(*argv, **popen_args):
    """Start the CLI in a child process, its stdout and stderr piped to this one."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen([sys.executable, "-m", "dragonsieve.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen_args)


class TestClosedStdout:
    """A reader that closes stdout early, as `head` does, ends the command silently with 141."""

    def test_pipe_closed_after_the_first_line(self):
        # 14 MB of text: the writes fill the pipe long before the last one.
        with start("seq", "--p", "2", "--limit", str(10**6)) as proc:
            assert proc.stdout.readline() == b"1 0\n"
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")

    def test_pipe_closed_before_the_output(self):
        # The JSON line stays in the buffer until `main` flushes it.
        with start("factor", "24") as proc:
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")


def test_memory_error_is_usage_error():
    # A table of width 10^8 passes the physical-memory check, but not 600 MB of
    # address space, which binds the child only: the allocation fails, not the check.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 10**6, 600 * 10**6))

    proc = start("factor", "7", "--limit", str(10**8), preexec_fn=limit_address_space)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (2, b"", b"error: factor ran out of memory\n")
