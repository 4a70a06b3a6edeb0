from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dragonsieve import format_b_file, levy_turns
from dragonsieve.cli import main
from dragonsieve.valuations import valuations_by_division

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
        # The width-1000 store (12 KB) fits in 512 KiB and its 340 KB of text streams;
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
        # 2**31 Levy or 2**30 Heighway terms at 24 bytes each; refused up front.
        report_physical_memory(8 * 2**30)
        code, out, err = run(capsys, command, "--iterations", "30")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "physical memory" in err

    def test_b_file_spans_write_chunks(self, capsys):
        # 2**17 - 1 terms cross the writer's chunk boundaries.
        code, out, _ = run(capsys, "levy", "--iterations", "16")
        assert code == 0
        assert out == format_b_file(levy_turns(16).terms)

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

    def test_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DRAGONSIEVE_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, "render", "--p", "2", "--limit", "16", "-o", "nested/out.svg")
        assert code == 0
        assert (tmp_path / "nested" / "out.svg").exists()

    @pytest.mark.parametrize("line", ["2 1 7", "2", "2 x"])
    def test_malformed_b_file_line_is_usage_error(self, capsys, tmp_path, line):
        src = tmp_path / "terms.bfile"
        src.write_text(f"# header\n1 0\n{line}\n3 0\n")
        out_file = tmp_path / "curve.svg"
        code, out, err = run(capsys, "render", "--from-file", str(src), "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == (f"error: b-file line 3: expected '<index> <value>' "
                       f"as two integers, got '{line}'\n")
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
        assert err == (f"error: b-file line {line}: first index {index}, "
                       "but render reads b-files from index 1\n")
        assert not out_file.parent.exists()

    def test_b_file_is_refused_at_its_first_term_line(self, capsys, tmp_path):
        # Line 4 is malformed, but the offset on line 1 is reported: the
        # file is refused before the parse reaches line 4.
        src = tmp_path / "terms.bfile"
        src.write_text("0 1\n1 1\n2 0\n3 x\n")
        code, out, err = run(capsys, "render", "--from-file", str(src), "-o",
                             str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err == ("error: b-file line 1: first index 0, "
                       "but render reads b-files from index 1\n")

    @pytest.mark.parametrize("head,per_term", [(0, 10), (256, 48)], ids=["bytes", "list"])
    def test_from_file_guard_charges_what_the_parse_holds(self, capsys, tmp_path,
                                                          report_physical_memory, head, per_term):
        # A term of 256 makes the parse a list of ints.  10^4 terms need per_term bytes each
        # plus the SVG writer's chunk, 272 bytes for each of 8192 vertices, and not a byte less.
        src = tmp_path / "terms.bfile"
        src.write_text(format_b_file([head] + [1] * 9999))
        argv = ("render", "--from-file", str(src), "-o", str(tmp_path / "x.svg"))
        need = per_term * 10**4 + 272 * 8192
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
        src.write_text(format_b_file(bytes(1000)))
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
                           "--iterations", "3", "--max-period", "5")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus-scope"])
        assert exc.value.code == 2


class TestSequenceSizeGuards:
    @pytest.mark.parametrize("argv", [
        ["seq", "--p", "2"],
        ["decimate", "--p", "2"],
        ["oddpart"],
        ["render", "--p", "2", "-o", "sub/x.svg"],
        ["verify", "valuations"],
        ["verify", "fractal"],
        ["verify", "render"],
    ], ids=["seq", "decimate", "oddpart", "render",
            "verify-valuations", "verify-fractal", "verify-render"])
    def test_beyond_memory_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                          report_physical_memory, argv):
        # 64 KiB holds none of these commands' 200000 terms; nothing is built.
        # Each command imports its modules when it runs: import them first, so
        # that the peak counts what the command allocates, not the imports.
        for name in ("bfile", "fractal", "render", "valuations", "verify"):
            importlib.import_module(f"dragonsieve.{name}")
        report_physical_memory(2**16)
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--limit", "200000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "of 200000 terms would not fit" in err
        assert len(err.splitlines()) == 1
        assert peak < 10**5
        assert not (tmp_path / "sub").exists()


class TestClosedStdout:
    """A reader that closes stdout early, as `head` does, ends the command silently with 141."""

    @staticmethod
    def start(*argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        return subprocess.Popen([sys.executable, "-m", "dragonsieve.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def test_pipe_closed_after_the_first_line(self):
        # 14 MB of text: the writes fill the pipe long before the last one.
        proc = self.start("seq", "--p", "2", "--limit", str(10**6))
        assert proc.stdout.readline() == b"1 0\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")

    def test_pipe_closed_before_the_output(self):
        # The JSON line stays in the buffer until `main` flushes it.
        proc = self.start("factor", "24")
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
