from __future__ import annotations

import json
from pathlib import Path

import pytest

from dragonsieve.cli import main

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


class TestSequenceCommands:
    def test_levy(self, capsys):
        code, out, _ = run(capsys, "levy", "--iterations", "1")
        assert code == 0
        assert out == "1 3\n2 4\n3 3\n"

    def test_heighway(self, capsys):
        code, out, _ = run(capsys, "heighway", "--iterations", "2")
        assert code == 0
        assert out == "1 1\n2 1\n3 3\n"

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

    def test_missing_source_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "render", "-o", str(tmp_path / "x.svg"))
        assert code == 2

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

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus-scope"])
        assert exc.value.code == 2


class TestBenchCommand:
    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "bench", "--limit", "2000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "task,limit,seconds"
        assert lines[1].startswith("dci-sieve-all-rows,2000,")
        assert lines[2].startswith("trial-division-all-n,2000,")
