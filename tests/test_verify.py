"""`dragonsieve verify` run in-process through main(argv).

Covers the check runner's contract: a check that raises or runs no cases
fails on its own line while the rest still run, rejected arguments exit 2
before any output, and the report lines stay fixed apart from timing.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

import dragonsieve.verify as verify_mod
from dragonsieve import ValuationSequence, generate_dci
from dragonsieve.cli import main
from dragonsieve.reports import Failure

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
        aperiodic = [line for line in lines if "\taperiodicity-witnesses-p" in line]
        assert len(aperiodic) == 2
        for line in aperiodic:
            assert line.startswith("FAIL\t")
            assert "period must be within" in line
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


class TestRejectedArguments:
    @pytest.mark.parametrize("argv", [
        ("sieve", "--limit", "0"),
        ("valuations", "--limit", "0"),
        ("levy", "--iterations", "-1"),
        ("heighway", "--iterations", "0"),
        ("all", "--iterations", "-1"),
    ])
    def test_exit_2_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestPlantedDefect:
    BAD_INDEX = 37  # v2(37) = 0

    def test_first_bad_index_is_reported(self, capsys, monkeypatch):
        def corrupted_dci(p, m):
            terms = generate_dci(p, m).terms
            if p == 2:
                terms[self.BAD_INDEX - 1] += 1
            return ValuationSequence(p, m, tuple(terms))

        monkeypatch.setattr(verify_mod, "generate_dci", corrupted_dci)
        code, out, _ = run(capsys, "verify", "valuations", "--limit", "100")
        lines = out.splitlines()
        assert code == 1
        assert without_timing(lines[0]) == (
            "FAIL\tdci-matches-division-oracle-p2\tcases=100\t"
            f"first: index={self.BAD_INDEX} expected=0 actual=1"
        )
        assert all(line.startswith("ok\t") for line in lines[1:-1])
        assert lines[-1] == "FAIL"
        report = verify_mod.verify_valuations(100, bases=(2,))[0]
        assert report.failures == [Failure(self.BAD_INDEX, 0, 1)]


def test_small_output_matches_golden(capsys):
    code, out, _ = run(capsys, "verify", "all", "--small")
    assert code == 0
    golden = (FIXTURES / "verify_all_small.txt").read_bytes()
    assert without_timing(out).encode() == golden
