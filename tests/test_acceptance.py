"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Lines are written to the real stdout so they survive pytest's capture."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from dragonsieve import (
    generate_dci,
    heighway_turns,
    levy_turns,
    reconstruct_odd_part,
    trace,
    write_svg,
)
from dragonsieve.cli import main
from dragonsieve.verify import (
    verify_fractal,
    verify_heighway,
    verify_levy,
    verify_render,
    verify_sieve,
    verify_valuations,
)

# Paths are joined with joinpath, not `/`, so the module holds no division.
FIXTURES = Path(__file__).parent.joinpath("fixtures")
ARTIFACTS = Path(__file__).parent.parent.joinpath("artifacts")


def _criterion(number: int, label: str, budget: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(
        f"PASS criterion {number}: {label} ({elapsed:.2f}s, budget {budget}s)",
        file=sys.__stdout__,
    )
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def _passed(reports, names, cases=None) -> None:
    """Assert that the checks ``names`` of a suite's ``reports`` ran, in order, and passed.

    A renamed or dropped check fails; ``cases``, where the criterion states
    a count, is each check's number of cases.
    """
    picked = [r for r in reports if r.name in names]
    assert [r.name for r in picked] == names
    for report in picked:
        assert report.passed, report.summary()
        assert cases is None or report.cases == cases, report.summary()


def test_criterion_01_table_4_reproduction(capsys):
    t0 = time.perf_counter()
    assert main(["sieve", "--limit", "16"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == FIXTURES.joinpath("sieve_table_16.tsv").read_bytes()
    _criterion(1, "sieve --limit 16 reproduces the six-prime table byte-exactly", 0.1, t0)


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    _passed(verify_valuations(10**6),
            [f"dci-matches-division-oracle-p{p}" for p in (2, 3, 5, 7, 11, 13)], 10**6)
    _criterion(2, "generated terms equal the division oracle for six bases to 1e6", 10.0, t0)


def test_criterion_03_prime_soundness_completeness():
    t0 = time.perf_counter()
    _passed(verify_sieve(10**5), ["sieve-primes-match-trial-division"], 9592)
    _criterion(3, "sieve finds exactly the 9592 primes below 1e5", 5.0, t0)


def test_criterion_04_factorization_reconstruction():
    t0 = time.perf_counter()
    _passed(verify_sieve(10**5), ["factorization-reconstructs-n"], 10**5 - 1)
    _criterion(4, "table factorization reconstructs every n up to 1e5", 5.0, t0)


def test_criterion_05_decimation():
    t0 = time.perf_counter()
    _passed(verify_fractal(10**5),
            [f"{name}-p{p}" for p in (2, 3, 5, 7)
             for name in ("decimation-self-containment", "nested-decimation")])
    _criterion(5, "decimation is the identity, two levels deep, for p in {2,3,5,7}", 2.0, t0)


def test_criterion_06_aperiodicity_witnesses():
    t0 = time.perf_counter()
    reports = verify_fractal(10**5)
    _passed(reports, ["aperiodicity-witnesses-p2", "aperiodicity-witnesses-p3"])
    _passed(reports, ["aperiodicity-witnesses-p2"], 99983)
    _passed(reports, ["aperiodicity-witnesses-p3"], 99979)
    _criterion(6, "every period q with p^(a+1) + q <= 1e5, a = v_p(q), is disproved:"
               " 99983 for p=2, 99979 for p=3", 2.0, t0)


def test_criterion_07_levy_theorem():
    t0 = time.perf_counter()
    _passed(verify_levy(10), ["levy-turns-equal-v2-at-multiples-of-8"], 2047)
    assert tuple(levy_turns(1).terms) == (3, 4, 3)
    assert tuple(levy_turns(2).terms) == (3, 4, 3, 5, 3, 4, 3)
    assert tuple(levy_turns(3).terms) == (3, 4, 3, 5, 3, 4, 3, 6, 3, 4, 3, 5, 3, 4, 3)
    _criterion(7, "Levy turns equal v2 at multiples of 8 across 2047 indexes", 0.1, t0)


def test_criterion_08_heighway_equivalence():
    t0 = time.perf_counter()
    _passed(verify_heighway(16), ["heighway-turns-equal-odd-part-mod-4"], 65535)
    assert tuple(heighway_turns(4).terms) == (1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3, 1, 3, 3)
    _criterion(8, "Heighway turns equal the odd part mod 4 across 65535 indexes", 1.0, t0)


def test_criterion_09_odd_part_machinery():
    t0 = time.perf_counter()
    _passed(verify_fractal(10**6),
            ["odd-part-reconstruction", "odd-even-decomposition-identity"])
    assert list(reconstruct_odd_part(15)) == [1, 1, 3, 1, 5, 3, 7, 1, 9, 5, 11, 3, 13, 7, 15]
    _criterion(9, "odd-part reconstruction and decomposition identity hold", 5.0, t0)


def test_criterion_10_render_invariants():
    t0 = time.perf_counter()
    _passed(verify_render(10**4),
            ["mod4-trace-invariance-90deg", "unit-segment-length-120deg",
             "unit-segment-length-135deg", "unit-segment-length-60deg", "vertex-count-law"])
    _criterion(10, "mod-4 invariance, unit lengths, and the vertex-count law", 5.0, t0)


def test_criterion_11_golden_trace():
    t0 = time.perf_counter()
    vertices = tuple(trace(generate_dci(2, 16).terms, 90))
    assert vertices[:5] == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    _criterion(11, "golden five-vertex trace pins the move-then-turn convention", 1.0, t0)


@pytest.mark.parametrize(
    "p,angle,name",
    [
        (2, 90, "v2_90deg_levy_c_curve"),
        (3, 90, "v3_90deg"),
        (5, 120, "v5_120deg"),
        (7, 135, "v7_135deg"),
        (2, 120, "v2_120deg"),
        (5, 60, "v5_60deg"),
    ],
)
def test_criterion_12_figure_artifacts(p, angle, name, tmp_path):
    # Each committed figure is the document `write_svg` writes, byte for byte.
    t0 = time.perf_counter()
    out = tmp_path.joinpath(f"{name}.svg")
    with out.open("w", encoding="utf-8") as fh:
        write_svg(generate_dci(p, 4096).terms, fh, angle, stroke_width=0.4)
    assert out.read_bytes() == ARTIFACTS.joinpath(out.name).read_bytes()
    _criterion(12, f"figure artifact {out.name} matches the committed figure", 10.0, t0)
