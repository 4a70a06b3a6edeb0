"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Lines are written to the real stdout so they survive pytest's capture."""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

from dragonsieve import (
    TurnProgram,
    aperiodicity_witness,
    check_heighway_equivalence,
    check_levy_theorem,
    decimate_terms,
    generate_dci,
    heighway_turns,
    levy_turns,
    odd_even_parts,
    odd_part_mod4,
    path_equal,
    primes_by_trial_division,
    read_factorization,
    run_sieve,
    to_svg,
    trace,
    valuation_oracle,
)
from dragonsieve.cli import main
from dragonsieve.render import reduce_mod

FIXTURES = Path(__file__).parent / "fixtures"
ARTIFACTS = Path(__file__).parent.parent / "artifacts"


def _criterion(number: int, label: str, budget: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(
        f"PASS criterion {number}: {label} ({elapsed:.2f}s, budget {budget}s)",
        file=sys.__stdout__,
    )
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_01_table_4_reproduction(capsys):
    t0 = time.perf_counter()
    assert main(["sieve", "--limit", "16"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (FIXTURES / "sieve_table_16.tsv").read_bytes()
    _criterion(1, "sieve --limit 16 reproduces the six-prime table byte-exactly", 0.1, t0)


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    m = 10**6
    for p in (2, 3, 5, 7, 11, 13):
        terms = generate_dci(p, m).terms
        for n in range(1, m + 1):
            k, nn = 0, n
            while nn % p == 0:
                nn //= p
                k += 1
            assert terms[n - 1] == k, (p, n)
    _criterion(2, "generated terms equal the division oracle for six bases to 1e6", 10.0, t0)


def test_criterion_03_prime_soundness_completeness():
    t0 = time.perf_counter()
    got = run_sieve(10**5).prime_headers
    expected = primes_by_trial_division(10**5)
    assert len(expected) == 9592
    assert got == expected
    _criterion(3, "sieve finds exactly the 9592 primes below 1e5", 5.0, t0)


def test_criterion_04_factorization_reconstruction():
    t0 = time.perf_counter()
    table = run_sieve(10**5)
    for n in range(2, 10**5 + 1):
        assert read_factorization(table, n).value() == n
    _criterion(4, "table factorization reconstructs every n up to 1e5", 5.0, t0)


def test_criterion_05_decimation():
    t0 = time.perf_counter()
    for p in (2, 3, 5, 7):
        terms = generate_dci(p, 10**5).terms
        once = decimate_terms(terms, p)
        assert once == terms[: len(once)]
        twice = decimate_terms(once, p)
        assert twice == terms[: len(twice)]
    _criterion(5, "decimation is the identity, two levels deep, for p in {2,3,5,7}", 2.0, t0)


def test_criterion_06_aperiodicity_witnesses():
    t0 = time.perf_counter()
    for p in (2, 3):
        terms = generate_dci(p, 10**5).terms
        for q in range(1, 10**3 + 1):
            assert aperiodicity_witness(terms, q) is not None, (p, q)
    _criterion(6, "every period up to 1e3 is disproved within 1e5 terms", 2.0, t0)


def test_criterion_07_levy_theorem():
    t0 = time.perf_counter()
    report = check_levy_theorem(10)
    assert report.passed and report.cases == 2047
    assert levy_turns(1).terms == (3, 4, 3)
    assert levy_turns(2).terms == (3, 4, 3, 5, 3, 4, 3)
    assert levy_turns(3).terms == (3, 4, 3, 5, 3, 4, 3, 6, 3, 4, 3, 5, 3, 4, 3)
    for i in (1, 2, 3):
        assert levy_turns(10).terms[i - 1] == valuation_oracle(2, 8 * i)
    _criterion(7, "Levy turns equal v2 at multiples of 8 across 2047 indexes", 0.1, t0)


def test_criterion_08_heighway_equivalence():
    t0 = time.perf_counter()
    report = check_heighway_equivalence(16)
    assert report.passed and report.cases == 65535
    assert heighway_turns(4).terms == (1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3, 1, 3, 3)
    assert [odd_part_mod4(n) for n in range(1, 16)] == [
        1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3, 1, 3, 3]
    _criterion(8, "Heighway turns equal the odd part mod 4 across 65535 indexes", 1.0, t0)


def test_criterion_09_odd_part_machinery():
    t0 = time.perf_counter()
    from dragonsieve import reconstruct_odd_part

    rebuilt = reconstruct_odd_part(10**5)
    for n in range(1, 10**5 + 1):
        assert rebuilt[n - 1] == odd_even_parts(n).odd_part
    assert rebuilt[:15] == [1, 1, 3, 1, 5, 3, 7, 1, 9, 5, 11, 3, 13, 7, 15]
    for n in range(1, 10**6 + 1):
        parts = odd_even_parts(n)
        assert parts.even_part * parts.odd_part == n
    _criterion(9, "odd-part reconstruction and decomposition identity hold", 5.0, t0)


def test_criterion_10_render_invariants():
    t0 = time.perf_counter()
    terms = tuple(generate_dci(2, 10**4).terms)
    full = trace(TurnProgram(terms, 90))
    assert full.lattice
    reduced = trace(TurnProgram(tuple(reduce_mod(terms, 4)), 90))
    assert path_equal(full, reduced, 0.0)

    for angle in (120, 135, 60):
        path = trace(TurnProgram(terms, angle))
        for (x0, y0), (x1, y1) in zip(path.vertices, path.vertices[1:]):
            assert abs(((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 - 1.0) < 1e-9

    rng = random.Random(0)
    for _ in range(100):
        prog = tuple(rng.randrange(8) for _ in range(rng.randrange(1, 60)))
        assert len(trace(TurnProgram(prog, rng.choice([90, 60, 120, 135]))).vertices) == len(prog) + 1
    _criterion(10, "mod-4 invariance, unit lengths, and the vertex-count law", 5.0, t0)


def test_criterion_11_golden_trace():
    t0 = time.perf_counter()
    path = trace(TurnProgram(tuple(generate_dci(2, 16).terms), 90))
    assert path.vertices[:5] == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
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
def test_criterion_12_figure_artifacts(p, angle, name):
    t0 = time.perf_counter()
    ARTIFACTS.mkdir(exist_ok=True)
    terms = tuple(generate_dci(p, 4096).terms)
    svg = to_svg(trace(TurnProgram(terms, angle)), stroke_width=0.4)
    out = ARTIFACTS / f"{name}.svg"
    out.write_text(svg, encoding="utf-8")
    assert svg.startswith("<?xml") and "<polyline" in svg
    _criterion(12, f"figure artifact {out.name} emitted for visual comparison", 10.0, t0)
