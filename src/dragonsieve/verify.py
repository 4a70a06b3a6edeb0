"""Verification suites wiring the division-free constructions to their oracles.

``SUITES`` lists the suites in run order with their limits.  Each public
``verify_<suite>`` function builds its constructions from its arguments (a
rejected argument raises) and hands every check to one runner, which names
and times it.  A check that raises or runs zero cases becomes a FAIL report;
the remaining checks still run.
"""

from __future__ import annotations

import math
import operator
import time
from itertools import pairwise, repeat, zip_longest
from typing import Callable, Iterable

from .dragons import (
    check_heighway_equivalence,
    check_levy_theorem,
    heighway_turns,
    levy_turns,
)
from .fractal import (
    aperiodicity_witness,
    check_self_containment,
    decimate_terms,
    reconstruct_odd_part,
)
from .render import TurnProgram, path_equal, reduce_mod, trace
from .reports import CheckReport, Failure
from .sieve import read_factorization, run_sieve
from .valuations import (
    generate_dci,
    odd_even_parts,
    primes_by_trial_division,
    valuation_oracle,
)

VALUATION_PRIMES = (2, 3, 5, 7, 11, 13)
FRACTAL_PRIMES = (2, 3, 5, 7)

# Suites in run order: {suite: (default, --small)}, each a mapping from a
# verify_<suite> parameter to its value.  The parameters share their names
# with the `verify` flags that override them.
SUITES = {
    "sieve": ({"limit": 10**5}, {"limit": 1000}),
    "valuations": ({"limit": 10**6}, {"limit": 10**4}),
    "fractal": ({"limit": 10**5, "max_period": 10**3}, {"limit": 10**4, "max_period": 100}),
    "levy": ({"iterations": 10}, {"iterations": 8}),
    "heighway": ({"iterations": 16}, {"iterations": 10}),
    "render": ({"limit": 10**4}, {"limit": 2000}),
}


def _run(name: str, cases: int, check: Callable[[], list[Failure]]) -> CheckReport:
    """Run one check of ``cases`` cases, timed; a raise or zero cases is a failure."""
    t0 = time.perf_counter()
    if cases < 1:
        failures = [Failure(0, "at least one case", cases)]
    else:
        try:
            failures = check()
        except Exception as exc:
            failures = [Failure(0, "no exception", f"{type(exc).__name__}: {exc}")]
    return CheckReport(name, cases, failures, time.perf_counter() - t0)


def _first_mismatch(expected: Iterable, actual: Iterable, start: int = 1,
                    same: Callable[[object, object], bool] = operator.eq) -> list[Failure]:
    """The first position where the two differ, as a one-element list, else [].

    Positions count from ``start``; the shorter side is padded with None.
    """
    for i, (e, a) in enumerate(zip_longest(expected, actual), start):
        if not same(e, a):
            return [Failure(i, e, a)]
    return []


def verify_sieve(limit: int) -> list[CheckReport]:
    table = run_sieve(limit)
    expected = primes_by_trial_division(limit)
    return [
        _run("sieve-primes-match-trial-division", len(expected),
             lambda: _first_mismatch(expected, table.prime_headers)),
        _run("factorization-reconstructs-n", limit - 1,
             lambda: _first_mismatch(
                 range(2, limit + 1),
                 (read_factorization(table, n).value() for n in range(2, limit + 1)),
                 start=2)),
    ]


def verify_valuations(limit: int, bases=VALUATION_PRIMES) -> list[CheckReport]:
    reports = []
    for p in bases:
        terms = generate_dci(p, limit).terms
        reports.append(_run(
            f"dci-matches-division-oracle-p{p}", limit,
            lambda: _first_mismatch(map(valuation_oracle, repeat(p), range(1, limit + 1)),
                                    terms)))
    return reports


def verify_fractal(limit: int, max_period: int) -> list[CheckReport]:
    reports = []
    sequences = {p: generate_dci(p, limit).terms for p in FRACTAL_PRIMES}
    for p, terms in sequences.items():
        count = limit // (p + 1)
        reports.append(_run(f"decimation-self-containment-p{p}", count,
                            lambda: check_self_containment(terms, p, count).failures))
        # Second decimation level: the decimated output is itself the sequence.
        twice = decimate_terms(decimate_terms(terms, p), p)
        reports.append(_run(f"nested-decimation-p{p}", len(twice),
                            lambda: _first_mismatch(terms[: len(twice)], twice)))

    for p in (2, 3):
        terms = sequences[p]
        reports.append(_run(
            f"aperiodicity-witnesses-p{p}", max_period,
            lambda: [Failure(q, "witness", None) for q in range(1, max_period + 1)
                     if aperiodicity_witness(terms, q) is None]))

    numbers = range(1, limit + 1)
    reports.append(_run(
        "odd-part-reconstruction", limit,
        lambda: _first_mismatch((odd_even_parts(n).odd_part for n in numbers),
                                reconstruct_odd_part(limit))))
    # Each n is its even part times an odd (remainder 1 mod 2) odd part.
    reports.append(_run(
        "odd-even-decomposition-identity", limit,
        lambda: _first_mismatch(((n, 1) for n in numbers),
                                ((d.even_part * d.odd_part, d.odd_part % 2)
                                 for d in map(odd_even_parts, numbers)))))
    return reports


def verify_levy(iterations: int) -> list[CheckReport]:
    terms = levy_turns(iterations).terms
    return [_run("levy-turns-equal-v2-at-multiples-of-8", len(terms),
                 lambda: check_levy_theorem(terms).failures)]


def verify_heighway(iterations: int) -> list[CheckReport]:
    terms = heighway_turns(iterations).terms
    return [_run("heighway-turns-equal-odd-part-mod-4", len(terms),
                 lambda: check_heighway_equivalence(terms).failures)]


def verify_render(limit: int) -> list[CheckReport]:
    terms = tuple(generate_dci(2, limit).terms)
    cases = len(terms)

    def mod4_invariance() -> list[Failure]:
        full = trace(TurnProgram(terms, 90))
        reduced = trace(TurnProgram(tuple(reduce_mod(terms, 4)), 90))
        return [] if path_equal(full, reduced, 0.0) else [Failure(1, "equal paths", "mismatch")]

    def unit_segments(angle: int) -> list[Failure]:
        vertices = trace(TurnProgram(terms, angle)).vertices
        lengths = (math.dist(a, b) for a, b in pairwise(vertices))
        return _first_mismatch(repeat(1.0, cases), lengths,
                               same=lambda e, a: abs(a - e) <= 1e-9)

    def vertex_count_law() -> list[Failure]:
        prefixes = [terms[: 1 + (k * 37) % min(cases, 500)] for k in range(1, 101)]
        return _first_mismatch([len(prefix) + 1 for prefix in prefixes],
                               (len(trace(TurnProgram(prefix, 90)).vertices)
                                for prefix in prefixes))

    return [
        _run("mod4-trace-invariance-90deg", cases, mod4_invariance),
        *(_run(f"unit-segment-length-{angle}deg", cases, lambda: unit_segments(angle))
          for angle in (120, 135, 60)),
        _run("vertex-count-law", 100, vertex_count_law),
    ]
