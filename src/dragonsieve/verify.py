"""Verification suites wiring the division-free constructions to their oracles.

This is the one module that compares a construction against an oracle.
Each public ``verify_<suite>`` function builds its constructions from its
arguments (a rejected argument raises) and hands every check to one
runner, which names and times it.  A check that raises or runs zero
cases becomes a FAIL report; the remaining checks still run.
"""

from __future__ import annotations

import math
import operator
import time
from itertools import chain, pairwise, repeat, starmap, zip_longest
from typing import Callable, Iterable, NamedTuple

from .dragons import heighway_turns, levy_turns
from .fractal import decimate_terms, reconstruct_odd_part
from .limits import BYTES_PER, require_memory
from .render import reduce_mod, walk
from .sieve import read_factorization, run_sieve
from .valuations import (
    dci_chunks,
    generate_dci,
    odd_parts_by_division,
    odd_parts_mod4_by_division,
    primes_by_trial_division,
    valuations_by_division,
)

VALUATION_PRIMES = (2, 3, 5, 7, 11, 13)
FRACTAL_PRIMES = (2, 3, 5, 7)


class Failure(NamedTuple):
    index: int
    expected: object
    actual: object


class CheckReport(NamedTuple):
    """Outcome of one check: its first failure, or None when it passed."""

    name: str
    cases: int
    failure: Failure | None
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        # Timing is isolated in the final column so everything before it is
        # deterministic.
        if self.passed:
            head = f"ok\t{self.name}\tcases={self.cases}\t-"
        else:
            f = self.failure
            head = (
                f"FAIL\t{self.name}\tcases={self.cases}\t"
                f"first: index={f.index} expected={f.expected} actual={f.actual}"
            )
        return f"{head}\t{self.wall_time:.3f}s"


def _run(name: str, cases: int, check: Callable[[], Failure | None]) -> CheckReport:
    """Run one check of ``cases`` cases, timed; a raise or zero cases is a failure."""
    t0 = time.perf_counter()
    if cases < 1:
        failure = Failure(0, "at least one case", cases)
    else:
        try:
            failure = check()
        except Exception as exc:
            failure = Failure(0, "no exception", f"{type(exc).__name__}: {exc}")
    return CheckReport(name, cases, failure, time.perf_counter() - t0)


def _first_mismatch(expected: Iterable, actual: Iterable, start: int = 1,
                    same: Callable[[object, object], bool] = operator.eq) -> Failure | None:
    """The first position where the two differ, else None.

    Positions count from ``start``; the shorter side is padded with None.
    Two equal sequences of one type (bytes, lists) compare in C; only a
    mismatch, or a pair such as a generator against bytes, which compares
    unequal without being consumed, is walked element by element.  ``same``
    must hold for equal elements.
    """
    if expected == actual:
        return None
    for i, (e, a) in enumerate(zip_longest(expected, actual), start):
        if not same(e, a):
            return Failure(i, e, a)
    return None


def _first_chunk_mismatch(expected: bytes, chunks: Iterable[bytes]) -> Failure | None:
    """`_first_mismatch` of ``expected`` and the join of ``chunks``, one chunk at a time.

    Each chunk is compared with its slice of ``expected``, and only a chunk
    that differs from it is walked; a join short of ``expected`` fails at
    its first missing term.
    """
    start = 0
    for chunk in chunks:
        end = start + len(chunk)
        if expected[start:end] != chunk:
            return _first_mismatch(expected[start:end], chunk, start + 1)
        start = end
    return _first_mismatch(expected[start:], b"", start + 1)


def verify_sieve(limit: int) -> list[CheckReport]:
    table = run_sieve(limit)
    expected = primes_by_trial_division(limit)
    return [
        _run("sieve-primes-match-trial-division", len(expected),
             lambda: _first_mismatch(expected, table.prime_headers)),
        _run("factorization-reconstructs-n", limit - 1,
             lambda: _first_mismatch(
                 range(2, limit + 1),
                 map(math.prod, map(starmap, repeat(pow),
                                    map(read_factorization, repeat(table), range(2, limit + 1)))),
                 start=2)),
    ]


def verify_valuations(limit: int) -> list[CheckReport]:
    # Each DCI stream is compared a chunk at a time with its oracle's column,
    # the one whole column held, which is charged here, before any check.
    require_memory(f"a valuation column of {limit} terms", BYTES_PER["valuation term"] * limit)
    reports = []
    for p in VALUATION_PRIMES:
        chunks = dci_chunks(p, limit)
        reports.append(_run(
            f"dci-matches-division-oracle-p{p}", limit,
            lambda: _first_chunk_mismatch(valuations_by_division(p, limit), chunks)))
    return reports


def verify_fractal(limit: int) -> list[CheckReport]:
    # Each sequence, decimated once and twice, gives back its own prefix; for
    # p = 2 and 3, every period q with p**(a+1) + q <= limit, a = v_p(q), is disproved.
    # One construction is held at a time: each sequence is dropped before
    # the next is built, and the odd parts before the identity's column.
    reports, aperiodic = [], []
    for p in FRACTAL_PRIMES:
        terms = generate_dci(p, limit).terms
        once = decimate_terms(terms, p)
        for name, kept in (("decimation-self-containment", once),
                           ("nested-decimation", decimate_terms(once, p))):
            reports.append(_run(f"{name}-p{p}", len(kept),
                                lambda: _first_mismatch(terms[: len(kept)], kept)))
        if p in (2, 3):  # reported after every decimation check
            # q = p**a * r, with p not dividing r, is disproved at i = p**(a+1):
            # v_p(i) = a + 1 while v_p(i + q) = a.  One run per a and r mod p holds
            # the terms i + q for q = r * p**a + j * i, j >= 0; a and r come from
            # this arithmetic, not from the terms.
            runs = [(s * p, s * r, terms[s * (p + r) - 1 :: s * p])
                    for s in (p**a for a in range(limit.bit_length())) if s * (p + 1) <= limit
                    for r in range(1, p)]
            aperiodic.append(_run(
                f"aperiodicity-witnesses-p{p}", sum(len(run) for *_, run in runs),
                lambda: min((Failure(first + i * run.index(terms[i - 1]), "witness", None)
                             for i, first, run in runs if terms[i - 1] in run), default=None)))
            del runs
        del terms, once, kept
    reports += aperiodic

    odd_parts = reconstruct_odd_part(limit)
    reports.append(_run("odd-part-reconstruction", limit,
                        lambda: _first_mismatch(odd_parts_by_division(limit), odd_parts)))
    del odd_parts
    reports.append(_run("odd-even-decomposition-identity", limit,
                        lambda: _decomposition_identity(limit)))
    return reports


def _decomposition_identity(limit: int) -> Failure | None:
    """Each n is its even part n & -n times an odd (remainder 1 mod 2) odd part.

    Both halves run in C; only a failing column is walked as (n, 1) against
    (even * odd, odd % 2) pairs, to locate the first bad n.
    """
    numbers = range(1, limit + 1)
    evens = map(operator.and_, numbers, map(operator.neg, numbers))
    odds = odd_parts_by_division(limit)
    if (len(odds) == limit
            and all(map(operator.eq, map(operator.mul, evens, odds), numbers))
            and all(map(operator.and_, odds, repeat(1)))):
        return None
    return _first_mismatch(((n, 1) for n in numbers),
                           (((n & -n) * o, o % 2) for n, o in zip(numbers, odds)))


def verify_levy(iterations: int) -> list[CheckReport]:
    # Levy turn i is v2(8i).
    terms = levy_turns(iterations).terms
    return [_run("levy-turns-equal-v2-at-multiples-of-8", len(terms),
                 lambda: _first_mismatch(valuations_by_division(2, 8 * len(terms))[7::8],
                                         terms))]


def verify_heighway(iterations: int) -> list[CheckReport]:
    # Heighway turn n is the odd part of n mod 4.
    terms = heighway_turns(iterations).terms
    return [_run("heighway-turns-equal-odd-part-mod-4", len(terms),
                 lambda: _first_mismatch(odd_parts_mod4_by_division(len(terms)), terms))]


def verify_render(limit: int) -> list[CheckReport]:
    # Every walk is read a chunk of vertices at a time, as `write_svg` reads it.
    terms = generate_dci(2, limit).terms
    cases = len(terms)

    def mod4_invariance() -> Failure | None:
        same = all(starmap(operator.eq, zip_longest(walk(terms), walk(reduce_mod(terms, 4)))))
        return None if same else Failure(1, "equal paths", "mismatch")

    def unit_segments(angle: int) -> Failure | None:
        vertices = chain.from_iterable(starmap(zip, walk(terms, angle)))
        lengths = (math.dist(a, b) for a, b in pairwise(vertices))
        return _first_mismatch(repeat(1.0, cases), lengths,
                               same=lambda e, a: abs(a - e) <= 1e-9)

    def vertex_count_law() -> Failure | None:
        prefixes = [terms[: 1 + (k * 37) % min(cases, 500)] for k in range(1, 101)]
        return _first_mismatch([len(prefix) + 1 for prefix in prefixes],
                               (sum(len(xs) for xs, _ in walk(prefix)) for prefix in prefixes))

    return [
        _run("mod4-trace-invariance-90deg", cases, mod4_invariance),
        *(_run(f"unit-segment-length-{angle}deg", cases, lambda: unit_segments(angle))
          for angle in (120, 135, 60)),
        _run("vertex-count-law", 100, vertex_count_law),
    ]
