"""Division-free sieve: iterative prime discovery plus factorization reads.

Candidate scanning keeps a per-column "marked" bit so the next-candidate
check is O(1); the literal scan-the-whole-column behaviour is preserved as a
slow debug mode (``literal=True``) for fidelity testing.  Row sequences for
large primes are regenerated on demand rather than stored, since a dense
table of every row would not fit in memory at useful widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .valuations import ValuationSequence, generate_dci


@dataclass(frozen=True)
class Factorization:
    """Ordered (prime, exponent) pairs read out of one table column."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return math.prod(p**e for p, e in self.factors)


class SieveTable:
    """The sieve's table: one valuation row per discovered prime, width m.

    Mutable while the sieve runs; treat as immutable once `run_sieve`
    returns.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"table width must be at least 1, got {m}")
        self.m = m
        self._primes: list[int] = []
        # Column h is "marked" once some placed row holds a positive entry there.
        self._marked = bytearray(m + 1)
        # Positive entries per column, in row (discovery) order.
        self._columns: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
        self._scan_from = 2
        self._row_cache: dict[int, ValuationSequence] = {}

    @property
    def prime_headers(self) -> list[int]:
        return list(self._primes)

    def row(self, p: int) -> ValuationSequence:
        if p not in self._primes:
            raise KeyError(f"no row for {p}")
        cached = self._row_cache.get(p)
        if cached is not None:
            return cached
        return generate_dci(p, self.m)

    def rows(self) -> Iterator[tuple[int, ValuationSequence]]:
        for p in self._primes:
            yield p, self.row(p)

    def place_row(self, p: int, row: ValuationSequence) -> None:
        if row.p != p or row.m < self.m:
            raise ValueError("row does not match table")
        self._primes.append(p)
        # Small-prime rows are consulted again by later column reads; rows for
        # p*p > m carry exponent 1 everywhere positive and are cheap to redo.
        if p * p <= self.m:
            self._row_cache[p] = row
        for h in range(p, self.m + 1, p):
            self._columns[h].append((p, row.term(h)))
            self._marked[h] = 1

    def place_unit_row(self, p: int) -> None:
        """Place the row for a prime with p*p > m without materializing it.

        One duplication round already covers the table width, so every
        positive entry in such a row is 1; the full sequence is assembled
        lazily by `row` when actually read.
        """
        if p * p <= self.m:
            raise ValueError(f"{p}**2 fits the table; place the generated row")
        self._primes.append(p)
        for h in range(p, self.m + 1, p):
            self._columns[h].append((p, 1))
            self._marked[h] = 1


def next_candidate(table: SieveTable, *, literal: bool = False) -> int | None:
    """Smallest header > 1 whose column below is all zeros, or None if exhausted."""
    if literal:
        rows = list(table.rows())
        for h in range(2, table.m + 1):
            if all(row.term(h) == 0 for _, row in rows):
                return h
        return None
    h = table._scan_from
    while h <= table.m and table._marked[h]:
        h += 1
    table._scan_from = h  # columns never unmark, so the scan is monotone
    return h if h <= table.m else None


def run_sieve(m: int, *, literal: bool = False) -> SieveTable:
    """Run the sieve to width m: discover primes left to right, place rows."""
    table = SieveTable(m)
    while (p := next_candidate(table, literal=literal)) is not None:
        if p * p <= m or literal:
            table.place_row(p, generate_dci(p, m))
        else:
            table.place_unit_row(p)
    return table


def read_factorization(table: SieveTable, n: int) -> Factorization:
    """Factor n by reading its column: rows with a positive entry, paired with it."""
    if n < 1 or n > table.m:
        raise ValueError(f"n must be within 1..{table.m}, got {n}")
    return Factorization(n, tuple(table._columns[n]))


def format_table(table: SieveTable) -> str:
    """The table as tab-separated text: header row, then one row per prime."""
    lines = ["\t" + "\t".join(str(n) for n in range(1, table.m + 1))]
    for p, row in table.rows():
        lines.append(f"{p}\t" + "\t".join(str(t) for t in row.terms))
    return "\n".join(lines) + "\n"
