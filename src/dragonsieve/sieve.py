"""Division-free sieve: iterative prime discovery plus factorization reads.

Row p is a fractal sequence, with 1 + v_p(k) at column k*p, so placing p
takes only the first K terms of its DCI sequence, K being the number of
multiples of p up to the width m (all zero when p*p > m).  The table is three
flat columns set by stepped slices: ``exp`` (the entry; 0 marks a column no
row reaches), ``top`` (the prime, the largest so far, as primes come in
order) and ``rest`` (k, a link to column h/p, read down to 1 to factor).
Each row's terms go in as bytes: ``exp`` takes a translated slice of them
and ``rest`` a slice of one multiplier array 0..K built with the table.
The one division is CPython's, to find the length of a stepped slice or
``range``; nothing in this module divides.  Full rows are never stored.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import starmap
from typing import BinaryIO

from .limits import require_memory
from .valuations import PLUS_ONE, TERM_DIGIT, TERM_TEXT, ValuationSequence, generate_dci

_LINK = "I"  # typecode of ``top`` and ``rest``, which hold values up to m
_MAX_WIDTH = (1 << 8 * array(_LINK).itemsize) - 1
# Peak RSS growth per column of run_sieve, measured 13.5 at m = 10^6 and 10^7:
# the store (9), the multipliers (2), row 2 as bytes with its translated copy
# (about 1.5) and the primes, 4 bytes each (about 0.3).
_BYTES_PER_COLUMN = 14


@dataclass(frozen=True)
class Factorization:
    """Ordered (prime, exponent) pairs read out of one table column."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return math.prod(starmap(pow, self.factors))


class SieveTable:
    """The sieve's table of width m, one row per discovered prime; immutable after `run_sieve`."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"table width must be at least 1, got {m}")
        if m > _MAX_WIDTH:
            raise ValueError(f"table width {m} exceeds the column store's limit {_MAX_WIDTH}")
        require_memory(f"a sieve table of width {m}", _BYTES_PER_COLUMN * m)
        self.m = m
        self._primes = array(_LINK)
        self._exp = bytearray(m + 1)
        self._top = array(_LINK, [0]) * (m + 1)
        self._rest = array(_LINK, [0]) * (m + 1)
        # Multipliers 0..K for the largest K, p = 2's; sized by a range, not m // 2.
        self._ks = array(_LINK, range(len(range(2, m + 1, 2)) + 1))

    @property
    def prime_headers(self) -> list[int]:
        return list(self._primes)

    def row(self, p: int) -> ValuationSequence:
        if not 2 <= p <= self.m or self._top[p] != p:
            raise KeyError(f"no row for {p}")
        return generate_dci(p, self.m)

    def place_row(self, p: int, row: ValuationSequence) -> None:
        """Place prime p from its DCI sequence, of which the first K terms are read."""
        count = len(range(p, self.m + 1, p))
        if row.p != p or row.m < count:
            raise ValueError("row does not match table")
        if self._primes and p <= self._primes[-1]:
            raise ValueError(f"rows are placed in increasing order; {p} follows {self._primes[-1]}")
        self._primes.append(p)
        self._exp[p::p] = row._full[:count].translate(PLUS_ONE)
        self._top[p::p] = array(_LINK, [p]) * count
        self._rest[p::p] = self._ks[1 : count + 1]

    def place_unit_row(self, p: int) -> None:
        """Same as `place_row` with the generated row; kept for callers of its old name."""
        self.place_row(p, generate_dci(p, len(range(p, self.m + 1, p))))


def run_sieve(m: int) -> SieveTable:
    """Run the sieve to width m: the next column above 1 that no row reaches is the next prime.

    Columns never unmark, so each scan starts just past the last prime.
    """
    table = SieveTable(m)
    p = table._exp.find(0, 2)
    while p > 0:
        table.place_row(p, generate_dci(p, len(range(p, m + 1, p))))
        p = table._exp.find(0, p + 1)
    return table


def read_factorization(table: SieveTable, n: int) -> Factorization:
    """Factor n by following its column's links: largest prime first, then reversed."""
    if n < 1 or n > table.m:
        raise ValueError(f"n must be within 1..{table.m}, got {n}")
    exp, top, rest = table._exp, table._top, table._rest
    factors = []
    h = n
    while e := exp[h]:
        p = top[h]
        factors.append((p, e))
        h = rest[h]
        while top[h] == p:  # strip the remaining powers of p
            h = rest[h]
    return Factorization(n, tuple(reversed(factors)))


def write_table(table: SieveTable, out: BinaryIO) -> None:
    """Write the table as tab-separated ASCII to the binary stream ``out``.

    The header row, the columns 1..m, is written 1000 columns at a time;
    then one row per prime, its header first.  A row whose terms are all
    below 10 is set into a reused buffer of tabs, a digit in every second
    byte by a `TERM_DIGIT` translation; a row with a larger term leaves a 0
    there, and is joined from each term's text.
    """
    m = table.m
    for j in range(1, m + 1, 1000):
        out.write(("\t" + "\t".join(map(str, range(j, min(j + 1000, m + 1))))).encode("ascii"))
    out.write(b"\n")
    cells = bytearray(b"\t" * (2 * m) + b"\n")
    for p in table._primes:
        row = table.row(p)
        digits = row._full.translate(TERM_DIGIT)
        out.write(str(p).encode("ascii"))
        if 0 not in digits:
            cells[1::2] = digits
            out.write(cells)
        else:
            out.write(("\t" + "\t".join(map(TERM_TEXT.__getitem__, row._full)) + "\n").encode("ascii"))
