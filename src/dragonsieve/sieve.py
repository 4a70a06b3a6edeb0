"""Division-free sieve: iterative prime discovery plus factorization reads.

Row p is a fractal sequence, with 1 + v_p(k) at column k*p, so placing p
takes only the first K terms of its DCI sequence, K being the number of
multiples of p up to the width m.  Rows are placed while p*p <= m; the
primes above sqrt(m) are the columns no row reaches, which the table lists
only when asked (`prime_headers`, `write_table`), in one pass by a
`translate` and a `compress`; a factorization never lists them.  The table
is three flat columns set by stepped slices: ``exp`` (the entry; 0 marks a
column no row reaches), ``top`` (the largest placed prime, below 2^16) and
``rest`` (k, a link to column h/p, read down to 1, or to n's one prime
factor above sqrt(m), to factor).  Each row's terms go in as bytes:
``exp`` takes a translated slice of them and ``rest`` a slice of one
multiplier array 0..K built with the table.  The one division is
CPython's, to find the length of a stepped slice or ``range``; nothing in
this module divides.  Full rows are never stored.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, starmap
from typing import BinaryIO, Iterator

from .bfile import _set_cells
from .limits import require_memory
from .valuations import PLUS_ONE, ValuationSequence, generate_dci

_LINK = "I"  # typecode of ``rest``, which holds values up to m
_MAX_WIDTH = (1 << 8 * array(_LINK).itemsize) - 1
# Typecode of ``top``, which holds placed primes: `run_sieve` places none above
# sqrt(_MAX_WIDTH) < 2^16, and `place_row` refuses one above _MAX_PRIME.
_PRIME = "H"
_MAX_PRIME = (1 << 8 * array(_PRIME).itemsize) - 1
# Peak RSS growth per column of run_sieve, measured 11.5-11.6 at m = 10^6 and
# 10^7: the store (7), the multipliers (2), row 2 as bytes with its translated
# copy (about 1.5) and its ``top`` entries (1).  Listing the primes above
# sqrt(m) is the caller's: `prime_headers` adds 36 bytes a prime (about 2).
_BYTES_PER_COLUMN = 12
# Entry 0 (a column no row reaches) to 1, every other entry to 0.
_ZERO_TO_ONE = b"\x01" + bytes(255)


@dataclass(frozen=True)
class Factorization:
    """Ordered (prime, exponent) pairs read out of one table column."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        return math.prod(starmap(pow, self.factors))


class SieveTable:
    """The sieve's table of width m, with a header per prime and rows placed up to sqrt(m).

    Immutable after `run_sieve`.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"table width must be at least 1, got {m}")
        if m > _MAX_WIDTH:
            raise ValueError(f"table width {m} exceeds the column store's limit {_MAX_WIDTH}")
        require_memory(f"a sieve table of width {m}", _BYTES_PER_COLUMN * m)
        self.m = m
        self._primes = array(_LINK)  # the placed rows' primes
        # Where the columns above the last row start, all unreached ones
        # primes; m + 1, listing none, until `run_sieve` has placed every row.
        self._unreached = m + 1
        self._exp = bytearray(m + 1)
        self._top = array(_PRIME, [0]) * (m + 1)
        self._rest = array(_LINK, [0]) * (m + 1)
        # Multipliers 0..K for the largest K, p = 2's; sized by a range, not m // 2.
        self._ks = array(_LINK, range(len(range(2, m + 1, 2)) + 1))

    @property
    def prime_headers(self) -> list[int]:
        """Every prime up to m: the placed rows' primes, then the unreached columns."""
        return [*self._primes, *self._unreached_primes()]

    def _unreached_primes(self) -> Iterator[int]:
        """The columns from ``_unreached`` on that no row reaches, in one pass."""
        start = self._unreached
        return compress(range(start, self.m + 1), self._exp[start:].translate(_ZERO_TO_ONE))

    def row(self, p: int) -> ValuationSequence:
        """Prime p's full row, generated by DCI; p must be a prime header."""
        if self._unreached <= p <= self.m:
            found = self._exp[p] == 0
        else:
            i = bisect_left(self._primes, p)
            found = i < len(self._primes) and self._primes[i] == p
        if not found:
            raise KeyError(f"no row for {p}")
        return generate_dci(p, self.m)

    def place_row(self, p: int, row: ValuationSequence) -> None:
        """Place prime p from its DCI sequence, of which the first K terms are read."""
        count = len(range(p, self.m + 1, p))
        if row.p != p or row.m < count:
            raise ValueError("row does not match table")
        if p > _MAX_PRIME:
            raise ValueError(f"row {p} is above {_MAX_PRIME}, the largest prime the store holds")
        if self._primes and p <= self._primes[-1]:
            raise ValueError(f"rows are placed in increasing order; {p} follows {self._primes[-1]}")
        self._primes.append(p)
        self._exp[p::p] = row._full[:count].translate(PLUS_ONE)
        self._top[p::p] = array(_PRIME, [p]) * count
        self._rest[p::p] = self._ks[1 : count + 1]

    def place_unit_row(self, p: int) -> None:
        """Same as `place_row` with the generated row.

        Nothing in the library calls it; `perfbench/tracer.py` still wraps it by name.
        """
        self.place_row(p, generate_dci(p, len(range(p, self.m + 1, p))))


def run_sieve(m: int) -> SieveTable:
    """Run the sieve to width m: the next column above 1 that no row reaches is the next prime.

    Columns never unmark, so each scan starts just past the last prime.  A row
    with p*p > m would hold only zero terms, each of its k being below p, and
    mark no column but p, so from the first such p every column no row
    reaches is a prime; the table records where they start and lists them
    only when asked.
    """
    table = SieveTable(m)
    exp = table._exp
    p = exp.find(0, 2)
    while 0 < p and p * p <= m:
        table.place_row(p, generate_dci(p, len(range(p, m + 1, p))))
        p = exp.find(0, p + 1)
    if p > 0:
        table._unreached = p
    return table


def read_factorization(table: SieveTable, n: int) -> Factorization:
    """Factor n by following its column's links: largest prime first, then reversed.

    A chain that ends at a column h > 1 no row reaches ends at n's one prime
    factor above sqrt(m), which comes first, with exponent 1.
    """
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
    if h > 1:
        factors.insert(0, (h, 1))
    return Factorization(n, tuple(reversed(factors)))


def write_table(table: SieveTable, out: BinaryIO) -> None:
    """Write the table as tab-separated ASCII to the binary stream ``out``.

    The header row, the columns 1..m, is written 1000 columns at a time;
    then one row per prime, its header first, its terms set into every
    second byte of one reused buffer of tabs by `bfile._set_cells`.
    """
    m = table.m
    for j in range(1, m + 1, 1000):
        out.write(("\t" + "\t".join(map(str, range(j, min(j + 1000, m + 1))))).encode("ascii"))
    out.write(b"\n")
    cells = bytearray(b"\t" * (2 * m) + b"\n")
    for p in chain(table._primes, table._unreached_primes()):
        out.write(str(p).encode("ascii"))
        out.write(_set_cells(cells, table.row(p)._full, 2, 1))
