"""Division-free sieve: iterative prime discovery plus factorization reads.

Row p is a fractal sequence, with 1 + v_p(k) at column k*p, so placing p
takes only the first K terms of its DCI sequence, K being the number of
multiples of p up to the width m.  Rows are placed while p*p <= m; the
primes above sqrt(m) are the columns no row reaches, which the table lists
only when asked (`prime_headers`), in one pass by a `translate` and a
`compress`; a factorization never lists them.  The table is three flat
columns set by stepped slices: ``exp`` (the entry; 0 marks a column no row
reaches), ``top`` (the largest placed prime, below 2^16) and ``rest`` (k, a
link to column h/p, read down to 1, or to n's one prime factor above
sqrt(m), to factor).  The columns are the table's only record of its
primes: a placed prime p is the one column with ``top[p] == p``.  A row is
placed one window of 2^16 multipliers at a time, so that nothing but its
terms and the three columns grows with m: ``exp`` takes a translated slice
of the terms, ``top`` a slice of one fill of p, and ``rest`` the window's
multipliers, one array 0..2^16-1 held by the table, whose high 16-bit
halves are set to the window's index.  The one division is CPython's, to
find the length of a stepped slice or ``range``; nothing in this module
divides.  Full rows are never stored.  The module holds no text: `bfile`
writes the table.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from typing import Iterator

from .limits import BYTES_PER, require_memory
from .valuations import PLUS_ONE, ValuationSequence, generate_dci

_LINK = "I"  # typecode of ``rest``, which holds values up to m
MAX_WIDTH = (1 << 8 * array(_LINK).itemsize) - 1
# Typecode of ``top``, which holds placed primes: `run_sieve` places none above
# sqrt(MAX_WIDTH) < 2^16, and `place_row` refuses one above _MAX_PRIME.
_PRIME = "H"
_MAX_PRIME = (1 << 8 * array(_PRIME).itemsize) - 1
# Entry 0 (a column no row reaches) to 1, every other entry to 0.
_ZERO_TO_ONE = b"\x01" + bytes(255)
# Multipliers placed at a time: those of one window share their high 16 bits.
_WINDOW = 1 << 16
# Where a multiplier's bits 0-7, 8-15, 16-23 and 24-31 lie in its four bytes.
_BYTE = (0, 1, 2, 3) if sys.byteorder == "little" else (3, 2, 1, 0)


class SieveTable:
    """The sieve's table of width m, with a header per prime and rows placed up to sqrt(m).

    Immutable after `run_sieve`.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"table width must be at least 1, got {m}")
        if m > MAX_WIDTH:
            raise ValueError(f"table width {m} exceeds the column store's limit {MAX_WIDTH}")
        require_memory(f"a sieve table of width {m}", BYTES_PER["sieve column"] * m)
        self.m = m
        # The last placed row's prime, 1 before any.  Column p is its own row's
        # first multiple, and no larger row reaches it: top[p] == p marks p placed.
        self._last = 1
        # Where the columns above the last row start, all unreached ones
        # primes; m + 1, listing none, until `run_sieve` has placed every row.
        self._unreached = m + 1
        self._exp = bytearray(m + 1)
        self._top = array(_PRIME, [0]) * (m + 1)
        self._rest = array(_LINK, [0]) * (m + 1)
        # One window of multipliers, 0..2^16-1 or, if p = 2's row is shorter,
        # 0..K for its K (sized by a range, not m // 2).  The low halves are set
        # a byte plane at a time in an image of the window's bytes: an array of
        # a range makes an int per multiplier.
        width = min(_WINDOW, len(range(2, m + 1, 2)) + 1)
        runs = range(len(range(0, width, 256)))  # runs of 256 multipliers sharing bits 8-15
        image = bytearray(4 * width)
        image[_BYTE[0]::4] = (bytes(range(256)) * len(runs))[:width]
        image[_BYTE[1]::4] = b"".join(bytes((b,)) * 256 for b in runs)[:width]
        self._window = array(_LINK, image)

    @property
    def prime_headers(self) -> list[int]:
        """Every prime up to m: the placed rows' primes, then the unreached columns."""
        top = self._top
        return [*(p for p in range(2, self._last + 1) if top[p] == p), *self._unreached_primes()]

    def _unreached_primes(self) -> Iterator[int]:
        """The columns from ``_unreached`` on that no row reaches, in one pass."""
        start = self._unreached
        return compress(range(start, self.m + 1), self._exp[start:].translate(_ZERO_TO_ONE))

    def row(self, p: int) -> ValuationSequence:
        """Prime p's full row, generated by DCI; p must be a prime header."""
        if p < 2 or p > self.m or (self._top[p] != p if p < self._unreached else self._exp[p]):
            raise KeyError(f"no row for {p}")
        return generate_dci(p, self.m)

    def place_row(self, p: int, row: ValuationSequence) -> None:
        """Place prime p from its DCI sequence, of which the first K terms are read.

        Multipliers k = 1..K are placed one window of 2^16 at a time, window j
        holding k = j * 2^16 .. j * 2^16 + 2^16 - 1: column k * p takes term k
        plus one in ``exp``, p in ``top`` and k in ``rest``, each from a slice
        no longer than a window.  ``rest`` takes the table's one window array,
        whose low halves hold 0..2^16-1; the loop counts j and, when the array
        holds another window's, writes j into the high halves of an image of
        the array's bytes, copies that into the array through a memoryview
        cast and drops it.  The image is a bytearray: stepped writes through a
        memoryview of the array are slower.
        """
        count = len(range(p, self.m + 1, p))
        if row.p != p or not 0 < count <= row.m:  # count is 0 for a row with no column
            raise ValueError("row does not match table")
        if p > _MAX_PRIME:
            raise ValueError(f"row {p} is above {_MAX_PRIME}, the largest prime the store holds")
        if p <= self._last:
            raise ValueError(f"rows are placed in increasing order; {p} follows {self._last}")
        self._last = p
        exp, top, rest, terms = self._exp, self._top, self._rest, row.terms
        window = self._window
        width = len(window)
        fill = array(_PRIME, [p]) * min(width, count)
        k = 1  # the next multiplier to place
        for j, start in enumerate(range(0, count + 1, width)):
            if window[0] != start:
                image = bytearray(window)
                for offset, byte in zip(_BYTE[2:], j.to_bytes(2, "little")):
                    image[offset::4] = bytes((byte,)) * width
                memoryview(window).cast("B")[:] = image
                del image
            stop = min(start + width, count + 1)
            exp[k * p : stop * p : p] = terms[k - 1 : stop - 1].translate(PLUS_ONE)
            top[k * p : stop * p : p] = fill[: stop - k]
            rest[k * p : stop * p : p] = window[k - start : stop - start]
            k = stop

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


def read_factorization(table: SieveTable, n: int) -> tuple[tuple[int, int], ...]:
    """Factor n into (prime, exponent) pairs, primes ascending, () for 1.

    n's column's links give them largest prime first, then they are
    reversed.  A chain that ends at a column h > 1 no row reaches ends at
    n's one prime factor above sqrt(m), which comes first, with exponent 1.
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
    return tuple(reversed(factors))

