"""p-adic valuation sequences built by duplicate-concatenate-increment.

The generator in this module never divides: each sequence is a run of
bytes (every term is a valuation below 64) that grows by copying the run
plus a single increment per round.  The division-based column oracles
(`valuations_by_division`, `odd_parts_by_division`,
`odd_parts_mod4_by_division` and `primes_by_trial_division`) are the
independent reference side used to cross-check the division-free
constructions, one oracle per quantity, so keep the two halves separate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import and_, floordiv, mod, neg
from typing import Iterator

from .limits import require_memory

# bytes.translate table adding 1 to a term; terms stay far below 255.
PLUS_ONE = bytes(range(1, 256)) + b"\xff"
# The decimal text of each byte term, for writing terms through ``map``.
TERM_TEXT = [str(t) for t in range(256)]
# bytes.translate table from a byte term to its one-digit text: terms 0..9 to
# b"0".."9", and every larger term to the placeholder 0, which is no digit.
TERM_DIGIT = b"0123456789" + bytes(246)


@dataclass(frozen=True)
class ValuationSequence:
    """The 1-indexed prefix of length ``m`` of the valuation sequence for base ``p``."""

    p: int
    m: int
    _full: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"base must be at least 2, got {self.p}")
        if self.m < 1:
            raise ValueError(f"length must be at least 1, got {self.m}")
        if len(self._full) != self.m:
            raise ValueError(f"{len(self._full)} terms given for length {self.m}")

    @property
    def terms(self) -> bytes:
        """The ``m`` terms as they are held, one byte each, without a copy."""
        return self._full


def generate_dci(p: int, m: int) -> ValuationSequence:
    """Build the valuation sequence for ``p`` by duplicate-concatenate-increment.

    Start from <0>; each round appends p-1 copies of the current sequence
    end-to-end and increments the final term, while that final term lies
    within ``m``.  The first m terms of the next round are copies of the
    prefix, so the rest is filled by copying.  No division or modulo anywhere.
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if m < 1:
        raise ValueError(f"length must be at least 1, got {m}")
    # 3 bytes a term of peak RSS growth (`seq --p 2`: 2.6 at 10^6 terms), checked
    # from 2^16 terms: a shorter sequence needs under 192 KiB, a check on each
    # sieve row added 0.1 s to a 0.6 s sieve of width 10^6, and the table's own
    # check covers the rows.
    if m >= 1 << 16:
        require_memory(f"a valuation sequence of {m} terms", 3 * m)
    seq = bytearray(1)
    while len(seq) * p <= m:
        seq *= p  # p-1 copies appended end-to-end
        seq[-1] += 1
    while len(seq) < m:
        seq += seq[: m - len(seq)]
    return ValuationSequence(p, m, bytes(seq))


def valuations_by_division(p: int, n: int) -> bytes:
    """v_p(1), ..., v_p(n) as bytes, by v_p(i) = 1 + v_p(i // p) over the multiples of p.

    v_p(i) is the largest k with p**k dividing i.  One division per multiple
    of p, so a column of 10^6 terms is cheap enough to check in full.
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    v = bytearray(n + 1)
    for i in range(p, n + 1, p):
        v[i] = 1 + v[i // p]
    del v[0]  # index 0 held no term; deleting the head does not move the rest
    return bytes(v)


def _odd_parts(n: int) -> Iterator[int]:
    """i // (i & -i) for i in 1..n, as nested C-level maps: no Python frame per i."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    r = range(1, n + 1)
    return map(floordiv, r, map(and_, r, map(neg, r)))


def odd_parts_by_division(n: int) -> array:
    """The odd parts of 1, ..., n as array('I').

    The odd part of i is the odd o with i = 2**k * o; 2**k is i & -i.
    """
    return array("I", _odd_parts(n))


def odd_parts_mod4_by_division(n: int) -> bytes:
    """The odd parts of 1, ..., n mod 4 as bytes: each is 1 or 3.

    Reduced straight from the map, so no column of odd parts is held.
    """
    return bytes(map(mod, _odd_parts(n), repeat(4)))


def primes_by_trial_division(limit: int) -> list[int]:
    """All primes <= limit, by trial division against earlier primes."""
    primes: list[int] = []
    for n in range(2, limit + 1):
        r = math.isqrt(n)
        is_prime = True
        for q in primes:
            if q > r:
                break
            if n % q == 0:
                is_prime = False
                break
        if is_prime:
            primes.append(n)
    return primes
