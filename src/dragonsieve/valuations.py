"""p-adic valuation sequences built by duplicate-concatenate-increment.

The generator in this module never divides: each sequence is a run of
bytes (every term is a valuation below 64) that grows by copying the run
plus a single increment per round.  The division-based column oracles
(`valuations_by_division`, `odd_parts_by_division`,
`odd_parts_mod4_by_division` and `primes_by_trial_division`) are the
independent reference side used to cross-check the division-free
constructions, one oracle per quantity, so keep the two halves separate.
The module holds no text: `bfile` writes the terms.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import and_, floordiv, mod, neg
from typing import Iterator

from .limits import BYTES_PER, require_memory

# bytes.translate table adding 1 to a term; terms stay far below 255.
PLUS_ONE = bytes(range(1, 256)) + b"\xff"


class ValuationSequence:
    """The 1-indexed prefix of length ``m`` of the valuation sequence for base ``p``.

    A plain ``__slots__`` class, not a named tuple, which cannot have the
    ``_full`` field.  It has no field-wise ``==``: compare ``terms``.
    """

    __slots__ = ("p", "m", "_full")

    def __init__(self, p: int, m: int, _full: bytes) -> None:
        if p < 2:
            raise ValueError(f"base must be at least 2, got {p}")
        if m < 1:
            raise ValueError(f"length must be at least 1, got {m}")
        if len(_full) != m:
            raise ValueError(f"{len(_full)} terms given for length {m}")
        self.p, self.m, self._full = p, m, _full

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
    # Checked from 2^16 terms: a shorter sequence needs under 256 KiB, a check on
    # each sieve row added 0.1 s to a 0.6 s sieve of width 10^6, and the table's
    # own check covers the rows.
    if m >= 1 << 16:
        require_memory(f"a valuation sequence of {m} terms", BYTES_PER["valuation term"] * m)
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
