"""p-adic valuation sequences built by duplicate-concatenate-increment.

The generator in this module never divides: each sequence is a run of
bytes (every term is a valuation below 64) that grows by copying the run
plus a single increment per round, and a longer one is streamed
(`dci_chunks`), each chunk a cut of one template of block 1's repeats with
its block-final terms set from the stream one level up.  Its divisions are
CPython's, to find the length of a ``range``.  The division-based column
oracles (`valuations_by_division`, `odd_parts_by_division`,
`odd_parts_mod4_by_division` and `primes_by_trial_division`) are the
independent reference side used to cross-check the division-free
constructions, one oracle per quantity, so keep the two halves separate.
The module holds no text: `bfile` writes the terms.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, islice, repeat
from operator import and_, floordiv, mod, neg
from typing import Iterator

from .limits import BYTES_PER, require_memory

# bytes.translate table adding 1 to a term; terms stay far below 255.
PLUS_ONE = bytes(range(1, 256)) + b"\xff"
# Terms in a chunk of `dci_chunks` at most.
CHUNK_TERMS = 1 << 16


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
    """The valuation sequence for ``p``, ``m`` terms long: the join of `dci_chunks`.

    Checked from 2^16 terms: a shorter sequence needs under 256 KiB, a check
    on each sieve row added 0.1 s to a 0.6 s sieve of width 10^6, and the
    table's own check covers the rows.  A sequence of one chunk is that
    chunk, not a copy.
    """
    chunks = dci_chunks(p, m)
    if m >= CHUNK_TERMS:
        require_memory(f"a valuation sequence of {m} terms", BYTES_PER["valuation term"] * m)
    return ValuationSequence(p, m, b"".join(chunks))


def dci_chunks(p: int, m: int) -> Iterator[bytes]:
    """The first ``m`` terms of the valuation sequence for ``p``, as chunks of at most 2^16 terms.

    Up to 2^16 terms, one chunk by duplicate-concatenate-increment: start
    from <0>; each round appends p-1 copies of the current sequence
    end-to-end and increments the final term, while that final term lies
    within ``m``.  The first m terms of the next round are copies of the
    prefix, so the rest is filled by copying.

    Beyond, block 1 is B = p**k terms, p**k the largest power of p within
    2^16, made by those rounds, or, for p above 2^16, B = p terms, p-1
    zeros and a 1 (k = 1).  Term (j-1)*B + i is term i for i < B, and term
    j*B is k + v_p(j): each block of B terms is block 1 with its last term
    changed.  Every chunk is a cut of one template: block 1 repeated r
    times, r*B <= 2^16 < (r+1)*B, or 2^16 zeros when B is above 2^16.  A
    running offset, B-1 whenever B is within 2^16, gives the chunk's first
    block-final term, and one stepped-slice assignment sets all of them
    from this stream, one level up, of the len(range(0, m, B)) block
    numbers.  The divisions are CPython's, for the length of a ``range``.
    ``p`` and ``m`` are checked when this is called, before any term is
    made.
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if m < 1:
        raise ValueError(f"length must be at least 1, got {m}")
    return _dci_chunks(p, m)


def _dci_chunks(p: int, m: int) -> Iterator[bytes]:
    """`dci_chunks` once ``p`` and ``m`` are checked; each level up calls it again."""
    block = bytearray(1)
    while len(block) * p <= min(m, CHUNK_TERMS):
        block *= p  # p-1 copies appended end-to-end
        block[-1] += 1
    if m <= CHUNK_TERMS:
        while len(block) < m:
            block += block[: m - len(block)]
        yield bytes(block)
        return
    # Block 1: size = p**k terms from the rounds, or for p above 2^16 p-1 zeros and a 1.
    size, k = (len(block), block[-1]) if len(block) > 1 else (p, 1)
    plus_k = bytes(range(k, 256)) + b"\xff" * k  # bytes.translate table adding k to a term
    r = 0  # repeats of block 1 in a chunk: none when it is longer than a chunk
    while (r + 1) * size <= CHUNK_TERMS:
        r += 1
    template = bytes(block) * r or bytes(CHUNK_TERMS)
    del block  # the template holds block 1
    finals = chain.from_iterable(
        tops.translate(plus_k) for tops in _dci_chunks(p, len(range(0, m, size))))
    final = size - 1  # the index, from the next chunk's first term, of the next block-final term
    left = m  # terms not yet yielded
    while left > 0:
        chunk = bytearray(template[:left])
        count = len(range(final, len(chunk), size))
        chunk[final::size] = bytes(islice(finals, count))
        final += size * count - len(chunk)
        left -= len(chunk)
        yield bytes(chunk)


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
