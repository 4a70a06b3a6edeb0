"""p-adic valuation sequences built by duplicate-concatenate-increment.

The generator in this module never divides: each sequence is a run of
bytes (every term is a valuation below 64) that grows by copying the run
plus a single increment per round, and a longer one is streamed, a chunk
of such copies at a time (`dci_chunks`).  The division-based column oracles
(`valuations_by_division`, `odd_parts_by_division`,
`odd_parts_mod4_by_division` and `primes_by_trial_division`) are the
independent reference side used to cross-check the division-free
constructions, one oracle per quantity, so keep the two halves separate.
The module holds no text: `bfile` writes the terms.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat
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

    Beyond, let B = p**k be the largest power of p within 2^16, made by
    those rounds.  Term (j-1)*B + i is term i for i < B, and term j*B is
    k + v_p(j): each block of B terms is block 1 with its last term
    changed.  A chunk is block 1 repeated r times, r*B <= 2^16, with its r
    block-final terms set by one stepped-slice assignment from this stream,
    one level up, of the len(range(0, m, B)) block numbers, the one division
    (CPython's).  For p above 2^16, B is p: each block is p-1 zeros and its
    final term, sent in chunks of 2^16 terms.  ``p`` and ``m`` are checked
    when this is called, before any term is made.
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
    left = m  # terms not yet yielded
    if len(block) == 1:  # p above 2^16: one chunk holds at most one block-final term
        zeros = bytes(CHUNK_TERMS)
        finals = chain.from_iterable(
            tops.translate(PLUS_ONE) for tops in _dci_chunks(p, len(range(0, m, p))))
        final = p - 1  # the index, from the next chunk's first term, of the next final term
        while left > 0:
            if final < min(left, CHUNK_TERMS):
                chunk = bytearray(zeros[:left])
                chunk[final] = next(finals)
                yield bytes(chunk)
                final += p
            else:
                yield zeros[:left]
            left -= CHUNK_TERMS
            final -= CHUNK_TERMS
        return
    size, k = len(block), block[-1]
    plus_k = bytes(range(k, 256)) + b"\xff" * k  # bytes.translate table adding k to a term
    r = 1
    while (r + 1) * size <= CHUNK_TERMS:
        r += 1
    template = bytes(block) * r
    del block  # the template holds block 1
    for tops in _dci_chunks(p, len(range(0, m, size))):
        tops = tops.translate(plus_k)
        for i in range(0, len(tops), r):
            finals = tops[i : i + r]
            chunk = bytearray(template[: len(finals) * size])
            chunk[size - 1 :: size] = finals
            left -= len(chunk)
            if left < 0:  # the last block, cut at m
                del chunk[left:]
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
