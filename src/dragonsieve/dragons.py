"""Turn sequences for the Levy and Heighway dragon curves.

Both sequences are produced by pure insertion rounds, each round one
stepped-slice assignment on a run of byte terms (a turn count stays below
255 at any iteration count that fits in memory).  ``verify`` checks
them against the division-based side: the Levy turns equal v2 at multiples
of 8, the Heighway turns equal the odd part of n mod 4.
"""

from __future__ import annotations

from typing import NamedTuple

from .limits import BYTES_PER, require_memory
from .valuations import PLUS_ONE


class TurnSequence(NamedTuple):
    """The turns along a dragon curve, one byte term each."""

    terms: bytes


def levy_turns(iterations: int) -> TurnSequence:
    """Counts of CCW quarter turns along the Levy dragon, 2**(j+1) - 1 terms.

    Apply {increment all; insert 3 between each pair; add boundary 3s} j
    times to <3>.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    # The shift count caps at 64, here and in `heighway_turns`: past any memory.
    require_memory(f"a Levy dragon of {iterations} iterations",
                   BYTES_PER["dragon term"] << min(iterations + 1, 64))
    seq = b"\x03"
    for _ in range(iterations):
        out = bytearray(b"\x03") * (2 * len(seq) + 1)
        out[1::2] = seq.translate(PLUS_ONE)
        seq = out
    return TurnSequence(bytes(seq))


def heighway_turns(iterations: int) -> TurnSequence:
    """Heighway dragon turns over {1, 3}, 2**j - 1 terms.

    Run the fold-insertion rounds from <0, 0>, then strip the boundary 0s.
    Each round inserts between adjacent terms a 1 when the pair's first term
    sat at an odd 1-based index at round start (leading 0 counted as index
    1), else a 3.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    require_memory(f"a Heighway dragon of {iterations} iterations",
                   BYTES_PER["dragon term"] << min(iterations, 64))
    seq = bytes(2)
    for _ in range(iterations):
        n = len(seq)
        out = bytearray(2 * n - 1)
        out[0::2] = seq
        out[1::2] = (b"\x01\x03" * n)[: n - 1]  # 1 after odd indexes 1, 3, ...; 3 after even
        seq = out
    return TurnSequence(bytes(memoryview(seq)[1:-1]))
