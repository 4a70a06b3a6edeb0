"""Turn sequences for the Levy and Heighway dragon curves.

Both sequences are produced by pure insertion rounds.  ``verify`` checks
them against the division-based side: the Levy turns equal v2 at multiples
of 8, the Heighway turns equal the odd part of n mod 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .limits import require_memory

# Peak bytes per term (two lists and a tuple); shift counts cap at 64, past any memory.
_BYTES_PER_TERM = 24


@dataclass(frozen=True)
class LevyTurnSequence:
    """Counts of CCW quarter turns along the Levy dragon, 2**(j+1) - 1 terms."""

    iterations: int
    terms: tuple[int, ...]


@dataclass(frozen=True)
class HeighwayTurnSequence:
    """Heighway dragon turns over {1, 3}, 2**j - 1 terms (endpoint 0s stripped)."""

    iterations: int
    terms: tuple[int, ...]


def levy_turns(iterations: int) -> LevyTurnSequence:
    """Apply {increment all; insert 3 between each pair; add boundary 3s} j times to <3>."""
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    require_memory(f"a Levy dragon of {iterations} iterations",
                   _BYTES_PER_TERM << min(iterations + 1, 64))
    seq = [3]
    for _ in range(iterations):
        out = [3]
        for t in seq:
            out.append(t + 1)
            out.append(3)
        seq = out
    return LevyTurnSequence(iterations, tuple(seq))


def heighway_turns(iterations: int) -> HeighwayTurnSequence:
    """Run the fold-insertion rounds from <0, 0>, then strip the boundary 0s.

    Each round inserts between adjacent terms a 1 when the pair's first term
    sat at an odd 1-based index at round start (leading 0 counted as index
    1), else a 3.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    require_memory(f"a Heighway dragon of {iterations} iterations",
                   _BYTES_PER_TERM << min(iterations, 64))
    seq = [0, 0]
    for _ in range(iterations):
        out = [seq[0]]
        for i in range(1, len(seq)):
            out.append(1 if i % 2 == 1 else 3)  # i is the first term's 1-based index
            out.append(seq[i])
        seq = out
    return HeighwayTurnSequence(iterations, tuple(seq[1:-1]))
