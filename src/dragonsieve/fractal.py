"""Fractal-structure constructions for valuation sequences.

Decimation keeps every (p+1)-th term; a valuation sequence survives that
selection unchanged.  ``verify`` certifies a prefix of length m as fractal
by that and by aperiodicity: every period q with p**(a+1) + q <= m, where
a = v_p(q), is disproved at the closed-form witness p**(a+1), so no search
and no bound on q is needed.  The odd-part reconstruction lives here too.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .limits import BYTES_PER, require_memory


def decimate_terms(terms: Sequence[int], p: int) -> Sequence[int]:
    """Keep the terms at 1-based indexes f*(p+1): a slice, so bytes give bytes."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    return terms[p :: p + 1]


def reconstruct_odd_part(max_index: int) -> array:
    """Rebuild the odd-part sequence by placing odd o at every index o * 2**j.

    The index families over j partition the positive integers, so each slot
    is written exactly once, by one stepped-slice assignment per level j.
    Returns an array('I'), 4 bytes a term, whose element at position n-1 is
    the odd part of n.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be positive, got {max_index}")
    require_memory(f"an odd-part sequence of {max_index} terms",
                   BYTES_PER["odd-part term"] * max_index)
    out = array("I", [0]) * max_index
    step = 1  # 2**j
    while step <= max_index:
        count = len(range(step, max_index + 1, 2 * step))
        out[step - 1 :: 2 * step] = array("I", range(1, 2 * count, 2))
        step *= 2
    return out
