"""Fractal-structure machinery for valuation sequences.

Decimation keeps every (p+1)-th term; a valuation sequence survives that
selection unchanged, which together with per-period aperiodicity witnesses
is what certifies the sequence as fractal.  The odd-part index families and
reconstruction live here too.
"""

from __future__ import annotations

from typing import Sequence

from .reports import CheckReport, Failure


def decimate_terms(terms: Sequence[int], p: int) -> list[int]:
    """Keep the terms at 1-based indexes f*(p+1); empty when too short."""
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    step = p + 1
    return [terms[i] for i in range(step - 1, len(terms), step)]


def check_self_containment(terms: Sequence[int], p: int, count: int) -> CheckReport:
    """Compare the first ``count`` decimated terms against the originals.

    Accepts any term list, so non-valuation negative controls are testable.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    selected = decimate_terms(terms, p)
    if len(selected) < count:
        raise ValueError(
            f"only {len(selected)} terms survive decimation, need {count}"
        )
    failures = [
        Failure(i, terms[i - 1], selected[i - 1])
        for i in range(1, count + 1)
        if selected[i - 1] != terms[i - 1]
    ]
    return CheckReport("self-containment", count, failures)


def aperiodicity_witness(terms: Sequence[int], q: int) -> int | None:
    """Smallest 1-based i with term[i] != term[i+q], or None if the prefix is q-periodic."""
    if not 1 <= q < len(terms):
        raise ValueError(f"period must be within 1..{len(terms) - 1}, got {q}")
    for i in range(len(terms) - q):
        if terms[i] != terms[i + q]:
            return i + 1
    return None


def odd_part_decimation_indexes(j: int, count: int) -> list[int]:
    """First ``count`` indexes of the form o * 2**j with o odd, ascending."""
    if j < 0:
        raise ValueError(f"level must be non-negative, got {j}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return [(2 * k - 1) << j for k in range(1, count + 1)]


def reconstruct_odd_part(max_index: int) -> list[int]:
    """Rebuild the odd-part sequence by placing odd o at every index o * 2**j.

    The index families over j partition the positive integers, so each slot
    is written exactly once.  Returns a list whose element at position n-1
    is the odd part of n.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be positive, got {max_index}")
    out = [0] * (max_index + 1)
    step = 1  # 2**j
    while step <= max_index:
        o = 1
        for idx in range(step, max_index + 1, 2 * step):
            out[idx] = o
            o += 2
        step *= 2
    return out[1:]
