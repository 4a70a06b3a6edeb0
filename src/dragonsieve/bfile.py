"""OEIS b-file reading and writing.

One "<index> <value>" pair per line, 1-based, no header.  The writer is
bit-exact so fixtures can be byte-compared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, TextIO

# Terms formatted per write; bounds the text held at once to about 1 MB.
_CHUNK = 1 << 16


def format_b_file(terms: Sequence[int], start: int = 1) -> str:
    return "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=start))


def write_b_file(terms: Sequence[int], out: TextIO, start: int = 1) -> None:
    """Write the b-file text of ``terms`` to the open stream ``out``, a chunk at a time."""
    for i in range(0, len(terms), _CHUNK):
        out.write(format_b_file(terms[i : i + _CHUNK], start + i))


def parse_b_file(lines: Iterable[str]) -> list[int]:
    """Parse b-file lines into a term list, checking the index column."""
    terms: list[int] = []
    expected = None
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx_s, val_s = line.split()
            idx, val = int(idx_s), int(val_s)
        except ValueError:
            raise ValueError(f"b-file line {number}: expected '<index> <value>' "
                             f"as two integers, got {line!r}") from None
        if expected is not None and idx != expected:
            raise ValueError(f"b-file line {number}: non-consecutive index {idx}, "
                             f"expected {expected}")
        expected = idx + 1
        terms.append(val)
    return terms


def read_b_file(path: str | Path) -> list[int]:
    with open(path, encoding="ascii") as fh:
        return parse_b_file(fh)
