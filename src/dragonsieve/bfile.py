"""OEIS b-file reading and writing.

One "<index> <value>" pair per line, 1-based, no header.  The writer is
bit-exact so fixtures can be byte-compared.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO

# Terms formatted per write; bounds the text held at once to about 1 MB.
_CHUNK = 1 << 16
_SUFFIXES = [f"{i:03d} " for i in range(1000)]  # the last three digits of an index
_BYTE_CELLS = [f"{t}\n" for t in range(256)]  # the value column of each byte term


def format_b_file(terms: Sequence[int], start: int = 1) -> str:
    """The b-file text of ``terms``, the first at index ``start``.

    Each line is three strings: a prefix, a suffix and the value's cell.
    In a block of indexes 1000k..1000k+999 the prefix is str(k), shared by
    the block, and the suffix comes from a table.  Indexes below 1000, and
    those before the first block, have the whole index as prefix and no
    suffix.  The columns are slice-assigned into one list, joined once.
    """
    n = len(terms)
    parts = [""] * (3 * n)
    if isinstance(terms, (bytes, bytearray)):
        parts[2::3] = map(_BYTE_CELLS.__getitem__, terms)
    else:
        parts[2::3] = [f"{t}\n" for t in terms]
    head = min(n, max(-(-start // 1000), 1) * 1000 - start)
    parts[0 : 3 * head : 3] = map("{} ".format, range(start, start + head))
    for j in range(head, n, 1000):
        k = min(1000, n - j)
        parts[3 * j : 3 * (j + k) : 3] = [str((start + j) // 1000)] * k
        parts[3 * j + 1 : 3 * (j + k) : 3] = _SUFFIXES[:k]
    return "".join(parts)


def write_b_file(terms: Sequence[int], out: TextIO) -> None:
    """Write the b-file text of ``terms``, from index 1, to the stream ``out`` a chunk at a time."""
    for i in range(0, len(terms), _CHUNK):
        out.write(format_b_file(terms[i : i + _CHUNK], 1 + i))


def parse_b_file(lines: Iterable[str], first: int | None = None) -> bytes | list[int]:
    """Parse b-file lines into terms, checking the index column.

    Blank lines and lines starting with ``#`` are skipped.  A line is first
    read as two integers, and only a line that is not is stripped and looked
    at again, so the usual line costs one ``try``.  With ``first`` given, a
    file whose first term line has another index is refused at that line,
    for `render`, before the rest is read.  The terms are bytes, one byte a
    term, unless a value lies outside 0..255; from the first such value on
    they are collected in a list.
    """
    terms: bytearray | list[int] = bytearray()
    append = terms.append
    expected = None
    for number, line in enumerate(lines, start=1):
        try:
            idx_s, val_s = line.split()
            idx, val = int(idx_s), int(val_s)
        except ValueError:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            raise ValueError(f"b-file line {number}: expected '<index> <value>' "
                             f"as two integers, got {line!r}") from None
        if idx != expected:
            if expected is not None:
                raise ValueError(f"b-file line {number}: non-consecutive index {idx}, "
                                 f"expected {expected}")
            if first is not None and idx != first:  # an OEIS offset such as A014577's 0
                raise ValueError(f"b-file line {number}: first index {idx}, "
                                 f"but render reads b-files from index {first}")
        expected = idx + 1
        try:
            append(val)
        except ValueError:  # outside 0..255: the terms no longer fit bytes
            terms = list(terms)
            append = terms.append
            append(val)
    return bytes(terms) if isinstance(terms, bytearray) else terms

