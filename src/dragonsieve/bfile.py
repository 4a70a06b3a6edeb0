"""OEIS b-file reading and writing, and the text of byte terms.

One "<index> <value>" pair per line, 1-based, no header.  The writer is
bit-exact so fixtures can be byte-compared.  `_set_cells` decides the
decimal text of a byte term for every writer of terms: the b-file blocks
here, the sieve's TSV rows and the CLI's decimated rows.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from operator import itemgetter
from typing import Iterable, Sequence, TextIO

# Indexes written per chunk, a multiple of 1000 so that every chunk after the
# first starts a block; bounds the text held at once to about 1 MB.
_CHUNK = 64_000
_TERM_BYTES = [str(t).encode("ascii") for t in range(256)]  # the text of each byte term
# bytes.translate table from a byte term to its one-digit text: terms 0..9 to
# b"0".."9", and every larger term to the placeholder 0, which is no digit.
_TERM_DIGIT = b"0123456789" + bytes(246)
_ONE_DIGIT = bytes(range(10))  # the terms _TERM_DIGIT writes; it writes the rest as 0
_FROM_DIGIT = bytes.maketrans(b"0123456789", _ONE_DIGIT)
# The term of each canonical cell: 10^6 cells map through it in about 0.04 s,
# through int() in about 0.17 s.
_TERM_OF_TEXT = {str(t): t for t in range(256)}
_LAST = itemgetter(-1)  # a line's last character, which must be its newline
# Lines 000..999 of a block of integer terms, 8 characters each: \0 stands for
# the block's prefix and %d for the term.
_INT_LINES = "".join(f"\0{j:03d} %d\n" for j in range(1000))


def _set_cells(buf: bytearray, terms: bytes, stride: int, offset: int) -> bytes | bytearray:
    """``buf`` with the text of each byte term set at every ``stride``-th byte from ``offset``.

    ``buf[offset::stride]`` holds one byte per term.  A term below 10 is set
    as its digit by one `_TERM_DIGIT` translation and ``buf`` itself is
    returned.  A larger term leaves the placeholder 0; then ``buf`` is split
    there and joined with those terms' text, in order, so ``buf`` must hold
    no other 0.  Only the span from the first placeholder to the last is
    split, byte by byte; the bytes around it are sliced whole.
    """
    column = terms.translate(_TERM_DIGIT)
    buf[offset::stride] = column
    first = column.find(0)
    if first < 0:
        return buf
    start = offset + stride * first
    end = offset + stride * column.rfind(0)
    pieces = buf[start : end + 1].split(b"\0")  # empty at both ends
    pieces[0] = buf[:start]
    pieces[-1] = buf[end + 1 :]
    parts = [b""] * (2 * len(pieces) - 1)
    parts[::2] = pieces
    parts[1::2] = map(_TERM_BYTES.__getitem__, terms.translate(None, _ONE_DIGIT))
    return b"".join(parts)


def format_b_file(terms: Sequence[int], start: int = 1) -> str:
    """The b-file text of ``terms``, the first at index ``start``."""
    return _format(terms, start)


def _format(terms: Sequence[int], start: int) -> str:
    """`format_b_file`, under a name of its own so that the parser's use is not a write.

    Indexes before the first block of 1000, 1000k..1000k+999 with k >= 1,
    go line by line.  From there, ``bytes`` terms go through
    `_format_blocks`, and any other integer terms take one ``%`` a block,
    through `_INT_LINES` with its \\0 replaced by str(k).
    """
    head = min(len(terms), max(-(-start // 1000), 1) * 1000 - start)
    text = "".join(map("{} {}\n".format, range(start, start + head), terms[:head]))
    if isinstance(terms, (bytes, bytearray)):
        return text + _format_blocks(terms[head:], start + head)
    blocks = [text]
    for j in range(head, len(terms), 1000):
        block = tuple(terms[j : j + 1000])
        blocks.append(_INT_LINES[: 8 * len(block)].replace("\0", str((start + j) // 1000)) % block)
    return "".join(blocks)


@cache
def _template(digits: int) -> bytes:
    """Lines 000..999 of a block of indexes whose prefix has ``digits`` digits, all set to 0."""
    return "".join(f"{'0' * digits}{j:03d} 0\n" for j in range(1000)).encode("ascii")


def _format_blocks(terms: bytes, start: int) -> str:
    """The b-file text of byte terms from index ``start``, a multiple of 1000 above 0.

    In the block of indexes 1000k..1000k+999, a line whose term is below 10
    has the width of str(k) plus 6, so the block is a copy of a template:
    each digit of str(k) is set by one stepped-slice assignment and the
    value column by `_set_cells`.
    """
    out = []
    for j in range(0, len(terms), 1000):
        block_terms = terms[j : j + 1000]
        n = len(block_terms)
        prefix = str((start + j) // 1000).encode("ascii")
        width = len(prefix) + 6
        block = bytearray(_template(len(prefix))[: width * n])
        for i, digit in enumerate(prefix):
            block[i::width] = bytes((digit,)) * n
        out.append(_set_cells(block, block_terms, width, width - 2))
    return b"".join(out).decode("ascii")


def write_b_file(terms: Sequence[int], out: TextIO) -> None:
    """Write the b-file text of ``terms``, from index 1, to the stream ``out`` a chunk at a time.

    Chunks end before indexes that are multiples of ``_CHUNK``, so only
    indexes 1..999 are formatted line by line.
    """
    for end in range(_CHUNK - 1, len(terms) + _CHUNK, _CHUNK):
        begin = max(end - _CHUNK, 0)
        out.write(format_b_file(terms[begin:end], begin + 1))


def parse_b_file(lines: Iterable[str], first: int | None = None) -> bytes | list[int]:
    """Parse b-file lines into terms, checking the index column.

    Blank lines and lines starting with ``#`` are skipped.  With ``first``
    given, a file whose first term line has another index is refused at
    that line, for `render`, before the rest is read.  The terms are bytes,
    one byte a term, unless a value lies outside 0..255; from the first
    such value on they are collected in a list.

    `_parse_lines` defines what is accepted and every message.  It reads the
    lines up to the first term line, and all lines once the terms are a
    list.  In between the lines are taken in the writer's blocks, up to
    the next index that is a multiple of 1000, and a block is accepted
    whole when it is the canonical text of byte terms (see
    `_canonical_terms`); any other block is read by `_parse_lines`.
    Blocks of 1000 lines hold less at once than blocks of 4000, which
    raised the peak RSS of `render --from-file` by about 0.1 MB, and
    parse as fast.
    """
    lines = iter(lines)
    terms: bytearray | list[int] = bytearray()
    expected = None
    number = 0
    for line in lines:
        terms, expected = _parse_lines((line,), number, terms, expected, first)
        number += 1
        if expected is not None:
            break
    else:
        return b""  # no term line
    while isinstance(terms, bytearray) and (
            block := list(islice(lines, 1000 - expected % 1000))):
        values = _canonical_terms(block, expected)
        if values is None:
            terms, expected = _parse_lines(block, number, terms, expected)
        else:
            terms += values
            expected += len(values)
        number += len(block)
    if isinstance(terms, bytearray):
        return bytes(terms)
    return _parse_lines(lines, number, terms, expected)[0]


def _canonical_terms(block: list[str], start: int) -> bytes | None:
    """The byte terms of ``block`` if it is their canonical text from index ``start``, else None.

    The terms are read from every second field, and accepted only if they
    format back to the same text, with every string of ``block`` ending in
    a newline, so that each string is one line.  This accepts exactly what
    `write_b_file` writes: a CR, a sign, a leading zero, a comment, a
    missing newline or a term above 255 each fail the round trip.
    """
    try:
        text = "".join(block)
        if "".join(map(_LAST, block)) != "\n" * len(block):
            return None
        cells = text.split()[1::2]
        digits = "".join(cells)
        if len(digits) == len(cells):
            values = digits.encode("ascii").translate(_FROM_DIGIT)
        else:
            values = bytes(map(_TERM_OF_TEXT.__getitem__, cells))
    except (IndexError, KeyError, TypeError, ValueError):  # an empty string, not text or no byte term
        return None
    return values if len(values) == len(block) and _format(values, start) == text else None


def _parse_lines(lines: Iterable[str], number: int, terms: bytearray | list[int],
                 expected: int | None, first: int | None = None
                 ) -> tuple[bytearray | list[int], int | None]:
    """Read ``lines``, which follow line ``number``, onto ``terms``; the terms and next index.

    A line is first read as two integers, and only a line that is not is
    stripped and looked at again, so the usual line costs one ``try``.
    """
    append = terms.append
    for number, line in enumerate(lines, start=number + 1):
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
    return terms, expected
