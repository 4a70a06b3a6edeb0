"""OEIS b-file reading and writing, and every other text of byte terms.

One "<index> <value>" pair per line, from index 1, no header, in bytes.
The writer is bit-exact so fixtures can be byte-compared.  `write_table`
writes the sieve table as TSV, and `write_rows` its rows and ``decimate``'s.
Only `_set_cells`, private to this module, decides the text of a byte term.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, BinaryIO, Iterable, Sequence

if TYPE_CHECKING:
    from .sieve import SieveTable

# Indexes written per piece, a multiple of 1000 so that every piece after the
# first starts a block.  A piece's text, about 80 KB, stays below glibc's
# 128 KiB mmap threshold: pieces of 64 000 indexes, fed from a stream, took
# fresh pages for each and wrote `seq --p 2 --limit 10^8` 1.4-1.8x slower.
_PIECE = 8_000
_TERM_BYTES = [b"%d" % t for t in range(256)]  # the text of each byte term
# bytes.translate table from a byte term to its one-digit text: terms 0..9 to
# b"0".."9", and every larger term to the placeholder 0, which is no digit.
_TERM_DIGIT = b"0123456789" + bytes(246)
_ONE_DIGIT = bytes(range(10))  # the terms _TERM_DIGIT writes; it writes the rest as 0
_FROM_DIGIT = bytes.maketrans(b"0123456789", _ONE_DIGIT)
# The term of each canonical cell: 10^6 cells map through it in about 0.04 s,
# through int() in about 0.17 s.
_TERM_OF_TEXT = {text: t for t, text in enumerate(_TERM_BYTES)}
_LAST = itemgetter(-1)  # a line's last byte, which must be its newline
# Lines 000..999 of a block of integer terms, 8 bytes each: \0 stands for
# the block's prefix and %d for the term.
_INT_LINES = b"".join(b"\0%03d %%d\n" % j for j in range(1000))


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


def format_b_file(terms: Sequence[int], start: int = 1) -> bytes:
    """The b-file text of ``terms``, the first at index ``start``."""
    return _format(terms, start)


def _format(terms: Sequence[int], start: int) -> bytes:
    """`format_b_file`, under a name of its own so that the parser's use is not a write.

    Indexes before the first block of 1000, 1000k..1000k+999 with k >= 1,
    go line by line, then one block at a time.  A block of ``bytes`` terms
    copies the `_template` whose lines (of terms below 10) are str(k) plus 6
    wide, sets each digit of str(k) by one stepped-slice assignment and the
    values by `_set_cells`; other integer terms take one ``%`` through
    `_INT_LINES`, with its \\0 replaced by str(k).
    """
    head = min(len(terms), max(-(-start // 1000), 1) * 1000 - start)
    blocks = [b"".join(map(b"%d %d\n".__mod__, zip(range(start, start + head), terms[:head])))]
    for j in range(head, len(terms), 1000):
        block = terms[j : j + 1000]
        prefix = b"%d" % ((start + j) // 1000)
        if isinstance(block, (bytes, bytearray)):
            n, width = len(block), len(prefix) + 6
            lines = bytearray(_template(len(prefix))[: width * n])
            for i, digit in enumerate(prefix):
                lines[i::width] = bytes((digit,)) * n
            blocks.append(_set_cells(lines, block, width, width - 2))
        else:
            blocks.append(_INT_LINES[: 8 * len(block)].replace(b"\0", prefix) % tuple(block))
    return b"".join(blocks)


@cache
def _template(digits: int) -> bytes:
    """Lines 000..999 of a block of indexes whose prefix has ``digits`` digits, all set to 0."""
    return b"".join(b"0" * digits + b"%03d 0\n" % j for j in range(1000))


def write_b_file(chunks: Iterable[Sequence[int]], out: BinaryIO) -> None:
    """Write the b-file text of the terms of ``chunks``, in turn from index 1, to ``out``.

    The text is written a piece at a time, each piece ending before an index
    that is a multiple of ``_PIECE``, wherever the chunks end, so only
    indexes 1..999 are formatted line by line.  Terms that end a chunk
    before a piece's end are held, and joined to the next chunk's.
    """
    first = 1  # the index of the first term not yet written
    end = _PIECE  # the index that the next piece ends before
    held = None  # the terms from index ``first`` on, all before ``end``
    for chunk in chunks:
        terms = chunk if held is None else held + chunk
        begin = 0  # the position of index ``first`` in ``terms``
        while end <= first + len(terms) - begin:
            stop = begin + end - first
            out.write(format_b_file(terms[begin:stop], first))
            begin, first, end = stop, end, end + _PIECE
        held = terms[begin:] if begin < len(terms) else None
    if held is not None:
        out.write(format_b_file(held, first))


def write_rows(rows: Iterable[tuple[bytes, bytes]], sep: bytes, out: BinaryIO) -> None:
    """Write each ``(head, terms)`` row to ``out``: the head, the terms joined by ``sep``, b"\\n".

    ``sep`` must hold no zero byte, which `_set_cells` takes for a placeholder.
    """
    stride = 1 + len(sep)
    cells, size = bytearray(), 0
    for head, terms in rows:
        if len(terms) != size:
            size = len(terms)
            cells = bytearray(b"0" + sep) * size
            del cells[len(cells) - len(sep) :]
        out.write(head)
        out.write(_set_cells(cells, terms, stride, 0))
        out.write(b"\n")


def write_table(table: SieveTable, out: BinaryIO) -> None:
    """Write the sieve table to ``out`` as TSV: the header 1000 columns at a time, then each row."""
    m = table.m
    for j in range(1, m + 1, 1000):
        out.write(("\t" + "\t".join(map(str, range(j, min(j + 1000, m + 1))))).encode("ascii"))
    out.write(b"\n")
    rows = ((f"{p}\t".encode("ascii"), table.row(p).terms) for p in table.prime_headers)
    write_rows(rows, b"\t", out)


def parse_b_file(lines: Iterable[bytes]) -> bytes | list[int]:
    """Parse b-file lines, such as those of a file opened with ``"rb"``, into terms.

    Blank lines and lines starting with ``#`` are skipped.  The terms come
    back without their indexes, so a first term line whose index is not 1,
    such as an OEIS offset of 0, is refused, before the rest is read.  The
    terms are bytes, one byte a term, unless a value lies outside 0..255;
    from the first such value on they are collected in a list.

    `_parse_lines` defines what is accepted and every message.  The lines
    are taken one at a time up to the first term line, then in the
    writer's blocks, up to the next index that is a multiple of 1000, and
    a block is accepted whole when it is the canonical text of byte terms
    (see `_canonical_terms`); any other block, and every line once the
    terms are a list, is read by `_parse_lines`.
    Blocks of 1000 lines hold less at once than blocks of 4000, which
    raised the peak RSS of `render --from-file` by about 0.1 MB, and
    parse as fast.
    """
    lines = iter(lines)
    terms: bytearray | list[int] = bytearray()
    expected = None
    number = 0
    while isinstance(terms, bytearray) and (
            block := list(islice(lines, 1 if expected is None else 1000 - expected % 1000))):
        values = None if expected is None else _canonical_terms(block, expected)
        if values is None:
            terms, expected = _parse_lines(block, number, terms, expected)
        else:
            terms += values
            expected += len(values)
        number += len(block)
    if isinstance(terms, bytearray):
        return bytes(terms)
    return _parse_lines(lines, number, terms, expected)[0]


def _canonical_terms(block: list[bytes], start: int) -> bytes | None:
    """The byte terms of ``block`` if it is their canonical text from index ``start``, else None.

    Terms below 10 from index 1000k, k >= 1, are a stepped slice of their
    equally wide lines, other terms every second field.  They are accepted
    only if they format back to the same text, LF or CRLF, every line of
    ``block`` ending in its newline: a bare CR, a sign, a leading zero, a
    comment, a missing newline or a term above 255 fails the round trip.
    """
    try:
        if bytes(map(_LAST, block)) != b"\n" * len(block):
            return None
        text = b"".join(block)
        if b"\r" in text:  # a CRLF file, which would otherwise go line by line, 3x slower
            text = text.replace(b"\r\n", b"\n")
        width = len(b"%d" % (start // 1000)) + 6  # of a line "<k>ddd t\n", t below 10
        if len(text) == width * len(block):
            values = text[width - 2 :: width].translate(_FROM_DIGIT)
        else:
            values = bytes(map(_TERM_OF_TEXT.__getitem__, text.split()[1::2]))
    except (IndexError, KeyError):  # an empty line or no byte term
        return None
    return values if len(values) == len(block) and _format(values, start) == text else None


def _parse_lines(lines: Iterable[bytes], number: int, terms: bytearray | list[int],
                 expected: int | None) -> tuple[bytearray | list[int], int | None]:
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
            line = line.strip().decode("ascii", "backslashreplace")
            if not line or line.startswith("#"):
                continue
            raise ValueError(f"b-file line {number}: expected '<index> <value>' "
                             f"as two integers, got {line!r}") from None
        if idx != expected:
            if expected is not None:
                raise ValueError(f"b-file line {number}: non-consecutive index {idx}, "
                                 f"expected {expected}")
            if idx != 1:  # an OEIS offset such as A014577's 0
                raise ValueError(f"b-file line {number}: first index {idx}, expected 1")
        expected = idx + 1
        try:
            append(val)
        except ValueError:  # outside 0..255: the terms no longer fit bytes
            terms = list(terms)
            append = terms.append
            append(val)
    return terms, expected
