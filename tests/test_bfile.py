from __future__ import annotations

import io
from array import array
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import bfile, format_b_file, generate_dci, parse_b_file, write_b_file


def reference_format(terms, start=1):
    """The b-file text, one line at a time."""
    return "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=start))


def reference_parse(lines, first=None):
    """The parser as it was before blocks: every line through one loop."""
    terms = bytearray()
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
            if first is not None and idx != first:
                raise ValueError(f"b-file line {number}: first index {idx}, "
                                 f"but render reads b-files from index {first}")
        expected = idx + 1
        try:
            append(val)
        except ValueError:
            terms = list(terms)
            append = terms.append
            append(val)
    return bytes(terms) if isinstance(terms, bytearray) else terms


def outcome(parse, lines, first=None):
    """The value and its type, or the exact message, of one parse."""
    try:
        got = parse(lines, first)
    except ValueError as exc:
        return "error", str(exc)
    return type(got), got


# Terms in 0..9, 10..99 and 100..255, so blocks hold one-, two- and three-digit cells.
byte_terms = st.lists(st.one_of(st.integers(0, 9), st.integers(10, 99), st.integers(100, 255)),
                      min_size=1, max_size=40).map(bytes)


@given(byte_terms, st.integers(0, 7000), st.integers(min_value=-1000, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_byte_blocks_format_line_by_line(pattern, n, start):
    terms = (pattern * (n // len(pattern) + 1))[:n]
    assert format_b_file(terms, start) == reference_format(terms, start)
    out = io.StringIO()
    with patch.object(bfile, "_PIECE", 3000):  # so that 7000 terms cross two piece ends
        write_b_file([terms], out)
    assert out.getvalue() == format_b_file(terms)


def written_b_file(chunks):
    out = io.StringIO()
    write_b_file(chunks, out)
    return out.getvalue()


@pytest.mark.parametrize("size", [1, 999, 1000, 8001, 65_536])
@pytest.mark.parametrize("kind", ["bytes", "array", "list"])
def test_chunks_write_the_text_of_their_join(size, kind):
    # 20 000 terms cross two piece ends, which the chunks straddle or meet.
    terms = _TERMS_OF_KIND[kind](20_000)
    chunks = [terms[i : i + size] for i in range(0, len(terms), size)]
    assert written_b_file(chunks) == written_b_file([terms]) == reference_format(terms)


def test_no_chunks_and_empty_chunks_write_nothing_of_their_own():
    assert written_b_file([]) == written_b_file([b""]) == ""
    assert written_b_file([b"", b"\x01\x02", b"", b"\x03"]) == "1 1\n2 2\n3 3\n"


@given(st.lists(st.integers()), st.integers(min_value=-1000, max_value=10**6))
@settings(max_examples=100)
def test_parse_inverts_format(terms, start):
    assert list(parse_b_file(format_b_file(terms, start).splitlines(keepends=True))) == terms


@pytest.mark.parametrize("values,want", [
    ([], b""),
    ([0, 255, 7], b"\x00\xff\x07"),
    # From the first value outside 0..255 on, the terms are a list.
    ([5, 256, 6], [5, 256, 6]),
    ([3, -1], [3, -1]),
    ([2**70, 1], [2**70, 1]),
])
def test_byte_terms_parse_to_bytes(values, want):
    got = parse_b_file(format_b_file(values).splitlines(keepends=True))
    assert type(got) is type(want)
    assert got == want


def test_non_consecutive_index_names_its_line():
    with pytest.raises(ValueError, match="^b-file line 3: non-consecutive index 3, expected 2$"):
        parse_b_file(["# header\n", "1 0\n", "3 0\n"])


# Terms of each kind the writers take, n of them: lists and tuples take negative
# terms and terms above 255; `oddpart` writes odd parts as an array('I').
_TERMS_OF_KIND = {
    "bytes": lambda n: bytes(i % 256 for i in range(n)),
    "bytearray": lambda n: bytearray(i % 256 for i in range(n)),
    "array": lambda n: array("I", range(1, 14 * n, 14)),
    "list": lambda n: list(range(-999, 7 * n - 999, 7)),
    "tuple": lambda n: tuple(range(-999, 7 * n - 999, 7)),
}


@pytest.mark.parametrize("start", [1, 2, 999, 1000, 1001, 65537])
@pytest.mark.parametrize("n", [0, 1, 12_345, 34_500])  # past 1000 and 10^4; 65537 passes 10^5
@pytest.mark.parametrize("kind", list(_TERMS_OF_KIND))
def test_block_format_equals_line_by_line(start, n, kind):
    terms = _TERMS_OF_KIND[kind](n)
    want = "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=start))
    assert format_b_file(terms, start) == want


def test_skips_comments_blank_lines_and_whitespace():
    # "# 3" and "#1 2" split into two fields but are still comments.
    lines = ["# 3\n", "#1 2\n", "\n", "   \t\n", "1 5\r\n", "  2   -6  \r\n", "3 7"]
    assert list(parse_b_file(lines)) == [5, -6, 7]


def test_malformed_line_message_is_exact():
    with pytest.raises(ValueError) as exc:
        parse_b_file(["1 0\n", "  2 x \r\n"])
    assert str(exc.value) == "b-file line 2: expected '<index> <value>' as two integers, got '2 x'"


def test_non_consecutive_index_message_is_exact():
    with pytest.raises(ValueError) as exc:
        parse_b_file(["0 1\r\n", "# 1 0\n", "2 0\n"])
    assert str(exc.value) == "b-file line 3: non-consecutive index 2, expected 1"


def test_first_index_is_refused_at_its_line():
    # The lines after the first term line are never read.
    lines = iter(["# A014577\n", "\n", "0 1\n", "1 1\n", "2 x\n"])
    with pytest.raises(ValueError) as exc:
        parse_b_file(lines, first=1)
    assert str(exc.value) == "b-file line 3: first index 0, but render reads b-files from index 1"
    assert list(lines) == ["1 1\n", "2 x\n"]
    assert list(parse_b_file(["# c\n", "1 5\n", "2 6\n"], first=1)) == [5, 6]


# 3000 lines span four parse blocks: lines 2..999, 1000..1999, 2000..2999 and 3000.
_N = 3000
_DEFECTS = {  # each takes a line and the next, and gives what replaces them
    "crlf": lambda a, b: [a.replace("\n", "\r\n"), b],
    "leading-zero": lambda a, b: [a.replace(" ", " 0"), b],
    "plus": lambda a, b: [a.replace(" ", " +"), b],
    "arabic-indic-digit": lambda a, b: [a.split()[0] + " \u0663\n", b],
    "comment": lambda a, b: ["# c\n", a, b],
    "blank": lambda a, b: ["\n", a, b],
    "empty-string": lambda a, b: ["", a, b],
    "above-255": lambda a, b: [a.split()[0] + " 256\n", b],
    "negative": lambda a, b: [a.split()[0] + " -1\n", b],
    "skipped-index": lambda a, b: [b],
    "not-an-integer": lambda a, b: [a.split()[0] + " x\n", b],
    "two-lines-in-one-string": lambda a, b: [a + b],
    "line-split-across-strings": lambda a, b: [a + b[: b.index(" ")], b[b.index(" ") :]],
}


@pytest.mark.parametrize("p", [2, 3])  # v2 reaches 11, two digits; v3 stays below 10
@pytest.mark.parametrize("line", [999, 1000, 1500, 1999])  # the second block and its edges
@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_block_parse_matches_line_by_line(p, line, defect):
    lines = format_b_file(generate_dci(p, _N).terms).splitlines(keepends=True)
    lines[line - 1 : line + 1] = _DEFECTS[defect](*lines[line - 1 : line + 1])
    text = "".join(lines)  # as a file, the strings are split at each newline again
    for first in (None, 1):
        assert outcome(parse_b_file, lines, first) == outcome(reference_parse, lines, first)
        assert (outcome(parse_b_file, io.StringIO(text), first)
                == outcome(reference_parse, io.StringIO(text), first))


@pytest.mark.parametrize("n", [1000, 1999, 2000])  # the last block one line long, or a full 1000
def test_block_parse_of_a_cut_file_matches_line_by_line(n):
    text = format_b_file(generate_dci(2, n).terms)
    for cut in (text, text[:-1]):
        lines = cut.splitlines(keepends=True)
        want = outcome(reference_parse, lines)
        assert want[0] is bytes
        assert outcome(parse_b_file, lines) == want
        assert outcome(parse_b_file, io.StringIO(cut)) == want


def test_parse_never_calls_the_public_formatter(monkeypatch):
    # Reformatting a block is not a write, so the benchmark's count of written bytes excludes it.
    def refuse(*args):
        raise AssertionError("format_b_file called")

    text = format_b_file(generate_dci(2, _N).terms)
    monkeypatch.setattr(bfile, "format_b_file", refuse)
    assert parse_b_file(io.StringIO(text)) == generate_dci(2, _N).terms


def cells_text(terms, stride, offset):
    """Oracle: each term's decimal text in its cell of ``stride`` dashes, after ``offset`` of them."""
    return b"".join(b"-" * offset + str(t).encode() + b"-" * (stride - offset - 1) for t in terms)


# Which of seven terms are 10 or more: none, the first only, the last only,
# one in between, the first and last, and every one.
_PLACEHOLDERS = {"none": (), "first": (0,), "last": (6,), "one": (3,),
                 "first-and-last": (0, 6), "every": tuple(range(7))}


@pytest.mark.parametrize("stride,offset", [(1, 0), (2, 1), (3, 0), (7, 5)])
@pytest.mark.parametrize("where", list(_PLACEHOLDERS))
def test_cell_writer_splices_terms_of_two_or_three_digits(where, stride, offset):
    terms = bytearray(b"\x01\x02\x03\x00\x04\x05\x09")
    for i in _PLACEHOLDERS[where]:
        terms[i] = (10, 99, 100, 255, 42, 11, 250)[i]
    # The cells of stride 2 and 7 keep bytes before the first term, of 3 and 7 after the last.
    buf = bytearray(b"-" * (7 * stride))
    got = bfile._set_cells(buf, bytes(terms), stride, offset)
    assert bytes(got) == cells_text(terms, stride, offset)


@given(byte_terms, st.integers(1, 9), st.data())
@settings(max_examples=200)
def test_cell_writer_sets_each_term_in_its_cell(terms, stride, data):
    offset = data.draw(st.integers(0, stride - 1))
    buf = bytearray(b"-" * (len(terms) * stride))
    assert bytes(bfile._set_cells(buf, terms, stride, offset)) == cells_text(terms, stride, offset)


def rows_text(rows, sep):
    """Oracle: each row's head, then its terms' decimal text joined by ``sep``, then a newline."""
    return b"".join(head + sep.join(str(t).encode() for t in terms) + b"\n" for head, terms in rows)


def written_rows(rows, sep):
    out = io.BytesIO()
    bfile.write_rows(rows, sep, out)
    return out.getvalue()


@pytest.mark.parametrize("sep", [b"\t", b", "])
@pytest.mark.parametrize("where", list(_PLACEHOLDERS))
def test_row_writer_joins_each_rows_terms(where, sep):
    seven = bytearray(b"\x01\x02\x03\x00\x04\x05\x09")
    for i in _PLACEHOLDERS[where]:
        seven[i] = (10, 99, 100, 255, 42, 11, 250)[i]
    # Rows of 7, 7, 0, 1, 7 and 1 terms: the buffer is reused after a row whose
    # terms of two or three digits left placeholders in it, and rebuilt at each
    # change of length, empty once.
    rows = [(b"2\t", bytes(seven)), (b"3\t", bytes(reversed(seven))), (b"Decimated x1:\t", b""),
            (b"5\t", b"\x0c"), (b"7\t", bytes(seven)), (b"11\t", b"\x05")]
    assert written_rows(rows, sep) == rows_text(rows, sep)


# Rows of up to four terms, so that lengths repeat within a call.
short_rows = st.lists(st.one_of(st.integers(0, 9), st.integers(10, 255)), max_size=4).map(bytes)


@given(st.lists(st.tuples(st.binary(max_size=3), short_rows), max_size=8),
       st.binary(max_size=3).filter(lambda sep: 0 not in sep))
@settings(max_examples=200)
def test_row_writer_writes_each_row_as_joined_text(rows, sep):
    assert written_rows(rows, sep) == rows_text(rows, sep)
