from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import format_b_file, parse_b_file


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


@pytest.mark.parametrize("start", [1, 2, 999, 1000, 1001, 65537])
@pytest.mark.parametrize("n", [0, 1, 12_345, 34_500])  # past 1000 and 10^4; 65537 passes 10^5
@pytest.mark.parametrize("kind", [bytes, list, tuple])
def test_block_format_equals_line_by_line(start, n, kind):
    # Lists and tuples take negative terms and terms above 255.
    terms = bytes(i % 256 for i in range(n)) if kind is bytes else kind(range(-999, 7 * n - 999, 7))
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
