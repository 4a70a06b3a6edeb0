from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dragonsieve import format_b_file, parse_b_file


@given(st.lists(st.integers()), st.integers(min_value=-1000, max_value=10**6))
@settings(max_examples=100)
def test_parse_inverts_format(terms, start):
    assert parse_b_file(format_b_file(terms, start).splitlines(keepends=True)) == terms


def test_non_consecutive_index_names_its_line():
    with pytest.raises(ValueError, match="^b-file line 3: non-consecutive index 3, expected 2$"):
        parse_b_file(["# header\n", "1 0\n", "3 0\n"])
