"""Each memory figure bounds the peak RSS growth of its command (see growth_cases)."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import dragonsieve
from dragonsieve.limits import BYTES_PER
from growth_cases import CASES, measure, peak_rss

RUNS = [(case.name, n) for case in CASES for n in case.sizes]


@pytest.fixture(scope="module")
def growth(tmp_path_factory):
    """Every case's runs, measured once for the module, by case name and units."""
    return {(run.case, run.units): run for run in measure(tmp_path_factory.mktemp("growth"))}


def test_every_figure_has_a_case():
    assert sorted({case.figure for case in CASES} - {None}) == sorted(BYTES_PER)


def _strings(node):
    return {part.value for part in ast.walk(node)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)}


def charged_keys(tree):
    """The string keys that the ``BYTES_PER[...]`` subscripts of ``tree`` read.

    A key held in a name is each string assigned to that name in ``tree``.
    """
    assigned = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] |= _strings(node.value)
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "BYTES_PER"):
            key = node.slice
            if isinstance(key, ast.Name):
                assert assigned[key.id], f"BYTES_PER[{key.id}]: no string is assigned to it"
                keys |= assigned[key.id]
            else:
                keys |= _strings(key)
    return keys


def test_every_figure_is_charged():
    # A figure that bounds nothing any more is removed, and no call charges a missing one.
    charged = set()
    for path in Path(dragonsieve.__file__).parent.glob("*.py"):
        charged |= charged_keys(ast.parse(path.read_text(encoding="utf-8")))
    assert charged == set(BYTES_PER)


def test_charged_keys_sees_each_form():
    src = 'BYTES_PER["a"]\nBYTES_PER["b" if x else "c"]\nkey = "d" if y else "e"\nBYTES_PER[key]'
    assert charged_keys(ast.parse(src)) == set("abcde")
    with pytest.raises(AssertionError, match="no string"):
        charged_keys(ast.parse("BYTES_PER[key]"))


@pytest.mark.parametrize("case,units", RUNS, ids=[f"{name}-{n}" for name, n in RUNS])
def test_growth_is_within_the_charge(growth, case, units):
    run = growth[case, units]
    assert run.growth <= run.need, (
        f"{case} at {units} units grew {run.growth} bytes; its guard charges {run.need}")


def test_a_child_does_not_count_this_process(tmp_path):
    # A child that this process forked or vforked would read at least the 100 MiB held here.
    held = b"\1" * (100 << 20)
    assert peak_rss(["-c", "pass"], tmp_path) < 50 << 20
    del held
