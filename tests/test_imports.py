"""The runtime imports nothing outside the standard library, and exports a fixed surface."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import dragonsieve

SRC = Path(__file__).resolve().parent.parent / "src" / "dragonsieve"


def absolute_imports(tree: ast.AST) -> set[str]:
    """Top-level module of every absolute import in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_detector_sees_each_form():
    tree = ast.parse("import numpy.linalg\nfrom hypothesis import given\nfrom . import verify\n")
    assert absolute_imports(tree) == {"numpy", "hypothesis"}


def test_runtime_is_standard_library_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        outside = absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        outside -= sys.stdlib_module_names
        assert not outside, f"{path.name} imports {sorted(outside)}"


# The public surface, sorted; a name leaves or joins it only by editing this list.
PUBLIC = [
    "CheckReport",
    "Factorization",
    "Failure",
    "OddEvenDecomposition",
    "PolylinePath",
    "SieveTable",
    "TurnSequence",
    "ValuationSequence",
    "aperiodicity_witness",
    "decimate_terms",
    "format_b_file",
    "generate_dci",
    "heighway_turns",
    "levy_turns",
    "odd_even_parts",
    "odd_part_mod4",
    "parse_b_file",
    "primes_by_trial_division",
    "read_factorization",
    "reconstruct_odd_part",
    "run_sieve",
    "to_svg",
    "trace",
    "trial_division_factor",
    "valuation_oracle",
    "write_b_file",
    "write_svg",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 27
    assert dragonsieve.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(dragonsieve, name).__module__.startswith("dragonsieve."), name
