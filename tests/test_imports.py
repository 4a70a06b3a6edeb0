"""The runtime imports nothing outside the standard library, and exports a fixed surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "parse_b_file",
    "primes_by_trial_division",
    "read_factorization",
    "reconstruct_odd_part",
    "run_sieve",
    "to_svg",
    "trace",
    "write_b_file",
    "write_svg",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 22
    assert dragonsieve.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(dragonsieve, name).__module__.startswith("dragonsieve."), name


def modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(run.stdout.split())


def test_cli_import_loads_no_command_module():
    loaded = modules_after("import dragonsieve.cli")
    assert {"dragonsieve", "dragonsieve.cli"} <= loaded
    assert loaded.isdisjoint({"dragonsieve.verify", "dragonsieve.render", "dragonsieve.sieve",
                              "dragonsieve.dragons", "dragonsieve.fractal", "fractions"})


def test_factor_loads_neither_render_nor_verify():
    loaded = modules_after("from dragonsieve.cli import main; main(['factor', '24'])")
    assert "dragonsieve.sieve" in loaded
    assert loaded.isdisjoint({"dragonsieve.render", "dragonsieve.verify"})


def test_public_name_loads_its_own_module():
    loaded = modules_after("import dragonsieve; dragonsieve.run_sieve")
    assert "dragonsieve.sieve" in loaded and "dragonsieve.render" not in loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'sieve_table'"):
        dragonsieve.sieve_table
    assert set(PUBLIC) <= set(dir(dragonsieve))
