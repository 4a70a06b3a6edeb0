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


def private_imports(tree: ast.AST) -> list[str]:
    """``from module import name`` for each underscore name imported from a dragonsieve module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "dragonsieve"):
            source = "." * node.level + (node.module or "")
            found += [f"from {source} import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_import_detector_sees_each_form():
    tree = ast.parse("from .bfile import _set_cells, write_rows\n"
                     "from dragonsieve.sieve import _LINK\n"
                     "from . import _private\n"
                     "from __future__ import annotations\n"
                     "from operator import __add__\n")
    assert private_imports(tree) == ["from .bfile import _set_cells",
                                     "from dragonsieve.sieve import _LINK",
                                     "from . import _private"]


def test_no_module_imports_a_private_name_of_a_sibling():
    # A private name is its module's own: `bfile._set_cells` decides the text
    # of byte terms, and only `bfile` writes that text.
    for path in sorted(SRC.glob("*.py")):
        assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


# The public surface, sorted; a name leaves or joins it only by editing this list.
PUBLIC = [
    "CheckReport",
    "Failure",
    "SieveTable",
    "TurnSequence",
    "ValuationSequence",
    "decimate_terms",
    "format_b_file",
    "generate_dci",
    "heighway_turns",
    "levy_turns",
    "parse_b_file",
    "read_factorization",
    "reconstruct_odd_part",
    "run_sieve",
    "to_svg",
    "trace",
    "write_b_file",
    "write_svg",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 18
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
    assert loaded.isdisjoint({"dragonsieve.render", "dragonsieve.verify", "dragonsieve.bfile"})


# Each command, small, and the module that does its work.
COMMANDS = [
    (["factor", "6", "--limit", "10"], "sieve"),
    (["sieve", "--limit", "10"], "sieve"),
    (["seq", "--p", "2", "--limit", "10"], "valuations"),
    (["levy", "--iterations", "3"], "dragons"),
    (["heighway", "--iterations", "3"], "dragons"),
    (["oddpart", "--limit", "10", "--mod4"], "fractal"),
    (["decimate", "--p", "2", "--limit", "10"], "fractal"),
    (["render", "--p", "2", "--limit", "16", "-o", "out.svg"], "render"),
    (["verify", "all", "--small"], "verify"),
]


@pytest.mark.parametrize("argv,module", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_no_command_imports_dataclasses(argv, module, tmp_path):
    # `dataclasses` imports `inspect` and `dis`, about 1 MB; every record is a
    # plain class or a named tuple.  `fractions` imports `decimal`, about 0.5 MiB
    # of RSS and 2 ms; the walk takes its angle as an integer ratio instead.
    argv = [str(tmp_path.joinpath(a)) if a.endswith(".svg") else a for a in argv]
    loaded = modules_after(f"from dragonsieve.cli import main; assert main({argv!r}) == 0")
    assert f"dragonsieve.{module}" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "dis", "fractions", "decimal"})


def test_public_name_loads_its_own_module():
    loaded = modules_after("import dragonsieve; dragonsieve.run_sieve")
    assert "dragonsieve.sieve" in loaded and "dragonsieve.render" not in loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'sieve_table'"):
        dragonsieve.sieve_table
    assert set(PUBLIC) <= set(dir(dragonsieve))
