"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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
