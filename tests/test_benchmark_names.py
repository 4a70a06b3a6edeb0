"""Every name the benchmark's tracer wraps or counts is still in the library.

`perfbench/tracer.py` wraps functions by name: a span and a counter for each
``layer.function`` it lists.  A renamed or private function silently reads
0 there, so each name is checked here against what the tracer would wrap.
Two requests also run through the tracer, which fails on any attribute it
reads that is gone.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import marshal
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _wrapped_names() -> set[str]:
    """``layer.name`` of every function and method `Tracer.install` wraps."""
    names = set()
    for layer in TRACER.LAYERS:
        mod = importlib.import_module(f"dragonsieve.{layer}")
        names.update(f"{layer}.{attr}" for attr, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not attr.startswith("_"))
        for cls_name, methods in TRACER.METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            names.update(f"{layer}.{meth}" for meth in methods
                         if inspect.isfunction(getattr(cls, meth, None)))
    return names


WRAPPED = _wrapped_names()


@pytest.mark.parametrize("name", sorted(TRACER.COUNTERS))
def test_counted_function_is_wrapped(name):
    assert name in WRAPPED


@pytest.mark.parametrize("name", sorted(TRACER.RSS_SPANS))
def test_rss_span_is_wrapped(name):
    assert name in WRAPPED


@pytest.mark.parametrize("layer,cls_name,method", [
    (layer, cls_name, method)
    for layer, classes in TRACER.METHODS.items()
    for cls_name, methods in classes.items()
    for method in methods
])
def test_traced_method_exists(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"dragonsieve.{layer}"), cls_name)
    assert inspect.isfunction(getattr(cls, method, None))


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--small"),
    ("seq", "--p", "2", "--limit", "100"),
], ids=["verify-all-small", "seq-p2"])
def test_traced_request_prints_what_the_cli_prints(tmp_path, argv):
    # The tracer reads the attributes it counts (`ValuationSequence.m`,
    # `._full`, `.terms`, `path.vertices`) only when a request runs through it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    spans = tmp_path / "spans"
    runs = [subprocess.run([sys.executable, *prefix, *argv], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
            for prefix in (["-m", "dragonsieve.cli"],
                           [str(ROOT / "perfbench" / "tracer.py"), str(spans)])]
    plain, traced = (re.sub(r"\t[0-9.]+s$", "", run.stdout, flags=re.MULTILINE)
                     for run in runs)
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert traced == plain != ""
    record = marshal.loads(spans.read_bytes())
    assert "cli.main" in record["names"] and record["start"]
