"""Every name the benchmark's tracer wraps or counts is still in the library.

`perfbench/tracer.py` wraps functions by name: a span and a counter for each
``layer.function`` it lists.  A renamed or private function silently reads
0 there, so each name is checked here against what the tracer would wrap.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
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
