from __future__ import annotations

import os
import tracemalloc

import pytest


@pytest.fixture
def report_physical_memory(monkeypatch):
    """Make `os.sysconf` report a machine with the given bytes of physical memory."""
    real = os.sysconf

    def report(nbytes: int) -> None:
        pages = nbytes // real("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf", lambda k: pages if k == "SC_PHYS_PAGES" else real(k))

    return report


@pytest.fixture
def traced_peak():
    """Call a function under tracemalloc: its result, and the bytes traced after it and at peak."""

    def run(call):
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    return run
