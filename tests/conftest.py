from __future__ import annotations

import os

import pytest


@pytest.fixture
def report_physical_memory(monkeypatch):
    """Make `os.sysconf` report a machine with the given bytes of physical memory."""
    real = os.sysconf

    def report(nbytes: int) -> None:
        pages = nbytes // real("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf", lambda k: pages if k == "SC_PHYS_PAGES" else real(k))

    return report
