import sys
from pathlib import Path

import pytest

# The benchmark's modules import each other as top-level modules, as they do
# when run.py runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


@pytest.fixture(autouse=True)
def in_checkout_root(monkeypatch):
    """run.measure works with paths relative to the checkout root, as run.main does."""
    monkeypatch.chdir(Path(__file__).resolve().parents[2])
