"""Each memory figure bounds the peak RSS growth of its command (see growth_cases)."""

from __future__ import annotations

import pytest

from dragonsieve.limits import BYTES_PER
from growth_cases import CASES, measure, peak_rss

RUNS = [(case.name, n) for case in CASES for n in case.sizes]


@pytest.fixture(scope="module")
def growth(tmp_path_factory):
    """Every case's runs, measured once for the module, by case name and units."""
    return {(run.case, run.units): run for run in measure(tmp_path_factory.mktemp("growth"))}


def test_every_figure_has_a_case():
    assert sorted({case.figure for case in CASES} - {None}) == sorted(BYTES_PER)


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
