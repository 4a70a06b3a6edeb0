"""Tests of the benchmark itself, on small sizes of its workloads.

Run with: python -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

import child
import run
import workloads

SMALL = {
    "sieve-1e6": {"factor_limit": 2000, "table_width": (30, 40)},
    "sequences-render": {"seq_limit": 5000, "dragon_iterations": 6,
                         "render_limit": 3000, "file_terms": 3000},
    "verify-all": {"small": True},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_in_benchmark_json_is_emitted(name, trace):
    result, record = run.measure(name, 3, 0, bool(trace), SMALL[name])
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (result["correct"], result["failed"]) == (True, 0), record["failures"]
    assert record["failed_frac"] == 0
    assert {w["name"] for w in BENCH["workloads"]} == set(SMALL)


def test_planted_wrong_output_counts_in_failed_frac(monkeypatch):
    build = workloads.build

    def planted(*args):
        workload = build(*args)
        factor = workload.requests[0]
        factor.args[1] = str(int(factor.args[1]) + 1)  # the CLI now factors another n
        return workload

    monkeypatch.setattr(workloads, "build", planted)
    result, record = run.measure("sieve-1e6", 3, 0, False, SMALL["sieve-1e6"])
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 2)
    assert record["failed_frac"] == 0.5
    assert record["failures"][0].startswith("factor ")


def test_workload_that_cannot_fit_is_refused(monkeypatch):
    monkeypatch.setattr(child, "mem_available_bytes", lambda: 500 << 20)
    with pytest.raises(SystemExit, match="refusing sieve-1e6"):
        run.measure("sieve-1e6", 3, 0, False)


def test_oracles():
    assert workloads.factorize(720720) == [[2, 4], [3, 2], [5, 1], [7, 1], [11, 1], [13, 1]]
    assert list(workloads.valuations_upto(3, 18)[1:]) == [
        0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2]
    assert list(workloads.odd_parts_mod4(12)[1:]) == [1, 1, 3, 1, 1, 3, 3, 1, 1, 1, 3, 3]
    assert workloads.bfile_mismatch(b"1 0\n2 1\n", [0, 1]) is None
    assert workloads.bfile_mismatch(b"1 0\n2 2\n", [0, 1]) is not None
    assert workloads.bfile_mismatch(b"1 0\n2 1\n3 0\n", [0, 1]) is not None


def test_request_limits_fail_the_request_only(tmp_path):
    def limited(code, timeout_s):
        return child.run([sys.executable, "-c", code], env=dict(os.environ), cwd=tmp_path,
                         stdout=tmp_path / "out", stderr=tmp_path / "err",
                         as_limit=300 << 20, timeout_s=timeout_s)

    slow = limited("import time; time.sleep(30)", 0.5)
    assert slow.timed_out and slow.code == -9 and slow.latency_s < 10
    big = limited("bytearray(600 << 20)", 30)
    assert not big.timed_out and big.code == 1
    assert "MemoryError" in (tmp_path / "err").read_text()
