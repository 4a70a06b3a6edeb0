"""Per-layer metrics computed from the traced run's spans.

A span's self time is its duration minus the time its direct child spans
cover.  A ``.s`` metric is a span's whole duration unless LAYER_METRICS
marks it ``self``.  Nothing in dragonsieve waits on a queue, a lock or I/O
from another process, so no layer has a "time waited" metric.

Each metric names the end-to-end figure it should move and the workload it
moves on.  ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``output_mb`` are the
end-to-end metrics in BENCHMARK.json; ``<kind>_s`` are the per-request
latencies in each run's record (``factor_s``, ``table_s``, ``seq_s``,
``dragon_s``, ``render_s``, ``render_file_s``, ``verify_s``).
"""

from __future__ import annotations

import marshal
from array import array
from collections import Counter
from pathlib import Path

SIEVE, SEQ, VERIFY = "sieve-1e6", "sequences-render", "verify-all"


def load_request(path: Path) -> dict:
    """Calls, whole and self seconds per span name, and counters, of one traced request."""
    with open(path, "rb") as fh:
        raw = marshal.load(fh)
    names = raw["names"]
    name, parent = array("i"), array("i")
    start, end = array("d"), array("d")
    for arr, key in ((name, "name"), (parent, "parent"), (start, "start"), (end, "end")):
        arr.frombytes(raw[key])
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, par in enumerate(parent):
        if par >= 0:
            covered[par] += dur[i]
    calls, whole, self_s = Counter(), Counter(), Counter()
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        whole[key] += dur[i]
        self_s[key] += dur[i] - covered[i]
    return {"calls": calls, "s": whole, "self_s": self_s, "counters": Counter(raw["counters"])}


def merge(requests: list[dict]) -> dict:
    """Sum of the requests' figures, except RSS growth, which is the largest."""
    total = {"calls": Counter(), "s": Counter(), "self_s": Counter(), "counters": Counter()}
    for req in requests:
        for key in ("calls", "s", "self_s"):
            total[key].update(req[key])
        for key, value in req["counters"].items():
            if key.endswith("rss_growth_kb"):
                total["counters"][key] = max(total["counters"][key], value)
            else:
                total["counters"][key] += value
    return total


def _calls(span):
    return lambda t: t["calls"][span]


def _secs(*spans, self_time=False):
    key = "self_s" if self_time else "s"
    return lambda t: sum(t[key][s] for s in spans)


def _count(name):
    return lambda t: t["counters"][name]


def _ratio(num, den):
    return lambda t: t["counters"][num] / t["counters"][den] if t["counters"][den] else 0.0


def _mb(name):
    return lambda t: t["counters"][name] / 1024


V = "valuations"
# (name, unit, better, target end-to-end metric on its workload, value from merged figures)
LAYER_METRICS = [
    (f"{V}.generate_dci.calls", "count", "lower", f"factor_s, peak_rss_mb on {SIEVE}; seq_s on {SEQ}",
     _calls(f"{V}.generate_dci")),
    (f"{V}.generate_dci.s", "s", "lower", f"factor_s on {SIEVE}; seq_s on {SEQ}",
     _secs(f"{V}.generate_dci")),
    (f"{V}.terms_generated", "count", "lower", f"factor_s, peak_rss_mb on {SIEVE}; seq_s on {SEQ}",
     _count(f"{V}.terms_generated")),
    (f"{V}.overshoot_ratio", "ratio", "lower", f"peak_rss_mb on {SIEVE}; seq_s on {SEQ}",
     _ratio(f"{V}.terms_generated", f"{V}.terms_requested")),
    (f"{V}.terms_view.calls", "count", "lower", f"verify_s on {VERIFY}",
     _count(f"{V}.terms_view.calls")),
    (f"{V}.terms_view.elements", "count", "lower", f"verify_s on {VERIFY}",
     _count(f"{V}.terms_view.elements")),

    ("sieve.run_sieve.s", "s", "lower", f"factor_s on {SIEVE} (self time)",
     _secs("sieve.run_sieve", self_time=True)),
    ("sieve.next_candidate.calls", "count", "lower", f"factor_s on {SIEVE}",
     _calls("sieve.next_candidate")),
    ("sieve.next_candidate.s", "s", "lower", f"factor_s on {SIEVE}", _secs("sieve.next_candidate")),
    ("sieve.place_row.calls", "count", "lower", f"factor_s, peak_rss_mb on {SIEVE}",
     _calls("sieve.place_row")),
    ("sieve.place_row.s", "s", "lower", f"factor_s on {SIEVE}", _secs("sieve.place_row")),
    ("sieve.place_unit_row.calls", "count", "lower", f"factor_s on {SIEVE}",
     _calls("sieve.place_unit_row")),
    ("sieve.place_unit_row.s", "s", "lower", f"factor_s on {SIEVE}", _secs("sieve.place_unit_row")),
    ("sieve.column_entries", "count", "lower", f"factor_s, peak_rss_mb on {SIEVE}",
     _count("sieve.column_entries")),
    ("sieve.row_terms_used_ratio", "ratio", "higher", f"factor_s, peak_rss_mb on {SIEVE}",
     _ratio("sieve.generated_row_entries", "sieve.generated_row_terms")),
    ("sieve.rss_growth_mb", "MB", "lower", f"peak_rss_mb on {SIEVE}", _mb("sieve.rss_growth_kb")),
    ("sieve.read_factorization.calls", "count", "lower", f"verify_s on {VERIFY}",
     _calls("sieve.read_factorization")),
    ("sieve.read_factorization.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("sieve.read_factorization")),
    ("sieve.format_table.s", "s", "lower", f"table_s on {SIEVE}", _secs("sieve.format_table")),

    ("fractal.decimate_terms.calls", "count", "lower", f"verify_s on {VERIFY}",
     _calls("fractal.decimate_terms")),
    ("fractal.decimate_terms.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("fractal.decimate_terms")),
    ("fractal.check_self_containment.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("fractal.check_self_containment")),
    ("fractal.aperiodicity_witness.calls", "count", "lower", f"verify_s on {VERIFY}",
     _calls("fractal.aperiodicity_witness")),
    ("fractal.aperiodicity_witness.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("fractal.aperiodicity_witness")),
    ("fractal.reconstruct_odd_part.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("fractal.reconstruct_odd_part")),

    ("dragons.levy_turns.s", "s", "lower", f"dragon_s on {SEQ}; verify_s on {VERIFY}",
     _secs("dragons.levy_turns")),
    ("dragons.heighway_turns.s", "s", "lower", f"dragon_s on {SEQ}; verify_s on {VERIFY}",
     _secs("dragons.heighway_turns")),
    ("dragons.terms", "count", "lower", f"dragon_s on {SEQ}", _count("dragons.terms")),
    ("dragons.check.s", "s", "lower", f"verify_s on {VERIFY}",
     _secs("dragons.check_levy_theorem", "dragons.check_heighway_equivalence")),

    ("render.trace.calls", "count", "lower", f"render_s, render_file_s on {SEQ}",
     _calls("render.trace")),
    ("render.trace.s", "s", "lower", f"render_s, render_file_s on {SEQ}", _secs("render.trace")),
    ("render.trace.vertices", "count", "lower", f"render_s, render_file_s, peak_rss_mb on {SEQ}",
     _count("render.trace.vertices")),
    ("render.to_svg.s", "s", "lower", f"render_s, render_file_s on {SEQ}", _secs("render.to_svg")),
    ("render.svg_bytes", "bytes", "lower", f"output_mb, render_s on {SEQ}",
     _count("render.svg_bytes")),
    ("render.path_equal.s", "s", "lower", f"verify_s on {VERIFY}", _secs("render.path_equal")),
    ("render.rss_growth_mb", "MB", "lower", f"peak_rss_mb on {SEQ}", _mb("render.rss_growth_kb")),

    ("bfile.format_b_file.s", "s", "lower", f"seq_s, dragon_s on {SEQ}",
     _secs("bfile.format_b_file")),
    ("bfile.format_b_file.bytes", "bytes", "lower", f"seq_s, dragon_s, output_mb on {SEQ}",
     _count("bfile.format_b_file.bytes")),
    ("bfile.parse_b_file.s", "s", "lower", f"render_file_s on {SEQ}", _secs("bfile.parse_b_file")),
    ("bfile.parse_b_file.lines", "count", "lower", f"render_file_s on {SEQ}",
     _count("bfile.parse_b_file.lines")),

    *((f"verify.{suite}.s", "s", "lower", f"verify_s on {VERIFY} (self time)",
       _secs(f"verify.verify_{suite}", self_time=True))
      for suite in ("sieve", "valuations", "fractal", "levy", "heighway", "render")),
    ("verify.checks", "count", "higher", f"verify_s on {VERIFY} (work done)",
     _count("verify.checks")),
    ("verify.checks_failed", "count", "lower", f"failed requests on {VERIFY}",
     _count("verify.checks_failed")),

    ("cli.main.s", "s", "lower", "wall_s on every workload (self time: argparse and output writes)",
     _secs("cli.main", "cli.build_parser", self_time=True)),
    ("cli.stdout_bytes", "bytes", "lower", "output_mb on every workload",
     _count("cli.stdout_bytes")),
    ("trace.overhead_s", "s", "lower", "none: the traced pass's wall time minus the untraced pass's",
     _count("trace.overhead_s")),
]


def layer_metrics(total: dict) -> dict:
    return {name: {"value": value(total), "unit": unit}
            for name, unit, _, _, value in LAYER_METRICS}
