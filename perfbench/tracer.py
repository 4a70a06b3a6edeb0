"""Run one dragonsieve CLI request with a span around every layer's public functions.

Usage: python perfbench/tracer.py SPANS_FILE CLI_ARG...

Behaves like ``python -m dragonsieve.cli CLI_ARG...`` and, when the request
ends, writes its spans (name, start, end, parent) and counters to SPANS_FILE
with ``marshal``.  Spans stay in memory until then.  The wrappers exist only
in this process; no file of the program changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import resource
import sys
import time
from array import array
from collections import Counter

LAYERS = ("valuations", "sieve", "fractal", "dragons", "render", "bfile", "verify", "cli")

# Methods traced besides each layer's module-level public functions.
METHODS = {"sieve": {"SieveTable": ("place_row", "place_unit_row", "row")}}

# Spans that also record growth of the peak RSS when entered from another layer.
RSS_SPANS = {"sieve.run_sieve", "render.trace", "render.to_svg", "render.write_svg"}


def _count_generate_dci(c, seq, args):
    c["valuations.terms_generated"] += len(seq._full)
    c["valuations.terms_requested"] += seq.m


def _count_place_row(c, _, args):
    table, p, row = args[:3]
    c["sieve.column_entries"] += table.m // p
    c["sieve.generated_row_entries"] += table.m // p
    c["sieve.generated_row_terms"] += len(row._full)


def _count_place_unit_row(c, _, args):
    c["sieve.column_entries"] += args[0].m // args[1]


def _count_verify(c, reports, args):
    c["verify.checks"] += len(reports)
    c["verify.checks_failed"] += sum(not r.passed for r in reports)


# Counters taken from a traced function's result and arguments.
COUNTERS = {
    "valuations.generate_dci": _count_generate_dci,
    "sieve.place_row": _count_place_row,
    "sieve.place_unit_row": _count_place_unit_row,
    "render.trace": lambda c, path, a: c.update({"render.trace.vertices": len(path.vertices)}),
    "render.to_svg": lambda c, text, a: c.update({"render.svg_bytes": len(text.encode())}),
    "bfile.format_b_file": lambda c, text, a: c.update({"bfile.format_b_file.bytes": len(text)}),
    "bfile.parse_b_file": lambda c, terms, a: c.update({"bfile.parse_b_file.lines": len(terms)}),
    "dragons.levy_turns": lambda c, seq, a: c.update({"dragons.terms": len(seq.terms)}),
    "dragons.heighway_turns": lambda c, seq, a: c.update({"dragons.terms": len(seq.terms)}),
    **{f"verify.verify_{s}": _count_verify
       for s in ("sieve", "valuations", "fractal", "levy", "heighway", "render")},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        count = COUNTERS.get(name)
        rss_key = f"{layer}.rss_growth_kb" if name in RSS_SPANS else None
        stack, name_ids, parents = self._stack, self.name, self.parent
        starts, ends, counters = self.start, self.end, self.counters
        clock, span_names = time.perf_counter, self.names

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            name_ids.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            track = rss_key and (parent < 0 or
                                   span_names[name_ids[parent]].split(".")[0] != layer)
            if track:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if track:
                rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                counters[rss_key] += rss1 - rss0
            if count:
                count(counters, result, args)
            return result

        return span

    def install(self) -> None:
        """Wrap each layer's public functions in every dragonsieve module that holds them."""
        modules = {layer: importlib.import_module(f"dragonsieve.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dragonsieve" or mod_name.startswith("dragonsieve."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and inspect.isfunction(obj):
                        setattr(mod, attr, wrappers[id(obj)])

        # `terms` copies the retained prefix on every access; count the copies.
        seq_cls = modules["valuations"].ValuationSequence
        terms = seq_cls.terms
        counters = self.counters

        def counted_terms(seq):
            out = terms.fget(seq)
            counters["valuations.terms_view.calls"] += 1
            counters["valuations.terms_view.elements"] += len(out)
            return out

        seq_cls.terms = property(counted_terms, doc=terms.__doc__)

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            marshal.dump({
                "names": self.names,
                "name": self.name.tobytes(),
                "parent": self.parent.tobytes(),
                "start": self.start.tobytes(),
                "end": self.end.tobytes(),
                "counters": dict(self.counters),
            }, fh)


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from dragonsieve import cli

    try:
        sys.exit(cli.main(cli_args))
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
