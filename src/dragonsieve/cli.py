"""Command-line entry point.

Output formats are fixed per data kind: b-file text for sequences, JSON for
factorizations, TSV for tables, SVG for renders.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from operator import mod
from pathlib import Path

from . import verify as verify_mod
from .bfile import _set_cells, parse_b_file, write_b_file
from .dragons import heighway_turns, levy_turns
from .fractal import decimate_terms, reconstruct_odd_part
from .limits import require_memory
from .render import check_svg, reduce_mod, write_svg
from .sieve import read_factorization, run_sieve, write_table
from .valuations import generate_dci

OUTDIR_ENV = "DRAGONSIEVE_OUTDIR"

# Desk-scale default, overridable by a flag.
DEFAULT_RENDER_LIMIT = 10**4

def _out_path(name: str) -> Path:
    base = os.environ.get(OUTDIR_ENV)
    path = Path(name)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_seq(args) -> int:
    write_b_file(generate_dci(args.p, args.limit).terms, sys.stdout)
    return 0


def _cmd_sieve(args) -> int:
    table = run_sieve(args.limit)
    sys.stdout.flush()
    write_table(table, sys.stdout.buffer)
    return 0


def _cmd_factor(args) -> int:
    limit = args.limit if args.limit is not None else args.n
    table = run_sieve(limit)
    fact = read_factorization(table, args.n)
    sys.stdout.write(json.dumps({"n": fact.n, "factors": [list(f) for f in fact.factors]}))
    sys.stdout.write("\n")
    return 0


def _cmd_decimate(args) -> int:
    if args.levels < 0:
        raise ValueError(f"levels must be non-negative, got {args.levels}")
    # Every row and its text: 12 bytes a term, above the RSS growth measured
    # for p = 2 with 1 and 3 levels (11.2 at 10^6 terms, 11.7 at 10^7).
    require_memory(f"decimated rows of {args.limit} terms", 12 * args.limit)
    current = generate_dci(args.p, args.limit).terms
    rows = [("Original", current)]
    for level in range(args.levels):
        if not current:  # so the levels, and the rows, are bounded by the limit
            raise ValueError(f"levels must be at most {level} for limit {args.limit}: "
                             f"decimated x{level} is already empty")
        current = decimate_terms(current, args.p)
        label = "Decimated" if args.levels == 1 else f"Decimated x{level + 1}"
        rows.append((label, current))
    sys.stdout.flush()
    for label, terms in rows:
        cells = bytearray(b"0, ") * len(terms)
        del cells[-2:]
        sys.stdout.buffer.write(f"{label}:\t".encode("ascii"))
        sys.stdout.buffer.write(_set_cells(cells, terms, 3, 0))
        sys.stdout.buffer.write(b"\n")
    return 0


def _cmd_levy(args) -> int:
    write_b_file(levy_turns(args.iterations).terms, sys.stdout)
    return 0


def _cmd_heighway(args) -> int:
    write_b_file(heighway_turns(args.iterations).terms, sys.stdout)
    return 0


def _cmd_oddpart(args) -> int:
    terms = reconstruct_odd_part(args.limit)
    if args.mod4:
        terms = bytes(map(mod, terms, repeat(4)))
    write_b_file(terms, sys.stdout)
    return 0


def _cmd_render(args) -> int:
    if (args.p is None) == (args.from_file is None):
        raise ValueError("render takes exactly one of --p and --from-file")
    if args.from_file is not None:
        if args.limit is not None:
            raise ValueError("render --limit applies to --p, not to --from-file")
        with open(args.from_file, encoding="ascii") as fh:
            terms = parse_b_file(fh, first=1)
    else:
        limit = DEFAULT_RENDER_LIMIT if args.limit is None else args.limit
        terms = generate_dci(args.p, limit).terms
    mapping = "categorical-mod4" if args.mapping == "mod4" else "ccw-count"
    check_svg(terms, args.angle, mapping, args.stroke_width)  # before the output file exists
    if args.mod is not None:
        terms = reduce_mod(terms, args.mod)
    out = _out_path(args.output)
    with out.open("w", encoding="utf-8") as fh:
        write_svg(terms, fh, args.angle, mapping, args.clockwise, stroke_width=args.stroke_width)
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    names = verify_mod.SUITES if args.scope == "all" else (args.scope,)
    taken = {k for name in names for k in verify_mod.SUITES[name][0]}
    flags = {k for default, _ in verify_mod.SUITES.values() for k in default}
    unused = sorted(k for k in flags - taken if getattr(args, k) is not None)
    if unused:
        raise ValueError(f"verify {args.scope} does not take "
                         + ", ".join("--" + k.replace("_", "-") for k in unused))
    reports = []
    for name in names:
        default, small = verify_mod.SUITES[name]
        preset = small if args.small else default
        limits = {k: preset[k] if getattr(args, k) is None else getattr(args, k)
                  for k in preset}
        # Looked up by name at call time, so a wrapper patched onto the module
        # (as the benchmark's tracer does) is the one that runs.
        reports += getattr(verify_mod, f"verify_{name}")(**limits)
    # Every suite has run before the first line, so a rejected argument
    # exits 2 without partial output.
    for report in reports:
        print(report.summary())
    ok = all(report.passed for report in reports)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dragonsieve",
        description="Division-free valuation sieve, fractal checks, dragon curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit a valuation sequence as b-file text")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("sieve", help="print the sieve table as TSV")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("factor", help="factor n by reading the table; JSON output")
    p.add_argument("n", type=int)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("decimate", help="print original and decimated rows")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--levels", type=int, default=1)
    p.set_defaults(func=_cmd_decimate)

    p = sub.add_parser("levy", help="emit Levy dragon turn counts as b-file text")
    p.add_argument("--iterations", type=int, required=True)
    p.set_defaults(func=_cmd_levy)

    p = sub.add_parser("heighway", help="emit Heighway dragon turns as b-file text")
    p.add_argument("--iterations", type=int, required=True)
    p.set_defaults(func=_cmd_heighway)

    p = sub.add_parser("oddpart", help="emit the odd-part sequence as b-file text")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--mod4", action="store_true")
    p.set_defaults(func=_cmd_oddpart)

    p = sub.add_parser("render", help="trace a sequence and write an SVG")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)  # DEFAULT_RENDER_LIMIT with --p
    p.add_argument("--from-file", default=None, help="render a b-file instead")
    p.add_argument("--angle", type=float, default=90.0)
    p.add_argument("--mapping", choices=("ccw", "mod4"), default="ccw")
    p.add_argument("--mod", type=int, default=None, help="reduce terms mod R first")
    p.add_argument("--clockwise", action="store_true")
    p.add_argument("--stroke-width", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("scope", choices=(*verify_mod.SUITES, "all"))
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--small", action="store_true", help="desk-scale quick limits")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
