"""Command-line entry point.

Output formats are fixed per data kind: b-file text for sequences, JSON for
factorizations, TSV for tables, SVG for renders.  Exit codes: 0 success,
1 verification failure, 2 usage error, 141 when the reader of stdout has
closed it.

Each command imports the modules it uses when it runs, so a request loads
only its own part of the library.  Its functions are read from their
modules at that time, so a wrapper patched onto a module (as the
benchmark's tracer does) is the one that runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import repeat
from operator import and_
from pathlib import Path

# Desk-scale default, overridable by a flag.
DEFAULT_RENDER_LIMIT = 10**4

# The verify suites in run order: {suite: (default, --small)}, each a mapping
# from a verify.verify_<suite> parameter to its value.  The parameters share
# their names with the `verify` flags that override them.
SUITES = {
    "sieve": ({"limit": 10**5}, {"limit": 1000}),
    "valuations": ({"limit": 10**6}, {"limit": 10**4}),
    "fractal": ({"limit": 10**5}, {"limit": 10**4}),
    "levy": ({"iterations": 10}, {"iterations": 8}),
    "heighway": ({"iterations": 16}, {"iterations": 10}),
    "render": ({"limit": 10**4}, {"limit": 2000}),
}


def _to_stdout(write, *args) -> int:
    sys.stdout.flush()  # so that no text written before comes after these bytes
    write(*args, sys.stdout.buffer)
    return 0


def _cmd_seq(args) -> int:
    from .bfile import write_b_file
    from .sieve import MAX_WIDTH
    from .valuations import dci_chunks

    # A stream holds about one chunk at any length, so memory bounds no limit:
    # the cap is the widest sieve table instead.
    if args.limit > MAX_WIDTH:
        raise ValueError(f"seq --limit must be at most {MAX_WIDTH}, got {args.limit}")
    return _to_stdout(write_b_file, dci_chunks(args.p, args.limit))


def _cmd_sieve(args) -> int:
    from .bfile import write_table
    from .sieve import run_sieve

    return _to_stdout(write_table, run_sieve(args.limit))


def _cmd_factor(args) -> int:
    import json

    from .sieve import read_factorization, run_sieve

    # At width 1 an n below 1 is refused by name, not as a width never given.
    limit = args.limit if args.limit is not None else max(args.n, 1)
    table = run_sieve(limit)
    sys.stdout.write(json.dumps({"n": args.n, "factors": read_factorization(table, args.n)}))
    sys.stdout.write("\n")
    return 0


def _cmd_decimate(args) -> int:
    from .bfile import write_rows
    from .fractal import decimate_terms
    from .limits import BYTES_PER, require_memory
    from .valuations import generate_dci

    if args.levels < 0:
        raise ValueError(f"levels must be non-negative, got {args.levels}")
    require_memory(f"decimated rows of {args.limit} terms",
                   BYTES_PER["decimated term"] * args.limit)
    current = generate_dci(args.p, args.limit).terms
    rows = [("Original", current)]
    for level in range(args.levels):
        if not current:  # so the levels, and the rows, are bounded by the limit
            raise ValueError(f"levels must be at most {level} for limit {args.limit}: "
                             f"decimated x{level} is already empty")
        current = decimate_terms(current, args.p)
        label = "Decimated" if args.levels == 1 else f"Decimated x{level + 1}"
        rows.append((label, current))
    return _to_stdout(write_rows, ((f"{label}:\t".encode("ascii"), terms) for label, terms in rows),
                      b", ")


def _cmd_levy(args) -> int:
    from .bfile import write_b_file
    from .dragons import levy_turns

    return _to_stdout(write_b_file, (levy_turns(args.iterations).terms,))


def _cmd_heighway(args) -> int:
    from .bfile import write_b_file
    from .dragons import heighway_turns

    return _to_stdout(write_b_file, (heighway_turns(args.iterations).terms,))


def _cmd_oddpart(args) -> int:
    from .bfile import write_b_file
    from .fractal import reconstruct_odd_part

    terms = reconstruct_odd_part(args.limit)
    if args.mod4:
        terms = bytes(map(and_, terms, repeat(3)))  # an odd part is positive: & 3 is mod 4
    return _to_stdout(write_b_file, (terms,))


def _cmd_render(args) -> int:
    from .bfile import parse_b_file
    from .render import check_svg, reduce_mod, write_svg
    from .valuations import generate_dci

    if (args.p is None) == (args.from_file is None):
        raise ValueError("render takes exactly one of --p and --from-file")
    if args.from_file is not None:
        if args.limit is not None:
            raise ValueError("render --limit applies to --p, not to --from-file")
        with open(args.from_file, "rb") as fh:
            terms = parse_b_file(fh)
    else:
        limit = DEFAULT_RENDER_LIMIT if args.limit is None else args.limit
        terms = generate_dci(args.p, limit).terms
    mapping = "categorical-mod4" if args.mapping == "mod4" else "ccw-count"
    check_svg(terms, args.angle, mapping, args.stroke_width)  # before the output file exists
    if args.mod is not None:
        terms = reduce_mod(terms, args.mod)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    fh = out.open("w", encoding="utf-8")
    try:
        with fh:
            write_svg(terms, fh, args.angle, mapping, args.clockwise,
                      stroke_width=args.stroke_width)
    except BaseException:  # a failed write, or its last flush, leaves no partial SVG
        out.unlink()
        raise
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    names = SUITES if args.scope == "all" else (args.scope,)
    taken = {k for name in names for k in SUITES[name][0]}
    flags = {k for default, _ in SUITES.values() for k in default}
    unused = sorted(k for k in flags - taken if getattr(args, k) is not None)
    if unused:
        raise ValueError(f"verify {args.scope} does not take "
                         + ", ".join("--" + k.replace("_", "-") for k in unused))
    reports = []
    for name in names:
        default, small = SUITES[name]
        preset = small if args.small else default
        limits = {k: preset[k] if getattr(args, k) is None else getattr(args, k)
                  for k in preset}
        reports += getattr(verify, f"verify_{name}")(**limits)
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
    p.add_argument("scope", choices=(*SUITES, "all"))
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--small", action="store_true", help="desk-scale quick limits")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # The reader has gone, as `head` does: point stdout at the null device
        # so that the flush at exit cannot raise, and exit silently with
        # 128 + SIGPIPE, the status a shell reports for coreutils in its place.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its text is empty
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
