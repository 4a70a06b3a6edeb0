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
import time
from pathlib import Path

from . import verify as verify_mod
from .bfile import format_b_file, read_b_file
from .dragons import heighway_turns, levy_turns
from .fractal import decimate_terms, reconstruct_odd_part
from .render import TurnProgram, reduce_mod, trace, write_svg
from .sieve import format_table, read_factorization, run_sieve
from .valuations import generate_dci, trial_division_factor

OUTDIR_ENV = "DRAGONSIEVE_OUTDIR"

# Desk-scale defaults, overridable by flags.
DEFAULT_SIEVE_LIMIT = 10**5
DEFAULT_RENDER_LIMIT = 10**4


def _out_path(name: str) -> Path:
    base = os.environ.get(OUTDIR_ENV)
    path = Path(name)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_seq(args) -> int:
    seq = generate_dci(args.p, args.limit)
    sys.stdout.write(format_b_file(seq.terms))
    return 0


def _cmd_sieve(args) -> int:
    sys.stdout.write(format_table(run_sieve(args.limit)))
    return 0


def _cmd_factor(args) -> int:
    limit = args.limit if args.limit is not None else args.n
    table = run_sieve(limit)
    fact = read_factorization(table, args.n)
    sys.stdout.write(json.dumps({"n": fact.n, "factors": [list(f) for f in fact.factors]}))
    sys.stdout.write("\n")
    return 0


def _cmd_decimate(args) -> int:
    seq = generate_dci(args.p, args.limit)
    rows = [("Original", seq.terms)]
    current = seq.terms
    for level in range(args.levels):
        current = decimate_terms(current, args.p)
        label = "Decimated" if args.levels == 1 else f"Decimated x{level + 1}"
        rows.append((label, current))
    for label, terms in rows:
        sys.stdout.write(label + ":\t" + ", ".join(str(t) for t in terms) + "\n")
    return 0


def _cmd_levy(args) -> int:
    sys.stdout.write(format_b_file(levy_turns(args.iterations).terms))
    return 0


def _cmd_heighway(args) -> int:
    sys.stdout.write(format_b_file(heighway_turns(args.iterations).terms))
    return 0


def _cmd_oddpart(args) -> int:
    terms = reconstruct_odd_part(args.limit)
    if args.mod4:
        terms = [t % 4 for t in terms]
    sys.stdout.write(format_b_file(terms))
    return 0


def _cmd_render(args) -> int:
    if args.from_file:
        terms = read_b_file(args.from_file)
    else:
        if args.p is None:
            print("render: either --p or --from-file is required", file=sys.stderr)
            return 2
        terms = generate_dci(args.p, args.limit).terms
    if args.mod is not None:
        terms = reduce_mod(terms, args.mod)
    mapping = "categorical-mod4" if args.mapping == "mod4" else "ccw-count"
    program = TurnProgram(tuple(terms), args.angle, mapping, clockwise=args.clockwise)
    out = _out_path(args.output)
    write_svg(trace(program), out, stroke_width=args.stroke_width)
    print(f"wrote {out}")
    return 0


def _cmd_verify(args) -> int:
    names = verify_mod.SUITES if args.scope == "all" else (args.scope,)
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


def _cmd_bench(args) -> int:
    limit = args.limit
    t0 = time.perf_counter()
    run_sieve(limit)
    sieve_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for n in range(2, limit + 1):
        trial_division_factor(n)
    trial_s = time.perf_counter() - t0

    sys.stdout.write("task,limit,seconds\n")
    sys.stdout.write(f"dci-sieve-all-rows,{limit},{sieve_s:.6f}\n")
    sys.stdout.write(f"trial-division-all-n,{limit},{trial_s:.6f}\n")
    return 0


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
    p.add_argument("--limit", type=int, default=DEFAULT_RENDER_LIMIT)
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

    p = sub.add_parser("bench", help="time sieve rows vs trial division; CSV output")
    p.add_argument("--limit", type=int, default=DEFAULT_SIEVE_LIMIT)
    p.set_defaults(func=_cmd_bench)

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
