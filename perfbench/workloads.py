"""The benchmark's workloads and the division-based oracles that check them.

Every workload is a closed loop with one client: it sends its requests one
after another, and each request is a fresh ``python -m dragonsieve.cli``
process.  The oracles below divide and share no code with the division-free
program they check.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# A check gets (exit code, stdout bytes, SVG path or None) and returns a
# failure reason, or None when the output is right.
Check = Callable[[int, bytes, "Path | None"], "str | None"]


@dataclass
class Request:
    kind: str  # reported as the <kind>_s latency
    args: list[str]  # arguments after ``python -m dragonsieve.cli``
    check: Check
    est_mb: int  # expected peak RSS of the request at its size
    svg: Path | None = None  # the SVG file the request writes, if any
    # The part of stdout that must repeat byte for byte from run to run.
    stable: Callable[[bytes], bytes] = lambda out: out


@dataclass
class Workload:
    name: str
    seed: int | None  # None when the inputs do not depend on the seed
    sizes: dict
    requests: list[Request]


# Sizes of each workload; tests pass smaller ones to ``build``.
SIZES = {
    "sieve-1e6": {"factor_limit": 10**6, "table_width": (4000, 4096)},
    "sequences-render": {
        "seq_limit": 10**7,
        "dragon_iterations": 20,
        "render_limit": 10**6,
        "file_terms": 10**6,
    },
    "verify-all": {"small": False},
}

# Peak RSS of each request kind at the sizes above, measured on the seed
# code plus a quarter; used to refuse a workload that cannot fit.
EST_MB = {
    "factor": 2300, "table": 100, "seq": 1300, "dragon": 300,
    "render": 450, "render_file": 550, "verify": 200,
}

RENDER_PRIMES = (3, 5, 7)
FILE_ANGLES = (60, 120, 135)

VERIFY_CHECKS = (
    "sieve-primes-match-trial-division",
    "factorization-reconstructs-n",
    *(f"dci-matches-division-oracle-p{p}" for p in (2, 3, 5, 7, 11, 13)),
    *(name for p in (2, 3, 5, 7)
      for name in (f"decimation-self-containment-p{p}", f"nested-decimation-p{p}")),
    "aperiodicity-witnesses-p2",
    "aperiodicity-witnesses-p3",
    "odd-part-reconstruction",
    "odd-even-decomposition-identity",
    "levy-turns-equal-v2-at-multiples-of-8",
    "heighway-turns-equal-odd-part-mod-4",
    "mod4-trace-invariance-90deg",
    *(f"unit-segment-length-{a}deg" for a in (120, 135, 60)),
    "vertex-count-law",
)


# --- oracles -----------------------------------------------------------------

def factorize(n: int) -> list[list[int]]:
    """Prime factorization of n by trial division, as [prime, exponent] pairs."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append([d, e])
        d += 1
    if n > 1:
        factors.append([n, 1])
    return factors


def primes_upto(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def valuations_upto(p: int, n: int) -> bytearray:
    """v[i] = v_p(i) for 1 <= i <= n, by v_p(i) = 1 + v_p(i / p) when p divides i."""
    v = bytearray(n + 1)
    for i in range(p, n + 1, p):
        v[i] = 1 + v[i // p]
    return v


def odd_parts_mod4(n: int) -> bytearray:
    """o[i] = odd part of i, mod 4, by halving even i."""
    odd = list(range(n + 1))
    for i in range(2, n + 1, 2):
        odd[i] = odd[i // 2]
    return bytearray(o % 4 for o in odd)


# --- output checks -----------------------------------------------------------

_CHUNK = 1 << 20


def bfile_mismatch(out: bytes, values) -> str | None:
    """Compare b-file text against ``values`` (the term at index i is values[i-1])."""
    pos = 0
    for a in range(0, len(values), _CHUNK):
        b = min(a + _CHUNK, len(values))
        want = "".join([f"{i} {v}\n" for i, v in zip(range(a + 1, b + 1), values[a:b])])
        want = want.encode()
        if out[pos:pos + len(want)] != want:
            return f"b-file differs from the oracle within indexes {a + 1}..{b}"
        pos += len(want)
    if pos != len(out):
        return f"b-file has {len(out) - pos} bytes after index {len(values)}"
    return None


def svg_points(svg: Path) -> list[float]:
    text = svg.read_text(encoding="utf-8")
    start = text.index('points="') + len('points="')
    return list(map(float, text[start:text.index('"', start)].replace(",", " ").split()))


def lattice_mismatch(coords: list[float], terms) -> str | None:
    """Compare SVG points with a 90-degree move-then-turn walk from the origin.

    The SVG flips y and translates the walk, so compare offsets from the first
    point with y negated.
    """
    steps = ((1, 0), (0, 1), (-1, 0), (0, -1))
    x0, y0 = coords[0], coords[1]
    x = y = heading = 0
    for i, t in enumerate(terms, start=1):
        dx, dy = steps[heading]
        x, y = x + dx, y + dy
        if coords[2 * i] - x0 != x or y0 - coords[2 * i + 1] != y:
            return f"vertex {i} is not the lattice walk's ({x}, {y})"
        heading = (heading + t) % 4
    return None


def check_factor(n: int) -> Check:
    def check(code, out, svg):
        if code:
            return f"exit code {code}"
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        want = {"n": n, "factors": factorize(n)}
        return None if got == want and out.endswith(b"\n") else f"factor {n}: {got} != {want}"
    return check


def check_table(width: int) -> Check:
    def check(code, out, svg):
        if code:
            return f"exit code {code}"
        lines = ["\t" + "\t".join(map(str, range(1, width + 1)))]
        for p in primes_upto(width):
            lines.append(f"{p}\t" + "\t".join(map(str, valuations_upto(p, width)[1:])))
        if out != ("\n".join(lines) + "\n").encode():
            return f"TSV table of width {width} differs from v_p(n)"
        return None
    return check


def check_bfile(values_of: Callable[[], bytearray]) -> Check:
    def check(code, out, svg):
        return f"exit code {code}" if code else bfile_mismatch(out, values_of())
    return check


def check_svg(terms_of: Callable[[], "bytes | bytearray"], lattice: bool) -> Check:
    def check(code, out, svg):
        if code:
            return f"exit code {code}"
        if not out.startswith(b"wrote "):
            return f"unexpected stdout {out[:80]!r}"
        if not svg.is_file():
            return "no SVG written"
        terms = terms_of()
        coords = svg_points(svg)
        if len(coords) != 2 * (len(terms) + 1):
            return f"{len(coords) // 2} vertices for {len(terms)} terms"
        return lattice_mismatch(coords, terms) if lattice else None
    return check


def without_timing(out: bytes) -> bytes:
    """`verify` output minus its timing column, the only part that varies."""
    return re.sub(rb"\t[0-9.]+s$", b"", out, flags=re.M)


def check_verify(code, out, svg):
    if code:
        return f"exit code {code}"
    lines = out.decode().splitlines()
    oks = [line.split("\t")[1] for line in lines[:-1] if line.startswith("ok\t")]
    if oks != list(VERIFY_CHECKS) or len(lines) != len(VERIFY_CHECKS) + 1:
        return "verify did not print the full set of ok lines"
    return None if lines[-1] == "PASS" else f"verify ended with {lines[-1]!r}"


# --- workloads -----------------------------------------------------------------

def build(name: str, seed: int, work: Path, sizes: dict | None = None) -> Workload:
    """The requests of workload ``name``, with inputs derived from ``seed``.

    Files the requests read or write go under ``work``.
    """
    sizes = dict(SIZES[name] if sizes is None else sizes)
    rng = random.Random(f"{name}:{seed}")
    if name == "sieve-1e6":
        m = sizes["factor_limit"]
        n = rng.randint(2, m)
        width = rng.randrange(*sizes["table_width"])
        sizes.update(n=n, table_width=width)
        reqs = [
            Request("factor", ["factor", str(n), "--limit", str(m)], check_factor(n),
                    EST_MB["factor"]),
            Request("table", ["sieve", "--limit", str(width)], check_table(width),
                    EST_MB["table"]),
        ]
        return Workload(name, seed, sizes, reqs)

    if name == "sequences-render":
        p = rng.choice(RENDER_PRIMES)
        angle = rng.choice(FILE_ANGLES)
        seq_n, iters = sizes["seq_limit"], sizes["dragon_iterations"]
        render_n, file_n = sizes["render_limit"], sizes["file_terms"]
        file_terms = bytes(rng.getrandbits(2) for _ in range(file_n))
        bfile = work / "render-input.bfile"
        bfile.write_text("".join(map("{} {}\n".format, range(1, file_n + 1), file_terms)),
                         encoding="ascii")
        sizes.update(render_p=p, file_angle=angle)
        levy_n, heighway_n = 2 ** (iters + 1) - 1, 2**iters - 1
        reqs = [
            Request("seq", ["seq", "--p", "2", "--limit", str(seq_n)],
                    check_bfile(lambda: valuations_upto(2, seq_n)[1:]), EST_MB["seq"]),
            Request("dragon", ["levy", "--iterations", str(iters)],
                    # v2(8i) = 3 + v2(i)
                    check_bfile(lambda: bytes(3 + v for v in valuations_upto(2, levy_n)[1:])),
                    EST_MB["dragon"]),
            Request("dragon", ["heighway", "--iterations", str(iters)],
                    check_bfile(lambda: odd_parts_mod4(heighway_n)[1:]), EST_MB["dragon"]),
            Request("render", ["render", "--p", str(p), "--limit", str(render_n),
                               "--angle", "90", "-o", str(work / "render.svg")],
                    check_svg(lambda: valuations_upto(p, render_n)[1:], lattice=True),
                    EST_MB["render"], work / "render.svg"),
            Request("render_file", ["render", "--from-file", str(bfile), "--angle", str(angle),
                                    "-o", str(work / "render-file.svg")],
                    check_svg(lambda: file_terms, lattice=False),
                    EST_MB["render_file"], work / "render-file.svg"),
        ]
        return Workload(name, seed, sizes, reqs)

    if name == "verify-all":
        # Deterministic: `verify all` takes no input the seed could vary.
        args = ["verify", "all"] + (["--small"] if sizes["small"] else [])
        return Workload(name, None, sizes, [Request("verify", args, check_verify,
                                                    EST_MB["verify"], stable=without_timing)])
    raise ValueError(f"unknown workload {name!r}")
