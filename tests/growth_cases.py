"""Each memory figure of `dragonsieve.limits.BYTES_PER`, against the growth it bounds.

A case runs one command in a fresh child: a CLI command, or ``python -c``
for `to_svg`, and for `generate_dci`, which `seq` streams in its place.
Its growth is the child's peak RSS less that of a tiny run of the same
command, and it must not exceed what the command's guard charges at that
size, or, for `seq`, a fixed bound that no figure charges.
A figure that scales with size is measured at two sizes of at least 10^6
units; the chunk-vertex figure, which stops at one chunk of `render.CHUNK`
vertices, at one size of many chunks.

Each child is forked by a small launcher, which reads its ``ru_maxrss``.
A child that this process started by fork or vfork would not do: on Linux,
exec takes the peak RSS of the address space it leaves into the child's own
``ru_maxrss``, and for such a child that is this process's.

The module needs nothing outside the standard library, so it also runs as a
script under any supported Python, pytest or not, and exits 1 if a growth
exceeds its charge.  Case names as arguments run only those cases; with none
it runs every case::

    python3.10 tests/growth_cases.py
    python3.10 tests/growth_cases.py factor render-list
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from dragonsieve.bfile import format_b_file  # noqa: E402
from dragonsieve.fractal import reconstruct_odd_part  # noqa: E402
from dragonsieve.limits import BYTES_PER  # noqa: E402
from dragonsieve.render import CHUNK  # noqa: E402

# Forks argv[1:], with stdout on the null device, and prints its peak RSS in KiB.
_LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""

# Turns of 1 and 3 units at 90 degrees: a staircase whose x and y both grow
# with the walk, so each vertex has two coordinates as wide as any at its size.
_TO_SVG = """\
import sys
from dragonsieve.render import to_svg
to_svg(bytes([1, 3]) * (int(sys.argv[1]) // 2))
"""

_DCI = """\
import sys
from dragonsieve.valuations import generate_dci
generate_dci(2, int(sys.argv[1]))
"""


class Case(NamedTuple):
    name: str
    figure: str | None  # its key in BYTES_PER, or None for a stream's fixed bound
    argv: Callable[[int, Path], list[str]]  # the child's arguments for n units, given a work dir
    need: Callable[[int], int]  # the bytes its guard charges for n units
    sizes: tuple[int, ...]
    runs: int = 1  # runs at each size and at TINY, of which the median peak counts


def _cli(*args) -> list[str]:
    return ["-m", "dragonsieve.cli", *map(str, args)]


def _render_file(label: str, terms_of: Callable[[int], object],
                 *flags) -> Callable[[int, Path], list[str]]:
    def argv(n: int, tmp: Path) -> list[str]:
        src = tmp / f"{label}-{n}.txt"
        src.write_bytes(format_b_file(terms_of(n)))
        return _cli("render", "--from-file", src, *flags, "-o", f"{label}-{n}.svg")

    return argv


def _svg(held: str) -> Callable[[int], int]:
    return lambda n: BYTES_PER[held] * n + BYTES_PER["svg chunk vertex"] * min(n + 1, CHUNK)


def _per(figure: str) -> Callable[[int], int]:
    return lambda n: BYTES_PER[figure] * n


MILLION = 10**6
TINY = 10  # the units of the run whose peak every growth is measured from
WORKERS = 2  # children run at a time
# The growth of a command that streams, which holds about one chunk at any size.
STREAM_BOUND = 2 << 20

# A run's peak varies by up to 0.3 MiB, so a figure within 10 % of its growth
# at 10^6 units is read as the median of five runs.
CASES = (
    Case("dci", "valuation term", lambda n, _: ["-c", _DCI, str(n)],
         _per("valuation term"), (MILLION, 2 * MILLION)),
    Case("seq", None, lambda n, _: _cli("seq", "--p", 2, "--limit", n),
         lambda n: STREAM_BOUND, (MILLION, 2 * MILLION)),
    Case("factor", "sieve column", lambda n, _: _cli("factor", 7, "--limit", n),
         _per("sieve column"), (MILLION, 2 * MILLION), runs=5),
    # n = 2**(j+1): a Levy dragon of j iterations has n - 1 terms and is charged for n.
    Case("levy", "dragon term",
         lambda n, _: _cli("levy", "--iterations", n.bit_length() - 2),
         _per("dragon term"), (1 << 20, 1 << 21)),
    Case("heighway", "dragon term",
         lambda n, _: _cli("heighway", "--iterations", n.bit_length() - 1),
         _per("dragon term"), (1 << 20, 1 << 21)),
    Case("oddpart", "odd-part term", lambda n, _: _cli("oddpart", "--limit", n),
         _per("odd-part term"), (MILLION, 2 * MILLION)),
    Case("decimate", "decimated term",
         lambda n, _: _cli("decimate", "--p", 2, "--levels", 3, "--limit", n),
         _per("decimated term"), (MILLION, 2 * MILLION), runs=5),
    Case("to_svg", "svg text vertex", lambda n, _: ["-c", _TO_SVG, str(n)],
         lambda n: BYTES_PER["svg text vertex"] * (n + 1), (MILLION, 2 * MILLION)),
    Case("render-p", "svg byte term",
         lambda n, _: _cli("render", "--p", 2, "--limit", n, "-o", f"p-{n}.svg"),
         _svg("svg byte term"), (MILLION, 2 * MILLION)),
    # Odd parts are distinct ints above 255, so the parse holds a list; --mod 4 adds a second.
    Case("render-list", "svg list term",
         _render_file("odd", reconstruct_odd_part, "--mod", 4, "--angle", 120),
         _svg("svg list term"), (MILLION, 2 * MILLION)),
    # At 47.3 degrees nearly every heading is new, so the unit-vector tables fill.
    Case("render-47.3", "svg chunk vertex",
         _render_file("random", lambda n: random.Random(7).randbytes(n), "--angle", 47.3),
         _svg("svg byte term"), (10**5,)),
)


class Run(NamedTuple):
    case: str
    units: int
    growth: int  # bytes of peak RSS above the tiny run's
    need: int


def peak_rss(argv: list[str], cwd: Path) -> int:
    """The peak RSS, in bytes, of ``python argv`` run to success in a child of a launcher."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, sys.executable, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr}")
    return int(done.stdout) * 1024


def measure(tmp: Path, cases: tuple[Case, ...] = CASES) -> list[Run]:
    """Run each of ``cases``, its files in ``tmp``, and return its growth at each size."""
    # The largest first, so that no long run is left to the end.
    jobs = sorted(((case, n) for case in cases for n in (TINY, *case.sizes)
                   for _ in range(case.runs)), key=lambda job: -job[1])
    peaks = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        for (case, n), peak in zip(jobs, pool.map(
                lambda job: peak_rss(job[0].argv(job[1], tmp), tmp), jobs)):
            peaks.setdefault((case.name, n), []).append(peak)
    median = {key: statistics.median(runs) for key, runs in peaks.items()}
    return [Run(case.name, n, median[case.name, n] - median[case.name, TINY], case.need(n))
            for case in cases for n in case.sizes]


def main(names: list[str]) -> int:
    by_name = {case.name: case for case in CASES}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"no case {', '.join(unknown)}; the cases are {', '.join(by_name)}", file=sys.stderr)
        return 2
    cases = tuple(by_name[name] for name in names) or CASES
    print(f"Python {sys.version.split()[0]}")
    print(f"{'case':12} {'figure':17} {'units':>8} {'growth MiB':>10} {'need MiB':>9}",
          f"{'B/unit':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        runs = measure(Path(tmp), cases)
    for run in runs:
        print(f"{run.case:12} {by_name[run.case].figure or 'stream':17} {run.units:8}",
              f"{run.growth / 2**20:10.2f} {run.need / 2**20:9.2f} {run.growth / run.units:7.2f}"
              + ("" if run.growth <= run.need else "  OVER"))
    return 0 if all(run.growth <= run.need for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
