"""The dragonsieve benchmark.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere in a checkout; the program under test is ``src/``.  With
``--trace 0`` it repeats the workload's pass (its requests, one after another,
each a fresh ``python -m dragonsieve.cli`` process) until the requests have
taken ``--seconds``, checks every output against the oracles in
``workloads.py``, and reports the end-to-end metrics.  With ``--trace 1`` it
makes one untraced pass and then the same requests traced by ``tracer.py``,
checks that both wrote the same bytes, and reports the per-layer metrics.

The last line of stdout is the result; the line before it, and a file under
``.perfbench_work/results/``, hold the full record of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import child
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")  # relative to ROOT, the working directory of every run

SETUP_SAMPLES = 8  # before the passes, and as many after them
AS_SHARE = 0.6  # of MemAvailable, the address-space limit of each request
REQUEST_TIMEOUT_S = 120
RUN_BUDGET_S = 165  # no request may still run this long after the start


def median_and_tail(samples: list[float]) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples), "tail": None}
    for q in (90, 99, 99.9):
        if len(samples) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(q * 10) - 1]
            out["tail"] = {"p": q, "value": cut}
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return ref


class Runner:
    def __init__(self, workload: workloads.Workload, work: Path, as_limit: int, started: float):
        self.workload = workload
        self.work = work
        self.as_limit = as_limit
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("DRAGONSIEVE_OUTDIR", None)
        self.verified: dict[int, bytes] = {}  # request index -> digest of checked output
        self.failures: list[str] = []
        self.attempted = 0

    def spawn(self, argv: list[str], tag: str) -> tuple[child.Exit, Path]:
        stdout = self.work / f"{tag}.out"
        timeout = min(REQUEST_TIMEOUT_S, self.started + RUN_BUDGET_S - time.perf_counter())
        ex = child.run(argv, env=self.env, cwd=ROOT, stdout=stdout, stderr=self.work / f"{tag}.err",
                       as_limit=self.as_limit, timeout_s=timeout)
        return ex, stdout

    def check_import(self) -> None:
        probe = "import dragonsieve.cli as c; print(c.__file__)"
        ex, out = self.spawn([sys.executable, "-c", probe], "setup")
        where = Path(out.read_text().strip() or "?")
        if ex.code or ROOT / "src" not in where.parents:
            sys.exit(f"dragonsieve.cli did not import from {ROOT / 'src'}: {where}")

    def setup_samples(self) -> list[float]:
        """Times to start the interpreter and import dragonsieve.cli."""
        argv = [sys.executable, "-c", "import dragonsieve.cli"]
        return [self.spawn(argv, "setup")[0].latency_s for _ in range(SETUP_SAMPLES)]

    def request(self, i: int, traced: bool) -> dict:
        """Run request i once, check its output, and return its sample."""
        req = self.workload.requests[i]
        tag = f"r{i}" + ("-traced" if traced else "")
        spans = self.work / f"{tag}.spans"
        prefix = ([str(ROOT / "perfbench" / "tracer.py"), str(spans)] if traced
                  else ["-m", "dragonsieve.cli"])
        if req.svg is not None:
            req.svg.unlink(missing_ok=True)
        self.attempted += 1
        ex, stdout = self.spawn([sys.executable, *prefix, *req.args], tag)
        out = stdout.read_bytes()
        svg = req.svg.read_bytes() if req.svg is not None and req.svg.is_file() else b""
        digest = hashlib.sha256(req.stable(out) + b"\0" + svg).digest()
        if ex.timed_out:
            failure = f"timed out after {ex.latency_s:.1f} s"
        elif ex.code == 0 and digest == self.verified.get(i):
            failure = None
        else:
            try:
                failure = req.check(ex.code, out, req.svg)
            except ValueError as exc:  # unparsable output
                failure = f"malformed output: {exc}"
            if failure is None:
                if i in self.verified:
                    failure = "output differs from the earlier pass"
                self.verified[i] = digest
        if failure:
            err = (self.work / f"{tag}.err").read_text(errors="replace").strip().splitlines()
            self.failures.append(f"{' '.join(req.args)}{' (traced)' if traced else ''}: "
                                 f"{failure}" + (f" [{err[-1]}]" if err else ""))
        return {"kind": req.kind, "latency_s": ex.latency_s, "cpu_s": ex.cpu_s,
                "maxrss_kb": ex.maxrss_kb, "stdout_bytes": len(out), "svg_bytes": len(svg),
                "layers": layers.load_request(spans) if traced and spans.is_file() else None}

    def run_pass(self, traced: bool = False) -> list[dict]:
        return [self.request(i, traced) for i in range(len(self.workload.requests))]


def pass_figures(samples: list[dict]) -> dict:
    return {
        "wall_s": sum(s["latency_s"] for s in samples),
        "cpu_s": sum(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["maxrss_kb"] for s in samples) / 1024,
        "output_mb": sum(s["stdout_bytes"] + s["svg_bytes"] for s in samples) / 1e6,
    }


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> tuple[dict, dict]:
    """Run the benchmark; return (result line, full record)."""
    work = WORK / f"run-{os.getpid()}"  # outputs of this run only, removed at its end
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(name, seed, seconds, trace, sizes, work)
    finally:
        shutil.rmtree(work)


def _measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None,
             work: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    mem = child.mem_available_bytes()
    as_limit = int(mem * AS_SHARE)
    workload = workloads.build(name, seed, work, sizes)
    need = max(r.est_mb for r in workload.requests)
    if need * 2**20 > as_limit:
        sys.exit(f"refusing {name}: a request needs about {need} MB, but the per-request "
                 f"limit is {as_limit >> 20} MB ({AS_SHARE} of MemAvailable)")
    runner = Runner(workload, work, as_limit, started)
    runner.check_import()
    setup_samples = runner.setup_samples()

    record = {
        "workload": name, "seed": seed, "seeded": workload.seed is not None,
        "trace": int(trace), "seconds": seconds, "sizes": workload.sizes,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count(),
                "mem_available_mb": mem >> 20, "as_limit_mb": as_limit >> 20,
                "git_commit": git_commit()},
    }
    passes = []
    if trace:
        plain = runner.run_pass()
        traced = runner.run_pass(traced=True)
        # A traced request whose bytes differ from the untraced one's has
        # already failed in Runner.request, against the verified digest.
        passes = [plain]
        for p, t in zip(plain, traced):
            if t["layers"]:
                t["layers"]["counters"].update({"cli.stdout_bytes": t["stdout_bytes"],
                                                "trace.overhead_s": t["latency_s"] - p["latency_s"]})
        metrics = layers.layer_metrics(layers.merge([t["layers"] for t in traced if t["layers"]]))
        record["per_request_layers"] = [
            {"args": r.args, "nonzero": {k: m["value"] for k, m in layers.layer_metrics(
                layers.merge([t["layers"]] if t["layers"] else [])).items() if m["value"]}}
            for t, r in zip(traced, workload.requests)]
    else:
        measured = 0.0
        while not passes or (measured < seconds
                             and time.perf_counter() - started < RUN_BUDGET_S):
            passes.append(runner.run_pass())
            measured += sum(s["latency_s"] for s in passes[-1])
        # Set-up samples at both ends of the run see more of the machine's
        # slow and fast spells than one batch would.
        setup_samples += runner.setup_samples()
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"}}
        for key, unit in E2E_UNITS.items():
            values = [pass_figures(p)[key] for p in passes]
            metrics[key] = {"value": statistics.median(values), "unit": unit}

    latencies: dict[str, list[float]] = {}
    for p in passes:
        per_kind = Counter()  # the two dragon requests make one dragon_s sample
        for s in p:
            per_kind[f"{s['kind']}_s"] += s["latency_s"]
        for kind, latency in per_kind.items():
            latencies.setdefault(kind, []).append(latency)
    failed = len(runner.failures)
    record.update({
        "passes": len(passes),
        "setup_s": median_and_tail(setup_samples),
        "requests": {k: median_and_tail(v) for k, v in latencies.items()},
        "pass_figures": [pass_figures(p) for p in passes],
        "attempted": runner.attempted, "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
    })
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return result, record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "dragonsieve" / "cli.py").is_file():
        sys.exit(f"no dragonsieve source under {ROOT / 'src'}; run from a checkout")
    os.chdir(ROOT)
    # On SIGTERM, unwind so the running request is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
