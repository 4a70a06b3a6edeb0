"""Run one workload once per seed and report each metric's run-to-run spread.

Usage: python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median,
next to the metric's bound in BENCHMARK.json.  Runs ``run.py`` with the
benchmark's own ``run_seconds``; ``--out`` keeps the summary and every run's
record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    records, values = [], {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        record_line, result_line = proc.stdout.splitlines()[-2:]
        result = json.loads(result_line)
        records.append(json.loads(record_line))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
        print(f"{name:40s} median {med:14.6g}  spread {spread:7.4f}"
              + ("" if bound is None else f"  bound {bound}") + flag)
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "trace": args.trace, "summary": summary,
                                        "runs": records}, indent=1) + "\n")


if __name__ == "__main__":
    main()
