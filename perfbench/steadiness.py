#!/usr/bin/env python3
"""Steadiness report: repeat each workload and summarize its metrics.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--first-seed 1] [--seconds S]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...) for each
workload, untraced.  For each end-to-end metric it prints, over the
per-run values, the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median next to the metric's bound;
and, over every pass of every run, the highest percentile with at least
ten samples beyond it and the sample count.  A spread must stay below a
third of its bound.  The full table is written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """(p, value): the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.splitlines()
    doc = json.loads(lines[-1])
    samples = next(json.loads(line[len("# samples "):]) for line in lines
                   if line.startswith("# samples "))
    if not doc["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {doc['failed']} of "
                           f"{doc['attempted']} jobs failed")
    env = [line[2:] for line in lines if line.startswith(("# env", "# commit"))]
    return doc, samples, env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report, steady = {"seconds": args.seconds}, True
    for workload in args.workloads.split(","):
        per_run = {name: [] for name in bounds}
        pooled = {name: [] for name in bounds}
        t0 = time.monotonic()
        for i in range(args.runs):
            doc, samples, env = one_run(workload, args.first_seed + i,
                                        args.seconds)
            report.setdefault("env", env)
            for name in bounds:
                per_run[name].append(doc["metrics"][name]["value"])
                pooled[name] += samples[name]
        print(f"{workload}: {args.runs} runs in {time.monotonic() - t0:.0f} s")
        rows = {}
        for name, values in per_run.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            tail = tail_percentile(pooled[name])
            ok = spread < bounds[name] / 3
            steady &= ok or name == "setup_s"  # its spread is not gated
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": values,
                          "tail": tail, "samples": len(pooled[name])}
            tail_text = f"p{tail[0]} {tail[1]:.5g}" if tail else "p- n/a"
            print(f"  {name:12s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.3f} (bound "
                  f"{bounds[name]}, {'ok' if ok else 'WIDE'})  {tail_text}  "
                  f"n {len(pooled[name])}")
        report[workload] = rows
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{int(time.time())}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"written to {path.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
