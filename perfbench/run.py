#!/usr/bin/env python3
"""qfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs workload NAME, built from seed N, for about S seconds.  Every pass
runs in a fresh process (``worker.py``), because every qfield CLI
process pays the import and first-call costs that a pass measures.  The
run first starts one discarded warm-up process and SETUP_RUNS processes
that only import qfield and build the inputs, then repeats passes while
the next one, at the mean pass time so far, would end within S seconds
(at least one).  Each metric is the median over the
passes (``setup_s``: over every process started).

--trace 0 prints the end-to-end metrics: wall_s, setup_s, cpu_s and
peak_rss_mb.  --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of the traced ones, plus ``trace.overhead_s``, the
traced minus the untraced median ``wall_s``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

BLAS is pinned to one thread before numpy loads, so BLAS helper threads
plus the Monte-Carlo ``--threads`` never exceed the CPUs available.
The run reads and writes only inside the checkout (``perfbench/out``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 8
DEADLINE_S = 170.0           # a run must end within 180 s
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    for var in PIN_THREADS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = child_env()
        self.trace_file = OUT / f"trace-{workload}-seed{seed}.json"

    def start(self, mode: str, trace: bool = False) -> dict:
        workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
        try:
            params = {"workload": self.workload, "seed": self.seed,
                      "mode": mode, "trace": trace, "workdir": workdir,
                      "result": os.path.join(workdir, "result.json"),
                      "trace_file": str(self.trace_file)}
            params["t_spawn"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(params)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
            try:
                _, err = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if proc.returncode != 0:
                raise RuntimeError(f"{mode} process exited {proc.returncode}:\n"
                                   + err[-4000:])
            with open(params["result"], encoding="utf-8") as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()
    if not (ROOT / "src" / "qfield" / "__init__.py").is_file():
        print(f"no qfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, t_begin + DEADLINE_S)

    try:
        run.start("setup")  # warm-up: bytecode and file caches, discarded
        setups = [run.start("setup")["setup_s"] for _ in range(SETUP_RUNS)]
        plain, traced = [], []
        t_measure = time.monotonic()
        while True:
            elapsed = time.monotonic() - t_measure
            enough = plain and (traced or not args.trace)
            # stop before a pass that would end past the measuring window
            next_end = elapsed * (len(plain) + len(traced) + 1) / max(
                1, len(plain) + len(traced))
            if enough and (next_end > args.seconds
                           or time.monotonic() > t_begin + DEADLINE_S / 2):
                break
            trace_next = bool(args.trace) and len(traced) < len(plain)
            res = run.start("pass", trace=trace_next)
            (traced if trace_next else plain).append(res)
            setups.append(res["setup_s"])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    passes = [("plain", p) for p in plain] + [("traced", p) for p in traced]
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    env = plain[0]["env"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# reproduce: python3 perfbench/run.py --workload {args.workload} "
          f"--seed {args.seed} --seconds {args.seconds:g} --trace {args.trace}")
    print(f"# commit {git_commit()}")
    print("# env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for kind, p in passes:
        print(f"# pass {kind:6s} wall_s {p['wall_s']:.4f}  setup_s "
              f"{p['setup_s']:.4f}  cpu_s {p['cpu_s']:.4f}  peak_rss_mb "
              f"{p['peak_rss_mb']:.1f}  jobs {p['attempted']}  failed "
              f"{p['failed']}")
        for f in p["failures"]:
            print(f"#   FAILED {f['name']}: {f['error'] or f['misses']}")
    samples = {"setup_s": setups}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [p[name] for p in plain]
    samples["fail_frac"] = [failed / attempted]
    units = dict(END_TO_END, fail_frac="ratio")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"# {name:12s} median {med:.6g} {units[name]}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  n {len(values)}")
    print("# samples " + json.dumps(samples))

    if args.trace:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        print(f"# tracing overhead {overhead:.4f} s "
              f"(traced minus untraced median wall_s)")
        if traced[0]["absent"]:
            print("# absent from the code: " + ", ".join(traced[0]["absent"]))
        print(f"# spans written to {run.trace_file.relative_to(ROOT)}")
        metrics = {}
        for m in SPEC["per_layer"]:
            name = m["name"]
            value = overhead if name == "trace.overhead_s" else \
                statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
