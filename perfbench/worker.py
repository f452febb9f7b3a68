"""One benchmark pass in a fresh process; started by ``run.py``.

Takes one JSON argument: ``workload``, ``seed``, ``mode`` ("setup" or
"pass"), ``trace``, ``workdir``, ``result`` (path of the JSON result to
write), ``trace_file`` and ``t_spawn``, the launcher's ``time.monotonic()``
just before it started this process.  CLOCK_MONOTONIC is system-wide on
Linux, so ``setup_s`` spans interpreter start, imports and input
generation.

The argument is not flag-shaped, so ``sys.argv`` holds no option that
qfield's in-process CLI could mistake for one given on its command line.
"""

import json
import sys
import time


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import os
    import platform

    import numpy as np

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _blas_runtime_threads(),
        "mc_threads": workloads.MC_THREADS,
    }


def run_pass(params: dict) -> dict:
    """Build the inputs and, in "pass" mode, run and gate every job."""
    import resource

    import tracer
    import workloads

    wl = workloads.build(params["workload"], params["seed"], params["workdir"])
    result = {"setup_s": time.monotonic() - params["t_spawn"]}
    if params["mode"] == "pass":
        tr = tracer.Tracer() if params["trace"] else None
        if tr is None:
            records, wall = workloads.run_jobs(wl.jobs)
        else:
            with tr:
                records, wall = workloads.run_jobs(wl.jobs, tracer=tr)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        failures = [r for r in records if not r["ok"]]
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            attempted=len(records),
            failed=len(failures),
            failures=failures[:5],
            env=environment(),
        )
        if tr is not None:
            layers = tracer.layer_metrics(tr.spans)
            layers.update(wl.counters)
            result["layers"] = layers
            result["absent"] = tr.absent
            tr.dump(params["trace_file"], {"workload": params["workload"],
                                           "seed": params["seed"],
                                           "env": result["env"],
                                           "layers": layers,
                                           "summary": tracer.summarize(tr.spans)})
    return result


def main() -> int:
    params = json.loads(sys.argv[1])
    result = run_pass(params)
    with open(params["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
