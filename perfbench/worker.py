"""One workload process: set up, print READY, then time calls for a budget.

Started by ``run.py``; not meant to be run by hand.  Set-up is the import,
input generation, the CSV parse and one warm-up call.  The parent times
this process from its start to the READY line.  With ``--setup-only`` the
process exits there.  Otherwise it calls the workload repeatedly until
``--seconds`` have passed (and at least ``MIN_CALLS`` calls were made),
checks every call's outputs against the recorded reference, and prints
one JSON object as its last line.

With ``--trace 1`` calls alternate between untraced and traced, so both
the per-layer metrics and the tracing overhead come from one process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
MIN_CALLS = 3
MAX_PROBLEMS = 5  # mismatch messages kept per run


def import_mpda():
    """mpda from this checkout's ``src``, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mpda

    if not os.path.abspath(mpda.__file__).startswith(src + os.sep):
        raise ImportError(f"mpda was imported from {mpda.__file__}, not from {src}")
    return mpda


def blas_info() -> list[dict]:
    """Build string and thread count of every OpenBLAS loaded in this process."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                info.update(config=config().decode(), threads=threads())
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    mpda = import_mpda()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(args.workload)["seeds"][str(workloads.data_seed(args.seed))]
    tracer = tracing.Tracer() if args.trace else None

    if tracer:
        tracer.install(mpda)  # the CSV parse is traced too
    ds = workloads.load_inputs(mpda, args.workload, args.seed, WORK_DIR)
    ctx = workload.prepare(mpda, ds)
    if tracer:
        setup_layers = tracing.layer_metrics(tracer)
        setup_counts = tracer.counts
        tracer.uninstall()
    warm = workload.warmup(mpda, ctx)
    warm_problems = workloads.compare(warm, reference) + workloads.invariants(mpda, args.workload, warm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    times, traced_times, per_call, problems = [], [], [], []
    calls = failed = 0
    test_error = None
    deadline = time.perf_counter() + args.seconds
    min_calls = MIN_CALLS * (2 if tracer else 1)
    while calls < min_calls or time.perf_counter() < deadline:
        traced = tracer is not None and calls % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(mpda)
        clock = tracer.now if traced else time.perf_counter
        start = clock()
        try:
            outputs = tracer.run("call", workload.call, mpda, ctx) if traced else workload.call(mpda, ctx)
            error = None
        except Exception:  # a failing call counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        elapsed = clock() - start
        if traced:
            tracer.uninstall()
            per_call.append(tracing.layer_metrics(tracer))
        calls += 1
        (traced_times if traced else times).append(elapsed)
        if error is None:
            found = workloads.compare(outputs, reference)
            test_error = outputs["test_error"]
        else:
            found = [error]
        if found:
            failed += 1
            problems.extend(found[: MAX_PROBLEMS - len(problems)])

    result = {
        "calls": calls,
        "failed": failed,
        "times": times,
        "n_train": workload.n_train,
        "test_error": test_error,
        "problems": problems,
        "warm_problems": warm_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        layers = {k: statistics.median(c[k] for c in per_call) for k in per_call[0]}
        layers["dataset.load_s"] = setup_layers["dataset.load_s"]
        layers["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1.0
        result["layers"] = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
        result["not_exercised"] = tracing.not_exercised(tracer.counts + setup_counts)
        result["probe_failures"] = dict(tracer.probe_failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
