"""mpda benchmark: time one workload and check every call's outputs.

    python3 perfbench/run.py --workload vehicle-split --seed 0 --seconds 20 --trace 0

Workloads are listed in ``workloads.SPECS`` with the reason each was
chosen.  Each run starts its workload processes one at a time (a closed
loop: one caller that waits for each call), with one BLAS thread each.
``SETUP_RUNS`` processes are started, and set-up is timed in each from
process start to its READY line; all but the last exit there, and the last
one then times calls for ``--seconds``.  Nothing under ``src/`` is touched:
calls go through mpda's public API from outside the package.

With ``--trace 0`` the last line of output holds the end-to-end metrics:

* ``setup_s``: median set-up time over the set-up processes (import, input
  generation, CSV parse and one warm-up call);
* ``e2e_s.p50``: median wall seconds of one workload call;
* ``rows_per_s``: training rows processed per second of timed wall time;
* ``peak_rss_mb``: peak resident memory of the timing process.

``test_error`` and ``failed_frac`` are printed above it.  The test error
must equal the recorded reference exactly, so it is a correctness check,
not a bounded metric; ``failed_frac`` is the share of calls that raised or
failed that check (the ``failed`` and ``attempted`` fields of the result).

With ``--trace 1`` the last line holds the per-layer metrics of
``tracing.UNITS`` instead, from one process whose calls alternate between
untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"e2e_s.p50": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# one BLAS thread: per-call times on a 2-core machine vary up to 2x with two
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one worker; return its set-up seconds and its last output line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RunFailed(f"worker exited during set-up (exit code {proc.wait(timeout=10)})")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker ran past its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        setups = [start_worker(args, True, deadline)[0] for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        setup_s, line = start_worker(args, False, deadline)
        result = json.loads(line)
    except (RunFailed, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    calls, failed, times = result["calls"], result["failed"], result["times"]
    correct = failed == 0 and not result["warm_problems"]
    print(f"workload {args.workload}, seed {args.seed}, {calls} calls in {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(result["env"]))
    for problem in result["warm_problems"] + result["problems"]:
        print("check failed: " + problem.strip().replace("\n", " | "))

    if args.trace:
        metrics = result["layers"]
        for metric, reason in result["not_exercised"].items():
            print(f"does not apply: {metric} = 0 on {args.workload} ({reason})")
        for name, count in result["probe_failures"].items():
            print(f"probe failed {count} times: {name}")
        print(f"per-layer metrics are per call, medians over {calls - len(times)} traced calls")
    else:
        values = {
            "e2e_s.p50": statistics.median(times),
            "rows_per_s": result["n_train"] * len(times) / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"e2e_s.p50     {values['e2e_s.p50']:.4f} s  (median of {len(times)} calls, "
              f"min {min(times):.4f}, max {max(times):.4f})")
        print(f"rows_per_s    {values['rows_per_s']:.1f} 1/s  ({result['n_train']} training rows per call)")
        print(f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
        print(f"setup_s       {values['setup_s']:.4f} s  (median of {len(setups)} set-ups: "
              + ", ".join(f"{s:.3f}" for s in setups) + ")")
        print(f"test_error    {result['test_error']} (1-NN, must equal the reference)")
        print(f"failed_frac   {failed / calls:g} ({failed} of {calls} calls)")
    print(json.dumps({"correct": correct, "attempted": calls, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
