"""Record the reference outputs that every benchmark call is checked against.

    python3 perfbench/record_reference.py [--workload NAME] [--seeds N]

For each workload and each data seed ``0..N-1`` this runs the timed call
once, asserts the generator's invariants (shape, PCA width, stacked
dimension under the cap, test error strictly between 0 and chance) and
that ``mpda.benchmark`` itself gives the same test error and parameters,
then writes ``refs/<workload>.json``.  Run it only at a commit whose
outputs are the reference; a change that must not alter outputs is
checked against the files as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import CHILD_ENV

os.environ.update(CHILD_ENV)  # before numpy loads: the benchmark's BLAS threads

import workloads  # noqa: E402
from worker import WORK_DIR, import_mpda  # noqa: E402


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=workloads.REFS_DIR, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(mpda, name: str, n_seeds: int) -> dict:
    workload = workloads.WORKLOADS[name]
    seeds = {}
    for seed in range(n_seeds):
        ds = workloads.load_inputs(mpda, name, seed, WORK_DIR)
        ctx = workload.prepare(mpda, ds)
        outputs = workload.call(mpda, ctx)
        ref = workloads.as_recorded(outputs)
        problems = workloads.invariants(mpda, name, outputs)
        problems += workloads.compare(workload.warmup(mpda, ctx), ref)
        if problems:
            raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
        seeds[str(seed)] = ref
        print(f"{name} seed {seed}: test error {outputs['test_error']:.4f}", flush=True)
    return {"workload": name, "commit": commit(), "eig_rtol": workloads.EIG_RTOL, "seeds": seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.SPECS), action="append")
    parser.add_argument("--seeds", type=int, default=workloads.N_DATA_SEEDS)
    args = parser.parse_args(argv)
    mpda = import_mpda()
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for name in args.workload or workloads.SPECS:
        data = record(mpda, name, args.seeds)
        with open(os.path.join(workloads.REFS_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
