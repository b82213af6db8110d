"""Steadiness check: sets of runs of one commit against the benchmark's bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...]

Runs ``run.py --trace 0`` ``--runs`` times per workload in each of
``--sets`` sets, every run with another seed (run i of set s uses seed
``--first-seed + s * runs + i``), for BENCHMARK.json's ``run_seconds``.
Then for every end-to-end metric on every workload it prints one line
with each set's median and spread, and PASS or FAIL:

* spread is the distance between the first and third quartile
  (``statistics.quantiles(values, n=4)``) as a share of the median; it
  must stay within the metric's bound in every set (not for ``setup_s``);
* no set's median may be worse than the first set's by more than the bound.

A spread below a third of the bound is marked ``steady``.  Raw values go
to ``.perfbench_work/steady-<time>.json``.  Exits 1 if any line fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def verdict(metric: dict, sets: list[list[float]]) -> tuple[bool, str]:
    """PASS/FAIL of one metric on one workload, and the line's details."""
    bound = metric["bound"]
    medians = [statistics.median(s) for s in sets]
    spreads = [spread(s) for s in sets]
    ok = metric["name"] == "setup_s" or all(sp <= bound for sp in spreads)
    drift = max((worse_by(medians[0], m, metric["better"]) for m in medians[1:]), default=0.0)
    ok = ok and drift <= bound
    parts = [
        f"set {i + 1}: median {m:.6g} spread {sp:.3f}{' steady' if sp < bound / 3 else ''}"
        for i, (m, sp) in enumerate(zip(medians, spreads))
    ]
    return ok, " | ".join(parts) + f" | worse by {drift:+.3f} (bound {bound})"


def run_once(config: dict, workload: str, seed: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs are not correct:\n{proc.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    env = [line[4:] for line in lines if line.startswith("env ")]
    return {**values, "env": json.loads(env[0]) if env else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    names = args.workload or [w["name"] for w in config["workloads"]]

    raw: dict[str, list[list[dict]]] = {name: [] for name in names}
    for s in range(args.sets):
        for name in names:
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                runs.append(run_once(config, name, seed))
                shown = {k: round(v, 4) for k, v in runs[-1].items() if k != "env"}
                print(f"set {s + 1} {name} seed {seed}: {shown}", flush=True)
            raw[name].append(runs)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    out = os.path.join(ROOT, ".perfbench_work", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)

    failed = 0
    for name in names:
        for metric in config["end_to_end"]:
            sets = [[run[metric["name"]] for run in runs] for runs in raw[name]]
            ok, detail = verdict(metric, sets)
            failed += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name} {metric['name']}: {detail}")
    print(f"raw values in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
