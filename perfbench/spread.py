#!/usr/bin/env python3
"""Check that the benchmark is steady: run it over several seeds per workload.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 0] [--workload W ...]
                                [--write-baseline]

For every end-to-end metric this prints the median over the seeds, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A spread under a third of its bound is steady. With ``--write-baseline`` the
medians, plus one traced run per workload, are written to baseline.json,
which ``run.py`` prints its deltas against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    steady = True
    baseline = {}
    for workload in args.workload or list(workloads.WORKLOADS):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.monotonic()
            result = run(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            line = " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds)
            print(f"{workload} seed {seed}: {line} ({time.monotonic() - started:.0f} s)",
                  flush=True)
        baseline[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"  {workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} bound {bounds[name]} {'ok' if ok else 'WIDE'}")
            baseline[workload][name] = {"value": median, "unit": result["metrics"][name]["unit"]}
        if args.write_baseline:
            traced = run(workload, args.first_seed, seconds, 1)
            baseline[workload].update(traced["metrics"])
    if args.write_baseline:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump({"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                       "workloads": baseline}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
