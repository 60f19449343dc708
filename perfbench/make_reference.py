#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark checks every pass against.

    python3 perfbench/make_reference.py [--threads 1] [--out DIR]

Runs every workload once per scenario seed 0 .. REFERENCE_SEEDS-1 through
``ringnet.cli.main`` and stores the snapshot of each invocation's outputs
in ``perfbench/reference/<workload>.json.gz``. Regenerate only on purpose:
the stored files define what "correct" means for every later commit.
``--threads`` sets the BLAS thread count (the benchmark pins 1); with
``--out`` the files go elsewhere, for comparing thread counts.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import tempfile

import workloads
from outputs import snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "reference"))
    args = parser.parse_args()
    # BLAS reads its thread count when numpy loads it, so set it first
    for var in workloads.THREAD_VARS:
        os.environ[var] = str(args.threads)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import ringnet.cli as cli

    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as work:
        for workload in workloads.WORKLOADS:
            invocations = workloads.write_configs(work, workload)
            seeds = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                seeds[str(seed)] = {}
                for name, command, path in invocations:
                    out_dir = os.path.join(work, "out", workload, str(seed), name)
                    code = cli.main(workloads.argv(command, path, out_dir, seed))
                    if code != 0:
                        print(f"{workload} seed {seed} {name}: exit {code}")
                        return 1
                    seeds[str(seed)][name] = snapshot(out_dir)
            target = os.path.join(args.out, f"{workload}.json.gz")
            # mtime=0 keeps the archive byte-identical for identical content
            with open(target, "wb") as raw, gzip.GzipFile(
                fileobj=raw, mode="wb", mtime=0
            ) as fh:
                fh.write(json.dumps({"workload": workload, "seeds": seeds}).encode())
            print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
