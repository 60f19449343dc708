#!/usr/bin/env python3
"""Run every bundled experiment config and collect the outputs under one root.

Each experiment lands in its own subdirectory, so a full pass leaves a tree
like results/diffusion/dist_M10.csv etc. With --quick the realization counts
are cut down for a fast smoke pass; published numbers should come from the
full settings.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ringnet.cli import main as ringnet_main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")

# (subdirectory, subcommand, config file)
EXPERIMENTS = [
    ("pure", "simulate", "pure.json"),
    ("diffusion", "simulate", "diffusion.json"),
    ("localization", "simulate", "localization.json"),
    ("alpha_scan", "scan-alpha", "alpha_scan.json"),
    ("intermediate_scan", "scan-alpha", "intermediate_scan.json"),
    ("spectrum", "spectrum", "spectrum.json"),
]

QUICK_RUNS = 25


def run_one(name, command, config, out_root, quick, quiet):
    argv = [
        command,
        "--config", os.path.join(CONFIG_DIR, config),
        "--out", os.path.join(out_root, name),
    ]
    if quick:
        argv += ["--runs", str(QUICK_RUNS)]
    if quiet:
        argv.append("--quiet")
    started = time.perf_counter()
    code = ringnet_main(argv)
    elapsed = time.perf_counter() - started
    print(f"[{name}] exit {code} in {elapsed:.1f}s")
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument(
        "--quick", action="store_true", help="reduce realization counts for a smoke run"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-file notes"
    )
    args = parser.parse_args()

    failures = 0
    for name, command, config in EXPERIMENTS:
        failures += run_one(name, command, config, args.out, args.quick, args.quiet) != 0
    if failures:
        print(f"{failures} experiment(s) failed", file=sys.stderr)
        return 1
    print(f"all experiments written under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
