"""Child process of the benchmark: one set-up probe, or one measured run.

    python3 perfbench/child.py setup --workload W --seed S --work DIR
    python3 perfbench/child.py run --workload W --seed S --work DIR --seconds T --trace 0|1

``run.py`` starts it with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on PYTHONPATH, after writing the workload's configs into DIR. The
last line of standard output is a JSON object with the measurements.

``setup`` times a fresh interpreter importing ``ringnet.cli`` and loading and
parsing the workload's configs. ``run`` makes one warm-up pass with
``--runs 1``, then repeats full passes of the workload's ``cli.main`` calls
for about T seconds and checks every pass's outputs against the reference.
With ``--trace 1`` it alternates untraced passes with passes run under
``spans.traced``, so the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import time
import traceback

import workloads
from outputs import compare, snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json.gz")


def _require_checkout_source(module):
    path = os.path.abspath(module.__file__)
    if not path.startswith(os.path.join(SRC, "ringnet") + os.sep):
        raise SystemExit(f"ringnet imported from {path}, not from {SRC}")


def probe_setup(args, invocations) -> dict:
    start = time.perf_counter()
    import ringnet.cli as cli

    for _, _, path in invocations:
        cli.parse_config(
            cli.load_config(path), seed_override=workloads.scenario_seed(args.seed)
        )
    setup_s = time.perf_counter() - start
    _require_checkout_source(cli)
    return {"setup_s": setup_s}


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, cli, invocations, work: str, seed: int, reference: dict):
        self.cli = cli
        self.invocations = invocations
        self.out_root = os.path.join(work, "out")
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_pass(self, tracer=None, runs=None, check=True) -> float:
        """Seconds spent in ``cli.main`` for one pass over the invocations."""
        elapsed = 0.0
        outcomes = []
        for name, command, config_path in self.invocations:
            out_dir = os.path.join(self.out_root, name)
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = workloads.argv(command, config_path, out_dir, self.seed, runs)
            start = time.perf_counter()
            if tracer is not None:
                tracer.open("cli.main")
            try:
                code = self.cli.main(argv)
            except Exception:  # escaping cli.main counts as a failed invocation
                code = traceback.format_exc(limit=-2).strip()
            finally:
                if tracer is not None:
                    tracer.close()
            elapsed += time.perf_counter() - start
            outcomes.append((name, out_dir, code))

        for name, out_dir, code in outcomes:
            self.attempted += 1
            if code != 0:
                self._fail(f"{name}: exit {code}")
                continue
            if not check:
                continue
            try:
                problems = compare(snapshot(out_dir), self.reference[name])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(f"{name}: " + "; ".join(problems[:3]))
        return elapsed


def measure(args, invocations) -> dict:
    import ringnet.cli as cli

    _require_checkout_source(cli)
    try:
        with gzip.open(reference_path(args.workload), "rt", encoding="utf-8") as fh:
            reference = json.load(fh)["seeds"][str(workloads.scenario_seed(args.seed))]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"no reference outputs for this seed: {exc}")

    runner = Runner(cli, invocations, args.work, args.seed, reference)
    runner.run_pass(runs=1, check=False)

    result = {"env": _environment()}
    started = time.perf_counter()
    if not args.trace:
        walls = []
        while True:
            lap = time.perf_counter()
            walls.append(runner.run_pass())
            lap = time.perf_counter() - lap
            spent = time.perf_counter() - started
            if len(walls) >= MIN_PASSES and spent + lap > args.seconds:
                break
        result["walls"] = walls
    else:
        import spans

        untraced, traced, layers, missing = [], [], [], []
        while True:
            lap = time.perf_counter()
            # alternate which of the pair runs first, so drift hits both alike
            untraced_first = len(traced) % 2 == 1
            if untraced_first:
                untraced.append(runner.run_pass())
            tracer = spans.Tracer()
            with spans.traced(tracer):
                traced.append(runner.run_pass(tracer=tracer))
            layers.append(tracer.layer_metrics())
            missing = tracer.missing
            if not untraced_first:
                untraced.append(runner.run_pass())
            lap = time.perf_counter() - lap
            spent = time.perf_counter() - started
            if len(traced) >= MIN_PASSES and spent + lap > args.seconds:
                break
        result.update(untraced=untraced, traced=traced, layers=layers, missing=missing)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=_peak_rss_mb(),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    invocations = workloads.invocations(args.work, args.workload)
    if args.mode == "setup":
        result = probe_setup(args, invocations)
    else:
        result = measure(args, invocations)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
