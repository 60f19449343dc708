#!/usr/bin/env python3
"""ringnet benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seconds T

Each run happens in fresh child processes (``child.py``) with the BLAS and
OpenMP thread variables pinned to 1 and the checkout's ``src`` on
PYTHONPATH; this process imports neither numpy nor ringnet.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: mean over passes of the time spent in the workload's
  ``ringnet.cli.main`` calls, in a warm child. The mean, not the median:
  the machine's speed drifts in phases of tens of seconds, and the median
  pass jumps between phases while the mean averages them;
- ``mode_steps_per_s``: realizations x steps x 2N requested by the configs,
  divided by ``wall_s``;
- ``setup_s``: median over fresh interpreters of importing ``ringnet.cli``
  and loading and parsing the workload's configs;
- ``peak_rss_mb``: the measuring child's peak resident set.

``--trace 1`` reports the per-layer metrics of ``spans.py`` (calls and self
time per span, exact work counts) and ``trace.overhead_frac``. Every pass of
either kind is checked against the stored reference outputs; a failed check
or a nonzero exit code counts as a failed invocation, and ``error_rate`` is
their share.

Earlier lines print each metric with its unit, sample count and delta
against ``baseline.json``, then one ``record:`` line with the environment;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
BASELINE = os.path.join(HERE, "baseline.json")

SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "mode_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    """A child process crashed, timed out, or printed no result."""


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name == "cli.output_bytes":
        return "bytes"
    if name == "simulate.ns_per_mode_step":
        return "ns"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in workloads.THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def call_child(arguments: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *arguments],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"child {arguments[0]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"child {arguments[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def src_loc() -> int:
    """Non-blank lines of Python under src/ringnet."""
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "ringnet")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize_end_to_end(workload: str, setups: list, run: dict) -> tuple:
    walls = run["walls"]
    wall = statistics.fmean(walls)
    steps = sum(workloads.mode_steps(c, cfg) for _, c, cfg in workloads.WORKLOADS[workload])
    metrics = {
        "wall_s": wall,
        "mode_steps_per_s": steps / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {
        "wall_s": {"n": len(walls), "median": statistics.median(walls),
                   "quartiles": statistics.quantiles(walls, n=4), "passes": walls},
        "mode_steps_per_s": {"n": len(walls), "mode_steps_per_pass": steps},
        "setup_s": {"n": len(setups), "quartiles": statistics.quantiles(setups, n=4)},
        "peak_rss_mb": {"n": 1},
    }
    return metrics, samples


def summarize_layers(run: dict) -> tuple:
    layers = run["layers"]
    metrics, samples, problems = {}, {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if isinstance(values[0], int):
            # exact counts: every traced pass must repeat them
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
        samples[name] = {"n": len(values)}
    traced, untraced = statistics.median(run["traced"]), statistics.median(run["untraced"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    samples["trace.overhead_frac"] = {
        "n": len(run["traced"]), "traced_s": traced, "untraced_s": untraced,
    }
    return metrics, samples, problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in child processes; return its full record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()[0]
    setups = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as work:
        workloads.write_configs(work, workload)
        common = ["--workload", workload, "--seed", str(seed), "--work", work]
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(call_child(["setup", *common], deadline)["setup_s"])
        run = call_child(
            ["run", *common, "--seconds", str(seconds), "--trace", str(trace)], deadline
        )
    problems = []
    if trace:
        metrics, samples, problems = summarize_layers(run)
    else:
        metrics, samples = summarize_end_to_end(workload, setups, run)
    env = dict(run["env"])
    env.update(
        threads={var: child_env()[var] for var in workloads.THREAD_VARS},
        nproc=os.cpu_count(),
        cpu_model=cpu_model(),
        load_1min_start=load_start,
        load_1min_end=os.getloadavg()[0],
    )
    failed = run["failed"] + len(problems)
    return {
        "workload": workload,
        "seed": seed,
        "scenario_seed": workloads.scenario_seed(seed),
        "seconds": seconds,
        "trace": trace,
        "src_loc": src_loc(),
        "attempted": run["attempted"],
        "failed": failed,
        "error_rate": failed / run["attempted"],
        "problems": run["problems"] + problems,
        "missing_spans": run.get("missing", []),
        "metrics": metrics,
        "samples": samples,
        "env": env,
    }


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or layer_unit(name)


def load_baseline() -> dict:
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"]
    except (OSError, KeyError, ValueError):
        return {}


def report(record: dict, baseline: dict):
    """Print every metric with its unit, samples and delta to the baseline."""
    workload = record["workload"]
    base = baseline.get(workload, {})
    print(
        f"== {workload} seed {record['seed']} (scenario seed "
        f"{record['scenario_seed']}), trace {record['trace']}, src_loc {record['src_loc']}"
    )
    for name, value in record["metrics"].items():
        unit = unit_of(name)
        line = f"  {name:34s} {value:>16.6g} {unit:6s} n={record['samples'][name]['n']}"
        if name in base:
            before = base[name]["value"]
            change = f"{(value - before) / before:+.1%}" if before else "n/a"
            line += f"  delta {value - before:+.6g} {unit} vs base {before:.6g} {unit} ({change})"
        print(line)
    print(
        f"  {'error_rate':34s} {record['error_rate']:>16.6g} ratio  "
        f"({record['failed']} of {record['attempted']} invocations failed)"
    )
    for problem in record["problems"]:
        print(f"  failed: {problem}")
    if record["missing_spans"]:
        print(f"  not traced (absent in this ringnet): {', '.join(record['missing_spans'])}")
    env = record["env"]
    print(
        f"  env: python {env['python']}, numpy {env['numpy']} ({env['numpy_blas']}), "
        f"scipy {env['scipy']} ({env['scipy_blas']}), nproc {env['nproc']}, "
        f"{env['cpu_model']}, load {env['load_1min_start']:.2f} -> {env['load_1min_end']:.2f}"
    )
    print("record: " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "ringnet", "cli.py")):
        print(f"no ringnet source under {SRC}; run from a ringnet checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    baseline = load_baseline()
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(record, baseline)
        records.append(record)

    prefix = args.workload == "all"
    metrics = {
        (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": unit_of(name)}
        for r in records
        for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
