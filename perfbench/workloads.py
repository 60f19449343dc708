"""Benchmark workloads: the CLI invocations each one runs, and their work size.

Every workload is a list of ``(name, command, config)`` invocations of
``ringnet.cli.main``. Configs are fixed here rather than read from
``configs/`` so that two commits are always timed on identical inputs; the
``PAPER_CONFIGS`` entries are copies of the bundled configs at their shipped
settings, in the order ``scripts/run_all_experiments.py`` runs them.
Workloads are few and long because on a shared machine the speed of the CPU
drifts over minutes, and one long run per workload is steadier than several
short ones.

The benchmark seed reaches the program only through the CLI's ``--seed``
override. Reference outputs are stored for ``REFERENCE_SEEDS`` scenario seeds,
so benchmark seed ``s`` runs scenario seed ``s % REFERENCE_SEEDS``.

This module imports nothing outside the standard library: the parent process
and the set-up probe load it before numpy is imported.
"""

from __future__ import annotations

import json
import os

TWO_PI = 6.283185307179586

# the six strengths of configs/alpha_scan.json
ALPHA_SCAN = [
    0.19634954084936207,
    0.39269908169872414,
    0.7853981633974483,
    1.5707963267948966,
    3.141592653589793,
    6.283185307179586,
]

PAPER_CONFIGS = [
    ("pure", "simulate", {
        "scenario": {"kind": "pure", "seed": 0},
        "depths": [1, 2, 4, 6, 8, 10],
        "runs": 1,
        "emit": ["distributions", "variance_trace"],
    }),
    ("diffusion", "simulate", {
        "scenario": {"kind": "fully-random", "alpha_layer": TWO_PI, "seed": 0},
        "depths": [2, 3, 4, 5, 6, 7, 8, 9, 10],
        "runs": 1000,
        "emit": ["distributions", "fits", "variance_trace"],
    }),
    ("localization", "simulate", {
        "scenario": {"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 0},
        "depths": [5, 10, 15, 20, 40, 80],
        "runs": 100,
        "emit": ["distributions", "fits", "variance_trace"],
    }),
    ("alpha_scan", "scan-alpha", {
        "scenario": {"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 0},
        "depths": [10],
        "runs": 100,
        "alphas": ALPHA_SCAN,
        "fit_floor": 1e-4,
        "emit": ["distributions", "fits"],
    }),
    ("intermediate_scan", "scan-alpha", {
        "scenario": {
            "kind": "intermediate",
            "alpha_fixed": TWO_PI,
            "alpha_layer": 0.3141592653589793,
            "seed": 0,
        },
        "depths": [20],
        "runs": 100,
        "alphas": [0.3141592653589793, 1.5707963267948966, TWO_PI],
        "emit": ["distributions", "fits"],
    }),
    ("spectrum", "spectrum", {
        "scenario": {"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 0},
        "depths": [10],
        "runs": 100,
        "emit": ["fits"],
    }),
]

ENSEMBLE_WIDE = ("ensemble-wide", "simulate", {
    "scenario": {
        "kind": "fully-random", "n_couplers": 100, "alpha_layer": TWO_PI, "seed": 0,
    },
    "depths": [10, 20, 30, 40, 50],
    "runs": 10,
    "emit": ["distributions", "fits", "variance_trace", "spectral"],
})

FROZEN_SCAN = ("frozen-scan", "scan-alpha", {
    "scenario": {
        "kind": "fixed-disorder", "n_couplers": 80, "alpha_fixed": TWO_PI, "seed": 0,
    },
    "depths": [40],
    "runs": 6,
    "alphas": ALPHA_SCAN,
    "emit": ["distributions", "fits"],
})

WORKLOADS = {
    # the ensemble path in both disorder regimes: the bundled configs
    # (Python-overhead bound: thousands of small step factors and snapshots),
    # per-step disorder with fresh phase layers every step at N=100, and frozen
    # disorder with one repeated step operator per realization at N=80
    "ensembles": [*PAPER_CONFIGS, ENSEMBLE_WIDE, FROZEN_SCAN],
    # no ensemble at all: composed product plus the Schur-based spectral path
    "spectrum-wide": [
        ("spectrum-wide", "spectrum", {
            "scenario": {
                "kind": "fixed-disorder", "n_couplers": 200, "alpha_fixed": TWO_PI,
                "seed": 0,
            },
            "depths": [40],
            "emit": ["fits"],
        }),
    ],
}

REFERENCE_SEEDS = 8

# pinned to 1 in every benchmark child and in make_reference.py
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# mirrors the config defaults the CLI documents
DEFAULT_N_COUPLERS = 20
DEFAULT_RUNS = 1000


def scenario_seed(seed: int) -> int:
    """Scenario seed that benchmark seed ``seed`` hands to ``--seed``."""
    return seed % REFERENCE_SEEDS


def mode_steps(command: str, config: dict) -> int:
    """Realizations x steps x 2N over every ensemble and composed product.

    Computed from the config alone, never from program counters, so the
    figure means the same work on every commit.
    """
    n_modes = 2 * config["scenario"].get("n_couplers", DEFAULT_N_COUPLERS)
    depth = config["depths"][-1]
    runs = config.get("runs", DEFAULT_RUNS)
    if command == "simulate":
        products = 1 if "spectral" in config.get("emit", ()) else 0
        return (runs + products) * depth * n_modes
    if command == "scan-alpha":
        return len(config["alphas"]) * runs * depth * n_modes
    if command == "spectrum":
        return depth * n_modes
    raise ValueError(f"unknown command {command!r}")


def argv(command: str, config_path: str, out_dir: str, seed: int, runs=None) -> list:
    """Command line of one invocation; ``runs`` overrides the config's count."""
    args = [command, "--config", config_path, "--out", out_dir,
            "--seed", str(scenario_seed(seed)), "--quiet"]
    if runs is not None:
        args += ["--runs", str(runs)]
    return args


def invocations(work_dir: str, workload: str) -> list:
    """``(name, command, config_path)`` of each invocation, configs in ``work_dir``."""
    return [
        (name, command, os.path.join(work_dir, f"{name}.json"))
        for name, command, _ in WORKLOADS[workload]
    ]


def write_configs(work_dir: str, workload: str) -> list:
    """Write the workload's configs into ``work_dir``; return its invocations."""
    for name, _, config in WORKLOADS[workload]:
        with open(os.path.join(work_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
    return invocations(work_dir, workload)
