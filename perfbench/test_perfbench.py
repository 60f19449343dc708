"""Tests of the benchmark itself: exact trace counts, the output check, the contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ringnet.cli as cli  # noqa: E402

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TWO_PI = workloads.TWO_PI


def traced_counts(tmp_path, command: str, config: dict) -> dict:
    """Exact counts of one traced ``cli.main`` call."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer = spans.Tracer()
    with spans.traced(tracer):
        tracer.open("cli.main")
        try:
            code = cli.main(
                [command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
            )
        finally:
            tracer.close()
    assert code == 0
    assert tracer.missing == []
    return {k: v for k, v in tracer.layer_metrics().items() if isinstance(v, int)}


def test_fully_random_counts_repeat_and_match_closed_forms(tmp_path):
    n_couplers, depth, runs = 3, 5, 4
    config = {
        "scenario": {"kind": "fully-random", "n_couplers": n_couplers,
                     "alpha_layer": TWO_PI, "seed": 7},
        "depths": [2, depth],
        "runs": runs,
        "emit": ["distributions", "variance_trace"],
    }
    first = traced_counts(tmp_path, "simulate", config)
    assert traced_counts(tmp_path, "simulate", config) == first
    n_modes = 2 * n_couplers
    assert first["network.rng.draws"] == runs * (2 * depth - 1) * n_modes
    assert first["network.rng.calls"] == runs * (2 * depth - 1)
    assert first["simulate.realization_steps"] == runs * depth
    assert first["simulate.mode_steps"] == workloads.mode_steps("simulate", config)
    assert first["simulate.snapshot.calls"] == runs * len(config["depths"])


def test_spectrum_makes_four_eigendecompositions(tmp_path):
    config = {
        "scenario": {"kind": "fixed-disorder", "n_couplers": 4,
                     "alpha_fixed": TWO_PI, "seed": 1},
        "depths": [3],
    }
    first = traced_counts(tmp_path, "spectrum", config)
    assert traced_counts(tmp_path, "spectrum", config) == first
    assert first["linalg.eig_unitary.calls"] == 4
    assert first["linalg.principal_log.calls"] == 2
    assert first["network.compose.calls"] == 1
    assert first["simulate.ensemble.calls"] == 0


def test_scan_counts_one_ensemble_per_strength(tmp_path):
    n_couplers, depth, runs, alphas = 3, 4, 3, [0.5, 1.0, TWO_PI]
    config = {
        "scenario": {"kind": "fixed-disorder", "n_couplers": n_couplers,
                     "alpha_fixed": TWO_PI, "seed": 2},
        "depths": [depth],
        "runs": runs,
        "alphas": alphas,
        "emit": ["distributions"],
    }
    first = traced_counts(tmp_path, "scan-alpha", config)
    assert traced_counts(tmp_path, "scan-alpha", config) == first
    assert first["simulate.ensemble.calls"] == len(alphas)
    assert first["simulate.realization_steps"] == len(alphas) * runs * depth
    # fixed disorder draws its one layer per realization and strength
    assert first["network.rng.draws"] == len(alphas) * runs * 2 * n_couplers
    assert first["network.motif.calls"] == len(alphas) * runs


def test_traced_benchmark_runs_repeat_their_counts():
    def counts():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "spectrum-wide",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in ("count", "bytes")}

    first = counts()
    assert counts() == first
    assert first["linalg.eig_unitary.calls"] == 4


def test_fresh_output_matches_stored_reference(tmp_path):
    invocations = workloads.write_configs(str(tmp_path), "ensembles")
    name, command, path = invocations[0]  # pure: a single realization
    out = tmp_path / "out"
    assert cli.main(workloads.argv(command, path, str(out), seed=5)) == 0
    with gzip.open(os.path.join(HERE, "reference", "ensembles.json.gz"), "rt") as fh:
        reference = json.load(fh)["seeds"]["5"][name]
    assert outputs.compare(outputs.snapshot(str(out)), reference) == []


def test_check_flags_each_kind_of_drift():
    section = {"eigenphases": [0.1, 0.2], "eigenvector_ipr": [0.5, 0.5],
               "band_fractions": [0.9, 1.0], "branch_cut_count": 0,
               "eigenvector_ipr_mean": 0.5}
    want = {
        "files": ["dist_M1.csv", "spectral.json", "verdict_M1.json"],
        "dist_M1.csv": [0.25, 0.75],
        "verdict_M1.json": "localized",
        "spectral.json": {"n_modes": 2, "depth": 1, "single_step": section,
                          "full_product": section},
    }
    assert outputs.compare(want, want) == []

    def changed(path, value):
        got = json.loads(json.dumps(want))
        *keys, last = path
        target = got
        for key in keys:
            target = target[key]
        target[last] = value
        return outputs.compare(got, want)

    assert changed(["dist_M1.csv", 0], 0.25 + 5e-13) == []
    assert changed(["dist_M1.csv", 0], 0.25 + 5e-12) != []
    assert changed(["verdict_M1.json"], "ambiguous") != []
    assert changed(["spectral.json", "full_product", "eigenphases", 1], 0.2 + 5e-11) == []
    assert changed(["spectral.json", "full_product", "eigenphases", 1], 0.2 + 5e-10) != []
    assert changed(["spectral.json", "single_step", "branch_cut_count"], 1) != []
    assert changed(["files"], ["dist_M1.csv", "verdict_M1.json"]) != []


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layers = [*spans.Tracer().layer_metrics(), "trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])


def test_refuses_to_run_without_ringnet_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensembles",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

