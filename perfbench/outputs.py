"""Read the result files of one CLI invocation and compare them to a reference.

A snapshot keeps what the output check compares: the file list, every
distribution's probabilities, every regime, and the arrays of
``spectral.json``. Tolerances:

- distributions: 1e-12 max-abs per port;
- regimes: identical;
- spectral arrays and scalars: 1e-10. ``spectral.json`` depends on the BLAS
  thread count in its last digits, so it is not compared byte for byte.

Standard library only, so the reference files stay plain JSON.
"""

from __future__ import annotations

import csv
import json
import os

DIST_TOL = 1e-12
SPECTRAL_TOL = 1e-10
SPECTRAL_ARRAYS = ("eigenphases", "eigenvector_ipr", "band_fractions")
SPECTRAL_EXACT = ("branch_cut_count",)


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")][1:]


def snapshot(out_dir: str) -> dict:
    """The checked content of every result file in ``out_dir``."""
    files = sorted(os.listdir(out_dir))
    snap = {"files": files}
    for name in files:
        path = os.path.join(out_dir, name)
        if name.startswith("dist_") and name.endswith(".csv"):
            snap[name] = [float(row[1]) for row in _rows(path)]
        elif name.startswith("verdict_") and name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                snap[name] = json.load(fh)["regime"]
        elif name == "scan_summary.csv":
            snap[name] = [row[3] for row in _rows(path)]
        elif name == "spectral.json":
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            snap[name] = {
                "n_modes": data["n_modes"],
                "depth": data["depth"],
                **{
                    section: {
                        key: data[section][key]
                        for key in SPECTRAL_ARRAYS + SPECTRAL_EXACT
                        + ("eigenvector_ipr_mean",)
                    }
                    for section in ("single_step", "full_product")
                },
            }
    return snap


def _max_abs(got, want) -> float:
    if not isinstance(got, list):
        got, want = [got], [want]
    if len(got) != len(want):
        return float("inf")
    return max((abs(a - b) for a, b in zip(got, want)), default=0.0)


def compare(got: dict, want: dict) -> list:
    """Every mismatch between two snapshots, as readable lines; empty if none."""
    problems = []
    if got["files"] != want["files"]:
        return [f"files {got['files']} differ from reference {want['files']}"]
    for name in want["files"]:
        if name not in want:
            continue
        g, w = got[name], want[name]
        if name.startswith("dist_"):
            err = _max_abs(g, w)
            if err > DIST_TOL:
                problems.append(f"{name}: max-abs {err:.3e} > {DIST_TOL:.0e}")
        elif name == "spectral.json":
            for key in ("n_modes", "depth"):
                if g[key] != w[key]:
                    problems.append(f"{name}: {key} {g[key]} != {w[key]}")
            for section in ("single_step", "full_product"):
                for key in SPECTRAL_EXACT:
                    if g[section][key] != w[section][key]:
                        problems.append(f"{name}: {section}.{key} differs")
                for key in SPECTRAL_ARRAYS + ("eigenvector_ipr_mean",):
                    err = _max_abs(g[section][key], w[section][key])
                    if err > SPECTRAL_TOL:
                        problems.append(
                            f"{name}: {section}.{key} max-abs {err:.3e} > "
                            f"{SPECTRAL_TOL:.0e}"
                        )
        elif g != w:
            problems.append(f"{name}: regime {g} != reference {w}")
    return problems
