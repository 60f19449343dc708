#!/usr/bin/env python3
"""Mutant suite: how strongly the tier-1 tests referee the library.

Each mutant is one exact edit of one file. For each, the tree is copied to a
temporary directory, the edit is applied to the copy, and tier-1 runs there
with ``-x``. A mutant is killed when a test fails. Nothing is written into the
checkout. An edit whose old text does not occur exactly once in its file is an
error, so a rewrite that moves mutated code must update the table, which
keeps the table current.

A mutant marked ``equivalent`` changes no behaviour the tests could see; its
reason says why. It is still run, and it counts as wrong if it is killed.
The copy holds the files git tracks, as they stand on disk, so an untracked
file is not seen until it is added.

    python3 scripts/mutants.py

The report is a Markdown table: per mutant, killed or survived, the first
failing test file and the seconds taken. The exit status is 1 when a mutant
not marked equivalent survives, when one marked equivalent is killed, or when
the unmutated tree fails.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tier-1 less the table's own test, which any applied edit fails by design
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutants.py"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    equivalent: str | None = None


MUTANTS = [
    # stream addressing, chunk accumulation and the stream contract
    Mutant("stream-index-shifted", "src/ringnet/simulate.py",
           "RngStream(scenario.seed, r) for r in", "RngStream(scenario.seed, r + 1) for r in"),
    Mutant("chunk-sums-assigned", "src/ringnet/simulate.py",
           "sums[step] += p.sum(axis=0)", "sums[step] = p.sum(axis=0)"),
    Mutant("last-between-layer-drawn", "src/ringnet/network.py",
           "between = depth - 1 if kind", "between = depth if kind"),
    Mutant("no-renormalization", "src/ringnet/simulate.py", "    p /= total\n", ""),
    Mutant("integer-upper-bound-inclusive", "src/ringnet/network.py",
           "value >= high", "value > high"),
    Mutant("before-conjugated", "src/ringnet/network.py",
           "yield fixed, before if internal", "yield fixed, -before if internal"),
    Mutant("cosine-gap-zero", "src/ringnet/linalg.py", "COSINE_GAP = 1e-3", "COSINE_GAP = 0.0"),
    # the light cone of network.advance
    Mutant("cone-short-left", "src/ringnet/network.py",
           "2 * ((lo + 1) // 2) - 2,", "2 * ((lo + 1) // 2) - 1,"),
    Mutant("cone-short-right", "src/ringnet/network.py",
           "2 * (hi // 2) + 2", "2 * (hi // 2) + 1"),
    Mutant("cone-frame-shift-odd", "src/ringnet/network.py", "    shift -= shift % 2\n", ""),
    Mutant("cone-pending-angles-dropped", "src/ringnet/network.py",
           "for a in (before, pending)", "for a in (before,)"),
    Mutant("cone-ring-coverage-weakened", "src/ringnet/network.py",
           "if out_hi - out_lo < n or shift:", "if out_hi - out_lo < n and shift:"),
    Mutant("cone-frame-kept-on-full-ring", "src/ringnet/network.py",
           "shift = 0  # the whole ring needs no frame", "pass",
           equivalent="the state is scattered back to ring order at every step, so a frame "
           "kept once the cone covers the ring gives the same values, only slower"),
    # run-level rules, each held by one owner that config calls through _library
    Mutant("thresholds-equal-refused", "src/ringnet/analysis.py",
           "if not 0.0 < low <= high:", "if not 0.0 < low < high:"),
    Mutant("fit-floor-zero-refused", "src/ringnet/analysis.py",
           "if not 0.0 <= value < 1.0:", "if not 0.0 < value < 1.0:"),
    Mutant("depths-empty-allowed", "src/ringnet/network.py",
           '    if not depths:\n        raise ScenarioError("depths", "must be nonempty")\n', ""),
    Mutant("runs-zero-allowed", "src/ringnet/config.py",
           '_number(runs, "runs", integer=True), 1)', '_number(runs, "runs", integer=True), 0)'),
    Mutant("input-port-last-refused", "src/ringnet/config.py",
           "1 <= input_port <= 2 * n_couplers", "1 <= input_port < 2 * n_couplers"),
    Mutant("library-key-loses-block", "src/ringnet/config.py",
           'f"{block}.{exc.field}" if exc.field', "exc.field if exc.field"),
    Mutant("container-named-by-python", "src/ringnet/config.py",
           "got = JSON_TYPES.get(type(value), type(value).__name__)",
           "got = type(value).__name__"),
]


def check_table(mutants=MUTANTS) -> list[str]:
    """Every fault in the table: a repeated name, a missing file, or an edit
    whose old text does not occur exactly once or leaves the file as it was."""
    faults = []
    names = [m.name for m in mutants]
    faults += [f"{n}: name appears twice" for n in sorted({n for n in names if names.count(n) > 1})]
    for m in mutants:
        path = ROOT / m.file
        if not path.is_file():
            faults.append(f"{m.name}: no file {m.file}")
            continue
        count = path.read_text(encoding="utf-8").count(m.old)
        if count != 1:
            faults.append(f"{m.name}: old text occurs {count} times in {m.file}, not once")
        if m.old == m.new:
            faults.append(f"{m.name}: the edit changes nothing")
    return faults


def tracked_files() -> list[str]:
    """The checkout's files that git tracks and that are on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def run_tier1(mutant: Mutant | None, files: list[str]) -> tuple[bool, str, float]:
    """Tier-1 with -x on a fresh copy of ``files``, ``mutant`` applied if given:
    (passed, first failing test file or "", seconds)."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ringnet-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        for name in files:
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(
                path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
            )
        # the copy's own src, whatever PYTHONPATH the caller has
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    failed = re.search(r"^(?:FAILED|ERROR) ([^\s:]+)", proc.stdout, re.M)
    return proc.returncode == 0, failed.group(1) if failed else "", time.perf_counter() - started


def main() -> int:
    faults = check_table()
    for fault in faults:
        print(f"error: {fault}", file=sys.stderr)
    if faults:
        return 1

    files = tracked_files()
    passed, failed, seconds = run_tier1(None, files)
    if not passed:
        print(f"error: tier-1 fails on the unmutated tree ({failed}); no mutant can be judged",
              file=sys.stderr)
        return 1
    print(f"unmutated tree: tier-1 passes in {seconds:.1f} s\n")
    print("| mutant | file | result | first failing test file | s |")
    print("|---|---|---|---|---|")
    wrong = 0
    for m in MUTANTS:
        passed, failed, seconds = run_tier1(m, files)
        result = "survived" if passed else "killed"
        if m.equivalent:
            result += f" (equivalent: {m.equivalent})"
        wrong += passed != bool(m.equivalent)
        print(f"| {m.name} | {m.file} | {result} | {failed or '-'} | {seconds:.1f} |", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
