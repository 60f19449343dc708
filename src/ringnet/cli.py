"""Command line front end.

Three subcommands: ``simulate`` runs one ensemble and makes distribution,
verdict, and variance-trace files; ``scan-alpha`` repeats the final-depth
classification across a list of disorder strengths; ``spectrum`` makes the
eigen-level localization summary of the composed transfer matrix and of a
single disordered step.

Each subcommand returns its files as an ordered ``{filename: text}`` and opens
no file itself; ``main`` adds ``effective_config.json`` and writes them all.
Result files are written only after the whole run has been computed, so a
run that fails on its config or numerically leaves at most an empty output
directory.

Exit codes: 0 success, 1 config problem or usage error, 2 numerical failure,
3 I/O failure. Numerical failures include a ``LinAlgError`` from either
numpy eigensolver in ``ringnet.linalg.eig_unitary`` (``eigh`` of the whole
matrix, ``eig`` of a cluster's block). Any other exception is a bug and ends
with a traceback.
Numbers are written as Python's shortest round-trip float text, so each one
parses back to the exact double that was computed. All result files are
deterministic byte for byte given the same config and the same BLAS thread
count. Only ``spectral.json`` depends on that count: its eigendecompositions
(a Hermitian eigensolve plus a small eigensolve and QR per cluster of close
eigenphase cosines) can move in the last digits between thread counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .analysis import InsufficientSupportError, RegimeVerdict, classify
from .analysis import eigenvector_localization
from .config import ConfigError, RunConfig, effective_config, load_config, parse_config
from .linalg import NonUnitaryError
from .network import compose, disordered_motif
from .simulate import DepthSample, Distribution, run_ensemble


def _plain(value):
    """``json.dumps`` fallback: numpy arrays to lists, numpy scalars to Python."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def render_json(value) -> str:
    """Serialize to JSON with two-space indent and the mapping's own key order.

    Floats are written as Python's shortest round-trip text, so every number
    parses back to the exact double that was computed; non-finite numbers
    raise ``ValueError``.
    """
    return json.dumps(value, indent=2, allow_nan=False, default=_plain) + "\n"


def _write_text(path: str, text: str, quiet: bool):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if not quiet:
        print(f"wrote {path}")


def distribution_csv(dist: Distribution, floor: float) -> str:
    """CSV of one distribution: one-based port, probability, log10 probability.

    The log column is left empty for probabilities at or below the fit floor,
    the same cut the fits apply. A trailing comment line carries the sum as a
    quick integrity check.
    """
    lines = ["port,probability,log10_probability"]
    for i, p in enumerate(dist.probabilities):
        log_field = repr(math.log10(p)) if p > floor else ""
        lines.append(f"{i + 1},{float(p)!r},{log_field}")
    lines.append(f"# sum={float(dist.probabilities.sum())!r}")
    return "\n".join(lines) + "\n"


def _sample_files(
    cfg: RunConfig, sample: DepthSample, tag: str, verdict: RegimeVerdict | None, alpha=None
) -> dict[str, str]:
    """``dist_<tag>.csv`` and ``verdict_<tag>.json`` of one sample, as emitted.

    ``verdict`` is read only when fits are emitted; scan-alpha's strength goes
    after ``fits`` in the verdict file.
    """
    files = {}
    if "distributions" in cfg.emit:
        files[f"dist_{tag}.csv"] = distribution_csv(sample.distribution, cfg.fit_floor)
    if "fits" in cfg.emit:
        ratio = verdict.ssr_ratio if math.isfinite(verdict.ssr_ratio) else None
        payload = {
            "depth": sample.depth,
            "runs": cfg.runs,
            "input_port": cfg.input_port,
            "regime": verdict.regime.value,
            "ssr_ratio": ratio,
            "localization_length": verdict.localization_length,
            "fits": {
                "gaussian": dataclasses.asdict(verdict.gaussian),
                "exponential": dataclasses.asdict(verdict.exponential),
            },
        }
        if alpha is not None:
            payload["alpha"] = float(alpha)
        payload["variance"] = sample.variance
        payload["ipr"] = sample.ipr
        payload["realization_ipr_mean"] = sample.realization_ipr_mean
        files[f"verdict_{tag}.json"] = render_json(payload)
    return files


def cmd_simulate(cfg: RunConfig) -> dict[str, str]:
    result = run_ensemble(cfg.scenario, cfg.input_index, cfg.depths, cfg.runs)
    files = {}
    for sample in result.samples:
        verdict = None
        if "fits" in cfg.emit:  # fit only the verdicts that are written
            verdict = classify(sample.distribution, cfg.thresholds, cfg.fit_floor)
        files.update(_sample_files(cfg, sample, f"M{sample.depth}", verdict))

    if "variance_trace" in cfg.emit:
        lines = ["depth,variance,ipr"]
        for sample in result.samples:
            lines.append(f"{sample.depth},{float(sample.variance)!r},{float(sample.ipr)!r}")
        files["variance_trace.csv"] = "\n".join(lines) + "\n"

    if "spectral" in cfg.emit:
        files.update(cmd_spectrum(cfg))
    return files


def cmd_scan_alpha(cfg: RunConfig) -> dict[str, str]:
    if cfg.alphas is None:
        raise ConfigError("alphas", "required key is missing for scan-alpha")
    axis = cfg.scenario.kind.scan_axis
    if axis is None:
        kind = cfg.scenario.kind.value
        raise ConfigError("scenario.kind", f"kind {kind!r} has no disorder strength to scan")

    files = {}
    summary = ["alpha,ipr,ssr_ratio,regime"]
    for idx, alpha in enumerate(cfg.alphas):
        # same seed for every strength: differences along the scan come from
        # the strength alone, not from resampled noise
        scenario = dataclasses.replace(cfg.scenario, **{axis: alpha})
        result = run_ensemble(scenario, cfg.input_index, (scenario.depth,), cfg.runs)
        sample = result.final
        verdict = classify(sample.distribution, cfg.thresholds, cfg.fit_floor)
        files.update(_sample_files(cfg, sample, f"alpha{idx}", verdict, alpha))
        ratio_field = repr(verdict.ssr_ratio) if math.isfinite(verdict.ssr_ratio) else ""
        summary.append(
            f"{float(alpha)!r},{float(sample.ipr)!r},{ratio_field},{verdict.regime.value}"
        )

    files["scan_summary.csv"] = "\n".join(summary) + "\n"
    return files


def cmd_spectrum(cfg: RunConfig) -> dict[str, str]:
    scenario = cfg.scenario
    payload = {
        "n_modes": scenario.n_modes,
        "depth": scenario.depth,
        "single_step": dataclasses.asdict(
            eigenvector_localization(disordered_motif(scenario))
        ),
        "full_product": dataclasses.asdict(
            eigenvector_localization(compose(scenario))
        ),
    }
    return {"spectral.json": render_json(payload)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on its first call and then reused: each
    parse_args returns a fresh namespace and keeps nothing between calls."""
    parser = argparse.ArgumentParser(
        prog="ringnet",
        description="Single-excitation transport on disordered coupler rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("simulate", cmd_simulate, "run one ensemble and write its outputs"),
        ("scan-alpha", cmd_scan_alpha, "classify across disorder strengths"),
        ("spectrum", cmd_spectrum, "eigen-level summary of the transfer matrix"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--out", help="output directory (default: config output or .)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--runs", type=int, help="override the realization count")
        p.add_argument("--quiet", action="store_true", help="suppress per-file notes")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is reserved
        # for numerical failure here
        return 1 if exc.code else 0
    try:
        if args.config is None:
            raise ConfigError("--config", "a config file is required")
        cfg = parse_config(
            load_config(args.config), seed_override=args.seed, runs_override=args.runs
        )
        # created before the compute so an unwritable --out fails fast
        out_dir = args.out if args.out is not None else (cfg.output or ".")
        os.makedirs(out_dir, exist_ok=True)
        files = args.func(cfg)
        files["effective_config.json"] = render_json(effective_config(cfg))
        for name, text in files.items():
            _write_text(os.path.join(out_dir, name), text, args.quiet)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, NonUnitaryError, InsufficientSupportError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
