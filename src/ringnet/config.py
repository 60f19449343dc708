"""Run configuration: JSON schema, defaults, validation, round-tripping.

A run config is a JSON object with a nested ``scenario`` block plus
simulation and analysis settings. Every key except ``scenario.kind`` and
``depths`` has a default. Validation errors carry the dotted key path of the
offending entry so the command line can point straight at it. This module
reads JSON shapes and types; the range rules belong to the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .analysis import DEFAULT_FIT_FLOOR, DEFAULT_THRESHOLDS, check_fit_floor, check_thresholds
from .network import MotifParams, Scenario, ScenarioError, check_depths, check_integer
from .network import check_strength

QUARTER_PI = math.pi / 4.0

DEFAULT_N_COUPLERS = 20
DEFAULT_THETA = QUARTER_PI
DEFAULT_PHI = QUARTER_PI
DEFAULT_SEED = 0
DEFAULT_RUNS = 1000
DEFAULT_EMIT = ("distributions", "fits", "variance_trace")
MAX_N_COUPLERS = 2048  # dense 2N x 2N complex matrices then take 256 MiB each

EMIT_CHOICES = frozenset(DEFAULT_EMIT) | {"spectral"}
JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
              int: "a number", float: "a number", type(None): "null"}

class ConfigError(ValueError):
    """A config entry is missing, mistyped, or out of range.

    ``key`` is the dotted path of the entry at fault ("scenario.theta",
    "depths[2]", ...); str() always leads with it.
    """

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message


@dataclass(frozen=True)
class RunConfig:
    """Fully validated settings for one simulation or scan."""

    scenario: Scenario
    depths: tuple
    input_port: int
    runs: int
    emit: tuple
    fit_floor: float
    thresholds: tuple
    alphas: tuple | None = None
    output: str | None = None

    @property
    def input_index(self) -> int:
        """Zero-based mode index of the one-based input port."""
        return self.input_port - 1


def _expect(value, kind, key):
    """Return ``value`` if it is a ``kind``, dict or list; else name both JSON types."""
    if not isinstance(value, kind):
        got = JSON_TYPES.get(type(value), type(value).__name__)
        raise ConfigError(key, f"expected {JSON_TYPES[kind]}, got {got}")
    return value


def _json_text(value) -> str:
    """``value`` as it was written in JSON (``true``, ``"5"``, ``null``); repr
    for a value JSON cannot write, such as a numpy scalar handed in from Python."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _number(value, key, integer=False):
    """Read one JSON number: the only place one becomes a Python number.

    Refuses a bool, a non-int where ``integer`` is set (else a non-number), and
    a value that is not finite or does not fit a double; ranges are the
    library's. Returns an int where ``integer`` is set, else a float.
    """
    kinds, noun = (int, "an integer") if integer else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(key, f"expected {noun}, got {_json_text(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the largest double
        finite = False
    if not finite:
        raise ConfigError(key, "must be finite and fit a double")
    return value if integer else float(value)


def _library(rule, *args, block=None, **kwargs):
    """Call a library rule; its ScenarioError becomes a ConfigError on the same
    key, or on ``block.<field>`` (``block`` itself for a rule on several fields)."""
    try:
        return rule(*args, **kwargs)
    except ScenarioError as exc:
        key = exc.field if block is None else f"{block}.{exc.field}" if exc.field else block
        raise ConfigError(key, exc.message) from exc


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError("<config>", f"key {key!r} appears twice in one object")
        data[key] = value
    return data


def load_config(path: str) -> dict:
    """Read a JSON config file.

    Text that is not UTF-8, or that ``json`` cannot turn into values
    (malformed, nested too deep, an integer past Python's digit limit), and a
    key repeated within one object are config errors, not I/O errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    return _expect(data, dict, "<config>")


def parse_config(data, seed_override=None, runs_override=None) -> RunConfig:
    """Validate a config mapping into a RunConfig, applying CLI overrides.

    Each block is read from a copy that loses every key as it is read, so a
    key still there once the block's known keys have been checked is unknown.
    Entries are read for JSON type only: the library's rules hold the ranges,
    and ``_library`` turns their ScenarioError into a ConfigError on the entry's
    key. The ring-size ceiling and input_port's range are this reader's own.
    Overrides replace the file's seed and runs before any checks, so an
    out-of-range override fails the same way an out-of-range file entry does.
    """
    data = dict(_expect(data, dict, "<config>"))
    if "scenario" not in data:
        raise ConfigError("scenario", "required key is missing")
    raw = dict(_expect(data.pop("scenario"), dict, "scenario"))
    if "kind" not in raw:
        raise ConfigError("scenario.kind", "required key is missing")
    kind = raw.pop("kind")

    n_couplers = raw.pop("n_couplers", DEFAULT_N_COUPLERS)
    n_couplers = _number(n_couplers, "scenario.n_couplers", integer=True)
    if n_couplers > MAX_N_COUPLERS:
        raise ConfigError(
            "scenario.n_couplers",
            f"must be at most {MAX_N_COUPLERS}, got {n_couplers}; one 2N x 2N complex "
            f"matrix would need {16 * (2 * n_couplers) ** 2:,} bytes",
        )
    theta = _number(raw.pop("theta", DEFAULT_THETA), "scenario.theta")
    phi = _number(raw.pop("phi", DEFAULT_PHI), "scenario.phi")
    alpha_fixed = _number(raw.pop("alpha_fixed", 0.0), "scenario.alpha_fixed")
    alpha_layer = _number(raw.pop("alpha_layer", 0.0), "scenario.alpha_layer")
    internal = raw.pop("motif_internal_phases", True)
    if not isinstance(internal, bool):
        message = f"expected true or false, got {_json_text(internal)}"
        raise ConfigError("scenario.motif_internal_phases", message)
    seed = raw.pop("seed", DEFAULT_SEED)
    if seed_override is not None:
        seed = seed_override
    seed = _number(seed, "scenario.seed", integer=True)

    if "depths" not in data:
        raise ConfigError("depths", "required key is missing")
    raw_depths = _expect(data.pop("depths"), list, "depths")
    depths = [_number(d, f"depths[{i}]", integer=True) for i, d in enumerate(raw_depths)]
    depths = _library(check_depths, depths)

    motif = _library(MotifParams, n_couplers, theta, phi, block="scenario")
    scenario = _library(
        Scenario, kind=kind, motif=motif, depth=depths[-1], seed=seed,
        alpha_fixed=alpha_fixed, alpha_layer=alpha_layer, motif_internal_phases=internal,
        block="scenario",
    )
    if raw:
        raise ConfigError(f"scenario.{next(iter(raw))}", "unknown key")

    input_port = _number(data.pop("input_port", n_couplers), "input_port", integer=True)
    if not 1 <= input_port <= 2 * n_couplers:
        raise ConfigError("input_port", f"must lie in [1, {2 * n_couplers}], got {input_port}")

    runs = data.pop("runs", DEFAULT_RUNS)
    if runs_override is not None:
        runs = runs_override
    runs = _library(check_integer, "runs", _number(runs, "runs", integer=True), 1)

    raw_emit = _expect(data.pop("emit", list(DEFAULT_EMIT)), list, "emit")
    emit = []
    for i, name in enumerate(raw_emit):
        if not isinstance(name, str) or name not in EMIT_CHOICES:
            choices = ", ".join(sorted(EMIT_CHOICES))
            raise ConfigError(
                f"emit[{i}]", f"unknown output {_json_text(name)}; choose from {choices}"
            )
        if name not in emit:
            emit.append(name)

    fit_floor = _number(data.pop("fit_floor", DEFAULT_FIT_FLOOR), "fit_floor")
    fit_floor = _library(check_fit_floor, "fit_floor", fit_floor)

    thresholds = _expect(data.pop("thresholds", list(DEFAULT_THRESHOLDS)), list, "thresholds")
    thresholds = [_number(t, f"thresholds[{i}]") for i, t in enumerate(thresholds)]
    thresholds = _library(check_thresholds, "thresholds", thresholds)

    alphas = None
    if "alphas" in data:
        alphas = _expect(data.pop("alphas"), list, "alphas")
        if not alphas:
            raise ConfigError("alphas", "must be nonempty")
        keys = [f"alphas[{i}]" for i in range(len(alphas))]
        alphas = tuple(_library(check_strength, k, _number(a, k)) for k, a in zip(keys, alphas))

    output = data.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", f"expected a string path, got {_json_text(output)}")
    if data:
        raise ConfigError(next(iter(data)), "unknown key")

    return RunConfig(
        scenario=scenario,
        depths=depths,
        input_port=input_port,
        runs=runs,
        emit=tuple(emit),
        fit_floor=fit_floor,
        thresholds=thresholds,
        alphas=alphas,
        output=output,
    )


def effective_config(cfg: RunConfig) -> dict:
    """The settings actually in force, as a mapping parse_config accepts.

    Deliberately leaves out the output directory: feeding the result back in
    with a fresh output location reproduces the run byte for byte.
    """
    out = {
        "scenario": {
            "kind": cfg.scenario.kind.value,
            "n_couplers": cfg.scenario.motif.n_couplers,
            "theta": cfg.scenario.motif.theta,
            "phi": cfg.scenario.motif.phi,
            "alpha_fixed": cfg.scenario.alpha_fixed,
            "alpha_layer": cfg.scenario.alpha_layer,
            "motif_internal_phases": cfg.scenario.motif_internal_phases,
            "seed": cfg.scenario.seed,
        },
        "depths": list(cfg.depths),
        "input_port": cfg.input_port,
        "runs": cfg.runs,
        "emit": list(cfg.emit),
        "fit_floor": cfg.fit_floor,
        "thresholds": list(cfg.thresholds),
    }
    if cfg.alphas is not None:
        out["alphas"] = list(cfg.alphas)
    return out
