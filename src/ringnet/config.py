"""Run configuration: JSON schema, defaults, validation, round-tripping.

A run config is a JSON object with a nested ``scenario`` block plus
simulation and analysis settings. Every key except ``scenario.kind`` and
``depths`` has a default. Validation errors carry the dotted key path of the
offending entry so the command line can point straight at it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .analysis import DEFAULT_FIT_FLOOR, DEFAULT_THRESHOLDS
from .network import TWO_PI, MotifParams, Scenario, ScenarioKind

QUARTER_PI = math.pi / 4.0

DEFAULT_N_COUPLERS = 20
DEFAULT_THETA = QUARTER_PI
DEFAULT_PHI = QUARTER_PI
DEFAULT_SEED = 0
DEFAULT_RUNS = 1000
DEFAULT_EMIT = ("distributions", "fits", "variance_trace")
MAX_N_COUPLERS = 2048  # dense 2N x 2N complex matrices then take 256 MiB each

EMIT_CHOICES = frozenset(DEFAULT_EMIT) | {"spectral"}

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


def _expect_mapping(value, key):
    if not isinstance(value, dict):
        raise ConfigError(key, f"expected an object, got {type(value).__name__}")
    return value


def _expect_int(value, key, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be at least {minimum}, got {value}")
    return value


def _expect_float(value, key, low=None, high=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(key, f"must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(key, f"must be at most {high}, got {value}")
    return value


def _expect_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(key, f"expected true or false, got {value!r}")
    return value


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError("<config>", f"key {key!r} appears twice in one object")
        data[key] = value
    return data


def load_config(path: str) -> dict:
    """Read a JSON config file.

    Text that is not UTF-8, malformed JSON and a key repeated within one
    object are config errors, not I/O errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("<config>", f"invalid JSON in {path}: {exc}") from exc
    return _expect_mapping(data, "<config>")


def parse_config(data, seed_override=None, runs_override=None) -> RunConfig:
    """Validate a config mapping into a RunConfig, applying CLI overrides.

    Each block is read from a copy that loses every key as it is read, so a
    key still there once the block's known keys have been checked is unknown.
    Overrides replace the file's seed and runs before any range checks, so an
    out-of-range override fails the same way an out-of-range file entry does.
    """
    data = dict(_expect_mapping(data, "<config>"))
    if "scenario" not in data:
        raise ConfigError("scenario", "required key is missing")
    raw = dict(_expect_mapping(data.pop("scenario"), "scenario"))
    if "kind" not in raw:
        raise ConfigError("scenario.kind", "required key is missing")
    kind_name = raw.pop("kind")
    if not isinstance(kind_name, str):
        raise ConfigError("scenario.kind", f"expected a string, got {kind_name!r}")
    try:
        kind = ScenarioKind(kind_name)
    except ValueError:
        choices = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(
            "scenario.kind", f"unknown kind {kind_name!r}; choose from {choices}"
        ) from None

    n_couplers = _expect_int(
        raw.pop("n_couplers", DEFAULT_N_COUPLERS), "scenario.n_couplers", minimum=2
    )
    if n_couplers > MAX_N_COUPLERS:
        raise ConfigError(
            "scenario.n_couplers",
            f"must be at most {MAX_N_COUPLERS}, got {n_couplers}; one 2N x 2N complex "
            f"matrix would need {16 * (2 * n_couplers) ** 2:,} bytes",
        )
    theta = _expect_float(raw.pop("theta", DEFAULT_THETA), "scenario.theta")
    phi = _expect_float(raw.pop("phi", DEFAULT_PHI), "scenario.phi")
    alpha_fixed = _expect_float(
        raw.pop("alpha_fixed", 0.0), "scenario.alpha_fixed", low=0.0, high=TWO_PI
    )
    alpha_layer = _expect_float(
        raw.pop("alpha_layer", 0.0), "scenario.alpha_layer", low=0.0, high=TWO_PI
    )
    internal = _expect_bool(
        raw.pop("motif_internal_phases", True), "scenario.motif_internal_phases"
    )
    seed = raw.pop("seed", DEFAULT_SEED)
    if seed_override is not None:
        seed = seed_override
    seed = _expect_int(seed, "scenario.seed", minimum=0)
    if raw:
        raise ConfigError(f"scenario.{next(iter(raw))}", "unknown key")

    if "depths" not in data:
        raise ConfigError("depths", "required key is missing")
    raw_depths = data.pop("depths")
    if not isinstance(raw_depths, list) or not raw_depths:
        raise ConfigError("depths", "expected a nonempty array of step counts")
    depths = tuple(
        _expect_int(d, f"depths[{i}]", minimum=1) for i, d in enumerate(raw_depths)
    )
    for i in range(1, len(depths)):
        if depths[i] <= depths[i - 1]:
            raise ConfigError(f"depths[{i}]", "depths must be strictly increasing")

    try:
        scenario = Scenario(
            kind=kind,
            motif=MotifParams(n_couplers=n_couplers, theta=theta, phi=phi),
            depth=depths[-1],
            seed=seed,
            alpha_fixed=alpha_fixed,
            alpha_layer=alpha_layer,
            motif_internal_phases=internal,
        )
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc

    input_port = _expect_int(
        data.pop("input_port", n_couplers), "input_port", minimum=1
    )
    if input_port > scenario.n_modes:
        raise ConfigError(
            "input_port",
            f"must be at most {scenario.n_modes} for this ring, got {input_port}",
        )

    runs = data.pop("runs", DEFAULT_RUNS)
    if runs_override is not None:
        runs = runs_override
    runs = _expect_int(runs, "runs", minimum=1)

    raw_emit = data.pop("emit", list(DEFAULT_EMIT))
    if not isinstance(raw_emit, list):
        raise ConfigError("emit", f"expected an array, got {type(raw_emit).__name__}")
    emit = []
    for i, name in enumerate(raw_emit):
        if not isinstance(name, str) or name not in EMIT_CHOICES:
            choices = ", ".join(sorted(EMIT_CHOICES))
            raise ConfigError(
                f"emit[{i}]", f"unknown output {name!r}; choose from {choices}"
            )
        if name not in emit:
            emit.append(name)

    fit_floor = _expect_float(
        data.pop("fit_floor", DEFAULT_FIT_FLOOR), "fit_floor", low=0.0
    )
    if fit_floor >= 1.0:
        raise ConfigError("fit_floor", f"must be below 1, got {fit_floor}")

    raw_thresholds = data.pop("thresholds", list(DEFAULT_THRESHOLDS))
    if not isinstance(raw_thresholds, list) or len(raw_thresholds) != 2:
        raise ConfigError("thresholds", "expected an array of two ratio bounds")
    low = _expect_float(raw_thresholds[0], "thresholds[0]")
    high = _expect_float(raw_thresholds[1], "thresholds[1]")
    if not 0.0 < low <= high:
        raise ConfigError("thresholds", f"must satisfy 0 < low <= high, got {raw_thresholds}")

    alphas = None
    if "alphas" in data:
        raw_alphas = data.pop("alphas")
        if not isinstance(raw_alphas, list) or not raw_alphas:
            raise ConfigError("alphas", "expected a nonempty array of strengths")
        alphas = tuple(
            _expect_float(a, f"alphas[{i}]", low=0.0, high=TWO_PI)
            for i, a in enumerate(raw_alphas)
        )

    output = data.pop("output", None)
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", f"expected a string path, got {output!r}")
    if data:
        raise ConfigError(next(iter(data)), "unknown key")

    return RunConfig(
        scenario=scenario,
        depths=depths,
        input_port=input_port,
        runs=runs,
        emit=tuple(emit),
        fit_floor=fit_floor,
        thresholds=(low, high),
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
