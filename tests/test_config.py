import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from ringnet.config import (
    DEFAULT_FIT_FLOOR,
    DEFAULT_N_COUPLERS,
    DEFAULT_PHI,
    DEFAULT_RUNS,
    DEFAULT_THETA,
    DEFAULT_THRESHOLDS,
    MAX_N_COUPLERS,
    ConfigError,
    effective_config,
    load_config,
    parse_config,
)
from ringnet.analysis import classify
from ringnet.network import MotifParams, Scenario, ScenarioError, ScenarioKind, check_depths
from ringnet.simulate import Distribution, run_ensemble

INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def minimal(kind="pure", **scenario_extra):
    return {"scenario": {"kind": kind, **scenario_extra}, "depths": [10]}


def test_minimal_config_fills_defaults():
    cfg = parse_config(minimal())
    assert cfg.scenario.kind is ScenarioKind.PURE
    assert cfg.scenario.motif.n_couplers == 20
    assert cfg.scenario.motif.theta == pytest.approx(np.pi / 4)
    assert cfg.scenario.motif.phi == pytest.approx(np.pi / 4)
    assert cfg.scenario.depth == 10
    assert cfg.scenario.seed == 0
    assert cfg.depths == (10,)
    assert cfg.input_port == 20
    assert cfg.input_index == 19
    assert cfg.runs == DEFAULT_RUNS
    assert cfg.emit == ("distributions", "fits", "variance_trace")
    assert cfg.fit_floor == DEFAULT_FIT_FLOOR
    assert cfg.thresholds == DEFAULT_THRESHOLDS
    assert cfg.alphas is None
    assert cfg.output is None


def test_depth_comes_from_the_last_snapshot():
    cfg = parse_config({"scenario": {"kind": "pure"}, "depths": [2, 5, 9]})
    assert cfg.scenario.depth == 9
    assert cfg.depths == (2, 5, 9)


def test_missing_kind_reports_dotted_key():
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {}, "depths": [1]})
    assert err.value.key == "scenario.kind"


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(kind="sideways"))
    assert err.value.key == "scenario.kind"


def test_bad_theta_type_reports_dotted_key():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(theta="wide"))
    assert err.value.key == "scenario.theta"


def test_unknown_keys_rejected_with_paths():
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "mystery": 1})
    assert "mystery" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(mystery=1))
    assert "scenario.mystery" in str(err.value)


def test_known_keys_are_checked_before_unknown_ones():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(mystery=1, theta="wide"))
    assert err.value.key == "scenario.theta"
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "mystery": 1, "runs": 0})
    assert err.value.key == "runs"
    # the keys are taken from copies: the caller's mapping stays whole
    data = {**minimal(theta=0.5), "runs": 3}
    parse_config(data)
    assert data == {**minimal(theta=0.5), "runs": 3}


def test_depths_must_be_strictly_increasing():
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"kind": "pure"}, "depths": [4, 4]})
    assert err.value.key == "depths[1]"
    with pytest.raises(ConfigError):
        parse_config({"scenario": {"kind": "pure"}, "depths": []})
    with pytest.raises(ConfigError):
        parse_config({"scenario": {"kind": "pure"}})


def test_depth_order_has_one_rule_for_config_and_ensemble():
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": {"kind": "pure"}, "depths": [2, 6, 5, 8]})
    sc = Scenario(kind="pure", motif=MotifParams(2, 0.3, 0.2), depth=8, seed=0)
    with pytest.raises(ScenarioError) as direct:
        run_ensemble(sc, 0, (2, 6, 5, 8), 1)
    assert direct.value.field == err.value.key == "depths[2]"
    assert direct.value.message == err.value.message == "must be above depths[1] = 6, got 5"


PURE = Scenario(kind="pure", motif=MotifParams(2, 0.3, 0.2), depth=8, seed=0)
FLAT = Distribution(np.full(10, 0.1), 0)


@pytest.mark.parametrize(
    "entry, library, key, field",
    [
        ({"thresholds": [1.5, 0.5]}, lambda: classify(FLAT, (1.5, 0.5)), "thresholds", None),
        ({"thresholds": [0, 1]}, lambda: classify(FLAT, (0, 1)), "thresholds", None),
        ({"fit_floor": 1}, lambda: classify(FLAT, floor=1), "fit_floor", "floor"),
        ({"fit_floor": -0.1}, lambda: classify(FLAT, floor=-0.1), "fit_floor", "floor"),
        ({"depths": []}, lambda: check_depths([]), "depths", None),
        ({"depths": []}, lambda: run_ensemble(PURE, 0, (), 1), "depths", None),
        ({"depths": [0, 8]}, lambda: run_ensemble(PURE, 0, (0, 8), 1), "depths[0]", None),
        ({"runs": 0}, lambda: run_ensemble(PURE, 0, (8,), 0), "runs", None),
    ],
    ids=[
        "thresholds-order", "thresholds-zero", "floor-one", "floor-negative",
        "depths-empty", "ensemble-depths-empty", "depth-zero", "runs-zero",
    ],
)
def test_run_level_rules_give_one_text_in_config_and_library(entry, library, key, field):
    # each rule has one owner in the library; config only names the entry's key
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), **entry})
    with pytest.raises(ScenarioError) as direct:
        library()
    assert err.value.key == key
    assert direct.value.field == (field or key)
    assert err.value.message == direct.value.message


# a container of the wrong JSON type is named by its JSON type, not Python's
@pytest.mark.parametrize(
    "data, text",
    [
        ([minimal()], "<config>: expected an object, got an array"),
        ({"scenario": ["pure"], "depths": [3]}, "scenario: expected an object, got an array"),
        ({**minimal(), "depths": "3"}, "depths: expected an array, got a string"),
        ({**minimal(), "emit": "fits"}, "emit: expected an array, got a string"),
        ({**minimal(), "emit": None}, "emit: expected an array, got null"),
        ({**minimal(), "thresholds": {"low": 1}}, "thresholds: expected an array, got an object"),
        ({**minimal(), "thresholds": True}, "thresholds: expected an array, got a boolean"),
        ({**minimal(), "alphas": 0.5}, "alphas: expected an array, got a number"),
    ],
    ids=["top-level", "scenario", "depths", "emit", "emit-null", "thresholds",
         "thresholds-bool", "alphas"],
)
def test_wrong_container_is_named_by_its_json_type(data, text):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert str(err.value) == text


def test_a_json_file_holding_an_array_is_named_as_one(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == "<config>: expected an object, got an array"


# a value of the wrong JSON type is quoted as the JSON text that wrote it
INTEGER_KEY_VALUES = [(True, "true"), ("5", '"5"'), (None, "null"), ([3], "[3]")]
BOOL_KEY_VALUES = [(1, "1"), ("true", '"true"'), (None, "null"), ([True], "[true]")]


@pytest.mark.parametrize(
    "value, text", INTEGER_KEY_VALUES, ids=["bool", "string", "null", "list"]
)
def test_integer_key_quotes_a_wrong_type_as_json(value, text):
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "runs": value})
    assert str(err.value) == f"runs: expected an integer, got {text}"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(theta=value))
    assert str(err.value) == f"scenario.theta: expected a number, got {text}"


@pytest.mark.parametrize("value, text", BOOL_KEY_VALUES, ids=["number", "string", "null", "list"])
def test_bool_key_quotes_a_wrong_type_as_json(value, text):
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(kind="fully-random", motif_internal_phases=value))
    key = "scenario.motif_internal_phases"
    assert str(err.value) == f"{key}: expected true or false, got {text}"


def test_string_keys_quote_a_wrong_value_as_json():
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "output": False})
    assert str(err.value) == "output: expected a string path, got false"
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "emit": ["fits", "plots"]})
    assert str(err.value).startswith('emit[1]: unknown output "plots"; choose from ')


def test_a_value_json_cannot_write_is_quoted_as_python():
    value = np.float32(3)
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "runs": value})
    assert str(err.value) == f"runs: expected an integer, got {value!r}"


def test_alpha_bounds_checked_per_field():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(kind="fixed-disorder", alpha_fixed=6.5))
    assert err.value.key == "scenario.alpha_fixed"


def test_unused_alpha_rejected_through_scenario():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(kind="pure", alpha_fixed=0.3))
    assert err.value.key == "scenario"
    assert "alpha_fixed" in err.value.message


def test_ring_size_ceiling_admits_the_largest_benchmarked_ring():
    assert MAX_N_COUPLERS >= 2000
    cfg = parse_config(minimal(n_couplers=MAX_N_COUPLERS))
    assert cfg.scenario.motif.n_couplers == MAX_N_COUPLERS
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(n_couplers=MAX_N_COUPLERS + 1))
    assert err.value.key == "scenario.n_couplers"


def test_oversized_ring_is_refused_at_parse_time_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            parse_config(minimal(n_couplers=50000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.key == "scenario.n_couplers"
    # one 100000 x 100000 complex128 matrix, named in the message
    assert "160,000,000,000 bytes" in err.value.message
    assert peak < 1_000_000


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "runs": True})
    assert err.value.key == "runs"


@pytest.mark.parametrize(
    "data, key",
    [
        (minimal(theta=10**400), "scenario.theta"),
        (minimal(n_couplers=10**2200), "scenario.n_couplers"),
        (minimal(seed=-(10**400)), "scenario.seed"),
        ({**minimal(), "runs": 10**400}, "runs"),
        ({**minimal(), "depths": [1, 10**400]}, "depths[1]"),
        (minimal(phi=float("nan")), "scenario.phi"),
        ({**minimal(), "fit_floor": float("-inf")}, "fit_floor"),
    ],
    ids=["float-key", "n_couplers", "seed", "runs", "depths", "nan", "inf"],
)
def test_numbers_must_be_finite_doubles(data, key):
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.key == key
    assert err.value.message == "must be finite and fit a double"


def test_integers_within_a_double_keep_their_exact_value():
    cfg = parse_config(minimal(seed=2**64 + 1, theta=3))
    assert cfg.scenario.seed == 2**64 + 1
    assert type(cfg.scenario.motif.theta) is float


@pytest.mark.parametrize("kind", ["pure", "fixed-disorder", "intermediate"])
def test_internal_phases_flag_can_be_turned_off_only_for_fully_random(kind):
    with pytest.raises(ConfigError) as err:
        parse_config(minimal(kind=kind, motif_internal_phases=False))
    assert err.value.key == "scenario.motif_internal_phases"
    assert parse_config(minimal(kind=kind, motif_internal_phases=True))
    cfg = parse_config(minimal(kind="fully-random", motif_internal_phases=False))
    assert cfg.scenario.motif_internal_phases is False


@pytest.mark.parametrize(
    "scenario, field",
    [
        ({"kind": "pure", "n_couplers": 1}, "n_couplers"),
        ({"kind": "pure", "seed": -1}, "seed"),
        ({"kind": "fixed-disorder", "alpha_fixed": -0.1}, "alpha_fixed"),
        ({"kind": "fixed-disorder", "alpha_fixed": 7.0}, "alpha_fixed"),
        ({"kind": "fully-random", "alpha_layer": 7.0}, "alpha_layer"),
        ({"kind": 5}, "kind"),
        ({"kind": "sideways"}, "kind"),
        ({"kind": "pure", "motif_internal_phases": False}, "motif_internal_phases"),
        ({"kind": "fixed-disorder", "alpha_fixed": 7.0, "mystery": 1}, "alpha_fixed"),
        ({"kind": "pure", "seed": 1.5}, "seed"),
        ({"kind": "pure", "depth": 0}, "depth"),
        ({"kind": "pure", "depth": 2.5}, "depth"),
    ],
    ids=[
        "n_couplers", "seed", "alpha_fixed-low", "alpha_fixed-high", "alpha_layer",
        "kind-number", "kind-name", "internal-flag", "range-before-unknown-key",
        "seed-float", "depth", "depth-float",
    ],
)
def test_scenario_rules_keep_the_dataclass_message(scenario, field):
    # the rule is checked once, by the dataclasses; config only adds the key path.
    # The scenario's depth is the config's last depth, read and reported on depths.
    rest = {k: v for k, v in scenario.items() if k != "mystery"}
    depth = rest.pop("depth", 10)
    with pytest.raises(ConfigError) as err:
        block = {k: v for k, v in scenario.items() if k != "depth"}
        parse_config({"scenario": block, "depths": [depth]})
    with pytest.raises(ScenarioError) as direct:
        motif = MotifParams(
            n_couplers=rest.pop("n_couplers", DEFAULT_N_COUPLERS),
            theta=DEFAULT_THETA,
            phi=DEFAULT_PHI,
        )
        Scenario(motif=motif, depth=depth, seed=rest.pop("seed", 0), **rest)
    assert direct.value.field == field
    assert err.value.key == ("depths[0]" if field == "depth" else f"scenario.{field}")
    assert err.value.message == direct.value.message


def test_input_port_rejects_out_of_range():
    data = {**minimal(), "input_port": 41}
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.key == "input_port"
    assert err.value.message == "must lie in [1, 40], got 41"
    cfg = parse_config({**minimal(), "input_port": 1})
    assert cfg.input_index == 0
    # the last of the 2N one-based ports
    assert parse_config({**minimal(), "input_port": 40}).input_index == 39


def test_emit_values_validated_and_deduplicated():
    cfg = parse_config({**minimal(), "emit": ["fits", "fits", "spectral"]})
    assert cfg.emit == ("fits", "spectral")
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "emit": ["fits", "plots"]})
    assert err.value.key == "emit[1]"
    # explicitly empty is allowed: the run writes only the config echo
    assert parse_config({**minimal(), "emit": []}).emit == ()


def test_threshold_and_floor_validation():
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "thresholds": [1.5, 0.5]})
    assert err.value.key == "thresholds"
    # numbers as JSON would write them, not a Python tuple
    assert err.value.message == "must satisfy 0 < low <= high, got low 1.5, high 0.5"
    with pytest.raises(ConfigError):
        parse_config({**minimal(), "fit_floor": 1.0})
    # equal thresholds leave no ambiguous band, which the rule allows
    assert parse_config({**minimal(), "thresholds": [1, 1]}).thresholds == (1.0, 1.0)


def test_scan_alphas_validated():
    cfg = parse_config({**minimal(), "alphas": [0.0, np.pi]})
    assert cfg.alphas == (0.0, np.pi)
    with pytest.raises(ConfigError) as err:
        parse_config({**minimal(), "alphas": [7.0]})
    assert err.value.key == "alphas[0]"
    with pytest.raises(ConfigError):
        parse_config({**minimal(), "alphas": []})


def test_overrides_replace_seed_and_runs():
    cfg = parse_config(minimal(seed=3), seed_override=9, runs_override=25)
    assert cfg.scenario.seed == 9
    assert cfg.runs == 25
    with pytest.raises(ConfigError):
        parse_config(minimal(), runs_override=0)


def test_effective_config_round_trips():
    data = {
        "scenario": {
            "kind": "intermediate",
            "n_couplers": 6,
            "theta": 0.5,
            "phi": 0.25,
            "seed": 4,
            "alpha_fixed": 6.283185307179586,
            "alpha_layer": 0.3141592653589793,
        },
        "depths": [5, 20],
        "input_port": 3,
        "runs": 50,
        "emit": ["fits"],
        "fit_floor": 1e-10,
        "thresholds": [0.7, 1.4],
        "alphas": [0.1, 0.2],
        "output": "somewhere",
    }
    cfg = parse_config(data)
    echoed = effective_config(cfg)
    assert "output" not in echoed
    again = parse_config(json.loads(json.dumps(echoed)))
    # dataclass equality, with output stripped on both sides
    assert again == dataclasses.replace(cfg, output=None)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"scenario": {"kind": "pure"}, "depths": [1], "runs": 5, "runs": 1}', "runs"),
        ('{"scenario": {"kind": "pure", "seed": 1, "seed": 2}, "depths": [1]}', "seed"),
    ],
    ids=["top-level", "scenario"],
)
def test_repeated_key_rejected_at_any_depth(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(str(path))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(
            '{"scenario": {"kind": "pure", "seed": %s}, "depths": [1]}'
            % ("1" * (INT_DIGIT_LIMIT + 1)),
            marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int digit limit"),
            id="int-past-digit-limit",
        ),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        pytest.param('{"scenario": {"kind": "pure"}, "depths": [1]', id="malformed"),
    ],
)
def test_text_json_cannot_read_is_a_config_error(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.key == "<config>"
    assert err.value.message.startswith("invalid JSON in ")


def test_repeated_key_keeps_its_own_message(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"runs": 5, "runs": 1}')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.message == "key 'runs' appears twice in one object"


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2])


def test_config_error_string_includes_key():
    err = ConfigError("scenario.theta", "must be a number")
    assert str(err) == "scenario.theta: must be a number"
