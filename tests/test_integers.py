"""One rule for every count and index the library takes (network.check_integer).

An integer that is not a bool, numpy's included, inside the argument's range
passes and is kept as a plain int. Anything else raises a ScenarioError naming
the argument before any work is done: a float is not rounded, a bool is not
read as 0 or 1, and an index one past either end of the modes is refused.
Each entry point has its own table of values just outside its rule.
"""

import numpy as np
import pytest

from ringnet.analysis import effective_hamiltonian
from ringnet.linalg import NonUnitaryError
from ringnet.network import MotifParams, Scenario, ScenarioError
from ringnet.simulate import Distribution, circular_displacements, propagate, run_ensemble

# True is 1, which every range below admits, so only its type is at fault;
# 3.0 and np.float64(3) equal an admissible integer, so only their type is
NOT_INTEGERS = [True, 2.5, 3.0, np.float64(3)]
NOT_INTEGER_IDS = ["true", "half", "float-3", "np-float-3"]


def motif(n_couplers=2):
    return MotifParams(n_couplers=n_couplers, theta=0.3, phi=0.2)


def scenario(**fields):
    base = {"kind": "fully-random", "motif": motif(), "depth": 3, "seed": 5,
            "alpha_layer": 1.0}
    return Scenario(**{**base, **fields})


def table(*outside):
    """NOT_INTEGERS plus the values just outside one argument's range."""
    values = NOT_INTEGERS + list(outside)
    ids = NOT_INTEGER_IDS + [f"outside-{v!r}" for v in outside]
    return pytest.mark.parametrize("value", values, ids=ids)


def assert_refused(call, field):
    with pytest.raises(ValueError) as err:
        call()
    assert not isinstance(err.value, NonUnitaryError), err.value
    assert isinstance(err.value, ScenarioError), err.value
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}: ")


@table(1, np.int64(1))
def test_motif_params_n_couplers(value):
    assert_refused(lambda: motif(value), "n_couplers")


@table(0, -1)
def test_scenario_depth(value):
    assert_refused(lambda: scenario(depth=value), "depth")


@table(-1, np.int64(-1))
def test_scenario_seed(value):
    # seed=1.5 once composed exactly the seed-1 product
    assert_refused(lambda: scenario(seed=value), "seed")


@table(-1, 4)
def test_distribution_input_index(value):
    assert_refused(lambda: Distribution(np.full(4, 0.25), value), "input_index")


@table(-1, 4)
def test_propagate_input_index(value):
    assert_refused(lambda: propagate(np.eye(4), value), "input_index")


@table(-1, 8)
def test_circular_displacements_input_index(value):
    assert_refused(lambda: circular_displacements(8, value), "input_index")


@table(0, -8)
def test_circular_displacements_n_modes(value):
    assert_refused(lambda: circular_displacements(value, 0), "n_modes")


@table(-1, 4)
def test_run_ensemble_input_index(value):
    # input_index=True once set every mode to one and failed on the norm
    assert_refused(lambda: run_ensemble(scenario(), value, (3,), 2), "input_index")


@table(0, -1)
def test_run_ensemble_runs(value):
    assert_refused(lambda: run_ensemble(scenario(), 0, (3,), value), "runs")


@table(0, -1)
def test_run_ensemble_depths(value):
    assert_refused(lambda: run_ensemble(scenario(), 0, (value, 3), 2), "depths[0]")


@table(0, -1)
def test_effective_hamiltonian_depth(value):
    assert_refused(lambda: effective_hamiltonian(np.eye(2), value), "depth")


def test_numpy_integers_pass_and_come_back_as_int():
    i = np.int64
    sc = scenario(motif=motif(i(2)), depth=i(3), seed=i(5))
    assert sc == scenario()
    assert all(type(v) is int for v in (sc.motif.n_couplers, sc.depth, sc.seed))
    dist = Distribution(np.full(4, 0.25), i(3))
    assert type(dist.input_index) is int
    assert type(propagate(np.eye(4), i(3)).input_index) is int
    np.testing.assert_array_equal(circular_displacements(i(8), i(3)),
                                  circular_displacements(8, 3))
    plain = run_ensemble(scenario(), 3, (1, 3), 2)
    numpy = run_ensemble(scenario(), i(3), (i(1), i(3)), i(2))
    for a, b in zip(plain.samples, numpy.samples, strict=True):
        assert type(b.depth) is int and type(b.distribution.input_index) is int
        np.testing.assert_array_equal(
            a.distribution.probabilities, b.distribution.probabilities
        )


def test_each_range_admits_its_ends():
    assert motif(2).n_couplers == 2
    assert scenario(depth=1, seed=0).seed == 0
    assert Distribution(np.full(4, 0.25), 0).input_index == 0
    assert propagate(np.eye(4), 3).probabilities[3] == 1.0
    assert circular_displacements(1, 0).tolist() == [0]
    assert run_ensemble(scenario(depth=1), 3, (1,), 1).final.depth == 1
