"""run_ensemble against the exact ensemble mean of per-step disorder.

exact_reference.exact_mean averages over every fully-random realization at
once, so it referees the Monte Carlo path without sharing its code.
"""

import functools
import math

import numpy as np
import pytest

import ringnet.simulate
from ringnet.network import TWO_PI, MotifParams, Scenario
from ringnet.simulate import circular_displacements, run_ensemble

from exact_reference import dephasing, exact_mean, markov_mean, motif_matrix

# The bound was fixed before any comparison was run. A realization's
# probability at a port lies in [0, 1], so its standard deviation is at most
# sqrt(p(1 - p)) for the exact mean p, and the mean of RUNS realizations
# lies within Z_BOUND of those standard errors.
Z_BOUND = 5.0
RUNS = 1000
N_COUPLERS = 20
PORT = 19
DEPTHS = (2, 5, 10)
# from ports 1 and 2N the light cone crosses the seam at once (port 20's stays
# off it through depth 10), and depth 14 runs past the wrap, where the cone
# has covered the ring
SEAM_PORTS = (0, 2 * N_COUPLERS - 1)
SEAM_DEPTHS = (2, 5, 10, 14)


def scenario(alpha, internal, theta=math.pi / 4, phi=math.pi / 4, depth=DEPTHS[-1]):
    return Scenario(
        kind="fully-random",
        motif=MotifParams(n_couplers=N_COUPLERS, theta=theta, phi=phi),
        depth=depth,
        seed=0,
        alpha_layer=alpha,
        motif_internal_phases=internal,
    )


@functools.lru_cache(maxsize=None)
def both_sides(alpha, internal):
    """(exact means, run_ensemble samples) at DEPTHS."""
    sc = scenario(alpha, internal)
    return exact_mean(sc, PORT, DEPTHS), run_ensemble(sc, PORT, DEPTHS, RUNS).samples


STRENGTHS = pytest.mark.parametrize("alpha", [TWO_PI, math.pi, 0.3])
INTERNAL = pytest.mark.parametrize("internal", [True, False])


def assert_within_z_bound(exact, samples, runs=RUNS):
    for sample in samples:
        p_bar = exact[sample.depth]
        assert abs(p_bar.sum() - 1.0) < 1e-13
        sigma = np.sqrt(p_bar * (1.0 - p_bar) / runs)
        z_excess = np.abs(sample.distribution.probabilities - p_bar) - Z_BOUND * sigma
        assert z_excess.max() <= 0.0, (sample.depth, z_excess.argmax())


@STRENGTHS
@INTERNAL
def test_ensemble_mean_is_within_the_z_bound_of_the_exact_mean(alpha, internal):
    assert_within_z_bound(*both_sides(alpha, internal))


@STRENGTHS
@INTERNAL
@pytest.mark.parametrize("port", SEAM_PORTS)
def test_seam_ports_past_the_wrap_are_within_the_z_bound(port, alpha, internal):
    sc = scenario(alpha, internal, depth=SEAM_DEPTHS[-1])
    samples = run_ensemble(sc, port, SEAM_DEPTHS, RUNS).samples
    assert [s.depth for s in samples] == list(SEAM_DEPTHS)
    assert_within_z_bound(exact_mean(sc, port, SEAM_DEPTHS), samples)


# one realization past a full chunk: a mean that kept only the last chunk's
# sum would be that one realization, which strong disorder puts far outside
# the bound (weak disorder barely tells realizations apart)
@pytest.mark.parametrize("alpha", [TWO_PI, math.pi])
@INTERNAL
def test_a_run_one_past_a_chunk_is_within_the_z_bound(alpha, internal):
    runs = ringnet.simulate.CHUNK + 1
    sc = scenario(alpha, internal)
    samples = run_ensemble(sc, PORT, DEPTHS, runs).samples
    assert_within_z_bound(exact_mean(sc, PORT, DEPTHS), samples, runs)


@STRENGTHS
@INTERNAL
def test_ports_outside_the_light_cone_are_exact_zeros(alpha, internal):
    exact, samples = both_sides(alpha, internal)
    disp = np.abs(circular_displacements(2 * N_COUPLERS, PORT))
    for sample in samples:
        outside = disp > 2 * sample.depth
        # the cone covers the 40-mode ring only at the last depth
        assert outside.any() == (sample.depth < N_COUPLERS // 2)
        assert np.all(exact[sample.depth][outside] == 0.0)
        assert np.all(sample.distribution.probabilities[outside] == 0.0)


@INTERNAL
@pytest.mark.parametrize("theta, phi", [(math.pi / 4, math.pi / 4), (0.6, -1.3)])
def test_full_strength_recursion_is_the_classical_markov_chain(internal, theta, phi):
    sc = scenario(TWO_PI, internal, theta, phi)
    assert dephasing(TWO_PI) == 0.0
    chain = np.abs(motif_matrix(sc)) ** 2
    # |U|^2 is doubly stochastic with four ports reached from each
    np.testing.assert_allclose(chain.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(chain.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(np.count_nonzero(chain, axis=0) == 4)
    depths = range(1, 13)
    exact = exact_mean(sc, PORT, depths)
    classical = markov_mean(sc, PORT, depths)
    for d in depths:
        np.testing.assert_allclose(exact[d], classical[d], rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, math.pi, TWO_PI])
def test_dephasing_is_the_squared_mean_phase_factor(alpha):
    # midpoint rule for E exp(i alpha u), u uniform on [0, 1)
    u = (np.arange(100_000) + 0.5) / 100_000
    assert dephasing(alpha) == pytest.approx(
        abs(np.exp(1j * alpha * u).mean()) ** 2, abs=1e-9
    )
