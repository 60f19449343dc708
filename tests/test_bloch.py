"""The clean ring against its Bloch-wave solution (tests/bloch_reference.py).

The referee shares no code with the package's motif assembly or light-cone
propagation, and reaches any ring size and depth.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ringnet.network import MotifParams, Scenario, build_motif
from ringnet.simulate import run_ensemble

from bloch_reference import bloch_distributions, bloch_eigenphases, dispersion_cosines

# generic angles, away from the symmetric theta = phi = pi/4 of the shipped configs
ANGLES = [(0.7, 1.1), (-2.3, 0.4)]
RINGS = [2, 3, 20, 200]


def circle_distance(phases_a, phases_b):
    """Largest |e^{ia} - e^{ib}| under the best pairing of two phase multisets."""
    cost = np.abs(np.exp(1j * phases_a)[:, None] - np.exp(1j * phases_b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@pytest.mark.parametrize("theta, phi", ANGLES)
@pytest.mark.parametrize("n_couplers", [2, 3, 7, 20, 200])
def test_referee_bands_follow_the_dispersion(n_couplers, theta, phi):
    motif = MotifParams(n_couplers=n_couplers, theta=theta, phi=phi)
    pairs = bloch_eigenphases(motif).reshape(n_couplers, 2)
    # +-omega(k): equal cosines, given by the closed form, and opposite signs
    want = np.broadcast_to(dispersion_cosines(motif)[:, None], pairs.shape)
    np.testing.assert_allclose(np.cos(pairs), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.exp(1j * pairs.sum(axis=1)), 1.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta, phi", ANGLES)
@pytest.mark.parametrize("n_couplers", [2, 3, 7, 20, 200])
def test_motif_eigenphases_are_the_bloch_bands(n_couplers, theta, phi):
    motif = MotifParams(n_couplers=n_couplers, theta=theta, phi=phi)
    phases = np.angle(np.linalg.eigvals(build_motif(motif)))
    assert circle_distance(phases, bloch_eigenphases(motif)) < 1e-12


@pytest.mark.parametrize("theta, phi", ANGLES)
@pytest.mark.parametrize("seam", ["first", "last"])
@pytest.mark.parametrize("n_couplers", RINGS)
def test_pure_ensemble_is_the_bloch_wave(n_couplers, seam, theta, phi):
    # the last depth runs past the wrap (4 * depth > 2N) from the seam ports 1 and 2N
    n_modes = 2 * n_couplers
    depth = n_modes // 4 + 10
    depths = sorted({1, 2, depth // 2, n_modes // 4, depth})
    port = 0 if seam == "first" else n_modes - 1
    motif = MotifParams(n_couplers=n_couplers, theta=theta, phi=phi)
    sc = Scenario(kind="pure", motif=motif, depth=depth, seed=0)
    res = run_ensemble(sc, port, depths, runs=1)
    want = bloch_distributions(motif, port, depths)
    for sample in res.samples:
        np.testing.assert_allclose(
            sample.distribution.probabilities, want[sample.depth], rtol=0, atol=1e-14
        )
