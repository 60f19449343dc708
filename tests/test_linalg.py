import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ringnet.analysis import band_mass_profile
from ringnet.linalg import (
    BranchCutWarning,
    NonUnitaryError,
    as_matrix,
    eig_unitary,
    principal_log_unitary,
    unitarity_defect,
)
from ringnet.network import (
    TWO_PI,
    MotifParams,
    Scenario,
    ScenarioKind,
    compose,
    disordered_motif,
)


def random_unitary(n, seed):
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so q is drawn from the uniform distribution
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- conversions


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    np.testing.assert_array_equal(m, np.array([[1, 2], [3, 4]]))


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_vector_and_empty():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


# ----------------------------------------------------------- unitarity defect


def test_defect_zero_for_identity():
    assert unitarity_defect(np.eye(6)) == 0.0


def test_defect_of_scaled_identity():
    # gram of diag(2, 1) is diag(4, 1), so the largest deviation from I is 3
    assert unitarity_defect(np.diag([2.0, 1.0])) == pytest.approx(3.0, abs=1e-15)


def test_defect_small_for_qr_unitary():
    assert unitarity_defect(random_unitary(30, 9)) < 1e-13


# -------------------------------------------------------------- eigensolver


def test_eig_diagonal_phases():
    phases = np.array([0.3, -1.2, 2.9])
    eigenvalues, _ = eig_unitary(np.diag(np.exp(1j * phases)))
    np.testing.assert_allclose(
        sorted(np.angle(eigenvalues)), sorted(phases), atol=1e-12
    )


def test_eig_rotation_pair():
    th = 0.7
    u = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    eigenvalues, _ = eig_unitary(u)
    np.testing.assert_allclose(
        sorted(np.angle(eigenvalues)), [-th, th], atol=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=10**6))
def test_eig_unitary_round_trip(dim, seed):
    u = random_unitary(dim, seed)
    eigenvalues, v = eig_unitary(u)
    rebuilt = v @ np.diag(eigenvalues) @ v.conj().T
    assert np.abs(rebuilt - u).max() < 1e-8
    # the eigenvector columns form an orthonormal basis
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
    assert np.abs(np.abs(eigenvalues) - 1.0).max() < 1e-10


@st.composite
def planted_phases(draw):
    """Eigenphases in (-pi, pi] with exact repeats, +/-omega pairs, pairs 1e-9
    apart, 0 and pi, and pairs pi/2 -/+ 1e-6 or -pi/2 -/+ 1e-6. Each of the
    last pairs shares one sine as well as one cosine cluster, so no Hermitian
    part of the cluster's block can split it. Apart from the close pairs,
    distinct phases lie at least 0.02 apart, and none lies below -3."""
    phases = [0.0] * draw(st.integers(0, 3)) + [np.pi] * draw(st.integers(0, 2))
    for centre in draw(st.sets(st.sampled_from([np.pi / 2, -np.pi / 2]))):
        phases += [centre - 1e-6, centre + 1e-6]
    for k in draw(st.sets(st.integers(1, 30), min_size=1, max_size=8)):
        omega = draw(st.sampled_from([0.1, -0.1])) * k
        shape = draw(st.sampled_from(["single", "repeat", "plus-minus", "near"]))
        if shape == "single":
            phases.append(omega)
        elif shape == "repeat":
            phases += [omega] * draw(st.integers(2, 3))
        elif shape == "plus-minus":
            phases += [omega, -omega]
        else:
            phases += [omega, omega + 1e-9]
    return np.array(phases)


@settings(max_examples=40, deadline=None)
@given(planted_phases(), st.integers(min_value=0, max_value=10**6))
def test_eig_unitary_recovers_a_planted_spectrum(phases, seed):
    n = len(phases)
    q = random_unitary(n, seed)
    u = (q * np.exp(1j * phases)) @ q.conj().T
    eigenvalues, v = eig_unitary(u)
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
    assert np.abs((v * eigenvalues) @ v.conj().T - u).max() < 1e-12
    found = np.angle(eigenvalues)
    # pi may come back as -pi; no planted phase lies below -3
    found[found < -3.1] += TWO_PI
    np.testing.assert_allclose(np.sort(found), np.sort(phases), rtol=0, atol=1e-12)
    # a repeated eigenvalue has no preferred basis, but its spectral projector is unique
    for omega in np.unique(phases):
        planted = phases == omega
        if planted.sum() > 1:
            cluster = np.abs(eigenvalues - np.exp(1j * omega)) < 1e-6
            assert cluster.sum() == planted.sum()
            expected = q[:, planted] @ q[:, planted].conj().T
            assert np.abs(v[:, cluster] @ v[:, cluster].conj().T - expected).max() < 1e-10


def schur_referee(u):
    """Eigenphases and principal-log generator from a full complex Schur of u."""
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    h = (z * phases) @ z.conj().T
    return phases, (h + h.conj().T) / 2.0


@pytest.mark.parametrize("n_couplers", [2, 20, 50])
@pytest.mark.parametrize(
    "kind, build",
    [
        (ScenarioKind.FIXED_DISORDER, disordered_motif),
        (ScenarioKind.FIXED_DISORDER, compose),
        (ScenarioKind.FULLY_RANDOM, compose),
    ],
    ids=["fixed-disorder-step", "fixed-disorder-product", "fully-random-product"],
)
def test_eig_unitary_agrees_with_full_schur(kind, build, n_couplers):
    strength = {"alpha_fixed" if kind.frozen else "alpha_layer": TWO_PI}
    scenario = Scenario(
        kind=kind,
        motif=MotifParams(n_couplers=n_couplers, theta=np.pi / 4, phi=np.pi / 4),
        depth=10,
        seed=3,
        **strength,
    )
    u = build(scenario)
    phases, h_ref = schur_referee(u)
    eigenvalues, _ = eig_unitary(u)
    np.testing.assert_allclose(
        np.sort(np.angle(eigenvalues)), np.sort(phases), rtol=0, atol=1e-13
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        h = principal_log_unitary(u)
    assert np.abs(h - h_ref).max() < 1e-12
    assert np.abs(band_mass_profile(h) - band_mass_profile(h_ref)).max() < 1e-12


def test_eig_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        eig_unitary(np.diag([2.0, 1.0]))


# ------------------------------------------------------------- principal log


def test_log_identity_is_zero():
    np.testing.assert_array_equal(principal_log_unitary(np.eye(4)), np.zeros((4, 4)))


def test_log_diagonal_phases():
    h = principal_log_unitary(np.diag(np.exp(1j * np.array([0.5, -0.25]))))
    np.testing.assert_allclose(h, np.diag([0.5, -0.25]), atol=1e-12)


def test_log_is_hermitian():
    u = random_unitary(24, 11)
    h = principal_log_unitary(u)
    assert np.abs(h - h.conj().T).max() < 1e-8


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_log_round_trip_against_expm(dim, seed):
    u = random_unitary(dim, seed)
    h = principal_log_unitary(u)
    # scipy's scaling-and-squaring exponential is independent of the eigensolver
    rebuilt = scipy.linalg.expm(1j * h)
    assert np.abs(rebuilt - u).max() < 1e-7


def test_log_eigenphases_stay_in_principal_branch():
    u = random_unitary(40, 13)
    h = principal_log_unitary(u)
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() > -np.pi - 1e-12
    assert eigs.max() <= np.pi + 1e-12


def test_log_warns_near_branch_cut():
    u = np.diag(np.exp(1j * np.array([np.pi - 1e-7, 0.2])))
    with pytest.warns(BranchCutWarning):
        principal_log_unitary(u)


def test_log_of_negative_identity_uses_positive_pi():
    with pytest.warns(BranchCutWarning):
        h = principal_log_unitary(np.diag([-1.0 + 0j]))
    np.testing.assert_allclose(h, np.array([[np.pi]]), atol=1e-15)


def test_log_quiet_away_from_branch_cut():
    import warnings

    u = np.diag(np.exp(1j * np.array([0.5, -2.0, 3.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", BranchCutWarning)
        principal_log_unitary(u)
