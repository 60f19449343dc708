import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ringnet.linalg import (
    BranchCutWarning,
    NonUnitaryError,
    as_matrix,
    eig_unitary,
    principal_log_unitary,
    unitarity_defect,
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
    # Schur of a unitary matrix gives an orthonormal eigenbasis
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
    assert np.abs(np.abs(eigenvalues) - 1.0).max() < 1e-10


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
    # scipy's scaling-and-squaring exponential is independent of the Schur log
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
