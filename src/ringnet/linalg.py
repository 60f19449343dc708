"""Dense complex linear algebra kernel for unitary network matrices.

Everything operates on plain numpy arrays: square complex matrices, double
precision throughout. Operations validate shape and finiteness
at entry instead of wrapping arrays in dedicated types. scipy is imported
by ``eig_unitary`` on its first call, so only spectral runs load it.
"""

from __future__ import annotations

import warnings

import numpy as np

UNITARITY_TOL = 1e-8
BRANCH_CUT_TOL = 1e-6


class NonUnitaryError(ValueError):
    """Raised when an operation requires a unitary matrix and the input is not."""


class BranchCutWarning(UserWarning):
    """Eigenphases lie close enough to +/-pi for the log branch to be ambiguous."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a square complex128 matrix with finite entries."""
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must all be finite")
    return out


def unitarity_defect(a) -> float:
    """Max absolute entry of a^H a - I; zero for an exactly unitary input."""
    a = as_matrix(a)
    gram = a.conj().T @ a
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def eig_unitary(a) -> tuple[np.ndarray, np.ndarray]:
    """Unit-modulus eigenvalues and orthonormal eigenvector columns of a unitary.

    Uses the complex Schur form: for a unitary input the triangular factor is
    diagonal, so the Schur vectors are an orthonormal eigenbasis and the
    reconstruction V diag(lambda) V^H matches the input to round-off. The
    Schur form comes from ``scipy.linalg``, imported here on the first call.

    Raises
    ------
    NonUnitaryError
        If the unitarity defect of ``a`` is not below ``UNITARITY_TOL``.
    numpy.linalg.LinAlgError
        Raised by ``scipy.linalg.schur`` if the QR iteration behind the Schur
        form fails to converge.
    """
    a = as_matrix(a)
    defect = unitarity_defect(a)
    if defect >= UNITARITY_TOL:
        raise NonUnitaryError(
            f"unitarity defect {defect:.3e} is not below {UNITARITY_TOL:.0e}"
        )
    # imported on first use: scipy.linalg is slow to load and only spectral runs need it
    import scipy.linalg

    t, z = scipy.linalg.schur(a, output="complex")
    return np.diag(t).copy(), z


def branch_cut_count(phases) -> int:
    """Number of eigenphases within ``BRANCH_CUT_TOL`` of the +/-pi cut."""
    return int(np.count_nonzero(np.abs(np.pi - np.abs(phases)) < BRANCH_CUT_TOL))


def principal_log_unitary(a) -> np.ndarray:
    """Hermitian generator H with exp(iH) = a.

    Eigenphases are taken on the principal branch (-pi, pi]. Any eigenphase
    within ``BRANCH_CUT_TOL`` of +/-pi is reported through a BranchCutWarning
    because the branch choice is numerically ambiguous there; the result is
    still returned.
    """
    eigenvalues, v = eig_unitary(a)
    phases = np.angle(eigenvalues)
    near_cut = branch_cut_count(phases)
    if near_cut:
        warnings.warn(
            f"{near_cut} eigenphase(s) within {BRANCH_CUT_TOL:.0e} of the +/-pi "
            "branch cut; the principal log is branch-sensitive here",
            BranchCutWarning,
            stacklevel=2,
        )
    h = (v * phases) @ v.conj().T
    return (h + h.conj().T) / 2.0
