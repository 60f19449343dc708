"""Dense complex linear algebra kernel for unitary network matrices.

Everything operates on plain numpy arrays: square complex matrices, double
precision throughout. Operations validate shape and finiteness
at entry instead of wrapping arrays in dedicated types.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

UNITARITY_TOL = 1e-8
BRANCH_CUT_TOL = 1e-6


class NonUnitaryError(ValueError):
    """Raised when an operation requires a unitary matrix and the input is not."""


class ConvergenceError(RuntimeError):
    """Raised when the underlying eigenvalue iteration fails to converge."""


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Unit-modulus eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_unitary(a) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix with orthonormal eigenvectors.

    Uses the complex Schur form: for a unitary input the triangular factor is
    diagonal, so the Schur vectors are an orthonormal eigenbasis and the
    reconstruction V diag(lambda) V^H matches the input to round-off.

    Raises
    ------
    NonUnitaryError
        If the unitarity defect of ``a`` is not below ``UNITARITY_TOL``.
    ConvergenceError
        If the QR iteration behind the Schur form fails; the message carries
        the failure index reported by the backend.
    """
    a = as_matrix(a)
    defect = unitarity_defect(a)
    if defect >= UNITARITY_TOL:
        raise NonUnitaryError(
            f"unitarity defect {defect:.3e} is not below {UNITARITY_TOL:.0e}"
        )
    try:
        t, z = scipy.linalg.schur(a, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Schur iteration did not converge: {exc}") from exc
    return EigenDecomposition(eigenvalues=np.diag(t).copy(), eigenvectors=z)


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
    dec = eig_unitary(a)
    phases = np.angle(dec.eigenvalues)
    near_cut = branch_cut_count(phases)
    if near_cut:
        warnings.warn(
            f"{near_cut} eigenphase(s) within {BRANCH_CUT_TOL:.0e} of the +/-pi "
            "branch cut; the principal log is branch-sensitive here",
            BranchCutWarning,
            stacklevel=2,
        )
    v = dec.eigenvectors
    h = (v * phases) @ v.conj().T
    return (h + h.conj().T) / 2.0
