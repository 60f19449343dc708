"""Dense complex linear algebra kernel for unitary network matrices.

Everything operates on plain numpy arrays: square complex matrices, double
precision throughout. Operations validate shape and finiteness
at entry instead of wrapping arrays in dedicated types.

``eig_unitary`` diagonalizes a unitary through the Hermitian eigensolver of
its Hermitian part, plus a small Schur basis for each cluster of equal or
nearly equal eigenphase cosines; ``principal_log_unitary`` builds on it.
Both use numpy's LAPACK alone and raise ``numpy.linalg.LinAlgError`` when a
LAPACK iteration fails to converge.
"""

from __future__ import annotations

import warnings

import numpy as np

UNITARITY_TOL = 1e-8
BRANCH_CUT_TOL = 1e-6
# Eigenphase cosines closer than this are resolved together by ``eig_unitary``.
# eigh mixes eigenvectors across a cosine gap delta by about eps*||H||/delta,
# with eps = 2.2e-16 and ||H|| <= 1 for the Hermitian part H of a unitary, so
# a cosine it leaves alone has its eigenvector off by at most ~2e-13 and its
# Rayleigh-quotient eigenvalue off by about the square of that.
COSINE_GAP = 1e-3


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

    A unitary U is normal, so it shares its eigenvectors with the Hermitian
    H = (U + U^H)/2, whose eigenvalues are the cosines of U's eigenphases.
    ``numpy.linalg.eigh`` (LAPACK's divide-and-conquer zheevd, orthonormal to
    ~1e-15 at 400 modes) gives H's ascending cosines and eigenvector columns V.
    Where a cosine stands alone, its eigenvalue is the Rayleigh quotient
    v^H U v. Each run of cosines whose gaps are below ``COSINE_GAP`` (a
    +/-omega pair, a repeat or a near-repeat) spans an invariant subspace of
    U. The QR of the eigenvectors of its small block B = V^H U V is a Schur
    basis Q of B, which splits the run even where two phases share a sine
    (pi/2 -/+ delta); Q rotates the run's columns of V, and the run's
    eigenvalues are the Rayleigh quotients q^H B q. The reconstruction
    V diag(lambda) V^H matches the input to round-off.

    Raises
    ------
    NonUnitaryError
        If the unitarity defect of ``a`` is not below ``UNITARITY_TOL``.
    numpy.linalg.LinAlgError
        Raised by ``numpy.linalg.eigh`` if the Hermitian eigensolve fails to
        converge, or by ``numpy.linalg.eig`` if a cluster's QR iteration does.
    """
    a = as_matrix(a)
    defect = unitarity_defect(a)
    if defect >= UNITARITY_TOL:
        raise NonUnitaryError(
            f"unitarity defect {defect:.3e} is not below {UNITARITY_TOL:.0e}"
        )
    cosines, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    av = a @ v
    eigenvalues = np.einsum("ij,ij->j", v.conj(), av)
    gaps = np.diff(cosines, prepend=-np.inf, append=np.inf)
    bounds = np.flatnonzero(gaps >= COSINE_GAP)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            run = slice(start, stop)
            block = v[:, run].conj().T @ av[:, run]
            q = np.linalg.qr(np.linalg.eig(block)[1])[0]
            eigenvalues[run] = np.einsum("ij,ij->j", q.conj(), block @ q)
            v[:, run] = v[:, run] @ q
    return eigenvalues, v


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
