"""Profile shape analysis and spectral localization diagnostics.

Two ways of asking the same question. In mode space: does the ensemble-mean
output profile fall off like a Gaussian of the ring displacement (spreading)
or like an exponential (trapping)? Both shapes are fitted over one support,
the modes above a probability floor. In the spectrum: do the eigenvectors of
the transfer matrix occupy the whole ring or a few modes, and how far from
the diagonal does the effective generator reach?
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import BranchCutWarning, as_matrix, branch_cut_count, eig_unitary
from .linalg import principal_log_unitary
from .network import ScenarioError, check_integer
from .simulate import Distribution, circular_displacements

LOG10_E = float(np.log10(np.e))
HERMITIAN_TOL = 1e-6
DEFAULT_THRESHOLDS = (0.8, 1.25)
DEFAULT_FIT_FLOOR = 1e-12


def check_thresholds(field: str, value) -> tuple:
    """Return (low, high) as floats, 0 < low <= high; else raise ScenarioError on ``field``."""
    low, high = float(value[0]), float(value[1])
    if not 0.0 < low <= high:
        raise ScenarioError(field, f"must satisfy 0 < low <= high, got low {low}, high {high}")
    return low, high


def check_fit_floor(field: str, value) -> float:
    """Return a fit floor held to [0, 1) as a float; else raise ScenarioError on ``field``."""
    if not 0.0 <= value < 1.0:
        raise ScenarioError(field, f"must lie in [0, 1), got {float(value)!r}")
    return float(value)


class Regime(str, enum.Enum):
    DIFFUSIVE = "diffusive"
    AMBIGUOUS = "ambiguous"
    LOCALIZED = "localized"


class InsufficientSupportError(ValueError):
    """Too few modes above the probability floor to fit a profile shape."""


@dataclass(frozen=True)
class FitReport:
    """Least-squares fit of log10 probability against a displacement feature.

    The model is log10 p = amplitude_log - decay * x with x the squared
    displacement (gaussian) or the absolute displacement (exponential).
    ssr is the sum of squared residuals in log10 space. Both fits of a
    verdict share one support, so their n_points are equal. The fields are
    the keys of a verdict file's fit entry, in file order.
    """

    amplitude_log: float
    decay: float
    ssr: float
    n_points: int


def _least_squares(x: np.ndarray, y: np.ndarray) -> FitReport:
    """Fit y = amplitude_log - decay * x; x must have spread."""
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean())) / float(xc @ xc)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    return FitReport(
        amplitude_log=intercept,
        decay=-slope,
        ssr=float(residuals @ residuals),
        n_points=len(x),
    )


@dataclass(frozen=True)
class RegimeVerdict:
    """Both fits plus the ratio-based call between them.

    ssr_ratio is gaussian ssr over exponential ssr: small means the Gaussian
    explains the profile better. localization_length converts the exponential
    decay back to base e and is only set when the verdict is localized.
    """

    regime: Regime
    gaussian: FitReport
    exponential: FitReport
    ssr_ratio: float
    localization_length: float | None


def classify(
    dist: Distribution,
    thresholds=DEFAULT_THRESHOLDS,
    floor: float = DEFAULT_FIT_FLOOR,
) -> RegimeVerdict:
    """Call the transport regime of one mean distribution.

    Both shapes are fitted over the modes whose probability exceeds ``floor``,
    so their n_points are equal. InsufficientSupportError reports the count
    when fewer than three modes survive.

    ssr_ratio below thresholds[0] is diffusive, above thresholds[1] is
    localized, between them ambiguous. Both fits always run; a degenerate
    pair of exact fits (both ssr zero) counts as ambiguous.
    """
    low, high = check_thresholds("thresholds", thresholds)
    floor = check_fit_floor("floor", floor)
    keep = dist.probabilities > floor
    n_points = int(np.count_nonzero(keep))
    if n_points < 3:
        raise InsufficientSupportError(
            f"{n_points} mode(s) above floor {floor:.3e}; need at least 3"
        )
    d = circular_displacements(dist.n_modes, dist.input_index)
    d = np.abs(d[keep]).astype(np.float64)
    y = np.log10(dist.probabilities[keep])
    gaussian = _least_squares(d**2, y)
    exponential = _least_squares(d, y)
    if exponential.ssr == 0.0:
        ratio = np.inf if gaussian.ssr > 0.0 else 1.0
    else:
        ratio = gaussian.ssr / exponential.ssr
    if ratio < low:
        regime = Regime.DIFFUSIVE
    elif ratio > high:
        regime = Regime.LOCALIZED
    else:
        regime = Regime.AMBIGUOUS
    length = None
    if regime is Regime.LOCALIZED and exponential.decay > 0.0:
        length = LOG10_E / exponential.decay
    return RegimeVerdict(
        regime=regime,
        gaussian=gaussian,
        exponential=exponential,
        ssr_ratio=float(ratio),
        localization_length=length,
    )


def effective_hamiltonian(w, depth: int) -> np.ndarray:
    """Hermitian generator per step: the principal log of ``w`` over depth."""
    return principal_log_unitary(w) / float(check_integer("depth", depth, 1))


def band_mass_profile(h) -> np.ndarray:
    """Cumulative squared-magnitude fraction within each ring bandwidth.

    Entry k is the fraction of sum |h_ij|^2 carried by pairs at ring distance
    at most k, for k = 0 .. n//2. The profile is nondecreasing and ends at
    exactly 1; a zero matrix concentrates nowhere, so every entry reports 1.
    """
    h = as_matrix(h)
    defect = float(np.abs(h - h.conj().T).max())
    if defect >= HERMITIAN_TOL:
        raise ValueError(
            f"hermitian defect {defect:.3e} is not below {HERMITIAN_TOL:.0e}"
        )
    n = h.shape[0]
    idx = np.arange(n)
    sep = np.abs(np.subtract.outer(idx, idx))
    ring = np.minimum(sep, n - sep)
    weights = (np.abs(h) ** 2).ravel()
    bins = np.bincount(ring.ravel(), weights=weights, minlength=n // 2 + 1)
    total = float(bins.sum())
    if total == 0.0:
        return np.ones(n // 2 + 1, dtype=np.float64)
    out = np.cumsum(bins) / total
    out[-1] = 1.0
    return out


@dataclass(frozen=True)
class SpectralReport:
    """Eigen-level localization summary of one unitary transfer matrix.

    The fields are the keys of a ``spectral.json`` section, in file order.
    branch_cut_count counts the eigenphases within ``BRANCH_CUT_TOL`` of +/-pi.
    """

    eigenvector_ipr_mean: float
    branch_cut_count: int
    eigenphases: np.ndarray
    eigenvector_ipr: np.ndarray
    band_fractions: np.ndarray


def eigenvector_localization(w) -> SpectralReport:
    """Eigenphases, per-eigenvector IPR, and the generator's band profile.

    Eigenphases come out sorted ascending with the IPR array in matching
    order. The band profile is taken on the principal log of ``w``: its
    entries are fractions of the generator's total weight, so they are
    scale-free and need no depth. Eigenphases on the log's branch cut are
    counted, not warned about.
    """
    w = as_matrix(w)
    eigenvalues, eigenvectors = eig_unitary(w)
    phases = np.angle(eigenvalues)
    iprs = np.sum(np.abs(eigenvectors) ** 4, axis=0)
    del eigenvectors  # freed before the log below makes a decomposition of its own
    order = np.argsort(phases, kind="stable")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchCutWarning)
        h = principal_log_unitary(w)
    return SpectralReport(
        eigenvector_ipr_mean=float(iprs.mean()),
        branch_cut_count=branch_cut_count(phases),
        eigenphases=phases[order],
        eigenvector_ipr=iprs[order],
        band_fractions=band_mass_profile(h),
    )
