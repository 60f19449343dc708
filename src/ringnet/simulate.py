"""Single-excitation propagation and ensemble statistics on the ring.

States live on the 2N modes of a ring. ``propagate`` reads the output
distribution of one excitation off a composed transfer matrix. Ensembles take
their realizations CHUNK at a time as the rows of one (k, 2N) state, each row
starting as the input state, push the rows through ``network.advance``, as
``compose`` does the identity's rows, and average the distributions over
realizations at chosen snapshot depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import UNITARITY_TOL, NonUnitaryError, as_matrix, unitarity_defect
from .network import RngStream, Scenario, ScenarioKind, advance, scenario_layers
from .network import scenario_step_factors  # noqa: F401  (patched by perfbench's tracer)

SUM_TOL = 1e-12
# realizations advanced together, as the rows of one (k, 2N) state
CHUNK = 256
NEGATIVE_CLAMP = 1e-15


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over the ring modes, anchored at its input.

    input_index is the zero-based mode the excitation started on; the spread
    statistics and profile fits all measure displacement from it. Entries are
    validated on construction: negatives beyond round-off are an error,
    round-off negatives are clamped to zero, and the total must be one to
    within SUM_TOL.
    """

    probabilities: np.ndarray
    input_index: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] == 0:
            raise ValueError(f"probabilities must be a nonempty vector, got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must all be finite")
        if p.min() < -NEGATIVE_CLAMP:
            raise ValueError(f"probability {p.min():.3e} is negative beyond round-off")
        p = np.where(p < 0.0, 0.0, p)
        total = float(p.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if not 0 <= self.input_index < p.shape[0]:
            raise ValueError(
                f"input_index {self.input_index} outside the mode range "
                f"[0, {p.shape[0]})"
            )
        object.__setattr__(self, "probabilities", p)

    @property
    def n_modes(self) -> int:
        return self.probabilities.shape[0]

    def ipr(self) -> float:
        """Inverse participation ratio, sum of squared probabilities."""
        return float(np.sum(self.probabilities**2))


def output_distribution(amplitudes: np.ndarray, input_index: int) -> np.ndarray:
    """Mode probability vector of the amplitudes propagated from mode input_index.

    Raises NonUnitaryError when the squared norm misses one by UNITARITY_TOL
    or more, as the column of a non-unitary propagator would. Within that,
    the probabilities are divided by their total so accumulated round-off in
    a long product cannot push the sum past the distribution tolerance.
    That norm check is the only one: the plain vector is returned, and a
    Distribution validates it only where the library hands one out.
    """
    p = amplitudes.real**2 + amplitudes.imag**2
    total = float(p.sum())
    if not abs(total - 1.0) < UNITARITY_TOL:
        raise NonUnitaryError(
            f"amplitudes propagated from mode {input_index} have squared norm "
            f"{total!r}, not 1 within {UNITARITY_TOL:.0e}"
        )
    return p / total


def propagate(w, input_index: int) -> Distribution:
    """Output distribution of a verified-unitary transfer matrix.

    Raises NonUnitaryError when the defect of ``w`` reaches UNITARITY_TOL.
    """
    w = as_matrix(w)
    defect = unitarity_defect(w)
    if defect >= UNITARITY_TOL:
        raise NonUnitaryError(
            f"unitarity defect {defect:.3e} is not below {UNITARITY_TOL:.0e}"
        )
    if not 0 <= input_index < w.shape[0]:
        raise ValueError(
            f"input_index {input_index} outside the mode range [0, {w.shape[0]})"
        )
    return Distribution(output_distribution(w[:, input_index], input_index), input_index)


def circular_displacements(n_modes: int, input_index: int) -> np.ndarray:
    """Signed ring distance of every mode from the input mode.

    Distances wrap around the ring and lie in [-n/2, n/2); the antipodal mode
    sits at -n/2 by that half-open convention.
    """
    if not 0 <= input_index < n_modes:
        raise ValueError(
            f"input_index {input_index} outside the mode range [0, {n_modes})"
        )
    half = n_modes // 2
    modes = np.arange(n_modes)
    return ((modes - input_index + half) % n_modes) - half


def circular_variance(dist: Distribution) -> float:
    """Variance of the signed ring displacement from the input mode.

    Before any amplitude has wrapped around the ring this coincides with the
    plain variance of the walked distance; afterwards it is the natural
    periodic analogue.
    """
    d = circular_displacements(dist.n_modes, dist.input_index).astype(np.float64)
    p = dist.probabilities
    mean = float(p @ d)
    return float(p @ d**2) - mean**2


@dataclass(frozen=True)
class DepthSample:
    """Ensemble-mean distribution at one depth, with its spread statistics.

    ipr is the inverse participation ratio of the mean distribution;
    realization_ipr_mean averages each realization's own IPR instead. The two
    differ where realizations localize sharply but with differing speckle:
    averaging the distributions smooths the tails and lowers ipr, while the
    per-realization average keeps the sharpness.
    """

    depth: int
    distribution: Distribution
    variance: float
    ipr: float
    realization_ipr_mean: float


@dataclass(frozen=True)
class EnsembleResult:
    """Mean distributions over disorder realizations at each requested depth."""

    samples: tuple[DepthSample, ...]

    @property
    def final(self) -> DepthSample:
        return self.samples[-1]


def run_ensemble(scenario: Scenario, input_index: int, depths, runs: int) -> EnsembleResult:
    """Average output distributions over ``runs`` disorder realizations.

    Realizations go in ascending chunks of CHUNK, each chunk one (k, 2N) state
    whose row r is realization r's unit row state on input_index. ``advance``
    scales the rows by their phase layers, O(N k) each, and multiplies them
    by the chunk's shared motif, one O(N^2 k) product per step, so an
    ensemble costs O(runs * depth * N^2). depths must be strictly increasing
    with the last entry equal to scenario.depth, so every snapshot falls
    inside a single pass through the steps; each row's distribution is
    checked for its norm there. Realization r draws from stream r of
    scenario.seed and chunks accumulate in ascending order, so a run repeats
    bit for bit; a realization's last bits depend on its row in the chunk.
    ``pure`` has no disorder: its one realization is propagated once,
    whatever ``runs`` says.
    """
    depths = tuple(int(d) for d in depths)
    if not depths or depths[0] < 1:
        raise ValueError(f"depths must be nonempty and positive, got {depths}")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError(f"depths must be strictly increasing, got {depths}")
    if depths[-1] != scenario.depth:
        raise ValueError(f"depths must end at depth {scenario.depth}, got {depths}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    n = scenario.n_modes
    if not 0 <= input_index < n:
        raise ValueError(f"input_index {input_index} outside the mode range [0, {n})")

    runs = 1 if scenario.kind is ScenarioKind.PURE else runs
    sums = {d: np.zeros(n, dtype=np.float64) for d in depths}
    ipr_sums = {d: 0.0 for d in depths}
    for lo in range(0, runs, CHUNK):
        rngs = [RngStream(scenario.seed, r) for r in range(lo, min(lo + CHUNK, runs))]
        u, layers = scenario_layers(scenario, rngs)
        start = np.zeros((len(rngs), n), dtype=np.complex128)
        start[:, input_index] = 1.0
        for step, x in enumerate(advance(u, layers, start), start=1):
            if step in sums:
                p = np.array([output_distribution(row, input_index) for row in x])
                sums[step] += p.sum(axis=0)
                ipr_sums[step] += float((p * p).sum())  # the rows' Distribution.ipr, summed

    samples = []
    for d in depths:
        mean = sums[d] / runs
        dist = Distribution(probabilities=mean / mean.sum(), input_index=input_index)
        samples.append(
            DepthSample(
                depth=d,
                distribution=dist,
                variance=circular_variance(dist),
                ipr=dist.ipr(),
                realization_ipr_mean=ipr_sums[d] / runs,
            )
        )
    return EnsembleResult(samples=tuple(samples))
