"""Single-excitation propagation and ensemble statistics on the ring.

States live on the 2N modes of a ring. ``propagate`` reads the output
distribution of one excitation off a composed transfer matrix. Ensembles take
their realizations CHUNK at a time as the columns of one (2N, k) state, each
column starting as the input state, push the columns through the input's
light cone with ``network.advance``, as ``compose`` does blocks of the
identity's columns, and average the distributions over realizations at
chosen snapshot depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import UNITARITY_TOL, NonUnitaryError, as_matrix, unitarity_defect
from .network import RngStream, Scenario, ScenarioKind, advance, check_depths, check_integer
from .network import scenario_layers
from .network import scenario_step_factors  # noqa: F401  (patched by perfbench's tracer)

SUM_TOL = 1e-12
# realizations advanced together, as the columns of one (2N, k) state
CHUNK = 256
NEGATIVE_CLAMP = 1e-15


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over the ring modes, anchored at its input.

    input_index is the zero-based mode the excitation started on, an integer
    in [0, n_modes) stored as int; the spread statistics and profile fits all
    measure displacement from it. Entries are validated on construction:
    negatives beyond round-off are an error, round-off negatives are clamped
    to zero, and the total must be one to within SUM_TOL.
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
        index = check_integer("input_index", self.input_index, 0, len(p))
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "input_index", index)

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
    The amplitudes may be a strided view, such as one column of an ensemble
    state; the probabilities are a fresh contiguous vector either way.
    """
    p = amplitudes.real**2
    p += amplitudes.imag**2
    total = float(np.add.reduce(p))
    if not abs(total - 1.0) < UNITARITY_TOL:
        raise NonUnitaryError(
            f"amplitudes propagated from mode {input_index} have squared norm "
            f"{total!r}, not 1 within {UNITARITY_TOL:.0e}"
        )
    p /= total
    return p


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
    input_index = check_integer("input_index", input_index, 0, w.shape[0])
    return Distribution(output_distribution(w[:, input_index], input_index), input_index)


def circular_displacements(n_modes: int, input_index: int) -> np.ndarray:
    """Signed ring distance of every mode from the input mode.

    Distances wrap around the ring and lie in [-n/2, n/2); the antipodal mode
    sits at -n/2 by that half-open convention.
    """
    n_modes = check_integer("n_modes", n_modes, 1)
    input_index = check_integer("input_index", input_index, 0, n_modes)
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

    Realizations go in ascending chunks of CHUNK, each chunk one (2N, k) state
    whose column r is realization r's unit state on input_index. ``advance``
    steps only the light cone of input_index, W_m = min(4m, 2N) modes after
    step m (at most 1 + 4m): it takes the phase factors of those modes
    alone, one cos and sin per reached mode for the fresh kinds, and one
    real O(k W_m^2) product with the chunk's shared motif per step, so an
    ensemble costs at most O(runs * depth * N^2). Results differ from the
    full-ring path by round-off only. runs, input_index and depths are
    integers held by ``network.check_integer``; depths must be nonempty and
    strictly increasing (``network.check_depths``) with the last entry equal to
    scenario.depth, so every snapshot falls inside a single pass through the
    steps; each column's distribution is checked for its norm there.
    Realization r draws from stream r of scenario.seed and chunks accumulate
    in ascending order, so a run repeats bit for bit; a realization's last
    bits depend on its column in the chunk.
    ``pure`` has no disorder: its one realization is propagated once,
    whatever ``runs`` says.
    """
    depths = check_depths(depths)
    if depths[-1] != scenario.depth:
        raise ValueError(f"depths must end at depth {scenario.depth}, got {depths}")
    runs = check_integer("runs", runs, 1)
    n = scenario.n_modes
    input_index = check_integer("input_index", input_index, 0, n)

    runs = 1 if scenario.kind is ScenarioKind.PURE else runs
    sums = {d: np.zeros(n, dtype=np.float64) for d in depths}
    ipr_sums = {d: 0.0 for d in depths}
    for lo in range(0, runs, CHUNK):
        rngs = [RngStream(scenario.seed, r) for r in range(lo, min(lo + CHUNK, runs))]
        u, layers = scenario_layers(scenario, rngs)
        start = np.zeros((n, len(rngs)), dtype=np.complex128)
        start[input_index] = 1.0
        for step, x in enumerate(advance(u, layers, start), start=1):
            if step in sums:
                # row r of p is column r's distribution
                p = np.array([output_distribution(col, input_index) for col in x.T])
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
