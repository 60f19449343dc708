"""Ring network construction: motif transfer matrices and random phase layers.

A ring of N two-port couplers carries 2N modes. One motif applies every
coupler once, each a 2x2 rotation of one mode pair: a B sublayer on the
pairs (1,2), (3,4), ..., (2N-1,0), which closes the ring, then an A sublayer
on (0,1), (2,3), .... Disorder enters as diagonal layers of random phases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import NonUnitaryError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MotifParams:
    """Geometry and coupling angles of one ring motif.

    n_couplers is the number of couplers per sublayer; the ring carries twice
    that many modes. With a single coupler the A and B sublayers would rotate
    the same mode pair, so two couplers is the minimum.
    """

    n_couplers: int
    theta: float
    phi: float

    def __post_init__(self):
        if self.n_couplers < 2:
            raise ValueError(
                f"n_couplers must be at least 2, got {self.n_couplers}"
            )
        for name in ("theta", "phi"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")

    @property
    def n_modes(self) -> int:
        return 2 * self.n_couplers


def _rotate_pairs(x: np.ndarray, angle: float, first: int) -> np.ndarray:
    """Rotate the row pairs (k, k+1 mod 2N), k = first, first+2, ..., of x by
    the coupler [[c, s], [-s, c]], c and s the cosine and sine of angle."""
    lo = np.arange(first, len(x), 2)
    hi = (lo + 1) % len(x)
    c, s = np.cos(angle), np.sin(angle)
    y = np.empty_like(x)
    y[lo] = c * x[lo] + s * x[hi]
    y[hi] = c * x[hi] - s * x[lo]
    return y


def build_motif(params: MotifParams) -> np.ndarray:
    """Transfer matrix of one disorder-free motif: A sublayer times B sublayer.

    B rotates the pairs that start at mode 1 by phi, its last pair (2N-1, 0)
    closing the ring; A then rotates the pairs (0,1), (2,3), ... by theta.
    """
    b = _rotate_pairs(np.eye(params.n_modes, dtype=np.complex128), params.phi, 1)
    return _rotate_pairs(b, params.theta, 0)


class RngStream:
    """Deterministic uniform stream addressed by (master_seed, stream_index).

    Streams with distinct indices under one master seed are statistically
    independent, and the draw sequence for a given address never changes.
    numpy's SeedSequence refuses a negative seed or index with ValueError.
    """

    def __init__(self, master_seed: int, stream_index: int):
        self._gen = np.random.default_rng([int(master_seed), int(stream_index)])

    def uniform(self, count: int) -> np.ndarray:
        """Next ``count`` draws from Uniform[0, 1); numpy rejects count < 0."""
        return self._gen.random(count)


def build_phase_layer(n_modes: int, alpha: float, rng: RngStream) -> np.ndarray:
    """Draw the phases of one layer, uniform on [0, alpha).

    Always consumes exactly n_modes draws from ``rng``, alpha = 0 included,
    so stream positions stay aligned across disorder strengths. The inputs
    are trusted: Scenario holds alpha to [0, 2*pi] and MotifParams holds
    n_modes to at least 4.
    """
    return alpha * rng.uniform(n_modes)


class ScenarioKind(str, enum.Enum):
    """Which disorder pattern a scenario applies between and inside motifs."""

    PURE = "pure"
    FULLY_RANDOM = "fully-random"
    FIXED_DISORDER = "fixed-disorder"
    INTERMEDIATE = "intermediate"

    @property
    def frozen(self) -> bool:
        """Draws one alpha_fixed layer per realization and repeats it every step."""
        return self in (ScenarioKind.FIXED_DISORDER, ScenarioKind.INTERMEDIATE)

    @property
    def fresh(self) -> bool:
        """Redraws alpha_layer layers every step."""
        return self in (ScenarioKind.FULLY_RANDOM, ScenarioKind.INTERMEDIATE)


@dataclass(frozen=True)
class Scenario:
    """One complete propagation setup: motif, depth, disorder pattern, seed.

    alpha_fixed is the strength of the phase layer that is drawn once and
    repeated every step (fixed-disorder and intermediate kinds).
    alpha_layer is the strength of the layers redrawn each step
    (fully-random and intermediate kinds). Strengths not used by the kind
    must be zero.

    For fully-random scenarios each step applies two independent layers: one
    inside the motif and one between motifs; motif_internal_phases turns the
    internal layer off while keeping the stream consumption identical. Other
    kinds have no internal layer and must leave it True.
    """

    kind: ScenarioKind
    motif: MotifParams
    depth: int
    seed: int
    alpha_fixed: float = 0.0
    alpha_layer: float = 0.0
    motif_internal_phases: bool = True

    def __post_init__(self):
        if not isinstance(self.kind, ScenarioKind):
            object.__setattr__(self, "kind", ScenarioKind(self.kind))
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("alpha_fixed", "alpha_layer"):
            val = getattr(self, name)
            if not 0.0 <= val <= TWO_PI:
                raise ValueError(f"{name} must lie in [0, 2*pi], got {val!r}")
        if not self.kind.frozen and self.alpha_fixed != 0.0:
            raise ValueError(
                f"alpha_fixed is not used by kind {self.kind.value!r} and must be 0"
            )
        if not self.kind.fresh and self.alpha_layer != 0.0:
            raise ValueError(
                f"alpha_layer is not used by kind {self.kind.value!r} and must be 0"
            )
        if not (self.motif_internal_phases or self.kind is ScenarioKind.FULLY_RANDOM):
            raise ValueError(f"kind {self.kind.value!r} cannot set motif_internal_phases=False")

    @property
    def n_modes(self) -> int:
        return self.motif.n_modes


def scenario_layers(scenario: Scenario, rng: RngStream):
    """The repeated step u of one realization and an iterator of its phase layers.

    u is the motif with any frozen layer folded in. The iterator yields each
    step's diagonal (before, after) phase factors, either one None, so step m is
    diag(after) u diag(before), as tabled below.

    Stream consumption contract, which downstream code and the tests rely on:
    a frozen layer is drawn first, by this call, then per-step layers in step
    order as the iterator runs, a step's internal layer before its inter-motif
    one. Every layer draw consumes n_modes uniforms whatever its strength.

    pure:            U, U, ..., U
    fixed-disorder:  U D with one D = diag phases drawn once
    fully-random:    (U D'_m) D_m, D_m omitted after the last step
    intermediate:    U D D''_m with the fixed D drawn once, D''_m per step
    """
    n, kind = scenario.n_modes, scenario.kind
    u = build_motif(scenario.motif)
    if kind.frozen:
        u = u * np.exp(1j * build_phase_layer(n, scenario.alpha_fixed, rng))

    def layers():
        for m in range(scenario.depth):
            before = after = None
            if kind.fresh:
                before = np.exp(1j * build_phase_layer(n, scenario.alpha_layer, rng))
            if kind is ScenarioKind.FULLY_RANDOM and m < scenario.depth - 1:
                # nothing follows the last motif: its between-layer is never drawn
                after = np.exp(1j * build_phase_layer(n, scenario.alpha_layer, rng))
            yield (before if scenario.motif_internal_phases else None), after

    return u, layers()


def scenario_step_factors(scenario: Scenario, rng: RngStream):
    """Yield each step's dense factor diag(after) u diag(before), left factor last."""
    u, layers = scenario_layers(scenario, rng)
    for before, after in layers:
        step = u if before is None else u * before
        yield step if after is None else after[:, None] * step


def advance(u: np.ndarray, layers, x: np.ndarray):
    """Yield the (2N, k) column states x after each step diag(after) u diag(before),
    scaling rows by the phase layers, O(N k), so only u is multiplied, O(N^2 k)."""
    for before, after in layers:
        x = u @ (x if before is None else before[:, None] * x)
        x = x if after is None else after[:, None] * x
        yield x


def compose(scenario: Scenario) -> np.ndarray:
    """Full transfer matrix of a scenario: the product of all step factors.

    Later steps multiply from the left, so the result applied to a column
    vector runs the steps in order. Draws from stream 0 of the scenario seed.

    pure and fixed-disorder repeat one step, so its depth-th power is taken by
    squaring, O(N^3 log depth), raising NonUnitaryError if it overflows. The
    kinds with fresh layers push the identity through ``advance``: O(N^3 depth).
    """
    u, layers = scenario_layers(scenario, RngStream(scenario.seed, 0))
    if not scenario.kind.fresh:
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.linalg.matrix_power(u, scenario.depth)
        if not np.isfinite(w).all():
            raise NonUnitaryError(f"the step's power at depth {scenario.depth} overflowed")
        return w
    for w in advance(u, layers, np.eye(scenario.n_modes, dtype=np.complex128)):
        pass  # keep only the last block: collecting them would hold depth matrices
    return w


def disordered_motif(scenario: Scenario) -> np.ndarray:
    """The scenario's first step factor on its own.

    Uses the same stream-0 draws as ``compose``, so for a fixed-disorder
    scenario this is exactly the repeated-step matrix of the full product.
    """
    return next(scenario_step_factors(scenario, RngStream(scenario.seed, 0)))
