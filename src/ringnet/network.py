"""Ring network construction: motif transfer matrices and random phase layers.

A ring of N two-port couplers carries 2N modes. One motif applies every
coupler once, each a 2x2 rotation of one mode pair: a B sublayer on the
pairs (1,2), (3,4), ..., (2N-1,0), which closes the ring, then an A sublayer
on (0,1), (2,3), .... Disorder enters as diagonal layers of random phases.
"""

from __future__ import annotations

import enum
import functools
import numbers
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


def check_integer(field: str, value, low: int, high: int | None = None) -> int:
    """Return a count or index held to [low, high) as a plain int; else raise
    ScenarioError on ``field``. Any integer but a bool passes, numpy's included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ScenarioError(field, f"expected an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value >= high):
        bound = f"be at least {low}" if high is None else f"lie in [{low}, {high})"
        raise ScenarioError(field, f"must {bound}, got {value}")
    return value


def check_depths(depths) -> tuple:
    """Return snapshot depths as a nonempty tuple of ints, each at least 1 and above
    the one before; else raise ScenarioError on ``depths`` or the first ``depths[i]``."""
    depths = tuple(check_integer(f"depths[{i}]", d, 1) for i, d in enumerate(depths))
    if not depths:
        raise ScenarioError("depths", "must be nonempty")
    for i in range(1, len(depths)):
        if depths[i] <= depths[i - 1]:
            message = f"must be above depths[{i - 1}] = {depths[i - 1]}, got {depths[i]}"
            raise ScenarioError(f"depths[{i}]", message)
    return depths


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
        object.__setattr__(self, "n_couplers", check_integer("n_couplers", self.n_couplers, 2))
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
    coupler [[c, s], [-s, c]], so the product is a real orthogonal float64
    matrix. Rows 2j and 2j+1 are nonzero only in columns 2j-1 ... 2j+2
    (mod 2N), four entries each, written in O(N).
    """
    n = params.n_modes
    ct, st = np.cos(params.theta), np.sin(params.theta)
    cp, sp = np.cos(params.phi), np.sin(params.phi)
    block = np.array([[-ct * sp, ct * cp, st * cp, st * sp],
                      [st * sp, -st * cp, ct * cp, ct * sp]])
    m = np.zeros((n, n))
    m.reshape(-1)[_band_index(n)] = block
    return m


@functools.lru_cache(maxsize=16)
def _band_index(n: int) -> np.ndarray:
    """Flat positions in an n x n matrix of the motif's band, shaped (n/2, 2, 4)
    so that row pair j takes the 2 x 4 block at rows 2j, 2j+1, columns 2j-1 ... 2j+2."""
    starts = np.arange(0, n, 2)[:, None, None]
    index = (starts + np.arange(2)[:, None]) * n + (starts + np.arange(-1, 3)) % n
    index.flags.writeable = False
    return index


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

    kind may be given by name; depth >= 1 and seed >= 0 are integers, stored
    as int; both strengths lie in [0, 2*pi].
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
        object.__setattr__(self, "depth", check_integer("depth", self.depth, 1))
        for name, used in ("alpha_fixed", self.kind.frozen), ("alpha_layer", self.kind.fresh):
            val = check_strength(name, getattr(self, name))
            if not used and val != 0.0:
                message = f"{name} is not used by kind {self.kind.value!r} and must be 0"
                raise ScenarioError(None, message)
        if not (self.motif_internal_phases or self.kind is ScenarioKind.FULLY_RANDOM):
            message = f"false applies only to fully-random, not {self.kind.value!r}"
            raise ScenarioError("motif_internal_phases", message)
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))

    @property
    def n_modes(self) -> int:
        return self.motif.n_modes


def scenario_layers(scenario: Scenario, rngs):
    """The bare motif u, shared by a chunk of realizations, and an iterator of
    each step's phase layers, one row per stream in ``rngs``.

    The iterator yields each step's (fixed, before, after): fixed the frozen
    layer's factors exp(1j * phases), before and after phase angles, each a
    (len(rngs), 2N) array or None. Stream r's step m is
    diag(exp(1j after[r])) u diag(fixed[r] exp(1j before[r])).

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
    draw = functools.partial(build_phase_layer, n, rngs=rngs)

    fixed = _cis(draw(scenario.alpha_fixed)) if kind.frozen else None
    if not kind.fresh:
        return u, ((fixed, None, None) for _ in range(depth))
    alpha, internal = scenario.alpha_layer, scenario.motif_internal_phases
    # nothing follows the last motif: its between-layer is never drawn
    between = depth - 1 if kind is ScenarioKind.FULLY_RANDOM else 0

    def layers():
        for m in range(depth):
            before = draw(alpha)  # drawn even when switched off
            yield fixed, before if internal else None, draw(alpha) if m < between else None

    return u, layers()


def _cis(angles: np.ndarray) -> np.ndarray:
    """exp(1j * angles) bit for bit, without the complex exponential."""
    z = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=z.real)
    np.sin(angles, out=z.imag)
    return z


def _phase(fixed, angles):
    """The factors fixed * exp(1j * angles), either one None for none; None if both are."""
    if angles is None:
        return fixed
    return _cis(angles) if fixed is None else fixed * _cis(angles)


def scenario_step_factors(scenario: Scenario, rng: RngStream):
    """Yield each step's dense factor diag(after) u diag(before), left factor last."""
    u, layers = scenario_layers(scenario, [rng])
    for fixed, before, after in layers:
        phase = _phase(fixed, before)
        step = u if phase is None else u * phase
        yield step if after is None else _cis(after).T * step


def advance(scenario: Scenario, rngs, x: np.ndarray):
    """Yield the (2N, k) column states after each step of ``scenario``, from
    the columns of x, each column r drawing its layers from rngs[r] (all from
    rngs[0] if it is the only stream) through ``scenario_layers``.

    Row pair j of the motif takes modes 2j-1 ... 2j+2 through one 2 x 4 block
    b, the same for every j. The state is held in a ring buffer with a ghost
    row on each side, modes -1 and 2N, copied from the opposite ends before
    each step. A window view of its real part, four rows wide and two rows
    apart, then holds every row pair's inputs, so a step is one batched
    product with b, O(k N), written into the real view of a complex state:
    a complex motif fails at once.

    Each sublayer moves amplitude by at most one mode, so the modes reached
    are x's nonzero rows widened by two per side each step: from a single
    mode, min(1 + 4m, 2N) after step m. Phase factors are taken on those
    modes only; the others are exact zeros whatever their phase.

    A between-layer's angles are added to the next step's internal ones, so
    a fresh kind takes one cos and sin per reached mode and step. A yielded
    state thus lacks the phases still pending, which no probability sees;
    the last state, with none pending, is exact. Each yielded state is a
    fresh array."""
    u, layers = scenario_layers(scenario, rngs)
    n, k = x.shape
    b = u[0:2, [n - 1, 0, 1, 2]]
    padded = np.zeros((n + 2, k), dtype=np.complex128)  # ghost modes -1 and 2N
    state = padded[1:-1]
    state[:] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded.view(np.float64), 4, axis=0)[::2]
    seeds = np.flatnonzero(np.any(x != 0, axis=1))
    lo, hi = int(seeds[0]), int(seeds[-1]) + 1
    pending = None
    for fixed, before, after in layers:
        if hi - lo >= n:
            rows = slice(0, n)
        elif 0 <= lo and hi <= n:
            rows = slice(lo, hi)
        else:
            rows = np.arange(lo, hi) % n  # the reach crosses the seam
        turns = [a[:, rows] for a in (before, pending) if a is not None]
        phase = _phase(None if fixed is None else fixed[:, rows],
                       functools.reduce(np.add, turns) if turns else None)
        if phase is not None:
            state[rows] *= phase.T
        padded[0], padded[-1] = padded[-2], padded[1]
        y = np.empty((n, k), dtype=np.complex128)
        pairs = y.view(np.float64).reshape(n // 2, 2, 2 * k)
        np.matmul(windows, b.T, out=pairs.transpose(0, 2, 1))
        state[:] = y
        lo, hi, pending = lo - 2, hi + 2, after
        yield y


def compose(scenario: Scenario) -> np.ndarray:
    """Full transfer matrix of a scenario: the product of all step factors.

    Later steps multiply from the left, so the result applied to a column
    vector runs the steps in order. Draws from stream 0 of the scenario seed.

    pure and fixed-disorder repeat one step, so its depth-th power is taken by
    squaring, O(N^3 log depth), raising NonUnitaryError if it overflows. The
    kinds with fresh layers push the identity's 2N columns through one
    ``advance`` and keep its last state, O(N^2) per step, holding the
    identity, advance's ring buffer and two states at a time.
    """
    if not scenario.kind.fresh:
        u, layers = scenario_layers(scenario, [RngStream(scenario.seed, 0)])
        fixed, _, _ = next(layers)
        step = u if fixed is None else u * fixed
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.linalg.matrix_power(step, scenario.depth)
        if not np.isfinite(w).all():
            raise NonUnitaryError(f"the step's power at depth {scenario.depth} overflowed")
        return w
    for w in advance(scenario, [RngStream(scenario.seed, 0)], np.eye(scenario.n_modes)):
        pass  # keep only the last state: collecting them would hold depth matrices
    return w


def disordered_motif(scenario: Scenario) -> np.ndarray:
    """The scenario's first step factor on its own.

    Uses the same stream-0 draws as ``compose``, so for a fixed-disorder
    scenario this is exactly the repeated-step matrix of the full product.
    """
    return next(scenario_step_factors(scenario, RngStream(scenario.seed, 0)))
