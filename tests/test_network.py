import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ringnet.network
from ringnet.analysis import eigenvector_localization
from ringnet.linalg import unitarity_defect
from ringnet.simulate import circular_displacements
from ringnet.network import (
    TWO_PI,
    MotifParams,
    RngStream,
    Scenario,
    ScenarioKind,
    advance,
    build_motif,
    build_phase_layer,
    compose,
    disordered_motif,
    scenario_layers,
    scenario_step_factors,
)

from naive_reference import naive_compose, naive_motif

angle_st = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def balanced(n_couplers=20):
    return MotifParams(n_couplers=n_couplers, theta=np.pi / 4, phi=np.pi / 4)


# -------------------------------------------------------------------- params


def test_motif_params_rejects_single_coupler():
    with pytest.raises(ValueError):
        MotifParams(n_couplers=1, theta=0.1, phi=0.1)


def test_motif_params_rejects_nonfinite_angle():
    with pytest.raises(ValueError):
        MotifParams(n_couplers=3, theta=np.nan, phi=0.0)


# --------------------------------------------------------------------- motif


def test_motif_at_zero_angles_is_identity():
    params = MotifParams(n_couplers=4, theta=0.0, phi=0.0)
    np.testing.assert_array_equal(build_motif(params), np.eye(8))


def test_b_sublayer_corner_wrap():
    # theta = 0 makes the A sublayer the identity, leaving the B sublayer bare
    b = build_motif(MotifParams(n_couplers=2, theta=0.0, phi=0.6))
    c, s = np.cos(0.6), np.sin(0.6)
    # wrapped block couples the last mode back to mode 0
    assert b[0, 0] == pytest.approx(c)
    assert b[0, 3] == pytest.approx(-s)
    assert b[3, 0] == pytest.approx(s)
    assert b[3, 3] == pytest.approx(c)


@pytest.mark.parametrize(
    "n_couplers, theta, phi",
    [
        (2, None, None),
        (3, None, None),
        (5, None, None),
        # the B sublayer is the identity, leaving the A sublayer bare
        (3, None, 0.0),
        # every A coupler swaps its pair with one sign flip, [[0, 1], [-1, 0]]
        (3, np.pi / 2, 0.0),
        # balanced couplers in both sublayers, c = s = 1/sqrt(2)
        (3, np.pi / 4, np.pi / 4),
    ],
    ids=["2", "3", "5", "3-phi0", "3-swap-A", "3-balanced"],
)
def test_motif_matches_naive_construction(n_couplers, theta, phi):
    # an angle given as None is drawn at random, seeded by the ring size
    gen = np.random.default_rng(n_couplers)
    random_theta, random_phi = gen.uniform(-np.pi, np.pi, size=2)
    theta = random_theta if theta is None else theta
    phi = random_phi if phi is None else phi
    got = build_motif(MotifParams(n_couplers=n_couplers, theta=theta, phi=phi))
    expected = np.array(naive_motif(n_couplers, theta, phi))
    np.testing.assert_allclose(got, expected, atol=1e-14)


def sublayer(n_modes, angle, first):
    """One sublayer as a dense matrix: the 2x2 coupler [[c, s], [-s, c]] on the
    mode pairs (k, k+1 mod 2N) for k = first, first+2, ...; with first = 1 the
    last pair wraps mode 2N-1 back to mode 0."""
    c, s = np.cos(angle), np.sin(angle)
    layer = np.zeros((n_modes, n_modes), dtype=np.complex128)
    for k in range(first, n_modes, 2):
        lo, hi = k, (k + 1) % n_modes
        layer[lo, lo], layer[lo, hi] = c, s
        layer[hi, lo], layer[hi, hi] = -s, c
    return layer


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=64), angle_st, angle_st)
def test_motif_is_exactly_the_product_of_its_sublayers(n_couplers, theta, phi):
    # each entry of A @ B has a single nonzero term, so the product is exact
    n = 2 * n_couplers
    want = sublayer(n, theta, 0) @ sublayer(n, phi, 1)
    got = build_motif(MotifParams(n_couplers=n_couplers, theta=theta, phi=phi))
    assert np.array_equal(got, want)


# advance multiplies states by the motif's real part alone, so the motif must
# be real exactly, not to round-off, at any finite angles
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=50),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_motif_imaginary_part_is_exactly_zero(n_couplers, theta, phi):
    u = build_motif(MotifParams(n_couplers=n_couplers, theta=theta, phi=phi))
    assert not u.imag.any()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), angle_st, angle_st)
def test_motif_is_unitary_and_sparse(n_couplers, theta, phi):
    u = build_motif(MotifParams(n_couplers=n_couplers, theta=theta, phi=phi))
    assert unitarity_defect(u) < 1e-13
    # each mode touches one theta block and one phi block: at most 4 paths
    nonzero = np.abs(u) > 1e-15
    assert nonzero.sum(axis=0).max() <= 4
    assert nonzero.sum(axis=1).max() <= 4


def test_balanced_motif_splits_into_exact_quarters():
    u = build_motif(balanced(5))
    p = np.abs(u) ** 2
    for col in range(10):
        top = np.sort(p[:, col])[::-1]
        np.testing.assert_allclose(top[:4], 0.25, atol=1e-15)
        assert top[4:].max() < 1e-30


# ----------------------------------------------------------------- rng stream


def test_rng_stream_is_reproducible():
    a = RngStream(42, 3).uniform(10)
    b = RngStream(42, 3).uniform(10)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ_by_index():
    a = RngStream(42, 0).uniform(10)
    b = RngStream(42, 1).uniform(10)
    assert np.abs(a - b).min() > 0


def test_rng_stream_sequential_draws_continue():
    whole = RngStream(7, 0).uniform(8)
    rng = RngStream(7, 0)
    first, second = rng.uniform(3), rng.uniform(5)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(0, 0).uniform(-1)  # numpy's own count check


# ---------------------------------------------------------------- phase layer


def test_phase_layer_zero_alpha_is_identity():
    phases = build_phase_layer(6, 0.0, [RngStream(0, 0)])[0]
    np.testing.assert_array_equal(phases, np.zeros(6))
    np.testing.assert_array_equal(np.exp(1j * phases), np.ones(6))


def test_phase_layer_zero_alpha_still_consumes_draws():
    rng = RngStream(5, 0)
    build_phase_layer(6, 0.0, [rng])
    after = rng.uniform(1)[0]
    assert after == RngStream(5, 0).uniform(7)[-1]


def test_phase_draws_fill_the_requested_range():
    # mean of Uniform[0, alpha) is alpha/2 with sd alpha/sqrt(12 n)
    alpha = np.pi
    n = 100_000
    phases = build_phase_layer(n, alpha, [RngStream(123, 0)])[0]
    assert phases.min() >= 0.0
    assert phases.max() < alpha
    assert abs(phases.mean() - alpha / 2) < 3 * alpha / math.sqrt(12 * n)


# ------------------------------------------------------------------ scenarios


def test_scenario_accepts_kind_as_string():
    sc = Scenario(kind="pure", motif=balanced(2), depth=3, seed=0)
    assert sc.kind is ScenarioKind.PURE


def test_scenario_rejects_unused_alphas():
    with pytest.raises(ValueError):
        Scenario(kind="pure", motif=balanced(2), depth=1, seed=0, alpha_fixed=0.1)
    with pytest.raises(ValueError):
        Scenario(
            kind="fixed-disorder", motif=balanced(2), depth=1, seed=0, alpha_layer=0.1
        )


def test_scenario_rejects_bad_depth_and_alpha_range():
    with pytest.raises(ValueError):
        Scenario(kind="pure", motif=balanced(2), depth=0, seed=0)
    with pytest.raises(ValueError):
        Scenario(
            kind="fixed-disorder", motif=balanced(2), depth=1, seed=0, alpha_fixed=7.0
        )
    with pytest.raises(ValueError):
        Scenario(
            kind="fixed-disorder", motif=balanced(2), depth=1, seed=0, alpha_fixed=-0.1
        )
    with pytest.raises(ValueError):
        Scenario(
            kind="fully-random", motif=balanced(2), depth=1, seed=0, alpha_layer=7.0
        )


@pytest.mark.parametrize("kind", ["pure", "fixed-disorder", "intermediate"])
def test_scenario_rejects_internal_flag_off_without_internal_layer(kind):
    alphas = {"intermediate": {"alpha_fixed": 1.0, "alpha_layer": 1.0}}.get(kind, {})
    with pytest.raises(ValueError, match="motif_internal_phases"):
        Scenario(
            kind=kind, motif=balanced(2), depth=1, seed=0,
            motif_internal_phases=False, **alphas,
        )


KINDS = ["pure", "fully-random", "fixed-disorder", "intermediate"]


def _scenario(kind, n_couplers, depth, seed, **alphas):
    gen = np.random.default_rng(seed + 1000)
    theta, phi = gen.uniform(-np.pi, np.pi, size=2)
    motif = MotifParams(n_couplers=n_couplers, theta=theta, phi=phi)
    return Scenario(kind=kind, motif=motif, depth=depth, seed=seed, **alphas)


def test_pure_compose_is_matrix_power():
    sc = _scenario("pure", 4, 6, 0)
    u = build_motif(sc.motif)
    np.testing.assert_allclose(
        compose(sc), np.linalg.matrix_power(u, 6), atol=1e-12
    )


def test_compose_depth_one_pure_is_the_motif():
    sc = _scenario("pure", 3, 1, 2)
    np.testing.assert_array_equal(compose(sc), build_motif(sc.motif))


def test_compose_is_deterministic():
    sc = _scenario("fully-random", 5, 9, 3, alpha_layer=2.0)
    np.testing.assert_array_equal(compose(sc), compose(sc))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["pure", "fully-random", "fixed-disorder", "intermediate"]),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_compose_preserves_unitarity(kind, n_couplers, depth, seed, af, al):
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = af
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = al
    sc = _scenario(kind, n_couplers, depth, seed, **alphas)
    assert unitarity_defect(compose(sc)) < 1e-10


def test_compose_unitary_at_deep_product():
    for n_couplers, depth in ((10, 160), (5, 4096)):
        sc = _scenario("fixed-disorder", n_couplers, depth, 1, alpha_fixed=TWO_PI)
        assert unitarity_defect(compose(sc)) < 1e-10


# odd depths, and the powers of two with their neighbours, up to 64
powering_depth_st = st.one_of(
    st.integers(min_value=0, max_value=31).map(lambda k: 2 * k + 1),
    st.sampled_from(sorted({2**p + d for p in range(7) for d in (-1, 0, 1)} - {0, 65})),
)


def sequential_product(sc):
    """The dense product of every step factor stream 0 yields, later steps on the left."""
    w = np.eye(sc.n_modes, dtype=np.complex128)
    for factor in scenario_step_factors(sc, RngStream(sc.seed, 0)):
        w = factor @ w
    return w


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=12),
    powering_depth_st,
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_compose_equals_sequential_product(kind, n_couplers, depth, seed, af, al):
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = af
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = al
    sc = _scenario(kind, n_couplers, depth, seed, **alphas)
    assert np.abs(compose(sc) - sequential_product(sc)).max() <= 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_compose_builds_no_dense_step_factor(kind, monkeypatch):
    alphas = {
        "fixed-disorder": {"alpha_fixed": 2.0},
        "fully-random": {"alpha_layer": TWO_PI},
        "intermediate": {"alpha_fixed": 2.0, "alpha_layer": 1.0},
    }.get(kind, {})
    sc = _scenario(kind, 4, 7, 5, **alphas)
    dense = sequential_product(sc)

    def refuse(*args, **kwargs):
        raise AssertionError("compose built a dense step factor")

    monkeypatch.setattr(ringnet.network, "scenario_step_factors", refuse)
    monkeypatch.setattr(ringnet.network, "disordered_motif", refuse)
    assert np.abs(compose(sc) - dense).max() <= 1e-13


FRESH_KINDS = ["fully-random", "intermediate"]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FRESH_KINDS),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 3, 5, 7]),
    st.booleans(),
)
def test_compose_column_blocks_need_not_divide_the_ring(
    kind, n_couplers, depth, seed, block, internal
):
    # blocks of 3, 5 or 7 columns leave a short last block on most rings
    alphas = {"alpha_layer": 2.0, **({"alpha_fixed": 1.0} if kind == "intermediate" else {})}
    sc = dataclasses.replace(
        _scenario(kind, n_couplers, depth, seed, **alphas),
        motif_internal_phases=internal or kind == "intermediate",
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringnet.network, "COLUMN_BLOCK", block)
        w = compose(sc)
    assert np.abs(w - sequential_product(sc)).max() <= 1e-13


def cone_scenario(kind, n_couplers, depth):
    alphas = {
        "fixed-disorder": {"alpha_fixed": TWO_PI},
        "fully-random": {"alpha_layer": TWO_PI},
        "intermediate": {"alpha_fixed": TWO_PI, "alpha_layer": 1.0},
    }.get(kind, {})
    return _scenario(kind, n_couplers, depth, 17, **alphas)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_couplers", [2, 5])
@pytest.mark.parametrize("seam", ["first", "last"])
def test_advance_leaves_exact_zeros_outside_the_light_cone(kind, n_couplers, seam):
    # depth N + 2 runs past the wrap (4 * depth > 2N) from the seam ports 1 and 2N
    sc = cone_scenario(kind, n_couplers, n_couplers + 2)
    n, runs = sc.n_modes, 3
    port = 0 if seam == "first" else n - 1
    dense = [np.eye(n, dtype=np.complex128) for _ in range(runs)]
    factors = [scenario_step_factors(sc, RngStream(sc.seed, r)) for r in range(runs)]
    u, layers = scenario_layers(sc, [RngStream(sc.seed, r) for r in range(runs)])
    start = np.zeros((n, runs), dtype=np.complex128)
    start[port] = 1.0
    distance = np.abs(circular_displacements(n, port))
    for m, x in enumerate(advance(u, layers, start), start=1):
        assert x.shape == (n, runs)
        assert np.all(x[distance > 2 * m] == 0.0), m
        for r in range(runs):
            dense[r] = next(factors[r]) @ dense[r]
            # a pending between-layer is a phase per mode, so compare probabilities
            np.testing.assert_allclose(
                np.abs(x[:, r]) ** 2, np.abs(dense[r][:, port]) ** 2, rtol=0, atol=1e-14
            )
    assert m == sc.depth
    np.testing.assert_allclose(x[:, 0], dense[0][:, port], rtol=0, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_pure_compose_power_law(a, b, seed):
    base = _scenario("pure", 3, a + b, seed)
    wa = compose(dataclasses.replace(base, depth=a))
    wb = compose(dataclasses.replace(base, depth=b))
    wab = compose(base)
    assert np.abs(wa @ wb - wab).max() < 1e-11


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_intermediate_with_silent_layer_reduces_to_fixed(n_couplers, depth, seed, af):
    inter = _scenario(
        "intermediate", n_couplers, depth, seed, alpha_fixed=af, alpha_layer=0.0
    )
    fixed = Scenario(
        kind="fixed-disorder",
        motif=inter.motif,
        depth=depth,
        seed=seed,
        alpha_fixed=af,
    )
    assert np.abs(compose(inter) - compose(fixed)).max() < 1e-11


def test_fully_random_internal_flag_changes_result_not_draws():
    on = _scenario("fully-random", 4, 5, 8, alpha_layer=1.5)
    off = dataclasses.replace(on, motif_internal_phases=False)
    w_on, w_off = compose(on), compose(off)
    assert np.abs(w_on - w_off).max() > 1e-3
    # both variants consume the same stream, checked against the oracle below
    np.testing.assert_allclose(w_off, np.array(naive_compose(off)), atol=1e-12)


def test_disordered_motif_matches_depth_one_compose():
    sc = _scenario("fixed-disorder", 5, 7, 4, alpha_fixed=3.0)
    np.testing.assert_array_equal(
        disordered_motif(sc), compose(dataclasses.replace(sc, depth=1))
    )


def test_step_factor_draw_order_is_documented_order():
    # fully-random, depth 2: internal_1, between_1, internal_2
    sc = _scenario("fully-random", 3, 2, 11, alpha_layer=2.5)
    n = sc.n_modes
    u = build_motif(sc.motif)
    rng = RngStream(sc.seed, 0)
    i1 = sc.alpha_layer * rng.uniform(n)
    b1 = sc.alpha_layer * rng.uniform(n)
    i2 = sc.alpha_layer * rng.uniform(n)
    f1 = np.exp(1j * b1)[:, None] * (u * np.exp(1j * i1))
    f2 = u * np.exp(1j * i2)
    got = list(scenario_step_factors(sc, RngStream(sc.seed, 0)))
    assert len(got) == 2
    np.testing.assert_allclose(got[0], f1, atol=1e-15)
    np.testing.assert_allclose(got[1], f2, atol=1e-15)


def test_intermediate_draw_order_fixed_layer_first():
    sc = _scenario("intermediate", 3, 2, 12, alpha_fixed=1.0, alpha_layer=0.5)
    n = sc.n_modes
    u = build_motif(sc.motif)
    rng = RngStream(sc.seed, 0)
    fixed = sc.alpha_fixed * rng.uniform(n)
    s1 = sc.alpha_layer * rng.uniform(n)
    s2 = sc.alpha_layer * rng.uniform(n)
    base = u * np.exp(1j * fixed)
    got = list(scenario_step_factors(sc, RngStream(sc.seed, 0)))
    np.testing.assert_allclose(got[0], base * np.exp(1j * s1), atol=1e-15)
    np.testing.assert_allclose(got[1], base * np.exp(1j * s2), atol=1e-15)


# each kind's draws in stream order at depth 3: the frozen layer, then every
# step's internal layer before its between-layer
LAYER_DRAWS = {
    "pure": [],
    "fixed-disorder": ["frozen"],
    "fully-random": ["before0", "after0", "before1", "after1", "before2"],
    "intermediate": ["frozen", "before0", "before1", "before2"],
}
LAYER_CASES = pytest.mark.parametrize(
    ("kind", "internal"),
    [(kind, True) for kind in LAYER_DRAWS] + [("fully-random", False)],
)


def layered_scenario(kind, internal):
    alphas = {
        "fixed-disorder": {"alpha_fixed": 1.0},
        "fully-random": {"alpha_layer": 2.5},
        "intermediate": {"alpha_fixed": 1.0, "alpha_layer": 0.5},
    }.get(kind, {})
    return dataclasses.replace(
        _scenario(kind, 3, 3, 14, **alphas), motif_internal_phases=internal
    )


@LAYER_CASES
def test_scenario_layers_draw_order(kind, internal):
    sc = layered_scenario(kind, internal)
    n = sc.n_modes
    ref = RngStream(sc.seed, 0)
    strength = {"frozen": sc.alpha_fixed}
    drawn = {
        label: strength.get(label, sc.alpha_layer) * ref.uniform(n)
        for label in LAYER_DRAWS[kind]
    }

    rng = RngStream(sc.seed, 0)
    u, layers = scenario_layers(sc, [rng])
    # the motif stays bare: a frozen layer rides in every step as its factors
    np.testing.assert_array_equal(u, build_motif(sc.motif))
    got = list(layers)
    assert len(got) == sc.depth
    frozen = drawn.get("frozen")
    for m, (fixed, before, after) in enumerate(got):
        want_before = drawn.get(f"before{m}") if internal else None
        want_fixed = None if frozen is None else np.exp(1j * frozen)
        for layer, want in (
            (fixed, want_fixed), (before, want_before), (after, drawn.get(f"after{m}")),
        ):
            if want is None:
                assert layer is None
            else:
                assert layer.shape == (1, n)
                np.testing.assert_array_equal(layer[0], want)
    # a realization leaves the stream where the documented draws end
    assert rng.uniform(1) == ref.uniform(1)


@LAYER_CASES
def test_scenario_layers_row_r_is_stream_r_alone(kind, internal):
    sc = layered_scenario(kind, internal)
    u, layers = scenario_layers(sc, [RngStream(sc.seed, r) for r in range(3)])
    got = list(layers)
    for r in range(3):
        u_r, layers_r = scenario_layers(sc, [RngStream(sc.seed, r)])
        np.testing.assert_array_equal(u, u_r)
        for step, step_r in zip(got, layers_r, strict=True):
            for layer, want in zip(step, step_r, strict=True):
                if want is None:
                    assert layer is None
                else:
                    assert layer.shape == (3, sc.n_modes)
                    np.testing.assert_array_equal(layer[r], want[0])


# ------------------------------------------------- clean-ring Bloch spectrum


def bloch_phases(motif):
    """Eigenphases +-omega(k) of the clean ring, k = 2*pi*j/N.

    cos omega = cos theta cos phi + sin theta sin phi cos k (split-step walk,
    Kitagawa et al., PRA 82, 033429). omega/2 is taken from sin^2 and cos^2 of
    omega/2, each written as a sum of nonnegative terms, so no cancellation
    costs precision near omega = 0 or pi.
    """
    k = TWO_PI * np.arange(motif.n_couplers) / motif.n_couplers
    theta, phi = motif.theta, motif.phi
    s = np.sin(theta) * np.sin(phi)
    sin2_k, cos2_k = np.sin(k / 2) ** 2, np.cos(k / 2) ** 2
    if s < 0:  # phi -> -phi with k -> k + pi leaves cos omega as it is
        phi, s, sin2_k, cos2_k = -phi, -s, cos2_k, sin2_k
    sin2 = np.sin((theta - phi) / 2) ** 2 + s * sin2_k
    cos2 = np.cos((theta + phi) / 2) ** 2 + s * cos2_k
    omega = 2 * np.arctan2(np.sqrt(sin2), np.sqrt(cos2))
    return np.concatenate([omega, -omega])


def circle_distance(phases_a, phases_b):
    """Largest |e^{ia} - e^{ib}| under the best pairing of two phase multisets."""
    cost = np.abs(np.exp(1j * phases_a)[:, None] - np.exp(1j * phases_b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_clean_motif_spectrum_is_the_bloch_dispersion(n_couplers, seed):
    motif = _scenario("pure", n_couplers, 1, seed).motif
    phases = eigenvector_localization(build_motif(motif)).eigenphases
    assert circle_distance(phases, bloch_phases(motif)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=10**6),
)
def test_pure_product_spectrum_is_depth_times_the_dispersion(n_couplers, depth, seed):
    sc = _scenario("pure", n_couplers, depth, seed)
    phases = eigenvector_localization(compose(sc)).eigenphases
    assert circle_distance(phases, depth * bloch_phases(sc.motif)) < 1e-12


def test_shipped_pure_ring_has_eigenphases_on_the_branch_cut():
    # theta = phi = pi/4, k = pi: omega = pi/2, so depth 10 lands on +-pi
    sc = Scenario(kind="pure", motif=balanced(20), depth=10, seed=0)
    report = eigenvector_localization(compose(sc))
    assert report.branch_cut_count == 2
    assert circle_distance(report.eigenphases, 10 * bloch_phases(sc.motif)) < 1e-12


# --------------------------------------------------------------------- oracle


@pytest.mark.parametrize("case", range(12))
def test_compose_matches_naive_oracle(case):
    gen = np.random.default_rng(900 + case)
    kind = ["pure", "fully-random", "fixed-disorder", "intermediate"][case % 4]
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = float(gen.uniform(0, TWO_PI))
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = float(gen.uniform(0, TWO_PI))
    sc = Scenario(
        kind=kind,
        motif=MotifParams(
            n_couplers=int(gen.integers(2, 4)),
            theta=float(gen.uniform(-np.pi, np.pi)),
            phi=float(gen.uniform(-np.pi, np.pi)),
        ),
        depth=int(gen.integers(1, 10)),
        seed=case,
        **alphas,
    )
    np.testing.assert_allclose(compose(sc), np.array(naive_compose(sc)), atol=1e-12)
