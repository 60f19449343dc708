import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import ringnet.network
import ringnet.simulate
from ringnet.linalg import NonUnitaryError
from ringnet.network import (
    TWO_PI,
    MotifParams,
    RngStream,
    Scenario,
    ScenarioError,
    build_motif,
    build_phase_layer,
    compose,
    scenario_step_factors,
)
from ringnet.simulate import (
    Distribution,
    circular_displacements,
    circular_variance,
    output_distribution,
    propagate,
    run_ensemble,
)

from naive_reference import naive_matvec, naive_motif


def balanced(n_couplers):
    return MotifParams(n_couplers=n_couplers, theta=np.pi / 4, phi=np.pi / 4)


def uniform_dist(n, input_index=0):
    return Distribution(np.full(n, 1.0 / n), input_index)


# -------------------------------------------------------------- distribution


def test_distribution_basic_properties():
    d = Distribution(np.array([0.5, 0.25, 0.25]), 1)
    assert d.n_modes == 3
    assert d.input_index == 1
    assert d.ipr() == pytest.approx(0.375)


def test_distribution_clamps_tiny_negative_roundoff():
    p = np.array([0.5, -1e-16, 0.5 + 1e-16])
    d = Distribution(p, 0)
    assert d.probabilities.min() == 0.0


def test_distribution_rejects_real_negatives():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, -1e-13, 0.5]), 0)


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]), 0)


def test_distribution_rejects_bad_input_index():
    with pytest.raises(ValueError):
        Distribution(np.array([1.0]), 1)
    with pytest.raises(ValueError):
        Distribution(np.array([1.0]), -1)


def test_ipr_extremes():
    n = 16
    assert uniform_dist(n).ipr() == pytest.approx(1.0 / n)
    delta = np.zeros(n)
    delta[3] = 1.0
    assert Distribution(delta, 3).ipr() == 1.0


# ---------------------------------------------------------------- propagation


def test_propagate_identity_keeps_the_delta():
    d = propagate(np.eye(5), 3)
    np.testing.assert_array_equal(d.probabilities, np.eye(5)[3])
    assert d.input_index == 3


def test_propagate_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        propagate(np.diag([2.0, 1.0]), 0)


@pytest.mark.parametrize("n_couplers", [2, 5])
def test_balanced_motif_spreads_to_four_equal_ports(n_couplers):
    u = build_motif(balanced(n_couplers))
    for port in range(2 * n_couplers):
        d = propagate(u, port)
        p = np.sort(d.probabilities)[::-1]
        np.testing.assert_allclose(p[:4], 0.25, atol=1e-15)
        assert p[4:].size == 0 or p[4:].max() < 1e-30


def test_propagate_agrees_with_naive_matvec():
    u = naive_motif(3, 0.9, -0.4)
    state = naive_matvec(u, [0, 0, 1, 0, 0, 0])
    expected = np.abs(np.array(state)) ** 2
    d = propagate(np.array(u), 2)
    np.testing.assert_allclose(d.probabilities, expected, atol=1e-14)


def test_pure_balanced_walk_reaches_every_port():
    sc = Scenario(kind="pure", motif=balanced(20), depth=10, seed=0)
    w = compose(sc)
    d = propagate(w, 19)
    assert d.probabilities.min() > 0
    # a snapshot is the bare vector that propagate wraps
    assert np.array_equal(d.probabilities, output_distribution(w[:, 19], 19))


def test_output_distribution_tolerates_mild_column_rescale():
    w = np.eye(4) * (1.0 + 1e-9)
    p = output_distribution(w[:, 1], 1)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("squared_norm", [1.0 + 2e-8, 1.0 - 2e-8])
def test_output_distribution_refuses_a_norm_off_by_2e_8(squared_norm):
    x = np.array([np.sqrt(squared_norm) + 0j, 0j])
    with pytest.raises(NonUnitaryError, match="from mode 0 have squared norm .* within 1e-08"):
        output_distribution(x, 0)


def test_output_distribution_rejects_nan_amplitudes():
    with pytest.raises(NonUnitaryError):
        output_distribution(np.array([np.nan, 0j]), 0)


# ------------------------------------------------------------- ring geometry


def test_circular_displacements_small_ring():
    np.testing.assert_array_equal(
        circular_displacements(6, 0), np.array([0, 1, 2, -3, -2, -1])
    )
    # the antipodal mode sits at -3, never +3, by the half-open convention
    np.testing.assert_array_equal(
        circular_displacements(6, 5), np.array([1, 2, -3, -2, -1, 0])
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.data())
def test_circular_displacements_cover_half_open_window(n, data):
    idx = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = circular_displacements(n, idx)
    assert d.min() >= -(n // 2)
    assert d.max() <= (n - 1) // 2
    assert d[idx] == 0
    assert len(set(d.tolist())) == n


def test_variance_of_delta_is_zero():
    p = np.zeros(8)
    p[5] = 1.0
    assert circular_variance(Distribution(p, 5)) == 0.0


def test_variance_of_symmetric_pair():
    p = np.zeros(12)
    p[2] = p[6] = 0.5  # displacements -2 and +2 about input 4
    assert circular_variance(Distribution(p, 4)) == pytest.approx(4.0)


def test_variance_of_uniform_ring_matches_direct_sum():
    n = 40
    # independent evaluation straight from the definition
    disp = [((j + n // 2) % n) - n // 2 for j in range(n)]
    mean = sum(disp) / n
    expected = sum(x * x for x in disp) / n - mean * mean
    assert expected == 133.25
    assert circular_variance(uniform_dist(n)) == pytest.approx(expected, abs=1e-12)


def test_trailing_phase_layer_leaves_probabilities_alone():
    sc = Scenario(
        kind="fixed-disorder", motif=balanced(6), depth=5, seed=3, alpha_fixed=4.0
    )
    w = compose(sc)
    layer = np.diag(np.exp(1j * build_phase_layer(12, TWO_PI, [RngStream(99, 0)])[0]))
    before = propagate(w, 7).probabilities
    after = propagate(layer @ w, 7).probabilities
    assert np.abs(after - before).max() < 1e-14


# ------------------------------------------------------------------ ensembles


def ensemble_scenario(depth=10, seed=0, alpha=TWO_PI, kind="fully-random"):
    alphas = (
        {"alpha_layer": alpha} if kind == "fully-random" else {"alpha_fixed": alpha}
    )
    return Scenario(kind=kind, motif=balanced(10), depth=depth, seed=seed, **alphas)


# no shrink phase: a failure is reported as found, not after seconds of shrinking
@settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    st.sampled_from(["pure", "fully-random", "fixed-disorder", "intermediate"]),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.booleans(),
    st.booleans(),
)
def test_single_run_ensemble_is_one_propagation(
    kind, n_couplers, depth, seed, theta, phi, alpha, last_port, internal
):
    # depths up to 14 run the radius-2M cone past the ring (4M > 2N) when the
    # ring is small; every step is a snapshot
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = alpha
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = TWO_PI - alpha
    sc = Scenario(
        kind=kind,
        motif=MotifParams(n_couplers=n_couplers, theta=theta, phi=phi),
        depth=depth,
        seed=seed,
        motif_internal_phases=internal or kind != "fully-random",
        **alphas,
    )
    port = 2 * n_couplers - 1 if last_port else 0
    res = run_ensemble(sc, port, depths=range(1, depth + 1), runs=1)
    for sample in res.samples:
        # a shallower compose skips the last inter-motif layer, a diagonal
        # phase that leaves the probabilities alone
        w = compose(dataclasses.replace(sc, depth=sample.depth))
        np.testing.assert_allclose(
            sample.distribution.probabilities,
            propagate(w, port).probabilities,
            rtol=0,
            atol=1e-14,
        )


KINDS = ["pure", "fully-random", "fixed-disorder", "intermediate"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.integers(min_value=2, max_value=5),
    st.booleans(),
    st.booleans(),
)
def test_ensemble_is_the_mean_of_its_dense_realizations(
    kind, n_couplers, depth, seed, theta, phi, alpha, runs, last_port, internal
):
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = alpha
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = TWO_PI - alpha
    sc = Scenario(
        kind=kind,
        motif=MotifParams(n_couplers=n_couplers, theta=theta, phi=phi),
        depth=depth,
        seed=seed,
        motif_internal_phases=internal or kind != "fully-random",
        **alphas,
    )
    port = 2 * n_couplers - 1 if last_port else 0
    res = run_ensemble(sc, port, depths=range(1, depth + 1), runs=runs)
    assert_matches_dense_realizations(res, dense_realization_means(sc, port, runs))


def dense_realization_means(sc, port, runs):
    """Per-depth mean distribution and mean IPR over dense realizations.

    Realization r is the dense product of the factors stream r yields.
    """
    sums = np.zeros((sc.depth, sc.n_modes))
    ipr_sums = np.zeros(sc.depth)
    for r in range(runs):
        w = np.eye(sc.n_modes, dtype=np.complex128)
        for step, factor in enumerate(scenario_step_factors(sc, RngStream(sc.seed, r))):
            w = factor @ w
            dist = propagate(w, port)
            sums[step] += dist.probabilities
            ipr_sums[step] += dist.ipr()
    return sums / runs, ipr_sums / runs


def assert_matches_dense_realizations(res, dense):
    for sample, mean, ipr_mean in zip(res.samples, *dense, strict=True):
        np.testing.assert_allclose(
            sample.distribution.probabilities, mean, rtol=0, atol=1e-14
        )
        assert sample.realization_ipr_mean == pytest.approx(ipr_mean, abs=1e-14)


def chunk_scenario(kind, n_couplers, depth, seed, theta, phi, alpha, internal):
    alphas = {}
    if kind in ("fixed-disorder", "intermediate"):
        alphas["alpha_fixed"] = alpha
    if kind in ("fully-random", "intermediate"):
        alphas["alpha_layer"] = TWO_PI - alpha
    return Scenario(
        kind=kind,
        motif=MotifParams(n_couplers=n_couplers, theta=theta, phi=phi),
        depth=depth,
        seed=seed,
        motif_internal_phases=internal or kind != "fully-random",
        **alphas,
    )


def run_in_chunks(chunk, sc, port, runs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ringnet.simulate, "CHUNK", chunk)
        return run_ensemble(sc, port, depths=range(1, sc.depth + 1), runs=runs)


# a realization's last bits depend on its row in the chunk's product with u,
# so splits are held to round-off, not to bytes
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.booleans(),
)
def test_chunk_split_leaves_the_ensemble_alone(
    kind, n_couplers, depth, seed, theta, phi, alpha, runs, last_port, internal
):
    # depths up to 14 run the cone past the wrap (4M > 2N) on small rings
    sc = chunk_scenario(kind, n_couplers, depth, seed, theta, phi, alpha, internal)
    port = 2 * n_couplers - 1 if last_port else 0
    whole = run_in_chunks(ringnet.simulate.CHUNK, sc, port, runs)
    for chunk in (1, 3):
        split = run_in_chunks(chunk, sc, port, runs)
        for a, b in zip(whole.samples, split.samples, strict=True):
            np.testing.assert_allclose(
                b.distribution.probabilities, a.distribution.probabilities,
                rtol=0, atol=1e-14,
            )
            assert b.realization_ipr_mean == pytest.approx(a.realization_ipr_mean, abs=1e-14)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=0.0, max_value=TWO_PI),
    st.integers(min_value=5, max_value=7),
    st.booleans(),
)
def test_ensemble_accumulated_across_chunks_is_the_dense_mean(
    kind, n_couplers, depth, seed, theta, phi, alpha, runs, internal
):
    sc = chunk_scenario(kind, n_couplers, depth, seed, theta, phi, alpha, internal)
    res = run_in_chunks(2, sc, 0, runs)
    assert_matches_dense_realizations(res, dense_realization_means(sc, 0, runs))


@pytest.mark.parametrize("kind", KINDS)
def test_ensemble_builds_no_dense_step_factor(kind, monkeypatch):
    alphas = {
        "fixed-disorder": {"alpha_fixed": 2.0},
        "fully-random": {"alpha_layer": TWO_PI},
        "intermediate": {"alpha_fixed": 2.0, "alpha_layer": 1.0},
    }.get(kind, {})
    sc = Scenario(kind=kind, motif=balanced(4), depth=6, seed=5, **alphas)
    dense = dense_realization_means(sc, 3, runs=4)

    def refuse(*args, **kwargs):
        raise AssertionError("run_ensemble built a dense step factor")

    monkeypatch.setattr(ringnet.network, "scenario_step_factors", refuse)
    monkeypatch.setattr(ringnet.simulate, "scenario_step_factors", refuse)
    res = run_ensemble(sc, 3, depths=range(1, 7), runs=4)
    assert_matches_dense_realizations(res, dense)


def test_ensemble_is_deterministic():
    sc = ensemble_scenario(depth=8)
    a = run_ensemble(sc, 9, depths=(4, 8), runs=20)
    b = run_ensemble(sc, 9, depths=(4, 8), runs=20)
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(
            sa.distribution.probabilities, sb.distribution.probabilities
        )
        assert sa.variance == sb.variance
        assert sa.realization_ipr_mean == sb.realization_ipr_mean


def test_pure_is_propagated_once_whatever_runs_says(monkeypatch):
    sc = Scenario(kind="pure", motif=balanced(10), depth=8, seed=3)
    once = run_ensemble(sc, 9, depths=(4, 8), runs=1)
    real_layers = ringnet.simulate.scenario_layers
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_layers(*args, **kwargs)

    monkeypatch.setattr(ringnet.simulate, "scenario_layers", counted)
    many = run_ensemble(sc, 9, depths=(4, 8), runs=50)
    assert len(calls) == 1
    for a, b in zip(once.samples, many.samples, strict=True):
        np.testing.assert_allclose(
            b.distribution.probabilities, a.distribution.probabilities, rtol=0, atol=1e-15
        )
        assert b.variance == pytest.approx(a.variance, rel=1e-15)
        assert b.realization_ipr_mean == pytest.approx(a.realization_ipr_mean, abs=1e-15)


def test_snapshot_depths_do_not_perturb_the_final_state():
    sc = ensemble_scenario(depth=9)
    coarse = run_ensemble(sc, 9, depths=(9,), runs=15)
    fine = run_ensemble(sc, 9, depths=(3, 6, 9), runs=15)
    np.testing.assert_array_equal(
        coarse.final.distribution.probabilities,
        fine.final.distribution.probabilities,
    )
    assert fine.samples[0].depth == 3
    assert fine.final is fine.samples[-1]


def test_realization_ipr_mean_tracks_sharper_profiles():
    sc = ensemble_scenario(depth=20, kind="fixed-disorder")
    res = run_ensemble(sc, 9, depths=(20,), runs=30)
    # averaging distributions can only smooth, so the mean profile's own IPR
    # must not exceed the per-realization average
    assert res.final.ipr <= res.final.realization_ipr_mean + 1e-12


def test_ensemble_validates_depths_and_runs():
    sc = ensemble_scenario(depth=8)
    with pytest.raises(ValueError):
        run_ensemble(sc, 9, depths=(), runs=5)
    with pytest.raises(ValueError):
        run_ensemble(sc, 9, depths=(4, 4, 8), runs=5)
    with pytest.raises(ValueError):
        run_ensemble(sc, 9, depths=(4, 6), runs=5)  # last must equal sc.depth
    with pytest.raises(ValueError):
        run_ensemble(sc, 9, depths=(4, 8), runs=0)
    with pytest.raises(ValueError):
        run_ensemble(sc, 40, depths=(8,), runs=5)


def test_ensemble_peak_memory_does_not_grow_with_runs():
    sc = Scenario(
        kind="fully-random", motif=balanced(20), depth=10, seed=0, alpha_layer=TWO_PI
    )

    def peak(runs):
        tracemalloc.start()
        try:
            run_ensemble(sc, 19, depths=(10,), runs=runs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A chunk holds min(runs, CHUNK) realizations as the columns of one state,
    # so memory grows with runs up to one chunk and is flat beyond it: the
    # peak at four chunks must stay near the peak at one.
    # The first run fills one-time caches (about 0.9 MB), so a warm-up comes
    # before the peaks. build_motif's zero matrix with its index arrays and
    # a chunk's (2N, k) column states leave nothing behind between chunks, but
    # CPython keeps up to 2000 freed tuples of each size for reuse, and any numpy call
    # on the ensemble path that parks a few there per realization grows the
    # peak until that cap is reached (about 110 KB, whatever the run count).
    # The long warm-up fills those free lists; a full collection would empty
    # them again, so the collector stays off until the peaks are taken.
    chunk = ringnet.simulate.CHUNK
    gc.disable()
    try:
        run_ensemble(sc, 19, depths=(10,), runs=1024)
        small, large = peak(chunk), peak(4 * chunk)
    finally:
        gc.enable()
    assert large <= 1.25 * small, (small, large)


def test_ensemble_peak_memory_holds_real_motifs():
    # the N=512 motif is 1024 x 1024, 8 MiB as float64; two runs hold two of
    # them at once, while complex ones (16 MiB each) put the peak past 2.5 of those
    n = 512
    sc = Scenario(kind="fully-random", motif=balanced(n), depth=1, seed=0, alpha_layer=1.0)
    tracemalloc.start()
    try:
        run_ensemble(sc, n, depths=(1,), runs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * (2 * n) ** 2, peak


def test_ensemble_depths_must_end_at_the_scenario_depth():
    sc = ensemble_scenario(depth=8)
    with pytest.raises(ScenarioError) as err:
        run_ensemble(sc, 9, depths=(2, 4), runs=2)
    assert err.value.field == "depths"
    assert err.value.message == "must end at depth 8, got (2, 4)"


@pytest.mark.parametrize("depths", [(2.5, 8), (4, 8.0), (4, np.float64(8)), ("4", 8)])
def test_ensemble_refuses_non_integral_depths(depths):
    # a float depth was once truncated silently, (2.5, 8) running as (2, 8)
    sc = ensemble_scenario(depth=8)
    bad = next(d for d in depths if not isinstance(d, int))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        run_ensemble(sc, 9, depths=depths, runs=2)


def test_ensemble_takes_numpy_integer_depths():
    sc = ensemble_scenario(depth=8)
    plain = run_ensemble(sc, 9, depths=(4, 8), runs=3)
    numpy = run_ensemble(sc, 9, depths=np.array([4, 8]), runs=3)
    assert [s.depth for s in numpy.samples] == [4, 8]
    assert all(type(s.depth) is int for s in numpy.samples)
    for a, b in zip(plain.samples, numpy.samples, strict=True):
        np.testing.assert_array_equal(
            a.distribution.probabilities, b.distribution.probabilities
        )


def test_scenario_seed_selects_the_realizations():
    sc = ensemble_scenario(depth=6)
    base = run_ensemble(sc, 9, depths=(6,), runs=10)
    same = run_ensemble(sc, 9, depths=(6,), runs=10)
    reseeded = dataclasses.replace(sc, seed=sc.seed + 1)
    other = run_ensemble(reseeded, 9, depths=(6,), runs=10)
    np.testing.assert_array_equal(
        base.final.distribution.probabilities, same.final.distribution.probabilities
    )
    assert (
        np.abs(
            base.final.distribution.probabilities
            - other.final.distribution.probabilities
        ).max()
        > 1e-6
    )


def test_random_walk_spreads_monotonically():
    # ensemble variance grows with depth while the cone is still expanding
    sc = ensemble_scenario(depth=10)
    res = run_ensemble(sc, 9, depths=(2, 4, 6, 8, 10), runs=500)
    variances = [s.variance for s in res.samples]
    assert all(b > a for a, b in zip(variances, variances[1:]))


@pytest.mark.parametrize("kind", ["pure", "fixed-disorder"])
@pytest.mark.parametrize("depth", [1, 3, 5, 9])
def test_light_cone_bounds_the_support(kind, depth):
    alphas = {"alpha_fixed": TWO_PI} if kind == "fixed-disorder" else {}
    sc = Scenario(kind=kind, motif=balanced(20), depth=depth, seed=1, **alphas)
    d = propagate(compose(sc), 19)
    disp = np.abs(circular_displacements(40, 19))
    outside = d.probabilities[disp > 2 * depth]
    # one motif moves amplitude at most two ports, so beyond 2*depth the
    # probability is structurally zero, not merely small
    assert outside.size == 0 or outside.max() == 0.0
