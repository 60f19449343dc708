import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringnet.analysis import (
    FitModel,
    InsufficientSupportError,
    Regime,
    band_mass_profile,
    classify,
    effective_hamiltonian,
    eigenvector_localization,
    fit_profile,
)
from ringnet.linalg import BranchCutWarning
from ringnet.network import MotifParams, Scenario, build_motif, compose, disordered_motif
from ringnet.simulate import Distribution, circular_displacements

from naive_reference import naive_expm_hermitian_times_i


def profile_distribution(n, input_index, decay, shape):
    """Exact synthetic profile p ~ 10^(-decay * shape(d)) on a ring."""
    d = circular_displacements(n, input_index).astype(np.float64)
    x = d**2 if shape == "gaussian" else np.abs(d)
    p = 10.0 ** (-decay * x)
    return Distribution(p / p.sum(), input_index)


# ----------------------------------------------------------------------- fits


def test_fit_recovers_exact_gaussian():
    dist = profile_distribution(41, 20, 0.05, "gaussian")
    fit = fit_profile(dist, FitModel.GAUSSIAN, floor=0.0)
    assert fit.decay == pytest.approx(0.05, abs=1e-12)
    assert fit.ssr < 1e-18
    assert fit.n_points == 41
    # the default floor trims the far tail, leaving the decay untouched
    trimmed = fit_profile(dist, FitModel.GAUSSIAN)
    assert trimmed.n_points < 41
    assert trimmed.decay == pytest.approx(0.05, abs=1e-12)


def test_fit_recovers_exact_exponential():
    dist = profile_distribution(41, 20, 0.2, "exponential")
    fit = fit_profile(dist, FitModel.EXPONENTIAL)
    assert fit.decay == pytest.approx(0.2, abs=1e-12)
    assert fit.ssr < 1e-18


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["gaussian", "exponential"]),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=9, max_value=80),
)
def test_fit_recovery_across_decay_range(shape, decay, n):
    half = n // 2
    x_max = half**2 if shape == "gaussian" else half
    # keep the far tail out of the denormal range, where log10 loses digits
    assume(decay * x_max <= 250.0)
    dist = profile_distribution(n, half, decay, shape)
    model = FitModel.GAUSSIAN if shape == "gaussian" else FitModel.EXPONENTIAL
    fit = fit_profile(dist, model, floor=0.0)
    assert abs(fit.decay - decay) <= 1e-9 * decay


def test_fit_floor_drops_points():
    dist = profile_distribution(21, 10, 0.5, "exponential")
    full = fit_profile(dist, FitModel.EXPONENTIAL, floor=0.0)
    cut = fit_profile(dist, FitModel.EXPONENTIAL, floor=1e-3)
    assert cut.n_points < full.n_points
    assert cut.decay == pytest.approx(0.5, abs=1e-9)


def test_fit_requires_three_supported_points():
    p = np.zeros(10)
    p[0] = p[1] = 0.5
    with pytest.raises(InsufficientSupportError):
        fit_profile(Distribution(p, 0), FitModel.GAUSSIAN)


def test_fit_requires_displacement_spread():
    # all surviving mass at one |d| gives the regression nothing to work with
    p = np.array([1e-16, 0.5, 1e-16, 0.0, 1e-16, 0.5])
    with pytest.raises(InsufficientSupportError):
        fit_profile(Distribution(p / p.sum(), 0), FitModel.EXPONENTIAL, floor=1e-12)


def test_fit_floor_validation():
    dist = profile_distribution(11, 5, 0.1, "gaussian")
    with pytest.raises(ValueError):
        fit_profile(dist, FitModel.GAUSSIAN, floor=1.0)
    with pytest.raises(ValueError):
        fit_profile(dist, FitModel.GAUSSIAN, floor=-0.1)


# ------------------------------------------------------------ classification


def test_classify_gaussian_profile_as_diffusive():
    verdict = classify(profile_distribution(41, 20, 0.02, "gaussian"))
    assert verdict.regime is Regime.DIFFUSIVE
    assert verdict.ssr_ratio < 0.8
    assert verdict.localization_length is None


def test_classify_exponential_profile_as_localized():
    verdict = classify(profile_distribution(41, 20, 0.3, "exponential"))
    assert verdict.regime is Regime.LOCALIZED
    assert verdict.ssr_ratio > 1.25
    # decay of 0.3 per port in log10 means mass falls by e every log10(e)/0.3
    assert verdict.localization_length == pytest.approx(
        math.log10(math.e) / 0.3, rel=1e-9
    )


def test_classify_ambiguous_band():
    # widen the band until it swallows the ratio of a clean gaussian profile
    verdict = classify(
        profile_distribution(41, 20, 0.1, "gaussian"), thresholds=(1e-40, 1e9)
    )
    assert verdict.regime is Regime.AMBIGUOUS
    assert verdict.localization_length is None


def test_classify_threshold_validation():
    dist = profile_distribution(21, 10, 0.1, "gaussian")
    with pytest.raises(ValueError):
        classify(dist, thresholds=(1.5, 0.5))
    with pytest.raises(ValueError):
        classify(dist, thresholds=(0.0, 1.0))


def test_classify_is_scale_invariant_through_renormalization():
    # the same shape entering through a rescaled-then-normalized profile must
    # produce the identical ssr ratio; mix two decays so neither fit is exact
    # and both residuals sit far above round-off
    d = circular_displacements(31, 15).astype(np.float64)
    p = 10.0 ** (-0.11 * np.abs(d)) + 10.0 ** (-0.02 * d**2)
    a = classify(Distribution(p / p.sum(), 15))
    q = 7.3 * p
    b = classify(Distribution(q / q.sum(), 15))
    assert a.ssr_ratio == pytest.approx(b.ssr_ratio, rel=1e-12)
    assert a.regime is b.regime


# ------------------------------------------------------------------------ ipr


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=10**6),
)
def test_ipr_bounds_and_permutation_invariance(weights, seed):
    p = np.array(weights) / np.sum(weights)
    dist = Distribution(p / p.sum(), 0)
    value = dist.ipr()
    n = len(weights)
    assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = Distribution(p[perm] / p[perm].sum(), 0)
    assert shuffled.ipr() == pytest.approx(value, rel=1e-12)


# ------------------------------------------------------- effective generator


def test_effective_hamiltonian_of_phase_diagonal():
    w = np.diag(np.exp(1j * np.array([0.4, -0.9])))
    np.testing.assert_allclose(
        effective_hamiltonian(w, 1), np.diag([0.4, -0.9]), atol=1e-12
    )


def test_effective_hamiltonian_depth_scaling():
    w = np.diag(np.exp(1j * np.array([0.4, -0.9])))
    np.testing.assert_allclose(
        effective_hamiltonian(w @ w, 2), np.diag([0.4, -0.9]), atol=1e-12
    )


def test_effective_hamiltonian_round_trip():
    motif = MotifParams(n_couplers=4, theta=0.3, phi=0.5)
    u = build_motif(motif)
    h = effective_hamiltonian(u, 1)
    np.testing.assert_allclose(scipy.linalg.expm(1j * h), u, atol=1e-10)


def test_effective_hamiltonian_matches_series_expm():
    # small generator so the plain power series converges quickly
    motif = MotifParams(n_couplers=3, theta=0.05, phi=0.04)
    u = build_motif(motif)
    h = effective_hamiltonian(u, 1)
    rebuilt = np.array(naive_expm_hermitian_times_i(h.tolist(), terms=40))
    np.testing.assert_allclose(rebuilt, u, atol=1e-12)


def test_effective_hamiltonian_requires_positive_depth():
    with pytest.raises(ValueError):
        effective_hamiltonian(np.eye(2), 0)


# -------------------------------------------------------- band mass profile


def test_band_profile_diagonal_concentrates_at_zero():
    out = band_mass_profile(np.diag([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(out, np.ones(3), atol=0)


def test_band_profile_nearest_neighbour_ring():
    n = 8
    h = np.zeros((n, n))
    for i in range(n):
        h[i, (i + 1) % n] = 1.0
        h[(i + 1) % n, i] = 1.0
    out = band_mass_profile(h)
    assert out[0] == 0.0
    np.testing.assert_allclose(out[1:], np.ones(n // 2), atol=0)


def test_band_profile_zero_matrix_is_all_ones():
    np.testing.assert_array_equal(band_mass_profile(np.zeros((6, 6))), np.ones(4))


def test_band_profile_rejects_non_hermitian():
    with pytest.raises(ValueError):
        band_mass_profile(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_band_profile_is_a_cumulative_mass(n, seed):
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    h = (z + z.conj().T) / 2
    out = band_mass_profile(h)
    assert out.shape == (n // 2 + 1,)
    assert (np.diff(out) >= -1e-15).all()
    assert out[-1] == 1.0
    assert out.min() >= 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=0, max_value=10**6),
)
def test_band_profile_is_scale_free(n, c, seed):
    # why eigenvector_localization needs no depth: dividing the generator by
    # it leaves the profile unchanged up to round-off
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    h = (z + z.conj().T) / 2
    np.testing.assert_allclose(
        band_mass_profile(c * h), band_mass_profile(h), rtol=0, atol=1e-14
    )


# ------------------------------------------------------ spectral localization


def test_eigenvector_localization_of_distinct_phase_diagonal():
    w = np.diag(np.exp(1j * np.array([0.1, 0.9, -1.3, 2.2])))
    report = eigenvector_localization(w)
    assert report.eigenvector_ipr_mean == pytest.approx(1.0, abs=1e-10)
    assert (np.diff(report.eigenphases) >= 0).all()
    assert report.eigenphases.min() > -np.pi
    assert report.eigenphases.max() <= np.pi


def test_eigenvector_localization_counts_branch_cut_phases_without_warning():
    w = np.diag(np.exp(1j * np.array([np.pi, -np.pi + 1e-8, 0.3, np.pi - 1e-3])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", BranchCutWarning)
        report = eigenvector_localization(w)
    assert report.branch_cut_count == 2


def test_eigenvector_localization_bounds():
    sc = Scenario(
        kind="fixed-disorder",
        motif=MotifParams(n_couplers=10, theta=np.pi / 4, phi=np.pi / 4),
        depth=1,
        seed=5,
        alpha_fixed=2 * np.pi,
    )
    report = eigenvector_localization(disordered_motif(sc))
    n = 20
    assert 1.0 / n <= report.eigenvector_ipr_mean <= 1.0
    assert report.eigenvector_ipr.shape == (n,)
    assert report.band_fractions[-1] == 1.0


def test_disorder_localizes_step_eigenvectors():
    motif = MotifParams(n_couplers=20, theta=np.pi / 4, phi=np.pi / 4)
    clean = eigenvector_localization(build_motif(motif))
    sc = Scenario(
        kind="fixed-disorder", motif=motif, depth=1, seed=0, alpha_fixed=2 * np.pi
    )
    dirty = eigenvector_localization(disordered_motif(sc))
    assert dirty.eigenvector_ipr_mean > clean.eigenvector_ipr_mean


def test_full_product_generator_matches_single_step_before_wrapping():
    # with small angles the eigenphases of U^4 stay inside (-pi, pi], so
    # dividing the deep generator by the depth recovers the one-motif generator
    sc = Scenario(
        kind="pure",
        motif=MotifParams(n_couplers=5, theta=0.2, phi=0.3),
        depth=4,
        seed=0,
    )
    h_single = effective_hamiltonian(build_motif(sc.motif), 1)
    h_deep = effective_hamiltonian(compose(sc), 4)
    np.testing.assert_allclose(h_deep, h_single, atol=1e-8)
    report = eigenvector_localization(compose(sc))
    np.testing.assert_allclose(
        report.band_fractions, band_mass_profile(h_single), atol=1e-8
    )
