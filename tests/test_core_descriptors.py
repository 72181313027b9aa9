"""Tests for the 2a×2 gradient-magnitude descriptors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.descriptors import (
    _normalize_descriptor,
    compute_descriptor,
    descriptor_distance,
    descriptor_window_radius,
)
from repro.core.features import extract_salient_features
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import ValidationError
from repro.utils.preprocessing import gaussian_smooth


@pytest.fixture(scope="module")
def wave():
    t = np.linspace(0, 1, 300)
    return np.sin(2 * np.pi * 3 * t) + 0.4 * np.sin(2 * np.pi * 11 * t)


class TestDescriptorShape:
    def test_length_matches_configuration(self, wave):
        for bins in (4, 8, 16, 64, 128):
            config = DescriptorConfig(num_bins=bins)
            descriptor = compute_descriptor(wave, 150.0, 2.0, config)
            assert descriptor.size == bins

    def test_descriptor_is_non_negative(self, wave):
        descriptor = compute_descriptor(wave, 150.0, 2.0)
        assert np.all(descriptor >= 0.0)

    def test_normalized_descriptor_has_unit_norm(self, wave):
        descriptor = compute_descriptor(wave, 150.0, 2.0, DescriptorConfig(num_bins=32))
        assert np.linalg.norm(descriptor) == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_descriptor_scales_with_amplitude(self, wave):
        config = DescriptorConfig(num_bins=16, normalize=False)
        small = compute_descriptor(wave, 150.0, 2.0, config)
        large = compute_descriptor(3.0 * wave, 150.0, 2.0, config)
        assert large.sum() > 2.0 * small.sum()

    def test_normalization_gives_amplitude_invariance(self, wave):
        config = DescriptorConfig(num_bins=16)
        base = compute_descriptor(wave, 150.0, 2.0, config)
        scaled = compute_descriptor(5.0 * wave, 150.0, 2.0, config)
        np.testing.assert_allclose(base, scaled, atol=1e-8)

    def test_constant_series_gives_zero_descriptor(self):
        descriptor = compute_descriptor(np.full(100, 7.0), 50.0, 2.0)
        np.testing.assert_allclose(descriptor, 0.0)

    def test_invalid_sigma_rejected(self, wave):
        with pytest.raises(ValidationError):
            compute_descriptor(wave, 150.0, 0.0)


class TestDescriptorLocality:
    def test_distinct_locations_give_distinct_descriptors(self, wave):
        config = DescriptorConfig(num_bins=16)
        a = compute_descriptor(wave, 60.0, 1.5, config)
        b = compute_descriptor(wave, 200.0, 1.5, config)
        assert descriptor_distance(a, b) > 1e-3

    def test_same_shape_elsewhere_gives_similar_descriptor(self):
        # Two identical bumps at different positions: their descriptors
        # should be near-identical (translation invariance of the local
        # description).
        t = np.linspace(0, 1, 400)
        series = (
            np.exp(-((t - 0.3) ** 2) / 0.0005)
            + np.exp(-((t - 0.7) ** 2) / 0.0005)
        )
        config = DescriptorConfig(num_bins=16)
        a = compute_descriptor(series, 0.3 * 399, 2.0, config)
        b = compute_descriptor(series, 0.7 * 399, 2.0, config)
        assert descriptor_distance(a, b) < 0.05

    def test_descriptor_near_series_edge_does_not_fail(self, wave):
        config = DescriptorConfig(num_bins=16)
        start = compute_descriptor(wave, 1.0, 2.0, config)
        end = compute_descriptor(wave, float(wave.size - 2), 2.0, config)
        assert start.size == 16
        assert end.size == 16

    def test_precomputed_smoothed_series_matches(self, wave):
        from repro.utils.preprocessing import gaussian_smooth

        config = DescriptorConfig(num_bins=16)
        smoothed = gaussian_smooth(wave, 2.0)
        direct = compute_descriptor(wave, 150.0, 2.0, config)
        cached = compute_descriptor(wave, 150.0, 2.0, config, smoothed=smoothed)
        np.testing.assert_allclose(direct, cached)


def _loop_descriptor(series, position, sigma, config):
    """The per-sample reference loop :func:`compute_descriptor` replaced."""
    gradients = np.gradient(gaussian_smooth(series, sigma))
    num_cells = config.num_cells
    radius = descriptor_window_radius(sigma, config)
    window_start = position - radius
    cell_width = 2.0 * radius / num_cells
    weight_sigma = config.gaussian_weight_factor * radius
    descriptor = np.zeros(num_cells * 2)
    center_index = int(round(position))
    lo = max(0, center_index - radius)
    hi = min(series.size - 1, center_index + radius)
    for sample in range(lo, hi + 1):
        offset = sample - position
        weight = np.exp(-(offset ** 2) / (2.0 * weight_sigma ** 2))
        cell = int((sample - window_start) / cell_width)
        cell = min(max(cell, 0), num_cells - 1)
        grad = gradients[sample]
        if grad >= 0:
            descriptor[cell * 2] += weight * grad
        else:
            descriptor[cell * 2 + 1] += weight * (-grad)
    if config.normalize:
        descriptor = _normalize_descriptor(descriptor, config.clip_value)
    return descriptor


class TestDescriptorMatchesLoop:
    """The vectorised descriptor is bit-identical to the per-sample loop."""

    def test_real_keypoints(self):
        config = SDTWConfig()
        checked = 0
        for ts in make_gun_like(num_series=6, seed=5):
            series = np.asarray(ts.values, dtype=float)
            for feature in extract_salient_features(series, config):
                got = compute_descriptor(
                    series, feature.position, feature.sigma, config.descriptor
                )
                want = _loop_descriptor(
                    series, feature.position, feature.sigma, config.descriptor
                )
                assert np.array_equal(got, want)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("normalize", (True, False))
    def test_random_keypoints(self, normalize):
        rng = np.random.default_rng(17)
        for _ in range(200):
            series = np.cumsum(rng.normal(size=int(rng.integers(8, 200))))
            config = DescriptorConfig(
                num_bins=int(rng.choice([4, 16, 64])), normalize=normalize
            )
            # Fractional centres, including ones at and past the edges.
            position = float(rng.uniform(-3.0, series.size + 2.0))
            sigma = float(rng.uniform(0.3, 8.0))
            got = compute_descriptor(series, position, sigma, config)
            want = _loop_descriptor(series, position, sigma, config)
            assert np.array_equal(got, want)


class TestWindowRadius:
    def test_radius_grows_with_sigma(self):
        config = DescriptorConfig(num_bins=16)
        assert descriptor_window_radius(4.0, config) > descriptor_window_radius(1.0, config)

    def test_radius_grows_with_descriptor_length(self):
        small = DescriptorConfig(num_bins=8)
        large = DescriptorConfig(num_bins=64)
        assert descriptor_window_radius(2.0, large) > descriptor_window_radius(2.0, small)

    def test_radius_at_least_number_of_cells(self):
        config = DescriptorConfig(num_bins=32)
        assert descriptor_window_radius(0.5, config) >= config.num_cells


class TestDescriptorDistance:
    def test_zero_for_identical_descriptors(self):
        vec = np.array([0.1, 0.2, 0.3])
        assert descriptor_distance(vec, vec) == pytest.approx(0.0)

    def test_euclidean_for_simple_vectors(self):
        assert descriptor_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_mismatched_lengths_compare_common_prefix(self):
        a = np.array([1.0, 1.0, 9.0])
        b = np.array([1.0, 1.0])
        assert descriptor_distance(a, b) == pytest.approx(0.0)
