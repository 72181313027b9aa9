"""Tests for the SDTW driver: the public distance API and its guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.core.sdtw import SDTW, sdtw_distance
from repro.dtw.full import dtw_distance
from repro.dtw.path import is_valid_warp_path
from repro.exceptions import ValidationError

CONSTRAINTS = ["fc,fw", "fc,aw", "ac,fw", "ac,aw", "ac2,aw"]


class TestDistanceBasics:
    def test_full_constraint_matches_exact_dtw(self, engine, sine_pair):
        x, y = sine_pair
        result = engine.distance(x, y, constraint="full")
        assert result.distance == pytest.approx(dtw_distance(x, y))
        assert result.constraint == "full"
        assert result.cells_filled == x.size * y.size

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_constrained_distance_upper_bounds_full_dtw(self, engine, bumpy_pair,
                                                        constraint):
        x, y = bumpy_pair
        exact = dtw_distance(x, y)
        result = engine.distance(x, y, constraint=constraint)
        assert result.distance >= exact - 1e-9

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_constrained_fills_fewer_cells_than_full(self, engine, bumpy_pair,
                                                     constraint):
        x, y = bumpy_pair
        result = engine.distance(x, y, constraint=constraint)
        assert result.cells_filled <= result.total_cells
        assert result.cells_filled > 0

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_identical_series_distance_zero(self, engine, constraint):
        series = np.sin(np.linspace(0, 7, 130)) + 0.2 * np.cos(np.linspace(0, 29, 130))
        result = engine.distance(series, series, constraint=constraint)
        assert result.distance == pytest.approx(0.0, abs=1e-9)

    def test_unknown_constraint_rejected(self, engine, sine_pair):
        x, y = sine_pair
        with pytest.raises(ValidationError):
            engine.distance(x, y, constraint="bogus")

    def test_result_reports_constraint_label(self, engine, sine_pair):
        x, y = sine_pair
        assert engine.distance(x, y, "ac2,aw").constraint == "ac2,aw"

    def test_cell_savings_between_zero_and_one(self, engine, bumpy_pair):
        x, y = bumpy_pair
        result = engine.distance(x, y, "fc,fw")
        assert 0.0 <= result.cell_savings < 1.0

    def test_return_path_produces_valid_path(self, engine, bumpy_pair):
        x, y = bumpy_pair
        result = engine.distance(x, y, "ac,aw", return_path=True)
        assert result.path is not None
        assert is_valid_warp_path(result.path.pairs, x.size, y.size)

    def test_path_stays_inside_returned_band(self, engine, bumpy_pair):
        x, y = bumpy_pair
        result = engine.distance(x, y, "ac,fw", return_path=True)
        band = result.band
        for i, j in result.path:
            assert band[i, 0] <= j <= band[i, 1]

    def test_adaptive_constraint_is_tighter_than_loose_fixed(self, engine, bumpy_pair):
        """The adaptive-core band achieves a closer approximation of the true
        DTW distance than a fixed band of comparable size (the key claim)."""
        x, y = bumpy_pair
        exact = dtw_distance(x, y)
        fixed = engine.distance(x, y, "fc,fw").distance
        adaptive = engine.distance(x, y, "ac,aw").distance
        assert abs(adaptive - exact) <= abs(fixed - exact) + 1e-9

    def test_timing_fields_populated(self, engine, bumpy_pair):
        x, y = bumpy_pair
        result = engine.distance(x, y, "ac,aw")
        assert result.dp_seconds > 0.0
        assert result.matching_seconds >= 0.0
        assert result.compute_seconds >= result.dp_seconds

    def test_fixed_core_fixed_width_needs_no_alignment(self, engine, sine_pair):
        x, y = sine_pair
        result = engine.distance(x, y, "fc,fw")
        assert result.alignment is None
        assert result.matching_seconds == 0.0


class TestFeatureCache:
    def test_second_extraction_hits_cache(self, engine, sine_pair):
        x, _ = sine_pair
        _, first_time = engine.extract_features(x)
        features, second_time = engine.extract_features(x)
        assert second_time == 0.0
        assert len(features) >= 0

    def test_clear_cache_forces_recomputation(self, engine, sine_pair):
        x, _ = sine_pair
        engine.extract_features(x)
        engine.clear_cache()
        _, elapsed = engine.extract_features(x)
        assert elapsed > 0.0

    def test_distance_extract_seconds_zero_on_cache_hit(self, engine, bumpy_pair):
        x, y = bumpy_pair
        engine.distance(x, y, "ac,aw")
        second = engine.distance(x, y, "ac,aw")
        assert second.extract_seconds == 0.0

    def test_cache_key_is_the_exact_bytes(self, engine, sine_pair):
        x, _ = sine_pair
        engine.extract_features(x)
        # A one-ulp change is a different series: it must miss the cache.
        nudged = x.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        _, elapsed = engine.extract_features(nudged)
        assert elapsed > 0.0
        assert engine.cache_size == 2

    def test_query_scope_keeps_query_features_out_of_shared_cache(
        self, engine, bumpy_pair
    ):
        x, y = bumpy_pair
        engine.extract_features(y)
        scope = engine.query_scope()
        first = scope.distance(x, y, "ac,aw")
        second = scope.distance(x, y, "ac,aw")
        assert first.extract_seconds > 0.0
        assert second.extract_seconds == 0.0  # once per query, not per pair
        assert engine.cache_size == 1
        assert second.distance == engine.distance(x, y, "ac,aw").distance

    def test_cache_features_seeds_without_extracting(self, engine, sine_pair):
        x, _ = sine_pair
        features, _ = SDTW(engine.config).extract_features(x)
        engine.cache_features(x, features)
        cached, elapsed = engine.extract_features(x)
        assert elapsed == 0.0
        assert len(cached) == len(features)
        assert all(a is b for a, b in zip(cached, features))


class TestAlignment:
    def test_alignment_exposes_pipeline_artifacts(self, engine, bumpy_pair):
        x, y = bumpy_pair
        alignment = engine.align(x, y)
        assert len(alignment.features_x) > 0
        assert len(alignment.features_y) > 0
        assert alignment.partition.n == x.size
        assert alignment.partition.m == y.size
        assert alignment.matching_seconds >= 0.0

    def test_consistent_pairs_subset_of_matches(self, engine, bumpy_pair):
        x, y = bumpy_pair
        alignment = engine.align(x, y)
        match_ids = {id(p.feature_x) for p in alignment.matches}
        for pair in alignment.consistent.pairs:
            assert id(pair.feature_x) in match_ids


class TestDistanceMatrixAndSymmetry:
    def test_distance_matrix_shape_and_diagonal(self, engine, tiny_series_collection):
        matrix = engine.distance_matrix(tiny_series_collection[:4], "fc,fw")
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(np.diag(matrix), 0.0)
        np.testing.assert_allclose(matrix, matrix.T)

    def test_symmetric_band_mode_yields_symmetric_band_distance(self, bumpy_pair):
        x, y = bumpy_pair
        config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16),
                            symmetric_band=True)
        engine = SDTW(config)
        forward = engine.distance(x, y, "ac,aw").distance
        exact = dtw_distance(x, y)
        assert forward >= exact - 1e-9

    def test_symmetric_band_never_worse_than_asymmetric(self, bumpy_pair):
        x, y = bumpy_pair
        base_cfg = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
        sym_cfg = SDTWConfig(descriptor=DescriptorConfig(num_bins=16),
                             symmetric_band=True)
        asym = SDTW(base_cfg).distance(x, y, "ac,aw").distance
        sym = SDTW(sym_cfg).distance(x, y, "ac,aw").distance
        # The symmetric band is a superset, so its distance can only be <=.
        assert sym <= asym + 1e-9


class TestFunctionalAPI:
    def test_sdtw_distance_matches_engine(self, bumpy_pair, fast_config):
        x, y = bumpy_pair
        engine = SDTW(fast_config)
        assert sdtw_distance(x, y, "ac,aw", fast_config) == pytest.approx(
            engine.distance(x, y, "ac,aw").distance
        )

    def test_sdtw_distance_default_config(self, sine_pair):
        x, y = sine_pair
        value = sdtw_distance(x, y)
        assert value >= 0.0


class TestDegenerateInputs:
    def test_very_short_series(self, engine):
        result = engine.distance([1.0, 2.0, 3.0], [1.0, 3.0], "ac,aw")
        assert np.isfinite(result.distance)

    def test_constant_series_fall_back_gracefully(self, engine):
        x = np.full(80, 1.0)
        y = np.full(90, 2.0)
        result = engine.distance(x, y, "ac,aw")
        # No features exist; the band falls back and the distance is the
        # accumulated constant difference along the (constrained) path.
        assert np.isfinite(result.distance)
        assert result.distance >= 0.0

    def test_nan_input_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.distance([1.0, np.nan], [1.0, 2.0], "ac,aw")

    def test_empty_input_rejected(self, engine):
        with pytest.raises(Exception):
            engine.distance([], [1.0, 2.0], "ac,aw")

    def test_single_sample_series(self, engine):
        result = engine.distance([5.0], [1.0, 2.0, 3.0], "fc,fw")
        assert result.distance == pytest.approx(4 + 3 + 2)
