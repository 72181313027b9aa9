"""Tests for dominant salient-feature matching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MatchingConfig, SDTWConfig, DescriptorConfig
from repro.core.features import SalientFeature, extract_salient_features
from repro.core.matching import MatchedPair, match_salient_features


def make_feature(position, sigma=2.0, amplitude=1.0, descriptor=None,
                 mean_amplitude=None):
    descriptor = np.asarray(
        descriptor if descriptor is not None else [0.5, 0.5, 0.5, 0.5], dtype=float
    )
    return SalientFeature(
        position=float(position),
        sigma=float(sigma),
        scope_start=float(position) - 3 * sigma,
        scope_end=float(position) + 3 * sigma,
        octave=0,
        level=0,
        amplitude=float(amplitude),
        mean_amplitude=float(mean_amplitude if mean_amplitude is not None else amplitude),
        dog_value=0.1,
        scale_class="fine",
        descriptor=descriptor,
    )


class TestMatchedPair:
    def test_similarity_decreases_with_distance(self):
        close = MatchedPair(make_feature(0), make_feature(1), 0.1)
        far = MatchedPair(make_feature(0), make_feature(1), 2.0)
        assert close.descriptor_similarity > far.descriptor_similarity

    def test_center_offset(self):
        pair = MatchedPair(make_feature(10), make_feature(14), 0.0)
        assert pair.center_offset == pytest.approx(4.0)


class TestMatching:
    def test_empty_inputs_give_no_matches(self):
        assert match_salient_features([], [make_feature(0)]) == []
        assert match_salient_features([make_feature(0)], []) == []

    def test_identical_feature_sets_match_one_to_one(self):
        descriptors = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        fx = [make_feature(10 * i, descriptor=d) for i, d in enumerate(descriptors)]
        fy = [make_feature(10 * i + 2, descriptor=d) for i, d in enumerate(descriptors)]
        matches = match_salient_features(fx, fy)
        assert len(matches) == 3
        for pair in matches:
            assert pair.descriptor_distance == pytest.approx(0.0)

    def test_amplitude_gate_blocks_dissimilar_amplitudes(self):
        fx = [make_feature(10, amplitude=0.0)]
        fy = [make_feature(12, amplitude=10.0)]
        config = MatchingConfig(max_amplitude_difference=1.0)
        assert match_salient_features(fx, fy, config) == []

    def test_scale_gate_blocks_dissimilar_scales(self):
        fx = [make_feature(10, sigma=1.0)]
        fy = [make_feature(12, sigma=16.0)]
        config = MatchingConfig(max_scale_ratio=4.0)
        assert match_salient_features(fx, fy, config) == []

    def test_scale_gate_allows_similar_scales(self):
        fx = [make_feature(10, sigma=2.0)]
        fy = [make_feature(12, sigma=3.0)]
        config = MatchingConfig(max_scale_ratio=4.0, require_distinctive=False)
        assert len(match_salient_features(fx, fy, config)) == 1

    def test_distinctiveness_rejects_ambiguous_matches(self):
        # Two nearly identical candidates: the ratio test must reject.
        fx = [make_feature(10, descriptor=[1.0, 0.0, 0.0, 0.0])]
        fy = [
            make_feature(12, descriptor=[0.95, 0.05, 0.0, 0.0]),
            make_feature(40, descriptor=[0.94, 0.06, 0.0, 0.0]),
        ]
        strict = MatchingConfig(distinctiveness_ratio=1.5)
        assert match_salient_features(fx, fy, strict) == []

    def test_distinctiveness_can_be_disabled(self):
        fx = [make_feature(10, descriptor=[1.0, 0.0, 0.0, 0.0])]
        fy = [
            make_feature(12, descriptor=[0.95, 0.05, 0.0, 0.0]),
            make_feature(40, descriptor=[0.94, 0.06, 0.0, 0.0]),
        ]
        relaxed = MatchingConfig(distinctiveness_ratio=1.5, require_distinctive=False)
        assert len(match_salient_features(fx, fy, relaxed)) == 1

    def test_best_candidate_selected_by_descriptor_distance(self):
        fx = [make_feature(10, descriptor=[1.0, 0.0, 0.0, 0.0])]
        fy = [
            make_feature(5, descriptor=[0.0, 1.0, 0.0, 0.0]),
            make_feature(80, descriptor=[1.0, 0.0, 0.0, 0.0]),
        ]
        config = MatchingConfig(require_distinctive=False)
        matches = match_salient_features(fx, fy, config)
        assert len(matches) == 1
        assert matches[0].feature_y.position == pytest.approx(80.0)

    def test_matches_sorted_by_first_series_position(self):
        descriptors = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]]
        fx = [make_feature(pos, descriptor=d)
              for pos, d in zip((50, 10, 30), descriptors)]
        fy = [make_feature(pos + 1, descriptor=d)
              for pos, d in zip((50, 10, 30), descriptors)]
        matches = match_salient_features(fx, fy)
        positions = [pair.feature_x.position for pair in matches]
        assert positions == sorted(positions)

    def test_real_series_pair_produces_matches(self, bumpy_pair):
        x, y = bumpy_pair
        config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
        fx = extract_salient_features(x, config)
        fy = extract_salient_features(y, config)
        matches = match_salient_features(fx, fy, config.matching)
        assert len(matches) >= 2

    def test_mixed_descriptor_lengths_compared_on_common_prefix(self):
        fx = [make_feature(10, descriptor=[1.0, 0.0, 0.0, 0.0, 0.7, 0.7])]
        fy = [make_feature(12, descriptor=[1.0, 0.0, 0.0, 0.0])]
        config = MatchingConfig(require_distinctive=False)
        matches = match_salient_features(fx, fy, config)
        assert len(matches) == 1
        assert matches[0].descriptor_distance == pytest.approx(0.0)


def _per_row_matching(features_x, features_y, config):
    """The original per-row matching loop, kept as the oracle."""
    matches = []
    if not features_x or not features_y:
        return matches
    min_len = min(
        min(f.descriptor.size for f in features_x),
        min(f.descriptor.size for f in features_y),
    )
    desc_x = np.stack([f.descriptor[:min_len] for f in features_x])
    desc_y = np.stack([f.descriptor[:min_len] for f in features_y])
    sq = (
        np.sum(desc_x * desc_x, axis=1)[:, None]
        + np.sum(desc_y * desc_y, axis=1)[None, :]
        - 2.0 * desc_x @ desc_y.T
    )
    distances = np.sqrt(np.maximum(sq, 0.0))
    amp_x = np.asarray([f.amplitude for f in features_x])
    amp_y = np.asarray([f.amplitude for f in features_y])
    sigma_x = np.asarray([f.sigma for f in features_x])
    sigma_y = np.asarray([f.sigma for f in features_y])
    amplitude_ok = (
        np.abs(amp_x[:, None] - amp_y[None, :]) <= config.max_amplitude_difference
    )
    ratio = np.maximum(sigma_x[:, None], sigma_y[None, :]) / np.maximum(
        np.minimum(sigma_x[:, None], sigma_y[None, :]), 1e-12
    )
    gated = np.where(amplitude_ok & (ratio <= config.max_scale_ratio),
                     distances, np.inf)
    for i, feature in enumerate(features_x):
        row = gated[i]
        best_j = int(np.argmin(row))
        best_distance = float(row[best_j])
        if not np.isfinite(best_distance):
            continue
        if config.require_distinctive and row.size > 1:
            second_distance = float(np.partition(row, 1)[1])
            if (
                np.isfinite(second_distance)
                and best_distance * config.distinctiveness_ratio > second_distance
            ):
                continue
        matches.append(MatchedPair(feature, features_y[best_j], best_distance))
    matches.sort(key=lambda pair: pair.feature_x.position)
    return matches


def _as_tuples(matches):
    return [
        (id(m.feature_x), id(m.feature_y), m.descriptor_distance)
        for m in matches
    ]


class TestVectorisedMatchingOracle:
    """The vectorised matcher returns exactly the per-row loop's pairs."""

    @staticmethod
    def _random_features(rng, count, positions, palette):
        # Few distinct descriptors and amplitudes so ties and fully gated
        # (all-inf) rows are common.
        return [
            make_feature(
                position=float(rng.choice(positions)),
                sigma=float(rng.choice([1.0, 2.0, 9.0])),
                amplitude=float(rng.choice([0.0, 0.5, 3.0])),
                descriptor=palette[int(rng.integers(len(palette)))],
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        palette = [rng.integers(0, 3, size=4).astype(float) for _ in range(3)]
        positions = np.arange(6)
        fx = self._random_features(rng, int(rng.integers(1, 9)), positions, palette)
        fy = self._random_features(rng, int(rng.integers(1, 9)), positions, palette)
        config = MatchingConfig(
            max_amplitude_difference=float(rng.choice([0.2, 1.0, 5.0])),
            max_scale_ratio=float(rng.choice([1.5, 4.0])),
            distinctiveness_ratio=float(rng.choice([1.01, 1.2, 2.0])),
            require_distinctive=bool(rng.integers(2)),
        )
        got = match_salient_features(fx, fy, config)
        want = _per_row_matching(fx, fy, config)
        assert _as_tuples(got) == _as_tuples(want)

    def test_single_column_and_all_inf_rows(self):
        fx = [make_feature(0, amplitude=0.0), make_feature(5, amplitude=9.0)]
        fy = [make_feature(1, amplitude=0.1)]
        config = MatchingConfig()
        got = match_salient_features(fx, fy, config)
        assert _as_tuples(got) == _as_tuples(_per_row_matching(fx, fy, config))
        assert len(got) == 1 and got[0].feature_x is fx[0]

    def test_ties_pick_the_first_column(self):
        fx = [make_feature(0)]
        fy = [make_feature(3), make_feature(4)]
        config = MatchingConfig(require_distinctive=False)
        got = match_salient_features(fx, fy, config)
        assert _as_tuples(got) == _as_tuples(_per_row_matching(fx, fy, config))
        assert got[0].feature_y is fy[0]

    def test_real_features_match_per_row_loop(self):
        rng = np.random.default_rng(3)
        config = SDTWConfig()
        for _ in range(5):
            x = np.cumsum(rng.normal(size=120))
            y = np.cumsum(rng.normal(size=100))
            fx = extract_salient_features(x, config)
            fy = extract_salient_features(y, config)
            got = match_salient_features(fx, fy, config.matching)
            want = _per_row_matching(fx, fy, config.matching)
            assert _as_tuples(got) == _as_tuples(want)
