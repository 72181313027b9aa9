"""Tests for the locally relevant constraint bands (Section 3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bands import (
    ConstraintSpec,
    build_constraint_band,
    build_symmetric_band,
    parse_constraint_spec,
)
from repro.core.config import SDTWConfig
from repro.core.intervals import partition_from_boundaries
from repro.dtw.banded import band_cell_count, band_to_mask, validate_band
from repro.dtw.constraints import sakoe_chiba_band_fraction
from repro.exceptions import ConfigurationError, ValidationError


@pytest.fixture()
def simple_partition():
    """A partition where the second half of Y is stretched relative to X."""
    return partition_from_boundaries([20.0, 50.0], [10.0, 30.0], n=100, m=100)


class TestParseConstraintSpec:
    def test_known_labels(self):
        assert parse_constraint_spec("fc,fw").label == "fc,fw"
        assert parse_constraint_spec("fc,aw").label == "fc,aw"
        assert parse_constraint_spec("ac,fw").label == "ac,fw"
        assert parse_constraint_spec("ac,aw").label == "ac,aw"
        assert parse_constraint_spec("ac2,aw").label == "ac2,aw"

    def test_aliases_and_case_insensitivity(self):
        assert parse_constraint_spec("Sakoe-Chiba").core == "fixed"
        assert parse_constraint_spec("AC,AW").core == "adaptive"
        assert parse_constraint_spec(" ac , aw ").width == "adaptive"

    def test_spec_objects_pass_through(self):
        spec = ConstraintSpec("adaptive", "fixed")
        assert parse_constraint_spec(spec) is spec

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            parse_constraint_spec("nonsense")

    def test_invalid_spec_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstraintSpec("diagonal", "fixed")
        with pytest.raises(ConfigurationError):
            ConstraintSpec("fixed", "wide")
        with pytest.raises(ConfigurationError):
            ConstraintSpec("fixed", "fixed", neighbor_radius=-1)

    def test_ac2_label_reflects_neighbor_radius(self):
        spec = ConstraintSpec("adaptive", "adaptive", neighbor_radius=1)
        assert spec.label == "ac2,aw"
        spec3 = ConstraintSpec("adaptive", "adaptive", neighbor_radius=2)
        assert spec3.label == "ac3,aw"


class TestFixedCoreFixedWidth:
    def test_matches_sakoe_chiba_band(self):
        config = SDTWConfig(width_fraction=0.10)
        band = build_constraint_band(80, 90, "fc,fw", None, config)
        expected = sakoe_chiba_band_fraction(80, 90, 0.10)
        np.testing.assert_array_equal(band, expected)

    def test_width_fraction_controls_area(self):
        narrow = build_constraint_band(100, 100, "fc,fw", None,
                                       SDTWConfig(width_fraction=0.06))
        wide = build_constraint_band(100, 100, "fc,fw", None,
                                     SDTWConfig(width_fraction=0.20))
        assert band_cell_count(narrow) < band_cell_count(wide)


class TestAdaptiveCore:
    def test_core_follows_partition_mapping(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        band = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        # In X interval [20, 50] mapping to Y interval [10, 30], the centre
        # of the band at x=35 should sit near y=20, well below the diagonal.
        centre = (band[35, 0] + band[35, 1]) / 2.0
        assert centre < 30

    def test_without_partition_falls_back_to_diagonal(self):
        config = SDTWConfig(width_fraction=0.06)
        adaptive = build_constraint_band(60, 60, "ac,fw", None, config)
        fixed = build_constraint_band(60, 60, "fc,fw", None, config)
        np.testing.assert_array_equal(adaptive, fixed)

    def test_band_always_contains_corners(self, simple_partition):
        for spec in ("ac,fw", "ac,aw", "ac2,aw", "fc,aw"):
            band = build_constraint_band(100, 100, spec, simple_partition)
            assert band[0, 0] == 0
            assert band[-1, 1] == 99

    def test_band_is_connected(self, simple_partition):
        for spec in ("ac,fw", "ac,aw", "ac2,aw"):
            band = build_constraint_band(100, 100, spec, simple_partition)
            validate_band(band, 100, 100, repair=False)

    def test_empty_y_interval_maps_to_single_point(self):
        # Y boundaries coincide: the middle Y interval is a single sample.
        partition = partition_from_boundaries([30.0, 60.0], [45.0, 45.0],
                                               n=100, m=100)
        band = build_constraint_band(100, 100, "ac,fw", partition,
                                     SDTWConfig(width_fraction=0.06))
        validate_band(band, 100, 100, repair=False)
        # Points in X's middle interval should centre near y=45.
        centre = (band[45, 0] + band[45, 1]) / 2.0
        assert abs(centre - 45) < 10

    def test_empty_x_interval_band_still_usable(self):
        partition = partition_from_boundaries([40.0, 40.0], [30.0, 60.0],
                                               n=100, m=100)
        band = build_constraint_band(100, 100, "ac,fw", partition,
                                     SDTWConfig(width_fraction=0.06))
        validate_band(band, 100, 100, repair=False)


class TestAdaptiveWidth:
    def test_adaptive_width_respects_lower_bound(self, simple_partition):
        config = SDTWConfig(adaptive_width_lower_bound=0.30)
        band = build_constraint_band(100, 100, "fc,aw", simple_partition, config)
        widths = band[:, 1] - band[:, 0] + 1
        # Interior rows (unclipped by the grid edge) must satisfy the bound.
        assert np.median(widths) >= 0.30 * 100 * 0.9

    def test_adaptive_width_respects_upper_bound(self, simple_partition):
        config = SDTWConfig(adaptive_width_lower_bound=0.05,
                            adaptive_width_upper_bound=0.10)
        band = build_constraint_band(100, 100, "ac,aw", simple_partition, config)
        widths = band[:, 1] - band[:, 0] + 1
        assert np.max(widths) <= 0.10 * 100 + 3

    def test_neighbor_averaging_smooths_widths(self):
        # One tiny interval between two huge ones: averaging should make the
        # width in the tiny interval larger than the local width.
        partition = partition_from_boundaries([48.0, 52.0], [48.0, 52.0],
                                               n=100, m=100)
        config = SDTWConfig(adaptive_width_lower_bound=0.0)
        local = build_constraint_band(100, 100, "ac,aw", partition, config)
        averaged = build_constraint_band(100, 100, "ac2,aw", partition, config)
        local_width = local[50, 1] - local[50, 0] + 1
        averaged_width = averaged[50, 1] - averaged[50, 0] + 1
        assert averaged_width >= local_width

    def test_no_partition_adaptive_width_uses_lower_bound(self):
        config = SDTWConfig(width_fraction=0.06, adaptive_width_lower_bound=0.20)
        band = build_constraint_band(60, 60, "fc,aw", None, config)
        widths = band[:, 1] - band[:, 0] + 1
        assert np.median(widths) >= 0.18 * 60


class TestSymmetricBand:
    def test_symmetric_band_contains_forward_band(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        forward = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        reverse_partition = partition_from_boundaries(
            [10.0, 30.0], [20.0, 50.0], n=100, m=100
        )
        backward = build_constraint_band(100, 100, "ac,fw", reverse_partition, config)
        combined = build_symmetric_band(forward, backward, 100, 100)
        mask_forward = band_to_mask(forward, 100)
        mask_combined = band_to_mask(combined, 100)
        assert np.all(mask_combined[mask_forward])

    def test_symmetric_band_is_valid(self, simple_partition):
        config = SDTWConfig(width_fraction=0.06)
        forward = build_constraint_band(100, 100, "ac,fw", simple_partition, config)
        backward = build_constraint_band(100, 100, "fc,fw", None, config)
        combined = build_symmetric_band(forward, backward, 100, 100)
        validate_band(combined, 100, 100, repair=False)


def _per_row_band(n, m, spec, partition, config):
    """The original per-point band construction, kept as the oracle."""
    parsed = parse_constraint_spec(spec)
    candidates = np.zeros(n, dtype=float)
    for idx in range(partition.num_intervals):
        ix, iy = partition.corresponding(idx)
        x_len = ix.end - ix.start
        y_len = iy.end - iy.start
        for i in range(ix.start, ix.end + 1):
            if x_len == 0 or y_len == 0:
                candidates[i] = iy.start
            else:
                candidates[i] = iy.start + (i - ix.start) / x_len * y_len
    candidates[0] = 0.0
    candidates[-1] = m - 1
    candidates = np.clip(candidates, 0, m - 1)
    lower_bound = max(1.0, config.adaptive_width_lower_bound * m)
    upper_bound = (
        config.adaptive_width_upper_bound * m
        if config.adaptive_width_upper_bound is not None
        else float(m)
    )
    widths_y = np.asarray([iv.length for iv in partition.intervals_y], dtype=float)
    radius = parsed.neighbor_radius
    per_point_width = np.empty(n, dtype=float)
    for i in range(n):
        index = partition.interval_index_for_y(int(round(candidates[i])))
        if radius > 0:
            lo = max(0, index - radius)
            hi = min(widths_y.size - 1, index + radius)
            width = float(widths_y[lo: hi + 1].mean())
        else:
            width = widths_y[index]
        per_point_width[i] = min(max(width, lower_bound), upper_bound)
    half = np.ceil(per_point_width / 2.0)
    lo = np.floor(candidates - half).astype(int)
    hi = np.ceil(candidates + half).astype(int)
    return validate_band(np.stack([lo, hi], axis=1), n, m, repair=True)


class TestVectorisedAdaptiveBandOracle:
    """Vectorised adaptive bands equal the per-row construction."""

    @pytest.mark.parametrize("spec", ["ac,aw", "ac2,aw"])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_boundaries(self, spec, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 90))
        m = int(rng.integers(20, 90))
        count = int(rng.integers(2, 7))
        # Integer and half-integer boundaries, often coinciding, so empty
        # intervals, shared endpoints and rounding ties all occur.
        bx = np.sort(rng.integers(0, 2 * n, size=count) / 2.0)
        by = np.sort(rng.integers(0, 2 * m, size=count) / 2.0)
        if rng.integers(2):
            by[1] = by[0]
        partition = partition_from_boundaries(bx.tolist(), by.tolist(), n=n, m=m)
        config = SDTWConfig(
            adaptive_width_lower_bound=float(rng.choice([0.0, 0.05, 0.2])),
            adaptive_width_upper_bound=rng.choice([None, 0.3]),
        )
        got = build_constraint_band(n, m, spec, partition, config)
        want = _per_row_band(n, m, spec, partition, config)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("spec", ["ac,aw", "ac2,aw"])
    def test_random_series(self, spec):
        from repro.core.sdtw import SDTW

        rng = np.random.default_rng(11)
        engine = SDTW()
        for _ in range(6):
            x = np.cumsum(rng.normal(size=int(rng.integers(90, 160))))
            y = np.cumsum(rng.normal(size=int(rng.integers(90, 160))))
            partition = engine.align(x, y).partition
            if partition.num_intervals <= 1:
                continue  # no matches: the band falls back to fc,fw
            got = build_constraint_band(x.size, y.size, spec, partition,
                                        engine.config)
            want = _per_row_band(x.size, y.size, spec, partition, engine.config)
            np.testing.assert_array_equal(got, want)
