"""Salient-feature descriptors for 1-D time series.

Implements Step 2 of the paper's feature extraction (Section 3.1.2): around
each keypoint, gradient magnitudes of the series smoothed at the keypoint's
scale are sampled over a window whose extent is proportional to σ, weighted
by a Gaussian centred on the keypoint, and aggregated into ``2a`` temporal
cells of 2 bins each (increasing vs. decreasing gradients — the only two
"orientations" that exist in one dimension).  The resulting vector of
length ``2a × 2 = num_bins`` is L2-normalised, clipped, and renormalised to
obtain (partial) invariance to amplitude differences.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._validation import as_series, check_positive
from ..utils.preprocessing import gaussian_smooth
from .config import DescriptorConfig


def _gradient(series: np.ndarray) -> np.ndarray:
    """Centred first difference of a series (same length as the input)."""
    return np.gradient(series)


def descriptor_window_radius(sigma: float, config: DescriptorConfig) -> int:
    """Half-width (in samples) of the region a descriptor covers.

    The window spans ``num_cells * samples_per_cell`` samples on each side
    of the keypoint, scaled by σ so that coarse-scale keypoints describe a
    proportionally larger temporal context — the property Figure 6 of the
    paper illustrates.
    """
    sigma = check_positive(sigma, "sigma")
    per_side = config.num_cells * config.samples_per_cell / 2.0
    return max(config.num_cells, int(round(per_side * max(sigma, 1.0))))


def compute_descriptor(
    series: Union[Sequence[float], np.ndarray],
    position: float,
    sigma: float,
    config: DescriptorConfig = None,
    *,
    smoothed: np.ndarray = None,
) -> np.ndarray:
    """Compute the 2a×2 gradient descriptor of a keypoint.

    Parameters
    ----------
    series:
        The original time series the keypoint was detected on.
    position:
        Keypoint centre in original-series coordinates.
    sigma:
        Absolute temporal scale of the keypoint.
    config:
        Descriptor parameters (length, weighting); defaults to 64 bins.
    smoothed:
        Optional pre-smoothed version of the series at the keypoint's σ; if
        omitted the series is smoothed here.

    Returns
    -------
    numpy.ndarray
        Descriptor vector of length ``config.num_bins``.
    """
    if config is None:
        config = DescriptorConfig()
    values = as_series(series, "series")
    sigma = check_positive(sigma, "sigma")
    if smoothed is None:
        smoothed = gaussian_smooth(values, sigma)
    else:
        smoothed = np.asarray(smoothed, dtype=float)
    gradients = _gradient(smoothed)

    num_cells = config.num_cells
    radius = descriptor_window_radius(sigma, config)
    window_start = position - radius
    window_length = 2.0 * radius
    cell_width = window_length / num_cells

    # Gaussian weighting centred on the keypoint.
    weight_sigma = config.gaussian_weight_factor * radius
    descriptor = np.zeros(num_cells * 2)

    center_index = int(round(position))
    lo = max(0, center_index - radius)
    hi = min(values.size - 1, center_index + radius)
    samples = np.arange(lo, hi + 1)
    # float_power calls libm pow like a Python float's ``**``; numpy's
    # ``**`` squares by multiplication, which rounds differently for a
    # few offsets and would change descriptors in the last bit.
    squared = np.float_power(samples - position, 2)
    weights = np.exp(-squared / (2.0 * weight_sigma ** 2))
    cells = np.clip(
        ((samples - window_start) / cell_width).astype(int), 0, num_cells - 1
    )
    grads = gradients[lo: hi + 1]
    # Increasing gradients land in bin 2*cell, decreasing ones in
    # 2*cell + 1; ``add.at`` accumulates the samples in order.
    np.add.at(descriptor, 2 * cells + (grads < 0), weights * np.abs(grads))

    if config.normalize:
        descriptor = _normalize_descriptor(descriptor, config.clip_value)
    return descriptor


def _normalize_descriptor(descriptor: np.ndarray, clip_value: float) -> np.ndarray:
    """L2-normalise, clip, and renormalise (the SIFT illumination rule)."""
    norm = np.linalg.norm(descriptor)
    if norm == 0:
        return descriptor
    descriptor = descriptor / norm
    descriptor = np.minimum(descriptor, clip_value)
    norm = np.linalg.norm(descriptor)
    if norm == 0:
        return descriptor
    return descriptor / norm


def descriptor_matrix(features: Sequence, num_bins: int) -> np.ndarray:
    """Stack the descriptors of many salient features into one dense matrix.

    The batch export consumed by the indexing subsystem's codebook
    (:mod:`repro.indexing.codebook`): one row per feature, descriptors
    shorter than *num_bins* zero-padded and longer ones truncated, so
    features extracted under mixed configurations still produce a
    rectangular matrix.

    Parameters
    ----------
    features:
        Objects with a ``descriptor`` array attribute
        (:class:`repro.core.features.SalientFeature` instances).
    num_bins:
        Number of descriptor columns of the output.

    Returns
    -------
    numpy.ndarray
        ``(len(features), num_bins)`` float matrix (empty when no
        features are given).
    """
    num_bins = int(check_positive(num_bins, "num_bins"))
    matrix = np.zeros((len(features), num_bins))
    for row, feature in enumerate(features):
        descriptor = np.asarray(feature.descriptor, dtype=float)
        length = min(descriptor.size, num_bins)
        matrix[row, :length] = descriptor[:length]
    return matrix


def descriptor_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Euclidean distance between two descriptors (Section 3.2.1)."""
    a = np.asarray(first, dtype=float)
    b = np.asarray(second, dtype=float)
    length = min(a.size, b.size)
    return float(np.linalg.norm(a[:length] - b[:length]))
