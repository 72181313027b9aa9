"""Dominant salient-feature matching between two time series.

Implements Section 3.2.1 of the paper: features from the first series are
paired with features of the second series using Euclidean descriptor
distance, subject to

* an amplitude gate (difference below τ_a),
* a scale gate (σ ratio below τ_s), and
* a distinctiveness test: the best candidate is accepted only if no other
  candidate's descriptor distance is within a factor τ_d of it (Lowe's
  ratio test, with distances where smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import MatchingConfig
from .features import SalientFeature


@dataclass(frozen=True)
class MatchedPair:
    """A matched pair of salient features (one from each series).

    Attributes
    ----------
    feature_x:
        The feature from the first series.
    feature_y:
        The feature from the second series.
    descriptor_distance:
        Euclidean distance between the two descriptors (smaller = closer).
    """

    feature_x: SalientFeature
    feature_y: SalientFeature
    descriptor_distance: float

    @property
    def descriptor_similarity(self) -> float:
        """A similarity score in (0, 1]: ``1 / (1 + distance)``."""
        return 1.0 / (1.0 + self.descriptor_distance)

    @property
    def center_offset(self) -> float:
        """Temporal offset between the two feature centres."""
        return abs(self.feature_x.position - self.feature_y.position)


def match_salient_features(
    features_x: Sequence[SalientFeature],
    features_y: Sequence[SalientFeature],
    config: Optional[MatchingConfig] = None,
) -> List[MatchedPair]:
    """Identify the dominant matching pairs between two feature sets.

    For every feature of the first series the admissible candidates in the
    second series (those passing the amplitude and scale gates) are ranked
    by descriptor distance; the closest candidate is returned as a match if
    it is distinctive — no other admissible candidate may be within a
    factor ``distinctiveness_ratio`` (τ_d) of its distance.

    The whole computation is vectorised over the |S_X| × |S_Y| candidate
    grid, keeping the matching step a small fraction of the per-comparison
    cost (the property Figure 17 of the paper reports).

    Parameters
    ----------
    features_x, features_y:
        Salient features of the two series being compared.
    config:
        Matching thresholds; defaults to :class:`MatchingConfig`'s defaults.

    Returns
    -------
    list of MatchedPair
        Matches ordered by the position of the first series' feature.
    """
    if config is None:
        config = MatchingConfig()
    if not features_x or not features_y:
        return []

    # Descriptors may have different lengths if callers mix configurations;
    # compare over the common prefix (normal use keeps lengths equal).
    min_len = min(
        min(f.descriptor.size for f in features_x),
        min(f.descriptor.size for f in features_y),
    )
    desc_x = np.stack([f.descriptor[:min_len] for f in features_x])
    desc_y = np.stack([f.descriptor[:min_len] for f in features_y])
    # Pairwise Euclidean distances between descriptors.
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
    scale_ok = ratio <= config.max_scale_ratio
    admissible = amplitude_ok & scale_ok

    gated = np.where(admissible, distances, np.inf)
    rows = np.arange(gated.shape[0])
    best_j = np.argmin(gated, axis=1)
    best = gated[rows, best_j]
    accepted = np.isfinite(best)
    if config.require_distinctive and gated.shape[1] > 1:
        second = np.partition(gated, 1, axis=1)[:, 1]
        # Accept only if the best match is clearly better than the
        # runner-up: best * tau_d <= second.
        accepted &= ~(
            np.isfinite(second)
            & (best * config.distinctiveness_ratio > second)
        )
    matches = [
        MatchedPair(
            feature_x=features_x[i],
            feature_y=features_y[int(best_j[i])],
            descriptor_distance=float(best[i]),
        )
        for i in np.flatnonzero(accepted).tolist()
    ]
    matches.sort(key=lambda pair: pair.feature_x.position)
    return matches
