"""The batched DP against its per-pair oracle.

Every engine backend now refines through one lock-step kernel, so
agreeing with each other no longer proves the engine right on its own.
These tests pin the kernel to the per-pair :func:`banded_dtw` on random
per-candidate bands, and the engine to an exhaustive ``SDTW.distance``
scan, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sdtw import SDTW
from repro.dtw.banded import banded_dtw, validate_band
from repro.dtw.constraints import sakoe_chiba_band_fraction
from repro.dtw.distances import get_pointwise_distance
from repro.engine import DistanceEngine, banded_dtw_batch

ABSOLUTE = get_pointwise_distance("absolute")


def _random_band(rng, n: int, m: int) -> np.ndarray:
    """A wandering band of varying width, repaired like ``banded_dtw`` does."""
    centre = np.linspace(0, m - 1, n) + np.cumsum(rng.normal(0, 0.02 * m, n))
    half = rng.integers(0, max(2, m // 5), n)
    band = np.stack([np.floor(centre - half), np.ceil(centre + half)], axis=1)
    return validate_band(band.astype(int), n, m, repair=True)


def _per_pair(x, y, band, threshold=None):
    return banded_dtw(x, y, band, return_path=False, abandon_threshold=threshold)


class TestKernelPerCandidateBands:
    @pytest.mark.parametrize("count", (1, 2, 7, 32))
    @pytest.mark.parametrize("threshold_kind", ("none", "median", "all"))
    def test_matches_per_pair(self, count, threshold_kind):
        rng = np.random.default_rng(1000 * count + len(threshold_kind))
        for _ in range(4):
            n = int(rng.integers(3, 60))
            x = np.cumsum(rng.normal(size=n))
            ys = [np.cumsum(rng.normal(size=int(rng.integers(3, 70))))
                  for _ in range(count)]
            bands = np.stack([_random_band(rng, n, y.size) for y in ys])
            exact = [_per_pair(x, y, b) for y, b in zip(ys, bands)]
            threshold = {
                "none": None,
                "median": float(np.median([r.distance for r in exact])),
                # Every row-0 cell costs |x0 - y0| > 0, so all abandon.
                "all": 0.0,
            }[threshold_kind]

            distances, cells, abandoned = banded_dtw_batch(
                x, ys, bands, ABSOLUTE, threshold
            )
            for c, (y, band) in enumerate(zip(ys, bands)):
                reference = _per_pair(x, y, band, threshold)
                assert bool(abandoned[c]) == reference.abandoned
                assert int(cells[c]) == reference.cells_filled
                if abandoned[c]:
                    assert exact[c].distance > threshold
                    assert distances[c] == np.inf
                else:
                    assert distances[c] == exact[c].distance
            if threshold_kind == "none":
                assert not abandoned.any()
                assert cells.tolist() == [r.cells_filled for r in exact]
            if threshold_kind == "all":
                assert abandoned.all()

    def test_equal_length_matrix_matches_shared_band(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=50))
        ys = np.cumsum(rng.normal(size=(9, 60)), axis=1)
        band = sakoe_chiba_band_fraction(50, 60, 0.1)
        stacked = np.broadcast_to(band, (9,) + band.shape)
        for threshold in (None, 4.0):
            shared = banded_dtw_batch(x, ys, band, ABSOLUTE, threshold)
            per_candidate = banded_dtw_batch(x, ys, stacked, ABSOLUTE, threshold)
            for got, want in zip(per_candidate, shared):
                assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def mixed_collection():
    rng = np.random.default_rng(77)
    return [
        (f"walk-{i}", np.cumsum(rng.normal(size=int(rng.integers(40, 80)))))
        for i in range(9)
    ]


def _oracle(sdtw: SDTW, query, series, constraint: str) -> float:
    if constraint == "full":
        # The banded DP over the full grid; without a threshold
        # SDTW.distance runs the textbook loop instead.
        return sdtw.distance(query, series, "full", abandon_threshold=np.inf).distance
    return sdtw.distance(query, series, constraint).distance


CONSTRAINTS = ("fc,aw", "ac,fw", "ac,aw", "ac2,aw", "full", "fc,fw")


class TestEngineAgainstPerPairScan:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_knn_and_matrix_equal_sdtw_scan(self, mixed_collection, constraint):
        sdtw = SDTW()
        values = [v for _, v in mixed_collection]
        queries = [0, 3, 6]
        want = {}
        for q in queries:
            scan = sorted(
                (_oracle(sdtw, values[q], y, constraint), j)
                for j, y in enumerate(values) if j != q
            )
            want[q] = [(j, d) for d, j in scan[:3]]

        for batch_size in (1, 4, 32):
            for early_abandon in (True, False):
                engine = DistanceEngine(
                    constraint, batch_size=batch_size, early_abandon=early_abandon
                )
                for identifier, series in mixed_collection:
                    engine.add(series, identifier=identifier)
                result = engine.knn(
                    [values[q] for q in queries], k=3,
                    exclude_identifiers=[mixed_collection[q][0] for q in queries],
                )
                for q, query_result in zip(queries, result.results):
                    got = [(hit.index, hit.distance) for hit in query_result.hits]
                    assert got == want[q], (batch_size, early_abandon)

        matrix = engine.distance_matrix([values[q] for q in queries]).distances
        for row, q in enumerate(queries):
            expected = [_oracle(sdtw, values[q], y, constraint) for y in values]
            assert matrix[row].tolist() == expected
