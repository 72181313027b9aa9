"""Seeded workload inputs: stored collections, query streams, op mixes.

Everything the program receives is generated here from the ``--seed``
argument and the workload's recorded sizes, so the same seed gives the
same inputs.  Stored series, queries, warm-up queries and added series
each come from their own derived seed, so every query is distinct and no
cache sees a byte-identical repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.datasets.synthetic import make_fiftywords_like, make_gun_like
from repro.datasets.transforms import add_noise, local_time_warp
from repro.utils.preprocessing import resample_linear
from repro.utils.rng import derive_seed, rng_from_seed

BLOCK = 50
"""Series generated per query block (streams are extended block by block)."""


def _gun_block(seed: int, length: int) -> List[np.ndarray]:
    """A shuffled block of gun-like series (both classes interleaved)."""
    dataset = make_gun_like(BLOCK, length, seed=seed)
    order = rng_from_seed(derive_seed(seed, "order")).permutation(BLOCK)
    return [np.asarray(dataset[int(i)].values, dtype=np.float64) for i in order]


def _mixed_length(values: np.ndarray, nominal: int, spread: float,
                  rng: np.random.Generator) -> np.ndarray:
    target = int(round(nominal * rng.uniform(1.0 - spread, 1.0 + spread)))
    return resample_linear(values, max(16, target))


class SeriesStream:
    """An unbounded, deterministic stream of series, made block by block.

    ``stream[i]`` is the same array for the same seed, whatever order
    the items are asked for in.
    """

    def __init__(self, make_block, seed: int) -> None:
        self._make_block = make_block
        self._seed = seed
        self._blocks: Dict[int, List[np.ndarray]] = {}

    def __getitem__(self, index: int) -> np.ndarray:
        block, offset = divmod(int(index), BLOCK)
        if block not in self._blocks:
            self._blocks[block] = self._make_block(derive_seed(self._seed, block))
        return self._blocks[block][offset]


@dataclass
class KnnInputs:
    """Inputs of a closed-loop k-NN workload."""

    stored: List[np.ndarray]
    queries: SeriesStream
    warmup: np.ndarray


def knn_inputs(name: str, spec: dict, seed: int) -> KnnInputs:
    """The stored collection and query stream of ``knn-fcfw`` / ``knn-acaw``."""
    length = int(spec["length"])
    size = int(spec["num_series"])
    stored_seed = derive_seed(seed, name, "stored")
    query_seed = derive_seed(seed, name, "queries")
    warmup_seed = derive_seed(seed, name, "warmup")
    if spec["generator"] == "gun-like":
        stored = [
            np.asarray(ts.values, dtype=np.float64)
            for ts in make_gun_like(size, length, seed=stored_seed)
        ]
        queries = SeriesStream(lambda s: _gun_block(s, length), query_seed)
        warmup = _gun_block(warmup_seed, length)[0]
        return KnnInputs(stored=stored, queries=queries, warmup=warmup)
    # 50words-like, resampled to mixed lengths; queries are deformed
    # copies of stored sources (the regime of DTW retrieval: every query
    # has a near neighbour, but none is byte-identical to a stored one).
    spread = float(spec["length_spread"])
    sources = [
        np.asarray(ts.values, dtype=np.float64)
        for ts in make_fiftywords_like(size, length, seed=stored_seed)
    ]
    length_rng = rng_from_seed(derive_seed(stored_seed, "lengths"))
    stored = [_mixed_length(v, length, spread, length_rng) for v in sources]

    def deformed_block(block_seed: int) -> List[np.ndarray]:
        rng = rng_from_seed(block_seed)
        block = []
        for _ in range(BLOCK):
            source = sources[int(rng.integers(len(sources)))]
            warped = local_time_warp(source, rng, num_knots=6, strength=0.15)
            noisy = add_noise(warped, rng, noise_std=0.015)
            block.append(_mixed_length(noisy, length, spread, rng))
        return block

    queries = SeriesStream(deformed_block, query_seed)
    warmup = deformed_block(warmup_seed)[0]
    return KnnInputs(stored=stored, queries=queries, warmup=warmup)


class OpMix:
    """The seeded op sequence of ``serve-churn``: 80% queries, 20% writes.

    Every block of ten ops holds exactly two writes at seeded positions,
    an add of a fresh series and then a remove of the oldest stored one,
    so the mix is exact over any run length and the collection size
    stays stationary.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._blocks: Dict[int, List[str]] = {}

    def __getitem__(self, position: int) -> str:
        block, offset = divmod(int(position), 10)
        if block not in self._blocks:
            rng = rng_from_seed(derive_seed(self._seed, block))
            first, second = sorted(int(i) for i in rng.choice(10, 2, replace=False))
            kinds = ["query"] * 10
            kinds[first], kinds[second] = "add", "remove"
            self._blocks[block] = kinds
        return self._blocks[block][offset]


@dataclass
class ChurnInputs:
    """Inputs of the ``serve-churn`` workload."""

    stored: List[np.ndarray]
    identifiers: List[str]
    queries: SeriesStream
    added: SeriesStream
    probes: SeriesStream
    warmup: np.ndarray
    ops: OpMix

    def added_identifier(self, index: int) -> str:
        return f"add-{index:05d}"


def churn_inputs(spec: dict, seed: int) -> ChurnInputs:
    length = int(spec["length"])
    size = int(spec["num_series"])
    name = "serve-churn"
    stored = [
        np.asarray(ts.values, dtype=np.float64)
        for ts in make_gun_like(size, length, seed=derive_seed(seed, name, "stored"))
    ]

    def stream(label: str) -> SeriesStream:
        return SeriesStream(
            lambda s: _gun_block(s, length), derive_seed(seed, name, label)
        )

    return ChurnInputs(
        stored=stored,
        identifiers=[f"s-{i:05d}" for i in range(size)],
        queries=stream("queries"),
        added=stream("adds"),
        probes=stream("probes"),
        warmup=_gun_block(derive_seed(seed, name, "warmup"), length)[0],
        ops=OpMix(derive_seed(seed, name, "ops")),
    )
