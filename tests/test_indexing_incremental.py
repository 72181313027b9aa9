"""Incremental index maintenance: delta shards, tombstones, compaction.

Covers the three contracts of the incremental layer:

* ``add_series`` is O(new features): it appends one delta shard, never
  touches existing shards, and the new series is immediately scoreable.
* ``remove_series`` tombstones a slot: the series disappears from every
  score and candidate list (at any budget) without a rebuild.
* ``compact()`` folds base + deltas - tombstones into a fresh base shard
  set that is **bit-identical** to ``InvertedIndex.from_bags`` over the
  surviving bags (a from-scratch rebuild under the same frozen
  codebook), including the PQ code CSRs.

Plus the persistence satellite: add -> save -> open -> query round
trips, tombstones surviving reopen, and the Workspace-level incremental
path (auto-compaction, removal, close/open cycles).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DescriptorConfig, SDTWConfig
from repro.datasets.synthetic import make_gun_like
from repro.exceptions import DatasetError, ValidationError
from repro.indexing import (
    CodebookConfig,
    IndexReader,
    IndexedSearcher,
    InvertedIndex,
    IndexWriter,
    PQConfig,
)
from repro.indexing.searcher import pq_entry_for
from repro.indexing.shards import OPTIONAL_SHARD_MEMBERS, SHARD_MEMBERS
from repro.service import IndexConfig, Workspace, WorkspaceConfig

CONFIG = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))

ALL_SHARD_MEMBERS = SHARD_MEMBERS + OPTIONAL_SHARD_MEMBERS


def _bag(codewords, counts):
    return (
        np.asarray(codewords, dtype=np.int64),
        np.asarray(counts, dtype=np.float64),
    )


def _manual_bags():
    return [
        _bag([0, 2, 5], [1.0, 2.0, 1.0]),
        _bag([1, 2], [1.5, 0.5]),
        _bag([3, 4, 5, 7], [1.0, 1.0, 1.0, 1.0]),
        _bag([0, 7], [2.0, 1.0]),
    ]


def assert_indexes_bit_identical(left: InvertedIndex, right: InvertedIndex):
    assert left.num_series == right.num_series
    assert left.num_codewords == right.num_codewords
    assert np.array_equal(left.idf, right.idf)
    assert len(left.shards) == len(right.shards)
    assert not left.delta_shards and not right.delta_shards
    for ours, theirs in zip(left.shards, right.shards):
        assert ours.first_codeword == theirs.first_codeword
        assert ours.last_codeword == theirs.last_codeword
        for member in ALL_SHARD_MEMBERS:
            mine, other = getattr(ours, member), getattr(theirs, member)
            assert (mine is None) == (other is None), member
            if mine is not None:
                assert np.array_equal(np.asarray(mine), np.asarray(other)), member


@pytest.fixture(scope="module")
def dataset():
    return make_gun_like(num_series=14, seed=23)


@pytest.fixture()
def searcher(dataset):
    return IndexedSearcher.from_dataset(
        dataset,
        config=CONFIG,
        codebook_config=CodebookConfig.for_sdtw(
            CONFIG, num_codewords=24, seed=11
        ),
        num_shards=3,
        candidate_budget=6,
        pq_config=PQConfig(subquantizers=4, seed=11),
    )


class TestInvertedIndexIncremental:
    def test_add_series_is_scoreable_and_rankable(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8, num_shards=2)
        base_shards = list(index.shards)
        slot = index.add_series(_bag([2, 6], [1.0, 1.0]))
        assert slot == 4
        assert index.num_series == 5
        assert index.num_delta_shards == 1
        assert index.shards == base_shards  # base untouched
        scores, touched = index.scores(_bag([6], [1.0]))
        assert touched[slot]
        assert scores[slot] > 0.0
        assert slot in index.candidates(_bag([2, 6], [1.0, 1.0]), 5).tolist()

    def test_add_series_validates_bag(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        with pytest.raises(ValidationError):
            index.add_series(_bag([9], [1.0]))  # out of range
        with pytest.raises(ValidationError):
            index.add_series(_bag([3, 1], [1.0, 1.0]))  # unsorted

    def test_remove_series_tombstones_at_any_budget(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8, num_shards=2)
        index.remove_series(1)
        assert index.num_tombstones == 1
        assert index.num_live == 3
        scores, touched = index.scores(_bag([1, 2], [1.0, 1.0]))
        assert not touched[1]
        assert scores[1] == 0.0
        for limit in (1, 2, 4, 100):
            assert 1 not in index.candidates(_bag([2], [1.0]), limit).tolist()

    def test_remove_series_out_of_range(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        with pytest.raises(ValidationError):
            index.remove_series(4)
        with pytest.raises(ValidationError):
            index.remove_series(-1)

    def test_clone_isolates_mutations(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        clone = index.clone()
        clone.add_series(_bag([0], [1.0]))
        clone.remove_series(0)
        assert index.num_series == 4
        assert index.num_delta_shards == 0
        assert index.num_tombstones == 0

    def test_compact_bit_identical_to_from_bags(self):
        bags = _manual_bags()
        extra = [_bag([2, 6], [1.0, 2.0]), _bag([0, 1, 3], [1.0, 1.0, 1.0])]
        incremental = InvertedIndex.from_bags(bags, 8, num_shards=2)
        for bag in extra:
            incremental.add_series(bag)
        compacted, slot_map = incremental.compact(num_shards=2)
        fresh = InvertedIndex.from_bags(bags + extra, 8, num_shards=2)
        assert slot_map.tolist() == list(range(6))
        assert_indexes_bit_identical(compacted, fresh)

    def test_compact_drops_tombstones_and_renumbers(self):
        bags = _manual_bags()
        incremental = InvertedIndex.from_bags(bags, 8, num_shards=2)
        incremental.add_series(_bag([2, 6], [1.0, 2.0]))
        incremental.remove_series(1)
        incremental.remove_series(4)
        compacted, slot_map = incremental.compact(num_shards=2)
        assert slot_map.tolist() == [0, -1, 1, 2, -1]
        survivors = [bags[0], bags[2], bags[3]]
        assert_indexes_bit_identical(
            compacted, InvertedIndex.from_bags(survivors, 8, num_shards=2)
        )

    def test_compact_with_every_slot_removed_rejected(self):
        index = InvertedIndex.from_bags(_manual_bags()[:1], 8)
        index.remove_series(0)
        with pytest.raises(ValidationError):
            index.compact()

    def test_compact_requires_counts(self):
        index = InvertedIndex.from_bags(_manual_bags(), 8)
        stripped = [
            type(shard)(
                first_codeword=shard.first_codeword,
                last_codeword=shard.last_codeword,
                codeword_ids=shard.codeword_ids,
                offsets=shard.offsets,
                series=shard.series,
                weights=shard.weights,
            )
            for shard in index.shards
        ]
        legacy = InvertedIndex(
            num_series=index.num_series,
            num_codewords=index.num_codewords,
            shards=stripped,
            idf=index.idf,
        )
        assert not legacy.supports_incremental
        with pytest.raises(ValidationError):
            legacy.compact()


class TestSearcherIncremental:
    def test_add_series_then_query_finds_it(self, searcher, dataset):
        probe = dataset[0].values * 0.9 + 0.05
        identifier = searcher.add_series(probe, identifier="fresh")
        assert identifier == "fresh"
        assert searcher.index.num_delta_shards == 1
        result = searcher.query(probe, 3)
        assert "fresh" in [hit.identifier for hit in result.hits]
        # C = N still reproduces the exhaustive ranking bit for bit.
        exact = searcher.query(probe, 3, exact=True)
        full = searcher.query(probe, 3, candidates=len(searcher.engine))
        assert full.indices == exact.indices

    def test_add_series_rejects_duplicate_identifier(self, searcher, dataset):
        taken = searcher.engine.stored_items()[0][0]
        with pytest.raises(ValidationError):
            searcher.add_series(dataset[0].values, identifier=taken)

    def test_compact_matches_fresh_build_under_frozen_codebook(
        self, searcher, dataset
    ):
        for offset in range(3):
            searcher.add_series(
                dataset[offset].values * (0.8 + 0.1 * offset),
                identifier=f"delta-{offset}",
            )
        stored = searcher.engine.stored_items()
        lengths = [values.size for _, values, _ in stored]
        features = searcher._features
        bags = [
            searcher.codebook.bag(feats, length)
            for feats, length in zip(features, lengths)
        ]
        entries = [
            pq_entry_for(searcher.codebook, searcher.pq, feats, length)
            for feats, length in zip(features, lengths)
        ]
        fresh = InvertedIndex.from_bags(
            bags, searcher.codebook.num_codewords,
            num_shards=len(searcher.index.shards), pq_entries=entries,
        )
        searcher.compact()
        assert_indexes_bit_identical(searcher.index, fresh)

    def test_compact_preserves_full_budget_results(self, searcher, dataset):
        searcher.add_series(dataset[1].values * 1.1, identifier="later")
        probe = dataset[2].values
        before = searcher.query(probe, 4, candidates=len(searcher.engine))
        searcher.compact()
        after = searcher.query(probe, 4, candidates=len(searcher.engine))
        assert before.indices == after.indices
        assert [hit.distance for hit in before.hits] == [
            hit.distance for hit in after.hits
        ]


class TestDeltaPersistence:
    def test_add_save_open_query_round_trip(self, searcher, dataset, tmp_path):
        probe = dataset[0].values * 0.85
        searcher.add_series(probe, identifier="delta-a")
        searcher.add_series(dataset[3].values * 1.15, identifier="delta-b")
        expected = searcher.query(probe, 4)
        directory = str(tmp_path / "idx")
        searcher.save(directory)

        reader = IndexReader.open(directory)
        assert reader.index.num_delta_shards == 2
        assert reader.index.supports_incremental
        reopened = IndexedSearcher.from_reader(reader, candidate_budget=6)
        result = reopened.query(probe, 4)
        assert [hit.identifier for hit in result.hits] == [
            hit.identifier for hit in expected.hits
        ]
        assert [hit.distance for hit in result.hits] == [
            hit.distance for hit in expected.hits
        ]

    def test_tombstones_survive_reopen(self, searcher, dataset, tmp_path):
        searcher.add_series(dataset[0].values * 0.7, identifier="doomed")
        searcher.index.remove_series(searcher.index.num_series - 1)
        directory = str(tmp_path / "idx")
        stored = searcher.engine.stored_items()
        store = None  # assembled manually: engine holds the tombstoned one
        from repro.retrieval.feature_store import FeatureStore

        store = FeatureStore(config=CONFIG)
        for slot, (identifier, values, _) in enumerate(stored):
            if not searcher.index.tombstones[slot]:
                store.add_series(identifier, values)
        IndexWriter(directory).write(
            searcher.index,
            searcher.codebook,
            [identifier for identifier, _, _ in stored],
            [label for _, _, label in stored],
            feature_store=store,
            extraction_config=CONFIG,
            pq=searcher.pq,
        )
        reader = IndexReader.open(directory)
        assert reader.index.num_tombstones == 1
        assert "doomed" not in reader.live_identifiers()
        reopened = IndexedSearcher.from_reader(reader, candidate_budget=6)
        result = reopened.query(dataset[0].values * 0.7, 5,
                                candidates=reader.index.num_series)
        assert "doomed" not in [hit.identifier for hit in result.hits]

    def test_save_with_tombstones_requires_compaction(self, searcher, tmp_path):
        searcher.index.remove_series(0)
        with pytest.raises(ValidationError):
            searcher.save(str(tmp_path / "idx"))


class TestWorkspaceIncremental:
    @pytest.fixture()
    def config(self):
        return WorkspaceConfig(
            sdtw=CONFIG,
            index=IndexConfig(
                num_codewords=24, num_shards=2, candidate_budget=6,
                pq_subquantizers=4, seed=11,
            ),
            default_k=3,
        )

    def test_close_open_cycle_keeps_incremental_index(
        self, tmp_path, dataset, config
    ):
        path = str(tmp_path / "ws")
        with Workspace.create(path, config) as workspace:
            for ts in dataset.series[:8]:
                workspace.add(ts.values, identifier=ts.identifier,
                              label=ts.label)
            workspace.build_index()
            for ts in dataset.series[8:11]:
                workspace.add(ts.values, identifier=ts.identifier,
                              label=ts.label)
            assert workspace.has_index
            expected = workspace.query(dataset[9].values, 3,
                                       exclude_identifier=dataset[9].identifier)
            assert expected.mode == "indexed"

        reopened = Workspace.open(path)
        stats = reopened.stats()["index"]
        assert stats["delta_shards"] == 3
        assert not stats["stale"]
        result = reopened.query(dataset[9].values, 3,
                                exclude_identifier=dataset[9].identifier)
        assert result.mode == "indexed"
        assert result.ids == expected.ids
        assert result.distances == expected.distances
        # ...and the incremental path keeps working after reopening.
        reopened.add(dataset[11].values, identifier=dataset[11].identifier)
        assert reopened.has_index
        assert reopened.stats()["index"]["delta_shards"] == 4
        reopened.close()

    def test_removed_series_never_returned(self, dataset, config):
        workspace = Workspace(config)
        for ts in dataset.series[:10]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        victim = dataset[4].identifier
        workspace.remove(victim)
        assert workspace.has_index
        assert victim not in workspace.identifiers
        result = workspace.query(dataset[4].values, 5, mode="indexed",
                                 candidates=100)
        assert result.mode == "indexed"
        assert victim not in result.ids
        exact = workspace.query(dataset[4].values, 5, mode="exact")
        assert victim not in exact.ids

    def test_remove_unknown_identifier_rejected(self, dataset, config):
        workspace = Workspace(config)
        workspace.add(dataset[0].values, identifier="only")
        with pytest.raises(DatasetError):
            workspace.remove("missing")

    def test_auto_compaction_bounds_delta_shards(self, dataset, config):
        bounded = WorkspaceConfig(
            sdtw=CONFIG,
            index=IndexConfig(
                num_codewords=24, num_shards=2, candidate_budget=6,
                pq_subquantizers=4, seed=11, max_delta_shards=2,
            ),
            default_k=3,
        )
        workspace = Workspace(bounded)
        for ts in dataset.series[:6]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        for ts in dataset.series[6:11]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        stats = workspace.stats()["index"]
        assert stats["delta_shards"] <= 2
        assert stats["num_live"] == 11
        # Every series is retrievable after the automatic folds.
        result = workspace.query(dataset[10].values, 3, candidates=11,
                                 exclude_identifier=dataset[10].identifier)
        exact = workspace.query(dataset[10].values, 3, mode="exact",
                                exclude_identifier=dataset[10].identifier)
        assert result.ids == exact.ids

    def test_compact_index_is_invisible_to_full_budget_queries(
        self, dataset, config
    ):
        workspace = Workspace(config)
        for ts in dataset.series[:9]:
            workspace.add(ts.values, identifier=ts.identifier, label=ts.label)
        workspace.build_index()
        workspace.add(dataset[9].values, identifier=dataset[9].identifier)
        workspace.remove(dataset[2].identifier)
        before = workspace.query(dataset[0].values, 4, candidates=100,
                                 exclude_identifier=dataset[0].identifier)
        workspace.compact_index()
        stats = workspace.stats()["index"]
        assert stats["delta_shards"] == 0
        assert stats["tombstones"] == 0
        after = workspace.query(dataset[0].values, 4, candidates=100,
                                exclude_identifier=dataset[0].identifier)
        assert before.ids == after.ids
        assert before.distances == after.distances
