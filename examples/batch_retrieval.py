"""Batch retrieval through the cascaded distance engine.

The paper's time-gain argument only pays off at retrieval scale: one query
against a whole collection, where most candidate pairs should be discarded
without ever running a dynamic program.  This example

1. builds a labelled synthetic collection and a :class:`DistanceEngine`
   for each execution backend (in-process ``serial`` / ``multiprocessing``),
2. answers a batch of leave-one-out k-NN queries in a single call,
3. shows that both backends return *identical* rankings, and
4. prints the cascade accounting (LB_Kim -> LB_Keogh -> early-abandoning
   banded DTW) and the Figure 17 style time breakdown per backend.

Run with::

    python examples/batch_retrieval.py [num_series]
"""

from __future__ import annotations

import sys

from repro.datasets import make_gun_like
from repro.engine import DistanceEngine
from repro.utils.tables import format_table


def main(num_series: int = 24) -> None:
    dataset = make_gun_like(num_series=num_series, seed=19)
    print(f"Data set: {dataset.name}, {len(dataset)} series, "
          f"{dataset.num_classes} classes")

    num_queries = min(8, len(dataset))
    queries = [dataset[i].values for i in range(num_queries)]

    rankings = {}
    rows = []
    excludes = None
    for backend, workers in (("serial", None), ("multiprocessing", 2)):
        engine = DistanceEngine("fc,fw", backend=backend, num_workers=workers)
        identifiers = engine.add_dataset(dataset)
        excludes = identifiers[:num_queries]
        engine.prepare()  # one-time cost: profiles, envelopes, features
        result = engine.knn(queries, k=5, exclude_identifiers=excludes)
        stats = result.stats
        rankings[backend] = result.rankings()
        rows.append([
            backend,
            stats.candidates,
            stats.pruned_lb_kim,
            stats.pruned_lb_keogh,
            stats.dtw_abandoned,
            stats.dtw_computed,
            f"{stats.cell_gain:.1%}",
            result.elapsed_seconds,
        ])

    print()
    print(format_table(
        ["backend", "candidates", "LB_Kim", "LB_Keogh", "abandoned",
         "completed", "cells saved", "seconds"],
        rows,
        title="Cascade work per backend (identical results)",
    ))

    assert rankings["serial"] == rankings["multiprocessing"]
    print("\nAll backends returned identical rankings. First query's hits:")
    engine = DistanceEngine("fc,fw")
    engine.add_dataset(dataset)
    first = engine.query(queries[0], 5, exclude_identifier=excludes[0])
    for rank, hit in enumerate(first.hits, start=1):
        print(f"  {rank}. {hit.identifier} (class {hit.label}) "
              f"distance={hit.distance:.4f}")

    breakdown = first.stats
    print("\nTime breakdown of that query (Figure 17 phases):")
    print(f"  lower bounds        {breakdown.bound_seconds:.6f}s")
    print(f"  feature extraction  {breakdown.extract_seconds:.6f}s")
    print(f"  matching + pruning  {breakdown.matching_seconds:.6f}s")
    print(f"  dynamic programming {breakdown.dp_seconds:.6f}s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 24)
