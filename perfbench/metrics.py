"""The metric catalogue: every metric the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names and units (a self-test holds the
two together).  End-to-end metrics are printed by the untraced run
(``--trace 0``), per-layer metrics by the traced run (``--trace 1``).
"""

from __future__ import annotations

from typing import Dict, Tuple

END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "write_p50_ms": ("ms", "lower"),
    "slo_attainment": ("fraction", "higher"),
    "recall_at_k": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_fraction": ("fraction", "higher"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "dtw.dp_ms": ("ms", "lower"),
    "dtw.dp_calls": ("count", "lower"),
    "dtw.ns_per_cell": ("ns", "lower"),
    "dtw.bounds_ms": ("ms", "lower"),
    "engine.knn_self_ms": ("ms", "lower"),
    "engine.extend_ms": ("ms", "lower"),
    "engine.prune_rate": ("fraction", "higher"),
    "engine.abandon_rate": ("fraction", "higher"),
    "engine.cell_fraction": ("fraction", "lower"),
    "engine.prepare_s": ("s", "lower"),
    "core.sdtw_self_ms": ("ms", "lower"),
    "core.extract_ms": ("ms", "lower"),
    "core.extract_calls": ("count", "lower"),
    "core.match_ms": ("ms", "lower"),
    "core.consistency_ms": ("ms", "lower"),
    "core.intervals_ms": ("ms", "lower"),
    "core.band_ms": ("ms", "lower"),
    "indexing.generate_self_ms": ("ms", "lower"),
    "indexing.query_self_ms": ("ms", "lower"),
    "indexing.candidates_per_query": ("count", "lower"),
    "indexing.add_series_ms": ("ms", "lower"),
    "indexing.codebook_fit_s": ("s", "lower"),
    "indexing.pq_fit_s": ("s", "lower"),
    "service.query_self_ms": ("ms", "lower"),
    "service.first_query_after_write_ms": ("ms", "lower"),
    "service.add_ms": ("ms", "lower"),
    "service.remove_ms": ("ms", "lower"),
    "service.build_index_s": ("s", "lower"),
    "server.ingress_ms": ("ms", "lower"),
    "server.egress_ms": ("ms", "lower"),
    "server.scatter_gather_ms": ("ms", "lower"),
    "server.shard_skew_ms": ("ms", "lower"),
    "server.refused": ("count", "lower"),
    "trace.extract_ms": ("ms", "lower"),
    "trace.matching_ms": ("ms", "lower"),
    "trace.dp_ms": ("ms", "lower"),
    "trace.cascade_overhead_ms": ("ms", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.query_samples": ("count", "higher"),
    "attribution.unnamed_ms": ("ms", "lower"),
}


def with_units(values: Dict[str, float], catalogue: Dict[str, Tuple[str, str]]) -> Dict[str, dict]:
    """``{name: {"value": v, "unit": u}}`` for every metric of a catalogue."""
    missing = set(catalogue) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in catalogue.items()
    }
