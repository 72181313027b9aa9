"""Workspace serving benchmark: concurrent-query throughput, micro-batching
on vs. off, plus a serving-churn run for the incremental snapshot path.

Simulates a serving deployment: T client threads fire exact k-NN queries
at one shared :class:`repro.service.Workspace` and the benchmark measures
end-to-end throughput (queries per second) in two configurations:

* **un-batched** — every thread runs the full per-query cascade itself
  through :meth:`Workspace.query`; each query already refines its
  candidates with the engine's lock-step batch DP.
* **micro-batched** — ``serving.micro_batch`` is on, so concurrent
  callers are coalesced by the :class:`repro.service.MicroBatcher` into
  single :meth:`DistanceEngine.knn` calls that share the prepared
  collection and one pass of per-call overhead.

Both configurations are verified to return **bit-identical** hits before
any timing is reported (micro-batching is a throughput knob, never a
semantics knob).  The throughput ratio is reported, not gated: since
every single query runs the numpy batch kernels, which release the GIL,
concurrent un-batched threads can scale with cores while coalescing
serialises, so micro-batching need not pay off.

The ``--churn`` mode measures the PR 6 incremental serving snapshot
instead: interleaved add/remove/query over a large collection (10k
series by default).  With ``serving.incremental_snapshots`` on, the
snapshot taken after a mutation *extends* the previous one — shared
prepared segments, one appended segment for the new series, tombstone
masks for removals — so the first query after an add pays O(new)
preparation instead of re-preparing all N stored series.  The run
reports steady-state p50/p99 query latency, churn-phase p50/p99, and
the first-query-after-add cost, and gates (ratio form, since the query
scan itself is O(N)) that the first query after an add stays within a
small factor of the steady-state median rather than absorbing an O(N)
rebuild.  A shorter rebuild-mode pass (``incremental_snapshots=False``)
runs alongside for comparison.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_workspace_serving.py \
        --series 64 --length 128 --queries 48 --threads 8
    PYTHONPATH=src python benchmarks/bench_workspace_serving.py \
        --churn --churn-series 10000

The ``--telemetry-guard`` mode gates the PR 7 telemetry layer instead:
two identical workspaces — ``serving.telemetry`` on vs. off — serve the
same exact-query stream and the guard asserts the enabled p50 latency
stays within ``--max-telemetry-overhead`` (default 5%) of the disabled
p50, modulo a small absolute noise floor.  This is the "near-zero
overhead" claim of :mod:`repro.telemetry` measured on the real serving
path, not a microbenchmark of the registry.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_workspace_serving.py \
        --telemetry-guard --repeats 5

The ``--http`` mode measures the PR 10 network service tier: a
:class:`repro.server.WorkspaceServer` serves the workspace over HTTP
and ≥8 concurrent :class:`repro.server.RemoteWorkspace` clients drive
exact queries at shard counts 1, 2 and 4 (``split_workspace``
scatter-gather behind one server).  Every HTTP result is asserted
bit-identical to the in-process single-workspace answer before it
counts, ``/metrics`` must parse as Prometheus exposition format 0.0.4,
and the run reports per-request p50/p99 latency plus end-to-end QPS
per shard count.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_workspace_serving.py \
        --http --threads 8 --queries 64

``--dry-run`` (alias ``--quick``) shrinks everything for CI; with
``--churn --json PATH`` the churn metrics are merged into PATH under
the ``"workspace_churn"`` key, ``--telemetry-guard --json PATH``
merges under ``"telemetry_overhead"`` and ``--http --json PATH`` under
``"serving_http"`` (the CI perf-guard artifact ``BENCH_ci.json`` is
shared with the incremental-index guard).
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import make_gun_like
from repro.server import RemoteWorkspace, WorkspaceServer, split_workspace
from repro.server.http import PROMETHEUS_CONTENT_TYPE
from repro.service import (
    EngineConfig,
    IndexConfig,
    ServingConfig,
    Workspace,
    WorkspaceConfig,
)
from repro.utils.tables import format_table


def build_workspace(dataset, *, micro_batch: bool, window_ms: float) -> Workspace:
    workspace = Workspace(WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend="serial"),
        index=IndexConfig(num_codewords=32, num_shards=2),
        serving=ServingConfig(
            micro_batch=micro_batch,
            batch_window_ms=window_ms,
            max_batch=64,
        ),
        default_k=5,
    ))
    workspace.add_dataset(dataset)
    # Pay snapshot construction up front so the timed section measures
    # serving, not preparation.
    workspace.engine
    return workspace


def run_clients(
    workspace: Workspace,
    queries: List[np.ndarray],
    *,
    threads: int,
    k: int,
) -> Tuple[float, List[Optional[Tuple]]]:
    """Fan the query list across T threads; returns (seconds, outcomes)."""
    outcomes: List[Optional[Tuple]] = [None] * len(queries)
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            for qi in range(slot, len(queries), threads):
                result = workspace.query(queries[qi], k, mode="exact")
                outcomes[qi] = (result.ids, result.distances)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed, outcomes


def _percentile_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1000.0, q))


def build_churn_workspace(dataset, size: int, *, incremental: bool) -> Workspace:
    workspace = Workspace(WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend="vectorized"),
        serving=ServingConfig(incremental_snapshots=incremental),
        default_k=5,
    ))
    for position in range(size):
        ts = dataset[position]
        workspace.add(
            ts.values,
            identifier=ts.identifier or f"series-{position:05d}",
            label=ts.label,
        )
    workspace.engine  # pay the initial snapshot before timing anything
    return workspace


def drive_churn(
    workspace: Workspace,
    dataset,
    *,
    size: int,
    rounds: int,
    steady_queries: int,
    k: int,
) -> Dict[str, List[float]]:
    """Interleave add/remove/query; return per-phase latency samples.

    Each round adds one fresh series and times the very next query
    (which absorbs the snapshot refresh), then a follow-up query at the
    new roster (churn steady state).  Every third round also removes a
    stored series so tombstone masking stays on the measured path.
    """
    rng = np.random.default_rng(17)
    length = dataset[0].values.size
    probes = [
        dataset[int(rng.integers(size))].values
        + rng.normal(scale=0.05, size=length)
        for _ in range(8)
    ]

    def timed_query(position: int) -> float:
        started = time.perf_counter()
        workspace.query(probes[position % len(probes)], k, mode="exact")
        return time.perf_counter() - started

    steady = [timed_query(position) for position in range(steady_queries)]
    first_after_add: List[float] = []
    churn: List[float] = []
    cursor = size
    for round_index in range(rounds):
        ts = dataset[cursor]
        workspace.add(
            ts.values,
            identifier=ts.identifier or f"series-{cursor:05d}",
            label=ts.label,
        )
        cursor += 1
        first_after_add.append(timed_query(round_index))
        churn.append(timed_query(round_index + 1))
        if round_index % 3 == 2:
            victims = workspace.identifiers
            workspace.remove(victims[int(rng.integers(len(victims)))])
            churn.append(timed_query(round_index + 2))
    return {
        "steady": steady,
        "first_after_add": first_after_add,
        "churn": churn,
    }


def run_churn_benchmark(args: argparse.Namespace) -> int:
    total_needed = args.churn_series + args.churn_rounds
    dataset = make_gun_like(
        num_series=total_needed, length=args.length, seed=13
    )
    print(f"Serving churn: {args.churn_series} stored series x length "
          f"{args.length}, {args.churn_rounds} add/remove/query rounds, "
          f"k={args.k}")

    derived_ws = build_churn_workspace(
        dataset, args.churn_series, incremental=True
    )
    derived = drive_churn(
        derived_ws, dataset, size=args.churn_series,
        rounds=args.churn_rounds, steady_queries=args.churn_steady,
        k=args.k,
    )
    # A short rebuild-mode pass for comparison: every post-mutation query
    # re-prepares all N series, so keep it brief at large N.
    rebuild_rounds = min(args.churn_rounds, 8)
    rebuilt_ws = build_churn_workspace(
        dataset, args.churn_series, incremental=False
    )
    rebuilt = drive_churn(
        rebuilt_ws, dataset, size=args.churn_series,
        rounds=rebuild_rounds, steady_queries=max(args.churn_steady // 2, 4),
        k=args.k,
    )

    steady_p50 = _percentile_ms(derived["steady"], 50)
    steady_p99 = _percentile_ms(derived["steady"], 99)
    churn_p50 = _percentile_ms(derived["churn"], 50)
    churn_p99 = _percentile_ms(derived["churn"], 99)
    first_p50 = _percentile_ms(derived["first_after_add"], 50)
    rebuilt_first_p50 = _percentile_ms(rebuilt["first_after_add"], 50)
    ratio = first_p50 / steady_p50 if steady_p50 > 0 else float("inf")

    print()
    print(format_table(
        ["metric", "derived (ms)", "rebuilt (ms)"],
        [
            ["steady query p50", round(steady_p50, 3),
             round(_percentile_ms(rebuilt["steady"], 50), 3)],
            ["steady query p99", round(steady_p99, 3),
             round(_percentile_ms(rebuilt["steady"], 99), 3)],
            ["churn query p50", round(churn_p50, 3),
             round(_percentile_ms(rebuilt["churn"], 50), 3)],
            ["churn query p99", round(churn_p99, 3),
             round(_percentile_ms(rebuilt["churn"], 99), 3)],
            ["first query after add p50", round(first_p50, 3),
             round(rebuilt_first_p50, 3)],
        ],
        title="Serving churn latency: incremental snapshots vs rebuild",
    ))
    print()
    print(f"first-query-after-add / steady p50: {ratio:.2f}x "
          f"(bar: {args.max_first_query_ratio:.1f}x + "
          f"{args.first_query_floor_ms:.1f} ms floor)")

    failures: List[str] = []
    bar = (args.max_first_query_ratio * steady_p50
           + args.first_query_floor_ms)
    if first_p50 > bar:
        failures.append(
            f"first query after an add took {first_p50:.2f} ms at p50, over "
            f"the {bar:.2f} ms bar ({args.max_first_query_ratio:.1f}x "
            f"steady p50 {steady_p50:.2f} ms + {args.first_query_floor_ms:.1f}"
            " ms) — snapshot refresh is not O(new)"
        )

    if args.json:
        metrics = {
            "series": args.churn_series,
            "rounds": args.churn_rounds,
            "length": args.length,
            "k": args.k,
            "steady_p50_ms": round(steady_p50, 4),
            "steady_p99_ms": round(steady_p99, 4),
            "churn_p50_ms": round(churn_p50, 4),
            "churn_p99_ms": round(churn_p99, 4),
            "first_query_after_add_p50_ms": round(first_p50, 4),
            "rebuilt_first_query_after_add_p50_ms": round(
                rebuilt_first_p50, 4
            ),
            "first_query_ratio": round(ratio, 3),
            "failures": failures,
        }
        try:
            with open(args.json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                payload = {"incremental_index": payload}
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload["workspace_churn"] = metrics
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nchurn metrics merged into {args.json} "
              "under 'workspace_churn'")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nOK: first query after an add stays within the steady-state "
          "latency envelope")
    return 0


def build_telemetry_workspace(dataset, *, telemetry: bool) -> Workspace:
    workspace = Workspace(WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend="serial"),
        serving=ServingConfig(telemetry=telemetry),
        default_k=5,
    ))
    workspace.add_dataset(dataset)
    workspace.engine  # pay snapshot construction before timing
    return workspace


def run_telemetry_guard(args: argparse.Namespace) -> int:
    dataset = make_gun_like(num_series=args.series, length=args.length, seed=7)
    rng = np.random.default_rng(11)
    queries = [
        dataset[int(rng.integers(len(dataset)))].values
        + rng.normal(scale=0.05, size=args.length)
        for _ in range(args.queries)
    ]
    print(f"Telemetry overhead guard: {args.series} series x length "
          f"{args.length}, {args.queries} exact queries per pass, "
          f"best p50 of {args.repeats} passes")

    enabled_ws = build_telemetry_workspace(dataset, telemetry=True)
    disabled_ws = build_telemetry_workspace(dataset, telemetry=False)

    # Equivalence gate: telemetry must never change results.
    for query in queries[: min(4, len(queries))]:
        on = enabled_ws.query(query, args.k, mode="exact")
        off = disabled_ws.query(query, args.k, mode="exact")
        if on.ids != off.ids:
            raise SystemExit(
                "FAIL: telemetry-enabled results differ from disabled"
            )
    print("equivalence: telemetry-on hits are identical to telemetry-off")

    def timed_pass(workspace: Workspace) -> List[float]:
        samples = []
        for query in queries:
            started = time.perf_counter()
            workspace.query(query, args.k, mode="exact")
            samples.append(time.perf_counter() - started)
        return samples

    timed_pass(enabled_ws)   # warm both paths before measuring
    timed_pass(disabled_ws)
    # Interleave the passes so drift (thermal, allocator state) hits
    # both configurations symmetrically; best-of damps GC pauses.
    enabled_p50 = min(
        _percentile_ms(timed_pass(enabled_ws), 50)
        for _ in range(args.repeats)
    )
    disabled_p50 = min(
        _percentile_ms(timed_pass(disabled_ws), 50)
        for _ in range(args.repeats)
    )
    delta_ms = enabled_p50 - disabled_p50
    overhead = delta_ms / disabled_p50 if disabled_p50 > 0 else 0.0

    print()
    print(format_table(
        ["configuration", "query p50 (ms)"],
        [
            ["telemetry off", round(disabled_p50, 3)],
            ["telemetry on", round(enabled_p50, 3)],
        ],
        title="Exact-query latency with and without telemetry",
    ))
    print()
    print(f"telemetry overhead: {overhead * 100.0:+.2f}% "
          f"({delta_ms:+.3f} ms at p50; bar: "
          f"{args.max_telemetry_overhead * 100.0:.0f}% or "
          f"{args.telemetry_floor_ms:.2f} ms noise floor)")

    failures: List[str] = []
    if (overhead > args.max_telemetry_overhead
            and delta_ms > args.telemetry_floor_ms):
        failures.append(
            f"enabled-telemetry p50 {enabled_p50:.3f} ms is "
            f"{overhead * 100.0:.1f}% over the disabled p50 "
            f"{disabled_p50:.3f} ms (bar "
            f"{args.max_telemetry_overhead * 100.0:.0f}%, floor "
            f"{args.telemetry_floor_ms:.2f} ms) — instrumentation has "
            "crept onto the hot path"
        )

    if args.json:
        metrics = {
            "series": args.series,
            "length": args.length,
            "queries": args.queries,
            "repeats": args.repeats,
            "enabled_p50_ms": round(enabled_p50, 4),
            "disabled_p50_ms": round(disabled_p50, 4),
            "overhead_fraction": round(overhead, 4),
            "max_overhead_fraction": args.max_telemetry_overhead,
            "failures": failures,
        }
        try:
            with open(args.json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                payload = {"incremental_index": payload}
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload["telemetry_overhead"] = metrics
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\ntelemetry metrics merged into {args.json} "
              "under 'telemetry_overhead'")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nOK: enabled-telemetry latency stays within the overhead bar")
    return 0


_METRIC_LINE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+")


def _check_prometheus_exposition(server: WorkspaceServer) -> Optional[str]:
    """Scrape ``/metrics`` raw; returns a failure message or ``None``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        content_type = response.getheader("Content-Type")
        text = response.read().decode("utf-8")
    finally:
        conn.close()
    if response.status != 200:
        return f"/metrics answered {response.status}, not 200"
    if content_type != PROMETHEUS_CONTENT_TYPE:
        return (f"/metrics Content-Type {content_type!r} is not the "
                f"exposition-format header {PROMETHEUS_CONTENT_TYPE!r}")
    for line in text.splitlines():
        if not line or line.startswith(("# HELP ", "# TYPE ")):
            continue
        if not _METRIC_LINE.fullmatch(line):
            return f"/metrics line does not parse as exposition 0.0.4: {line!r}"
    return None


def run_http_clients(
    server: WorkspaceServer,
    queries: List[np.ndarray],
    reference: List[Tuple],
    *,
    threads: int,
    k: int,
) -> Tuple[float, List[float]]:
    """T clients fire the query list over HTTP; every response is checked
    bit-identical to its in-process reference before it counts.

    Returns (wall seconds, per-request latency samples).
    """
    samples: List[List[float]] = [[] for _ in range(threads)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(threads + 1)

    def worker(slot: int) -> None:
        try:
            with RemoteWorkspace(server.host, server.port) as remote:
                barrier.wait()
                for qi in range(slot, len(queries), threads):
                    started = time.perf_counter()
                    result = remote.query(queries[qi], k, mode="exact")
                    samples[slot].append(time.perf_counter() - started)
                    got = (result.ids, result.distances)
                    if got != reference[qi]:
                        raise AssertionError(
                            f"HTTP result for query {qi} differs from the "
                            f"in-process result"
                        )
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(slot,))
            for slot in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed, [sample for bucket in samples for sample in bucket]


def run_http_benchmark(args: argparse.Namespace) -> int:
    threads = max(args.threads, 8)  # the contract is >= 8 concurrent clients
    dataset = make_gun_like(num_series=args.series, length=args.length, seed=7)
    rng = np.random.default_rng(11)
    queries = [
        dataset[int(rng.integers(len(dataset)))].values
        + rng.normal(scale=0.05, size=args.length)
        for _ in range(args.queries)
    ]
    workspace = Workspace(WorkspaceConfig(
        engine=EngineConfig(constraint="fc,fw", backend="vectorized"),
        default_k=args.k,
    ))
    workspace.add_dataset(dataset)
    workspace.engine  # pay snapshot construction before timing
    reference = []
    for query in queries:
        result = workspace.query(query, args.k, mode="exact")
        reference.append((result.ids, result.distances))

    print(f"HTTP serving: {args.series} series x length {args.length}, "
          f"{args.queries} queries, {threads} concurrent clients, "
          f"k={args.k}, shard counts 1/2/4")

    failures: List[str] = []
    rows = []
    per_shard_metrics: List[Dict[str, object]] = []
    for num_shards in (1, 2, 4):
        target = (workspace if num_shards == 1
                  else split_workspace(workspace, num_shards))
        server = WorkspaceServer(
            target, port=0, max_inflight=threads, max_pending=4 * threads,
        ).start()
        try:
            run_http_clients(  # warm connections + server pool
                server, queries[:threads], reference[:threads],
                threads=threads, k=args.k,
            )
            best_wall = float("inf")
            latencies: List[float] = []
            for _ in range(args.repeats):
                wall, samples = run_http_clients(
                    server, queries, reference, threads=threads, k=args.k,
                )
                best_wall = min(best_wall, wall)
                latencies.extend(samples)
            exposition_failure = _check_prometheus_exposition(server)
            if exposition_failure is not None:
                failures.append(f"[shards={num_shards}] {exposition_failure}")
        finally:
            server.stop()
            if target is not workspace:
                target.close()
        p50 = _percentile_ms(latencies, 50)
        p99 = _percentile_ms(latencies, 99)
        qps = args.queries / best_wall
        rows.append([num_shards, round(p50, 3), round(p99, 3),
                     round(qps, 1)])
        per_shard_metrics.append({
            "shards": num_shards,
            "p50_ms": round(p50, 4),
            "p99_ms": round(p99, 4),
            "qps": round(qps, 2),
        })

    print()
    print(format_table(
        ["shards", "p50 (ms)", "p99 (ms)", "queries/s"],
        rows,
        title=f"HTTP exact-query latency/throughput ({threads} clients, "
              f"best wall of {args.repeats})",
    ))
    print()
    print("bit-identity: every HTTP response matched the in-process result "
          "at shard counts 1, 2 and 4")

    if args.json:
        metrics = {
            "series": args.series,
            "length": args.length,
            "queries": args.queries,
            "threads": threads,
            "k": args.k,
            "shard_counts": per_shard_metrics,
            "failures": failures,
        }
        try:
            with open(args.json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                payload = {"incremental_index": payload}
        except (FileNotFoundError, json.JSONDecodeError):
            payload = {}
        payload["serving_http"] = metrics
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nHTTP serving metrics merged into {args.json} "
              "under 'serving_http'")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("\nOK: /metrics parses as Prometheus exposition format 0.0.4 "
          "at every shard count")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", type=int, default=64,
                        help="stored collection size (default: 64)")
    parser.add_argument("--length", type=int, default=128,
                        help="series length (default: 128)")
    parser.add_argument("--queries", type=int, default=48,
                        help="queries fired per configuration (default: 48)")
    parser.add_argument("--threads", type=int, default=8,
                        help="client threads (default: 8)")
    parser.add_argument("--k", type=int, default=5, help="neighbours per query")
    parser.add_argument("--window-ms", type=float, default=2.0,
                        help="micro-batch window (default: 2.0 ms)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions, best-of (default: 3)")
    parser.add_argument("--churn", action="store_true",
                        help="run the serving-churn benchmark (incremental "
                             "snapshots) instead of the throughput run")
    parser.add_argument("--churn-series", type=int, default=10_000,
                        help="stored collection size for --churn "
                             "(default: 10000)")
    parser.add_argument("--churn-rounds", type=int, default=30,
                        help="add/remove/query rounds for --churn "
                             "(default: 30)")
    parser.add_argument("--churn-steady", type=int, default=20,
                        help="steady-state queries timed before the churn "
                             "phase (default: 20)")
    parser.add_argument("--max-first-query-ratio", type=float, default=3.0,
                        help="first-query-after-add p50 must stay within "
                             "this multiple of steady p50 (default: 3.0)")
    parser.add_argument("--first-query-floor-ms", type=float, default=5.0,
                        help="additive floor on the first-query bar, "
                             "absorbs timer noise at tiny scales "
                             "(default: 5.0)")
    parser.add_argument("--http", action="store_true",
                        help="serve the workspace over HTTP and measure "
                             "concurrent-client latency/QPS at shard "
                             "counts 1/2/4 (bit-identity gated)")
    parser.add_argument("--telemetry-guard", action="store_true",
                        help="measure telemetry-on vs telemetry-off query "
                             "latency and gate the overhead")
    parser.add_argument("--max-telemetry-overhead", type=float, default=0.05,
                        help="maximum fractional p50 overhead of enabled "
                             "telemetry (default: 0.05)")
    parser.add_argument("--telemetry-floor-ms", type=float, default=0.25,
                        help="absolute p50 delta below which the overhead "
                             "gate never fires, absorbing timer noise "
                             "(default: 0.25)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="merge churn / telemetry metrics into PATH "
                             "under 'workspace_churn' / "
                             "'telemetry_overhead' (CI artifact)")
    parser.add_argument("--dry-run", "--quick", action="store_true",
                        help="tiny configuration for CI")
    args = parser.parse_args()

    if args.dry_run:
        args.series = 24
        args.length = 96
        args.queries = 16
        args.threads = 4
        args.repeats = 2
        args.churn_series = 300
        args.churn_rounds = 12
        args.churn_steady = 10

    if args.churn:
        return run_churn_benchmark(args)
    if args.telemetry_guard:
        return run_telemetry_guard(args)
    if args.http:
        return run_http_benchmark(args)

    dataset = make_gun_like(num_series=args.series, length=args.length, seed=7)
    rng = np.random.default_rng(11)
    queries = [
        dataset[int(rng.integers(len(dataset)))].values
        + rng.normal(scale=0.05, size=args.length)
        for _ in range(args.queries)
    ]

    print(f"Workspace serving: {args.series} series x length {args.length}, "
          f"{args.queries} queries, {args.threads} threads, k={args.k}")

    unbatched = build_workspace(dataset, micro_batch=False,
                                window_ms=args.window_ms)
    batched = build_workspace(dataset, micro_batch=True,
                              window_ms=args.window_ms)

    # Equivalence gate: the two serving paths must agree bit for bit.
    _, reference = run_clients(unbatched, queries, threads=args.threads, k=args.k)
    _, coalesced = run_clients(batched, queries, threads=args.threads, k=args.k)
    if reference != coalesced:
        raise SystemExit(
            "FAIL: micro-batched results differ from un-batched results"
        )
    print("equivalence: micro-batched hits are bit-identical to un-batched")

    best_unbatched = min(
        run_clients(unbatched, queries, threads=args.threads, k=args.k)[0]
        for _ in range(args.repeats)
    )
    best_batched = min(
        run_clients(batched, queries, threads=args.threads, k=args.k)[0]
        for _ in range(args.repeats)
    )

    qps_unbatched = args.queries / best_unbatched
    qps_batched = args.queries / best_batched
    ratio = qps_batched / qps_unbatched
    batcher = batched._batcher
    per_batch = (
        batcher.requests_batched / batcher.batches_executed
        if batcher is not None and batcher.batches_executed else 0.0
    )

    print()
    print(format_table(
        ["configuration", "wall s", "queries/s"],
        [
            ["un-batched", round(best_unbatched, 4), round(qps_unbatched, 1)],
            ["micro-batched", round(best_batched, 4), round(qps_batched, 1)],
        ],
        title="Concurrent exact-query throughput (best of "
              f"{args.repeats})",
    ))
    print()
    print(f"micro-batched / un-batched throughput: {ratio:.2f}x "
          f"(mean {per_batch:.1f} requests per engine batch)")
    if ratio >= 1.0:
        print("OK: micro-batched throughput >= un-batched")
    else:
        print("note: micro-batching did not pay off at this configuration "
              "(tiny collections or few threads leave nothing to coalesce)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
