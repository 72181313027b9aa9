"""The three workloads: set-up, the measured loop, and the checks.

``knn-fcfw`` and ``knn-acaw`` are closed loops of one in-process client;
``serve-churn`` is a closed loop of one client over HTTP.  Each returns an
:class:`Outcome` with every end-to-end metric and, for a traced run,
every per-layer metric (see :mod:`perfbench.metrics`).
"""

from __future__ import annotations

import collections
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    SDTW,
    EngineConfig,
    IndexConfig,
    RemoteWorkspace,
    Workspace,
    WorkspaceConfig,
    WorkspaceServer,
)
from repro.server import split_workspace

from . import tracing
from .calibration import SpeedProbe
from .checks import Answer, CheckReport, answer_of, check_against_reference, check_pairs
from .inputs import churn_inputs, knn_inputs
from .tracing import SpanRecorder, Tracer, digest

DECISIONS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "decisions.json")
WORKLOADS = ("knn-fcfw", "knn-acaw", "serve-churn")

Tamper = Optional[Callable[[List[Answer]], List[Answer]]]
"""Self-test hook: rewrites the answers handed to the checker."""


def load_decisions() -> dict:
    with open(DECISIONS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_spec(name: str) -> dict:
    return load_decisions()["workloads"][name]


def speed_probe(loops: int) -> SpeedProbe:
    return SpeedProbe(load_decisions()["calibration"]["reference_ms"], loops)


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    query_samples: int = 0
    speed_factor: float = 1.0
    raw: Dict[str, float] = field(default_factory=dict)
    """End-to-end times before dividing by the speed factor."""
    errors: List[str] = field(default_factory=list)


def _ms_percentile(seconds: List[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _note_error(errors: List[str], exc: BaseException) -> None:
    if len(errors) < 5:
        errors.append(f"{type(exc).__name__}: {exc}")


def _engine_stat_metrics(results: list, dp_seconds: float) -> Dict[str, float]:
    """Cascade ratios read from the returned EngineStats."""
    candidates = pruned = refined = abandoned = cells = total_cells = 0
    for result in results:
        stats = result.stats
        candidates += stats.candidates
        pruned += stats.pruned
        refined += stats.refined
        abandoned += stats.dtw_abandoned
        cells += stats.cells_filled
        total_cells += stats.total_cells
    return {
        "engine.prune_rate": pruned / candidates if candidates else 0.0,
        "engine.abandon_rate": abandoned / refined if refined else 0.0,
        "engine.cell_fraction": cells / total_cells if total_cells else 0.0,
        "dtw.ns_per_cell": dp_seconds * 1e9 / cells if cells else 0.0,
    }


def _program_trace_metrics(results: list) -> Dict[str, float]:
    """Mean per-query seconds of the program's own QueryTrace stages."""
    wanted = {"extract": 0.0, "matching": 0.0, "dp": 0.0, "cascade_overhead": 0.0}
    for result in results:
        if result.trace is None:
            continue
        for stage in result.trace.stages:
            if stage.name in wanted:
                wanted[stage.name] += stage.seconds
    count = float(len(results)) or 1.0
    return {
        f"trace.{name}_ms": seconds * 1e3 / count
        for name, seconds in wanted.items()
    }


def _layer_metrics(setup_spans: List[tracing.Span], loop_spans: List[tracing.Span],
                   traced_results: list, untraced_latencies: List[float],
                   traced_latencies: List[float]) -> Dict[str, float]:
    """Every per-layer metric that the spans and returned stats give."""
    trees = tracing.request_trees(loop_spans)
    metrics = tracing.query_layer_metrics(trees)
    dp_seconds = metrics.pop("dtw.dp_seconds_total")
    metrics.update(_engine_stat_metrics(traced_results, dp_seconds))
    metrics.update(_program_trace_metrics(traced_results))
    write_spans = loop_spans if any(
        s.name == "service.add" for s in loop_spans
    ) else setup_spans
    metrics.update({
        "engine.prepare_s": tracing.total_seconds(setup_spans, "engine.prepare"),
        "service.build_index_s": tracing.total_seconds(setup_spans, "service.build_index"),
        "indexing.codebook_fit_s": tracing.total_seconds(setup_spans, "indexing.codebook_fit"),
        "indexing.pq_fit_s": tracing.total_seconds(setup_spans, "indexing.pq_fit"),
        "service.add_ms": tracing.mean_seconds(write_spans, "service.add") * 1e3,
        "service.remove_ms": tracing.mean_seconds(loop_spans, "service.remove") * 1e3,
        "indexing.add_series_ms": tracing.mean_seconds(loop_spans, "indexing.add_series") * 1e3,
        "service.first_query_after_write_ms": tracing.first_query_after_write_ms(loop_spans),
        "bench.query_samples": float(len(trees)),
    })
    untraced = float(np.median(untraced_latencies)) if untraced_latencies else 0.0
    traced = float(np.median(traced_latencies)) if traced_latencies else 0.0
    metrics["bench.trace_overhead_pct"] = (
        (traced / untraced - 1.0) * 100.0 if untraced > 0.0 and traced > 0.0 else 0.0
    )
    return metrics


def _write_spans(spans: List[tracing.Span], workload: str, seed: int,
                 out_dir: Optional[str]) -> None:
    """Write the run's spans as JSON lines (one file per workload and seed)."""
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), separators=(",", ":")))
            handle.write("\n")
    print(f"spans written to {path}", file=sys.stderr)


# ---------------------------------------------------------------------- #
# Closed loop: knn-fcfw, knn-acaw
# ---------------------------------------------------------------------- #
def run_knn(name: str, seed: int, seconds: float, trace: bool,
            tamper: Tamper = None, spans_dir: Optional[str] = None) -> Outcome:
    spec = workload_spec(name)
    inputs = knn_inputs(name, spec, seed)
    config = WorkspaceConfig(engine=EngineConfig(constraint=spec["constraint"]))
    k = config.default_k if spec["k"] is None else int(spec["k"])
    identifiers = [f"s-{i:05d}" for i in range(len(inputs.stored))]
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    errors: List[str] = []
    probe = speed_probe(int(spec["probe_loops"]))
    add_probe = speed_probe(1)

    # Set-up: empty -> ready to serve (adds + snapshot build + engine
    # prepare), repeated; the median is reported.  The adds take about
    # 20 us each, so they are scaled by a probe of single loops.
    repeats = int(spec["setup_repeats"])
    setups: List[float] = []
    add_seconds: List[float] = []
    setup_spans: List[tracing.Span] = []
    workspace: Optional[Workspace] = None
    for repeat in range(repeats):
        traced_setup = trace and repeat == repeats - 1
        if workspace is not None:
            workspace.close()
        first_probe = len(probe.samples)
        first_add_probe = len(add_probe.samples)
        probe.sample(3)
        add_probe.sample(3)
        if traced_setup:
            tracer.install()
        try:
            started = time.perf_counter()
            workspace = Workspace(config)
            adds = []
            for identifier, values in zip(identifiers, inputs.stored):
                before = time.perf_counter()
                workspace.add(values, identifier=identifier)
                adds.append(time.perf_counter() - before)
            workspace.engine  # builds the serving snapshot and prepares it
            setup = time.perf_counter() - started
        finally:
            if traced_setup:
                tracer.restore()
                setup_spans = recorder.spans()
                recorder.clear()
        probe.sample(3)
        add_probe.sample(3)
        setups.append(setup / probe.factor_of(probe.samples[first_probe:]))
        local = add_probe.factor_of(add_probe.samples[first_add_probe:])
        add_seconds.extend(seconds_ / local for seconds_ in adds)
    workspace.query(inputs.warmup, k, mode="exact")

    # The measured closed loop.  A traced run spends its first half
    # untraced and its second half traced.
    latencies: List[float] = []
    untraced_latencies: List[float] = []
    traced_latencies: List[float] = []
    traced_results: list = []
    probe_of: List[int] = []
    loop_answers: List[Answer] = []
    probes = int(spec["probe_queries"])
    attempted = failed = 0
    limit = float(spec["latency_limit_ms"]) / 1e3
    probing = 0.0
    started = time.perf_counter()
    deadline = started + seconds
    switch_at = started + seconds / 2.0 if trace else None
    index = 0
    while time.perf_counter() < deadline:
        if switch_at is not None and not tracer.installed \
                and time.perf_counter() >= switch_at:
            tracer.install()
        if not tracer.installed:
            probing += probe.sample()
        query = inputs.queries[index]
        rid = digest(query) if tracer.installed else None
        attempted += 1
        before = time.perf_counter()
        try:
            if rid is not None:
                result = tracer.span("bench.query", workspace.query, query, k,
                                     rid=rid, mode="exact")
            else:
                result = workspace.query(query, k, mode="exact")
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            failed += 1
            _note_error(errors, exc)
            index += 1
            continue
        latency = time.perf_counter() - before
        latencies.append(latency)
        if rid is not None:
            traced_latencies.append(latency)
            traced_results.append(result)
        else:
            untraced_latencies.append(latency)
            probe_of.append(len(probe.samples) - 1)
        if index < probes:
            loop_answers.append(answer_of(result))
        index += 1
    busy = time.perf_counter() - started - probing
    loop_spans: List[tracing.Span] = []
    if tracer.installed:
        tracer.restore()
        loop_spans = recorder.spans()
        _write_spans(setup_spans + loop_spans, name, seed, spans_dir)

    # Untimed checks: the first `probes` queries against the reference.
    for extra in range(len(loop_answers), probes):
        attempted += 1
        loop_answers.append(
            answer_of(workspace.query(inputs.queries[extra], k, mode="exact"))
        )
    if tamper is not None:
        loop_answers = tamper(loop_answers)
    report = check_against_reference(
        loop_answers,
        [inputs.queries[i] for i in range(probes)],
        SDTW(config.sdtw),
        config.engine.constraint,
        inputs.stored,
        identifiers,
        k,
    )
    failed += report.failed
    workspace.close()

    # Each untraced query ran right after its own probe; the traced half
    # of a traced run has no probes and reports no end-to-end times.
    reference = [
        latency / probe.factor_near(index)
        for latency, index in zip(untraced_latencies, probe_of)
    ]
    raw = {
        "query_p50_ms": _ms_percentile(latencies, 50),
        "query_p90_ms": _ms_percentile(latencies, 90),
        "throughput_qps": len(latencies) / busy if busy > 0 else 0.0,
    }
    end_to_end = {
        "setup_s": float(np.median(setups)),
        "query_p50_ms": _ms_percentile(reference, 50),
        "query_p90_ms": _ms_percentile(reference, 90),
        "throughput_qps": len(reference) / sum(reference) if reference else 0.0,
        "write_p50_ms": float(np.median(add_seconds)) * 1e3,
        "slo_attainment": sum(
            1 for latency in reference if latency <= limit
        ) / float(attempted) if attempted else 0.0,
        "recall_at_k": report.recall,
        "peak_rss_mb": _peak_rss_mb(),
        "success_fraction": 1.0 - failed / float(attempted) if attempted else 0.0,
    }
    per_layer: Dict[str, float] = {}
    if trace:
        per_layer = _layer_metrics(setup_spans, loop_spans, traced_results,
                                   untraced_latencies, traced_latencies)
        per_layer["server.refused"] = 0.0
        per_layer["bench.sched_lag_p90_ms"] = 0.0
    return Outcome(attempted=attempted, failed=failed, end_to_end=end_to_end,
                   per_layer=per_layer, query_samples=len(latencies),
                   speed_factor=probe.factor, raw=raw, errors=errors)


# ---------------------------------------------------------------------- #
# serve-churn: one client over HTTP
# ---------------------------------------------------------------------- #
@dataclass
class _Record:
    kind: str
    identifier: str = ""
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    traced: bool = False
    probe: int = -1
    """Index of the speed probe taken right before the op."""
    result: object = None

    @property
    def seconds(self) -> float:
        return self.done - self.sent


def _sane(result, k: int) -> bool:
    """A query result that can be right: k hits in distance order, no shard missing."""
    distances = list(result.distances)
    return (
        len(distances) == k
        and all(a <= b for a, b in zip(distances, distances[1:]))
        and not result.failed_shards
    )


def run_churn(seed: int, seconds: float, trace: bool, tamper: Tamper = None,
              spans_dir: Optional[str] = None) -> Outcome:
    name = "serve-churn"
    spec = workload_spec(name)
    inputs = churn_inputs(spec, seed)
    config = WorkspaceConfig(index=IndexConfig(num_codewords=int(spec["num_codewords"])))
    k = int(spec["k"])
    mode = str(spec["query_mode"])
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    errors: List[str] = []
    probe = speed_probe(int(spec["probe_loops"]))

    # Set-up: empty -> serving (adds, split into shards, index build with
    # engine prepare, server start), repeated; the median is reported.
    repeats = int(spec["setup_repeats"])
    setups: List[float] = []
    setup_spans: List[tracing.Span] = []
    server = sharded = None
    for repeat in range(repeats):
        traced_setup = trace and repeat == repeats - 1
        if server is not None:
            server.stop()
            sharded.close()
        first_probe = len(probe.samples)
        probe.sample(5)
        if traced_setup:
            tracer.install()
        try:
            started = time.perf_counter()
            source = Workspace(config)
            for identifier, values in zip(inputs.identifiers, inputs.stored):
                source.add(values, identifier=identifier)
            sharded = split_workspace(source, int(spec["shards"]), build_index=True)
            server = WorkspaceServer(sharded, host="127.0.0.1", port=0).start()
            setup = time.perf_counter() - started
            source.close()
        finally:
            if traced_setup:
                tracer.restore()
                setup_spans = recorder.spans()
                recorder.clear()
        probe.sample(5)
        setups.append(setup / probe.factor_of(probe.samples[first_probe:]))

    # The measured closed loop: one client sends its next op as soon as
    # the previous one is answered.  Each op runs right after its own
    # probe, while the server is idle; a traced run spends its first half
    # untraced and its second half traced.
    client = RemoteWorkspace(server.host, server.port, timeout=60.0)
    try:
        client.query(inputs.warmup, k, mode=mode)
        records: List[_Record] = []
        roster = collections.deque(inputs.identifiers)
        values_of = dict(zip(inputs.identifiers, inputs.stored))
        counts = {"query": 0, "add": 0}
        started = time.perf_counter()
        deadline = started + seconds
        switch_at = started + seconds / 2.0 if trace else None
        probing = 0.0
        while time.perf_counter() < deadline:
            if switch_at is not None and not tracer.installed \
                    and time.perf_counter() >= switch_at:
                tracer.install()
            if not tracer.installed:
                probing += probe.sample()
            record = _Record(inputs.ops[len(records)], traced=tracer.installed,
                             probe=len(probe.samples) - 1)
            records.append(record)
            index = 0
            if record.kind == "remove":
                record.identifier = roster.popleft()
            else:
                index = counts[record.kind]
                counts[record.kind] += 1
                if record.kind == "add":
                    record.identifier = inputs.added_identifier(index)
                    values_of[record.identifier] = inputs.added[index]
                    roster.append(record.identifier)
            record.sent = time.perf_counter()
            try:
                if record.kind == "query":
                    query = inputs.queries[index]
                    if record.traced:
                        result = tracer.span("client.query", client.query, query, k,
                                             rid=digest(query), mode=mode)
                    else:
                        result = client.query(query, k, mode=mode)
                    record.ok = _sane(result, k)
                    record.result = result
                elif record.kind == "add":
                    client.add(values_of[record.identifier], identifier=record.identifier)
                    record.ok = True
                else:
                    client.remove(record.identifier)
                    record.ok = True
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                _note_error(errors, exc)
            record.done = time.perf_counter()
        busy = time.perf_counter() - started - probing
        loop_spans: List[tracing.Span] = []
        if tracer.installed:
            tracer.restore()
            loop_spans = recorder.spans()
            _write_spans(setup_spans + loop_spans, name, seed, spans_dir)
        refused = float(server.server_stats()["refused_total"])

        # Untimed checks on the final state.
        acknowledged = set(inputs.identifiers)
        for record in records:
            if record.kind == "add" and record.ok:
                acknowledged.add(record.identifier)
            elif record.kind == "remove" and record.ok:
                acknowledged.discard(record.identifier)
        report, recall, probe_ops, probe_failed = _check_churn(
            client, inputs, acknowledged, values_of, config, k, mode,
            int(spec["probe_queries"]), tamper, errors,
        )
    finally:
        client.close()
        server.stop()
        sharded.close()

    attempted = len(records) + probe_ops
    failed = sum(1 for r in records if not r.ok) + report.failed + probe_failed
    limit = float(spec["latency_limit_ms"]) / 1e3
    queries = [r for r in records if r.kind == "query" and r.ok]
    # write_p50_ms is over adds: pooled with the equally many removes
    # (about 2 ms against 18 ms) the median falls in the gap between the
    # two and jumps from run to run.
    adds = [r for r in records if r.kind == "add" and r.ok]

    def reference(chosen: List[_Record]) -> List[float]:
        return [r.seconds / probe.factor_near(r.probe) for r in chosen if not r.traced]

    raw = {
        "query_p50_ms": _ms_percentile([r.seconds for r in queries], 50),
        "query_p90_ms": _ms_percentile([r.seconds for r in queries], 90),
        "throughput_qps": len(queries) / busy if busy > 0 else 0.0,
        "write_p50_ms": _ms_percentile([r.seconds for r in adds], 50),
    }
    query_times = reference(queries)
    end_to_end = {
        "setup_s": float(np.median(setups)),
        "query_p50_ms": _ms_percentile(query_times, 50),
        "query_p90_ms": _ms_percentile(query_times, 90),
        # Queries per second of the client's time spent on queries.
        "throughput_qps": len(query_times) / sum(query_times) if query_times else 0.0,
        "write_p50_ms": _ms_percentile(reference(adds), 50),
        "slo_attainment": sum(
            1 for seconds_ in reference([r for r in records if r.ok])
            if seconds_ <= limit
        ) / float(len(records)),
        "recall_at_k": recall,
        "peak_rss_mb": _peak_rss_mb(),
        "success_fraction": 1.0 - failed / float(attempted),
    }
    per_layer: Dict[str, float] = {}
    if trace:
        traced = [r for r in queries if r.traced]
        untraced = [r for r in queries if not r.traced]
        per_layer = _layer_metrics(
            setup_spans, loop_spans, [r.result for r in traced],
            [r.seconds for r in untraced], [r.seconds for r in traced],
        )
        per_layer["server.refused"] = refused
    return Outcome(attempted=attempted, failed=failed, end_to_end=end_to_end,
                   per_layer=per_layer, query_samples=len(queries),
                   speed_factor=probe.factor, raw=raw, errors=errors)


def _check_churn(client: RemoteWorkspace, inputs, acknowledged: set, values_of: dict,
                 config: WorkspaceConfig, k: int, mode: str, probes: int,
                 tamper: Tamper, errors: List[str]):
    """Final-state checks: HTTP exact answers vs. an unsharded rebuild."""
    failed = 0
    roster = client.identifiers
    if set(roster) != acknowledged or len(roster) != len(acknowledged):
        failed += 1
        errors.append("final roster differs from the writes acknowledged")
    rebuilt = Workspace(config)
    try:
        for identifier in roster:
            rebuilt.add(values_of[identifier], identifier=identifier)
        remote_exact: List[Answer] = []
        local_exact: List[Answer] = []
        recall_report = CheckReport()
        for i in range(probes):
            probe = inputs.probes[i]
            exact = answer_of(client.query(probe, k, mode="exact"))
            routed = answer_of(client.query(probe, k, mode=mode))
            remote_exact.append(exact)
            local_exact.append(answer_of(rebuilt.query(probe, k, mode="exact")))
            recall_report.record(routed, exact)
    finally:
        rebuilt.close()
    if tamper is not None:
        remote_exact = tamper(remote_exact)
    report = check_pairs(remote_exact, local_exact)
    return report, recall_report.recall, 2 * probes + 1, failed
