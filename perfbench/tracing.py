"""Outside-in tracing of the program's layers, for the traced run only.

:class:`Tracer` wraps the public functions of each layer (``repro.server``,
``repro.service``, ``repro.indexing``, ``repro.engine``, ``repro.core``,
``repro.dtw``) from the benchmark's own code; ``src/`` is never edited.
A function is wrapped in the module where it is *called*, because
``from ... import`` binds the name there: ``banded_dtw`` is wrapped in
both ``repro.engine.engine`` and ``repro.core.sdtw``.  Methods are wrapped
on their class.  :meth:`Tracer.restore` puts every original back, so the
untraced run never sees a wrapper.

Spans are kept in memory (name, start, end, parent, request id, thread)
and written out when the run ends.  The parent is the enclosing span on
the same thread.  Across threads -- the HTTP boundary and the
scatter-gather threads -- spans of one request are correlated by a
request id: a digest of the query's float64 bytes (JSON float round trips
are exact) or, for writes, the series identifier.  Spans opened below a
span with a request id inherit it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def digest(values) -> str:
    """Request id of a query: a digest of its float64 bytes."""
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64)).tobytes()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    rid: Optional[str]
    name: str
    thread: int
    start: float
    end: float
    instance: int
    """``id()`` of the bound object for methods (identifies a shard), else 0."""
    size: int
    """Result size where one is recorded (candidates generated), else -1."""

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "sid": self.sid, "parent": self.parent, "rid": self.rid,
            "name": self.name, "thread": self.thread, "start": self.start,
            "end": self.end, "instance": self.instance, "size": self.size,
        }


class SpanRecorder:
    """Thread-safe in-memory span store with a per-thread span stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local

    def run(self, name: str, fn: Callable, args: tuple, kwargs: dict,
            rid: Optional[str] = None, instance: int = 0,
            sized: bool = False):
        """Call ``fn`` inside a span named ``name``."""
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        outer_rid = state.rid
        if rid is None:
            rid = outer_rid
        with self._lock:
            sid = next(self._ids)
        state.stack.append(sid)
        state.rid = rid
        size = -1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if sized:
                size = int(len(result))
            return result
        finally:
            end = time.perf_counter()
            state.stack.pop()
            state.rid = outer_rid
            span = Span(sid, parent, rid, name, threading.get_ident(), start,
                        end, instance, size)
            with self._lock:
                self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


def _rid_values(args: tuple, kwargs: dict) -> Optional[str]:
    values = kwargs["values"] if "values" in kwargs else args[1]
    return digest(values)


def _rid_identifier(args: tuple, kwargs: dict) -> Optional[str]:
    identifier = kwargs.get("identifier", args[2] if len(args) > 2 else None)
    return None if identifier is None else str(identifier)


def _rid_remove(args: tuple, kwargs: dict) -> Optional[str]:
    return str(kwargs["identifier"] if "identifier" in kwargs else args[1])


# (module, class or None, attribute, span name, request-id function, sized)
TARGETS: Sequence[Tuple[str, Optional[str], str, str, Optional[Callable], bool]] = (
    # repro.server
    ("repro.server.sharding", "ShardedWorkspace", "query", "server.sharded_query", _rid_values, False),
    ("repro.server.sharding", "ShardedWorkspace", "add", "server.sharded_add", _rid_identifier, False),
    ("repro.server.sharding", "ShardedWorkspace", "remove", "server.sharded_remove", _rid_remove, False),
    # repro.service
    ("repro.service.workspace", "Workspace", "query", "service.query", _rid_values, False),
    ("repro.service.workspace", "Workspace", "add", "service.add", _rid_identifier, False),
    ("repro.service.workspace", "Workspace", "remove", "service.remove", _rid_remove, False),
    ("repro.service.workspace", "Workspace", "build_index", "service.build_index", None, False),
    # repro.indexing
    ("repro.indexing.searcher", "IndexedSearcher", "query", "indexing.searcher_query", None, False),
    ("repro.indexing.searcher", "IndexedSearcher", "generate_candidates", "indexing.generate", None, True),
    ("repro.indexing.postings", "InvertedIndex", "add_series", "indexing.add_series", None, False),
    ("repro.indexing.codebook", "Codebook", "fit", "indexing.codebook_fit", None, False),
    ("repro.indexing.pq", "ResidualPQ", "fit", "indexing.pq_fit", None, False),
    # repro.engine
    ("repro.engine.engine", "DistanceEngine", "knn", "engine.knn", None, False),
    ("repro.engine.engine", "DistanceEngine", "prepare", "engine.prepare", None, False),
    ("repro.engine.engine", "DistanceEngine", "extended", "engine.extend", None, False),
    # repro.core
    ("repro.core.sdtw", "SDTW", "distance", "core.sdtw", None, False),
    ("repro.core.sdtw", "SDTW", "align", "core.sdtw", None, False),
    ("repro.core.sdtw", "SDTW", "build_band", "core.sdtw", None, False),
    ("repro.core.sdtw", "SDTW", "extract_features", "core.sdtw", None, False),
    ("repro.core.sdtw", None, "extract_salient_features", "core.extract", None, False),
    ("repro.indexing.searcher", None, "extract_salient_features", "core.extract", None, False),
    ("repro.retrieval.feature_store", None, "extract_salient_features", "core.extract", None, False),
    ("repro.core.sdtw", None, "match_salient_features", "core.match", None, False),
    ("repro.core.sdtw", None, "prune_inconsistent_pairs", "core.consistency", None, False),
    ("repro.core.sdtw", None, "build_interval_partition", "core.intervals", None, False),
    ("repro.core.sdtw", None, "build_constraint_band", "core.band", None, False),
    ("repro.core.sdtw", None, "build_symmetric_band", "core.band", None, False),
    # repro.dtw
    ("repro.engine.engine", None, "banded_dtw", "dtw.dp", None, False),
    ("repro.core.sdtw", None, "banded_dtw", "dtw.dp", None, False),
    ("repro.engine.engine", None, "banded_dtw_batch", "dtw.dp", None, False),
    ("repro.engine.engine", None, "lb_kim", "dtw.bounds", None, False),
    ("repro.engine.engine", None, "lb_kim_batch", "dtw.bounds", None, False),
    ("repro.engine.engine", None, "lb_keogh", "dtw.bounds", None, False),
    ("repro.engine.engine", None, "lb_keogh_batch", "dtw.bounds", None, False),
    ("repro.engine.engine", None, "kim_profile", "dtw.bounds", None, False),
)


class Tracer:
    """Installs and restores the layer wrappers around one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for module_name, class_name, attribute, name, rid_of, sized in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
                wrapper = self._method_wrapper(original, name, rid_of, sized)
            else:
                original = getattr(owner, attribute)
                wrapper = self._function_wrapper(original, name, sized)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def span(self, name: str, fn: Callable, *args, rid: Optional[str] = None,
             **kwargs):
        """Run one benchmark-side call (a request's root) inside a span."""
        return self.recorder.run(name, fn, args, kwargs, rid=rid)

    def _function_wrapper(self, original, name: str, sized: bool):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.run(name, original, args, kwargs, sized=sized)

        return wrapper

    def _method_wrapper(self, original, name: str, rid_of, sized: bool):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            return recorder.run(name, original, args, kwargs, rid=rid,
                                instance=id(args[0]), sized=sized)

        return wrapper


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #
SELF_METRICS: Dict[str, str] = {
    "dtw.dp": "dtw.dp_ms",
    "dtw.bounds": "dtw.bounds_ms",
    "engine.knn": "engine.knn_self_ms",
    "engine.extend": "engine.extend_ms",
    "core.sdtw": "core.sdtw_self_ms",
    "core.extract": "core.extract_ms",
    "core.match": "core.match_ms",
    "core.consistency": "core.consistency_ms",
    "core.intervals": "core.intervals_ms",
    "core.band": "core.band_ms",
    "indexing.generate": "indexing.generate_self_ms",
    "indexing.searcher_query": "indexing.query_self_ms",
    "service.query": "service.query_self_ms",
}
"""Span name -> per-query metric of its self time (ms per query)."""

ROOT_NAMES = ("bench.query", "client.query")
"""Benchmark-side spans that open one query request."""

HANDOFF_NAMES = ("client.query", "server.sharded_query")
"""Spans whose work continues on other threads: the HTTP request is
served on a server thread, and the sharded query scatters one thread per
shard.  Spans on those threads are their children."""


def _union_seconds(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class RequestTree:
    """The spans of one query request, linked across threads."""

    root: Span
    spans: List[Span]
    children: Dict[int, List[Span]]

    def self_seconds(self, span: Span) -> float:
        kids = self.children.get(span.sid, [])
        return span.seconds - _union_seconds(
            [(k.start, k.end) for k in kids], span.start, span.end
        )

    def critical_path(self) -> List[Span]:
        """Spans on the path that blocks the result.

        Same-thread children all block their parent; of children on other
        threads (the HTTP hop, the scatter fan-out) only the slowest one
        does.
        """
        path: List[Span] = []
        todo = [self.root]
        while todo:
            span = todo.pop()
            path.append(span)
            kids = self.children.get(span.sid, [])
            local = [k for k in kids if k.thread == span.thread]
            remote = [k for k in kids if k.thread != span.thread]
            todo.extend(local)
            if remote:
                todo.append(max(remote, key=lambda k: k.seconds))
        return path


def request_trees(spans: List[Span]) -> List[RequestTree]:
    """Group spans into one tree per query request root."""
    by_rid: Dict[str, List[Span]] = {}
    for span in spans:
        if span.rid is not None:
            by_rid.setdefault(span.rid, []).append(span)
    trees = []
    for span in spans:
        if span.name not in ROOT_NAMES:
            continue
        group = [
            s for s in by_rid.get(span.rid, [])
            if s.start >= span.start and s.end <= span.end
        ]
        sids = {s.sid for s in group}
        children: Dict[int, List[Span]] = {}
        for s in group:
            if s.sid == span.sid:
                continue
            parent = s.parent if s.parent in sids else None
            if parent is None:
                # Cross-thread link: the innermost span of the same
                # request that hands work to other threads (the client
                # call across HTTP, the scatter fan-out) and contains it.
                holders = [
                    h for h in group
                    if h.name in HANDOFF_NAMES and h.thread != s.thread
                    and h.start <= s.start and h.end >= s.end
                ]
                if not holders:
                    continue
                parent = max(holders, key=lambda h: h.start).sid
            children.setdefault(parent, []).append(s)
        trees.append(RequestTree(root=span, spans=group, children=children))
    return trees


def query_layer_metrics(trees: List[RequestTree]) -> Dict[str, float]:
    """Per-query layer metrics (means over the traced query requests)."""
    out: Dict[str, float] = {metric: 0.0 for metric in SELF_METRICS.values()}
    out.update({
        "dtw.dp_calls": 0.0, "core.extract_calls": 0.0,
        "indexing.candidates_per_query": 0.0, "server.ingress_ms": 0.0,
        "server.egress_ms": 0.0, "server.scatter_gather_ms": 0.0,
        "server.shard_skew_ms": 0.0, "attribution.unnamed_ms": 0.0,
        # Total DP seconds (not per query), for dtw.ns_per_cell.
        "dtw.dp_seconds_total": 0.0,
    })
    if not trees:
        return out
    fan_outs = 0
    for tree in trees:
        for span in tree.spans:
            if span.sid == tree.root.sid:
                continue
            metric = SELF_METRICS.get(span.name)
            if metric is not None:
                out[metric] += tree.self_seconds(span) * 1e3
            if span.name == "dtw.dp":
                out["dtw.dp_calls"] += 1
                out["dtw.dp_seconds_total"] += tree.self_seconds(span)
            elif span.name == "core.extract":
                out["core.extract_calls"] += 1
            elif span.name == "indexing.generate" and span.size >= 0:
                out["indexing.candidates_per_query"] += span.size
        named = 0.0
        for span in tree.critical_path():
            if span.sid == tree.root.sid:
                continue
            named += tree.self_seconds(span)
        sharded = [s for s in tree.spans if s.name == "server.sharded_query"]
        if tree.root.name == "client.query" and sharded:
            hop = sharded[0]
            ingress = hop.start - tree.root.start
            egress = tree.root.end - hop.end
            out["server.ingress_ms"] += ingress * 1e3
            out["server.egress_ms"] += egress * 1e3
            named += ingress + egress
            shards = [
                s for s in tree.children.get(hop.sid, [])
                if s.name == "service.query"
            ]
            if shards:
                slowest = max(s.seconds for s in shards)
                out["server.scatter_gather_ms"] += (hop.seconds - slowest) * 1e3
                out["server.shard_skew_ms"] += (
                    slowest - min(s.seconds for s in shards)
                ) * 1e3
                fan_outs += 1
        out["attribution.unnamed_ms"] += (tree.root.seconds - named) * 1e3
    count = float(len(trees))
    for metric in list(out):
        if metric == "dtw.dp_seconds_total":
            continue
        if metric in ("server.scatter_gather_ms", "server.shard_skew_ms"):
            out[metric] = out[metric] / fan_outs if fan_outs else 0.0
        else:
            out[metric] /= count
    return out


def first_query_after_write_ms(spans: List[Span]) -> float:
    """Mean duration of a shard's first ``Workspace.query`` after a write.

    Shards are told apart by the bound ``Workspace`` object.  A query
    counts when it is the first on its shard to start after an add or
    remove on that shard ended.
    """
    by_shard: Dict[int, List[Span]] = {}
    for span in spans:
        if span.name in ("service.query", "service.add", "service.remove"):
            by_shard.setdefault(span.instance, []).append(span)
    firsts: List[float] = []
    for events in by_shard.values():
        writes = sorted(s.end for s in events if s.name != "service.query")
        queries = sorted(
            (s for s in events if s.name == "service.query"),
            key=lambda s: s.start,
        )
        taken = set()
        for written in writes:
            for query in queries:
                if query.start >= written:
                    if query.sid not in taken:
                        taken.add(query.sid)
                        firsts.append(query.seconds)
                    break
    return float(np.mean(firsts)) * 1e3 if firsts else 0.0


def mean_seconds(spans: List[Span], name: str) -> float:
    durations = [s.seconds for s in spans if s.name == name]
    return float(np.mean(durations)) if durations else 0.0


def total_seconds(spans: List[Span], name: str) -> float:
    return float(sum(s.seconds for s in spans if s.name == name))
