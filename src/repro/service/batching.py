"""Micro-batching of concurrent exact queries.

Under multi-threaded load, N callers each running the full per-query
cascade contend for the interpreter; the engine's batch entry point
(:meth:`repro.engine.DistanceEngine.knn`) answers the same N queries in
one call, sharing the prepared collection caches.  :class:`MicroBatcher` is the combiner
that turns concurrent ``query`` calls into such batches:

* the first caller to arrive becomes the **leader**: if no companion is
  queued it executes immediately (a solo query never pays a batching
  latency floor); once at least one companion is waiting it holds the
  window open up to the configured duration (closing early once
  ``max_batch`` requests are queued), drains the queue, and executes
  the batch;
* every other caller (**follower**) just blocks on its own event and is
  handed its result when the leader finishes;
* leadership is held across batch execution: requests arriving while a
  batch is in flight queue as followers, and the leader drains them as
  the next batch before retiring (group-commit coalescing — under load
  the batch size tracks the execution time of the previous batch, with
  no window sleep at all).  Leadership is only released, under the
  queue lock, once the queue is empty, so no request can be stranded
  between batches.

Queue draining and leadership hand-off happen under one lock, so a
request can never be stranded between batches.  Because the engine
answers batched queries independently per query, the results are
bit-identical to the same calls made without batching — batching is a
throughput knob, never a semantics knob.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional


class QueryRequest:
    """One in-flight query: inputs, completion event, and the outcome.

    Timestamps record the enqueue→execute path: ``enqueued_at`` is set
    at construction, ``started_at`` when the leader drains the request
    into a batch.  Their difference, :attr:`queue_wait_seconds`, is the
    micro-batching delay this request actually paid and is surfaced as
    its own stage in ``WorkspaceQueryResult.timings()`` so batched and
    unbatched queries have comparable breakdowns.
    """

    __slots__ = ("payload", "event", "result", "error", "enqueued_at", "started_at")

    def __init__(self, payload: object) -> None:
        self.payload = payload
        self.event = threading.Event()
        self.result: Optional[object] = None
        self.error: Optional[BaseException] = None
        self.enqueued_at = time.perf_counter()
        self.started_at: Optional[float] = None

    @property
    def queue_wait_seconds(self) -> float:
        """Seconds spent queued before batch execution began (0.0 if
        the request never reached a batch)."""
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.enqueued_at)

    def resolve(self, result: object) -> None:
        self.result = result
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


RunBatch = Callable[[List[QueryRequest]], None]


class MicroBatcher:
    """Coalesce concurrent submissions into batches executed by one leader.

    Parameters
    ----------
    run_batch:
        Callable executing a drained batch; it must resolve (or fail)
        every request it is handed.  Exceptions escaping it fail the
        whole batch, so no follower can block forever.
    window_seconds:
        How long a leader holds the window open once at least one
        companion request is queued.  A leader whose queue stays empty
        closes the window immediately instead of sleeping it out.
    max_batch:
        Queue length at which the window closes early.
    metrics:
        Optional :class:`repro.telemetry.MetricsRegistry` (or the no-op
        null registry).  When given, the batcher observes batch-size and
        per-request queue-wait distributions under
        ``repro_microbatch_batch_size`` /
        ``repro_microbatch_queue_wait_seconds``.
    events:
        Optional :class:`repro.telemetry.EventLog` (or the no-op null
        log).  Worker-side request failures emit a ``batcher``
        ``request_failed`` event, so the operator log records failures
        even when the caller swallowed the re-raised exception.
    """

    def __init__(
        self,
        run_batch: RunBatch,
        *,
        window_seconds: float = 0.002,
        max_batch: int = 32,
        metrics=None,
        events=None,
    ) -> None:
        self._run_batch = run_batch
        self.window_seconds = max(0.0, float(window_seconds))
        self.max_batch = max(1, int(max_batch))
        self._lock = threading.Lock()
        self._queue: List[QueryRequest] = []
        self._leader_active = False
        self.batches_executed = 0
        self.requests_batched = 0
        if metrics is not None:
            from ..telemetry.registry import DEFAULT_SIZE_BUCKETS

            self._batch_size_hist = metrics.histogram(
                "repro_microbatch_batch_size",
                "Requests coalesced per executed micro-batch.",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._queue_wait_hist = metrics.histogram(
                "repro_microbatch_queue_wait_seconds",
                "Enqueue-to-execute wait per micro-batched request.",
            )
        else:
            self._batch_size_hist = None
            self._queue_wait_hist = None
        self._events = events

    def submit(self, payload: object) -> object:
        """Enqueue one request and block until its result is available."""
        return self.submit_request(payload).result

    def submit_request(self, payload: object) -> QueryRequest:
        """Like :meth:`submit`, but return the resolved
        :class:`QueryRequest` so callers can read its queue-wait
        timestamps alongside the result."""
        request = QueryRequest(payload)
        with self._lock:
            self._queue.append(request)
            is_leader = not self._leader_active
            if is_leader:
                self._leader_active = True
        if not is_leader:
            request.event.wait()
        else:
            self._lead()
        if request.error is not None:
            raise request.error
        return request

    def _report_failures(self, batch: List[QueryRequest]) -> None:
        """Emit one ``request_failed`` event for a batch with failures.

        A failed request re-raises in its submitting caller, but a
        caller may swallow that — the event log is how the *operator*
        still sees it.  One event per batch (not per request) keeps an
        error storm bounded; emission itself must never raise into the
        leader loop.
        """
        if self._events is None:
            return
        failures = [request for request in batch if request.error is not None]
        if not failures:
            return
        first = failures[0].error
        try:
            self._events.emit(
                "batcher", "request_failed", level="error",
                failed=len(failures),
                batch_size=len(batch),
                error=type(first).__name__,
                message=str(first),
            )
        except Exception:  # noqa: BLE001 - diagnostics must not kill the leader
            pass

    # ------------------------------------------------------------------ #
    # Leader protocol
    # ------------------------------------------------------------------ #
    def _lead(self) -> None:
        while True:
            deadline = time.monotonic() + self.window_seconds
            while True:
                with self._lock:
                    size = len(self._queue)
                if size >= self.max_batch:
                    break
                if size <= 1:
                    # Nothing but (at most) one request is waiting:
                    # close the window immediately instead of sleeping
                    # it out, so a solo query never pays a batching
                    # latency floor.
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(0.0005, remaining))
            with self._lock:
                batch = self._queue
                self._queue = []
                self.batches_executed += 1
                self.requests_batched += len(batch)
            now = time.perf_counter()
            for request in batch:
                request.started_at = now
            if self._batch_size_hist is not None:
                self._batch_size_hist.observe(len(batch))
                for request in batch:
                    self._queue_wait_hist.observe(request.queue_wait_seconds)
            try:
                self._run_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - propagated per request
                for request in batch:
                    if not request.event.is_set():
                        request.fail(exc)
            finally:
                for request in batch:
                    if not request.event.is_set():
                        request.fail(
                            RuntimeError(
                                "batch runner did not resolve this request"
                            )
                        )
                self._report_failures(batch)
            with self._lock:
                # Retire only once the queue is drained; requests that
                # arrived during execution are this leader's next batch.
                # Hand-off is atomic with the emptiness check, so a
                # submission always finds either an active leader or an
                # empty queue — never a stranded request.
                if not self._queue:
                    self._leader_active = False
                    return


__all__ = ["MicroBatcher", "QueryRequest"]
