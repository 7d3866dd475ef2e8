"""Micro-batching request scheduler for the inference service.

Single-clip requests arrive concurrently from HTTP handler threads; the
model amortizes much better over a batched forward.  The
:class:`MicroBatcher` sits between the two: callers block in
:meth:`submit` while lane threads coalesce queued requests into batches
under a (max batch size, max wait) policy and run the model once per
batch.  A served model has one batcher whatever its worker count: one
queue, one response cache, and one lane per worker, each lane taking
the next batch off the shared queue (one lane runs the forward
in-process; N lanes each hand their batch to a free forked worker).

Invariants the tests pin down:

* **determinism** — requests are stacked in FIFO order and the batched
  output row for a clip is bitwise identical to running that clip alone
  (the model is applied per-sample; batching changes wall time, never
  values);
* **backpressure** — the queue is bounded; a submit against a full
  queue raises :class:`QueueFullError` immediately instead of growing
  the queue (the HTTP layer maps this to 503);
* **deadlines** — each request carries a deadline measured from
  enqueue; a lane drops expired requests with
  :class:`DeadlineExceededError` (504) without wasting a forward pass
  on them;
* **caching** — an LRU response cache keyed by the input's content hash
  answers repeats without touching the queue at all (same memoization
  shape as :mod:`repro.runtime.cache`, but keyed on content because
  request arrays are not hashable objects).

Everything is observable through :mod:`repro.obs`: queue-wait timer,
batch-size histogram, cache hit/miss/rejection counters, and a
``serve.batch`` span around every model call.  Request identity crosses
the thread hop explicitly: :meth:`MicroBatcher.submit` captures the
caller's :class:`~repro.obs.TraceContext` (HTTP handler thread) on
enqueue and the lane re-activates the first coalesced request's
context around the batch, so ``serve.batch`` (and everything under it,
including the model forward) attaches to that request's span tree; the
other coalesced request ids ride along in the span's ``request_ids``
attribute.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.obs import (
    capture_context, counter, histogram, record_lane_crash,
    set_span_attrs, span, timer, use_context,
)
from repro.runtime.sync import make_condition, make_lock

__all__ = [
    "BatchPolicy", "MicroBatcher", "ServeError", "QueueFullError",
    "DeadlineExceededError", "BatcherClosedError", "content_hash",
]


class ServeError(Exception):
    """Base class for serving-layer failures."""


class QueueFullError(ServeError):
    """The request queue is at capacity; retry later (HTTP 503)."""


class DeadlineExceededError(ServeError):
    """The request waited past its deadline before a batch ran (HTTP 504)."""


class BatcherClosedError(ServeError):
    """The batcher is shut down and no longer accepts work (HTTP 503)."""


def content_hash(array: np.ndarray) -> str:
    """Stable hash of an array's dtype, shape and bytes (cache key)."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs governing coalescing, queueing and caching."""

    #: largest forward-pass batch a lane will assemble
    max_batch_size: int = 8
    #: how long a lane holds an open batch for stragglers
    max_wait_ms: float = 5.0
    #: bound on queued (not yet running) requests; at least 1
    max_queue: int = 64
    #: per-request time from enqueue to batch start before it is dropped
    default_deadline_ms: float = 30_000.0
    #: LRU response-cache entries; 0 disables the cache
    cache_entries: int = 128

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0 or self.default_deadline_ms <= 0:
            raise ValueError("waits and deadlines must be positive")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


class _ResponseCache:
    """Thread-safe LRU of ``content hash -> output array``."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()
        self._evictions = 0
        self._lock = make_lock("serve.cache")

    def get(self, key: str) -> np.ndarray | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: np.ndarray) -> None:
        if self.capacity <= 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            counter("serve.cache.evicted").inc(evicted)

    @property
    def evictions(self) -> int:
        with self._lock:
            return self._evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Request:
    __slots__ = ("input", "key", "enqueued_s", "deadline_s", "event", "result",
                 "error", "ctx")

    def __init__(self, input_array: np.ndarray, key: str, deadline_s: float,
                 enqueued_s: float):
        self.input = input_array
        self.key = key
        self.enqueued_s = enqueued_s
        self.deadline_s = deadline_s
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: Exception | None = None
        # the submitting thread's trace identity, restored by the lane
        self.ctx = capture_context()

    @property
    def request_id(self) -> str | None:
        return self.ctx.request_id if self.ctx is not None else None

    def finish(self, result: np.ndarray | None = None,
               error: Exception | None = None) -> None:
        self.result = result
        self.error = error
        self.event.set()


class MicroBatcher:
    """Coalesces concurrent single-input requests into batched calls.

    ``predict_fn`` maps a stacked ``(B, ...)`` array to a ``(B, ...)``
    output array.  ``lanes`` threads take batches off the one queue and
    call it; with the default single lane the wrapped model needs no
    internal locking, and with more ``predict_fn`` must accept
    concurrent calls (the serving pool's ``forward`` hands each one to
    a free worker process).

    ``observer``, when given, is called on the lane thread after each
    successful batch as ``observer(stacked, outputs, request_ids, ctxs)``
    — the hook the physics health monitor hangs off.  It must be
    observation-only; any exception it raises is swallowed and counted
    (``serve.observer_errors``) rather than failing the batch.

    ``clock``, when given, replaces ``time.monotonic`` for every
    deadline and coalescing-window decision (enqueue stamps, expiry,
    ``max_wait_ms`` holds).  Tests inject a fake clock and drive time
    explicitly — pair an advance with :meth:`kick` so the lanes re-read
    the clock — instead of racing real sleeps.
    """

    def __init__(self, predict_fn, policy: BatchPolicy | None = None,
                 name: str = "default", observer=None, clock=None,
                 lanes: int = 1):
        if lanes < 1:
            raise ValueError(f"a batcher needs >= 1 lanes, got {lanes}")
        self.policy = policy if policy is not None else BatchPolicy()
        self.policy.validate()
        self.name = name
        self._predict_fn = predict_fn
        self._observer = observer
        self._clock = clock if clock is not None else time.monotonic
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache = _ResponseCache(self.policy.cache_entries)
        self._queue: deque[_Request] = deque()
        self._lock = make_lock(f"serve.batcher.{name}")
        self._work_ready = make_condition(f"serve.batcher.{name}", lock=self._lock)
        self._closed = False
        self._drain_on_close = True
        self._batches_run = 0
        self._requests_done = 0
        self._lanes = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"repro-serve-batcher-{name}-{index}")
            for index in range(lanes)]
        for lane in self._lanes:
            lane.start()

    # -- client side ---------------------------------------------------
    def submit(self, input_array: np.ndarray, deadline_ms: float | None = None,
               timeout_s: float | None = None) -> np.ndarray:
        """Block until ``input_array``'s prediction is available.

        Raises :class:`QueueFullError` on backpressure,
        :class:`DeadlineExceededError` when the request expires in the
        queue, and :class:`BatcherClosedError` after :meth:`close`.
        """
        input_array = np.asarray(input_array)
        counter("serve.requests").inc()
        key = content_hash(input_array)
        cached = self._cache.get(key)
        if cached is not None:
            counter("serve.cache.hits").inc()
            with self._lock:
                self._cache_hits += 1
            set_span_attrs(cache="hit")
            return cached
        counter("serve.cache.misses").inc()
        with self._lock:
            self._cache_misses += 1
        deadline_ms = self.policy.default_deadline_ms if deadline_ms is None else deadline_ms
        now = self._clock()
        request = _Request(input_array, key,
                           deadline_s=now + deadline_ms / 1000.0,
                           enqueued_s=now)
        with self._work_ready:
            if self._closed:
                counter("serve.rejected.closed").inc()
                raise BatcherClosedError(f"batcher {self.name!r} is shut down")
            if len(self._queue) >= self.policy.max_queue:
                counter("serve.rejected.overload").inc()
                raise QueueFullError(
                    f"batcher {self.name!r} queue full "
                    f"({self.policy.max_queue} requests waiting); retry later")
            self._queue.append(request)
            self._work_ready.notify()
        if not request.event.wait(timeout_s):
            raise DeadlineExceededError(
                f"no response within {timeout_s:.3f}s (server overloaded?)")
        if request.error is not None:
            raise request.error
        return request.result

    # -- lane side -----------------------------------------------------
    def _gather(self) -> list[_Request]:
        """Block for the first request, then hold the batch open briefly."""
        with self._work_ready:
            while not self._queue and not self._closed:
                self._work_ready.wait()
            if not self._queue:
                return []
            batch = [self._queue.popleft()]
            hold_until = self._clock() + self.policy.max_wait_ms / 1000.0
            while len(batch) < self.policy.max_batch_size:
                if self._queue:
                    # only coalesce shape/dtype-compatible requests; others
                    # stay queued for the next batch
                    head = self._queue[0]
                    if (head.input.shape != batch[0].input.shape
                            or head.input.dtype != batch[0].input.dtype):
                        break
                    batch.append(self._queue.popleft())
                    continue
                remaining = hold_until - self._clock()
                if remaining <= 0 or self._closed:
                    break
                self._work_ready.wait(remaining)
            if self._queue:
                # what this batch left behind may be another lane's
                # wake-up, consumed by this lane's hold
                self._work_ready.notify()
            return batch

    def _run(self) -> None:
        try:
            self._run_loop()
        except BaseException as exc:
            # an exception escaping the loop itself (not a per-batch
            # failure, which _run_loop forwards to callers) kills this
            # lane: snapshot the black box before dying
            record_lane_crash("batcher", exc)
            raise

    def _run_loop(self) -> None:
        while True:
            batch = self._gather()
            if not batch:
                # _gather only comes back empty once closed with an
                # empty queue (drained or discarded) — the lane exits.
                break
            now = self._clock()
            live: list[_Request] = []
            for request in batch:
                if now > request.deadline_s:
                    counter("serve.expired").inc()
                    request.finish(error=DeadlineExceededError(
                        "request spent longer than its deadline queued "
                        f"({(now - request.enqueued_s) * 1e3:.1f}ms)"))
                else:
                    timer("serve.queue_wait").observe(now - request.enqueued_s)
                    live.append(request)
            if not live:
                continue
            histogram("serve.batch_size",
                      bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)).observe(len(live))
            stacked = np.stack([r.input for r in live])
            # the batch span joins the first coalesced request's trace;
            # the other request ids are linked through the span attrs
            batch_ctx = next((r.ctx for r in live if r.ctx is not None), None)
            request_ids = [r.request_id for r in live]
            try:
                with use_context(batch_ctx), \
                        span("serve.batch", size=len(live), batcher=self.name,
                             request_ids=[rid for rid in request_ids if rid]), \
                        timer("serve.batch_compute").time():
                    outputs = np.asarray(self._predict_fn(stacked))
                    if len(outputs) != len(live):
                        raise ServeError(
                            f"predict_fn returned {len(outputs)} outputs for a "
                            f"batch of {len(live)}")
                    if self._observer is not None:
                        try:
                            self._observer(stacked, outputs, request_ids,
                                           [r.ctx for r in live])
                        except Exception:  # noqa: BLE001 - observers are best-effort
                            counter("serve.observer_errors").inc()
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                counter("serve.batch_errors").inc()
                for request in live:
                    request.finish(error=error)
                continue
            # stats counters are read from handler threads: keep every
            # mutation under the batcher lock (+= is read-modify-write)
            with self._lock:
                self._batches_run += 1
            for request, output in zip(live, outputs):
                self._cache.put(request.key, output)
                with self._lock:
                    self._requests_done += 1
                request.finish(result=output)

    # -- lifecycle / introspection ------------------------------------
    def kick(self) -> None:
        """Wake every lane so it re-reads the clock.

        A real monotonic clock makes timed condition waits expire on
        their own; an injected fake clock does not, so tests advance the
        fake and then ``kick`` to deliver the wake-up the timer would
        have provided.
        """
        with self._work_ready:
            self._work_ready.notify_all()

    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop every lane; ``drain`` finishes queued work first."""
        with self._work_ready:
            if self._closed:
                return
            self._closed = True
            self._drain_on_close = drain
            if not drain:
                while self._queue:
                    self._queue.popleft().finish(
                        error=BatcherClosedError(f"batcher {self.name!r} shut down"))
            self._work_ready.notify_all()
        deadline = time.monotonic() + timeout_s
        for lane in self._lanes:
            lane.join(max(0.0, deadline - time.monotonic()))

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def response_cache_stats(self) -> dict:
        """Size/hit-rate/evictions of the LRU response cache."""
        with self._lock:
            hits, misses = self._cache_hits, self._cache_misses
        return {
            "capacity": self._cache.capacity,
            "entries": len(self._cache),
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / (hits + misses), 6) if hits + misses else 0.0,
            "evictions": self._cache.evictions,
        }

    def stats(self) -> dict:
        """Operational snapshot for ``/healthz`` and the bench harness."""
        with self._lock:
            cache_hits, cache_misses = self._cache_hits, self._cache_misses
            batches_run, requests_done = self._batches_run, self._requests_done
        lookups = cache_hits + cache_misses
        return {
            "queue_depth": self.queue_depth(),
            "batches_run": batches_run,
            "requests_done": requests_done,
            "cache_entries": len(self._cache),
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_hit_rate": round(cache_hits / lookups, 6) if lookups else 0.0,
            "cache_evictions": self._cache.evictions,
            "closed": self._closed,
            "policy": {
                "max_batch_size": self.policy.max_batch_size,
                "max_wait_ms": self.policy.max_wait_ms,
                "max_queue": self.policy.max_queue,
                "cache_entries": self.policy.cache_entries,
            },
        }
