"""Forked worker processes for the multi-process serving backend.

The single-process server serializes every forward on one core because
of the GIL.  The :class:`WorkerPool` escapes it: N
:class:`~repro.runtime.worker.ForkedWorker`\\ s, one per shard, each
owning one core and its own compiled-plan cache.  A worker serves the
model it inherits through the fork — the parent's copy, already cast to
float64 and carrying its output stats — with the parameter arrays
marked read-only in the child, so an accidental in-place write fails
loudly instead of silently diverging one worker.  The parent keeps the
queues (the per-shard :class:`~repro.serve.batcher.MicroBatcher`\\ s)
and ships each coalesced batch to its shard's worker.

Lifecycle, in this module (the fork, the ready handshake, crash
detection, trace hand-off and reaping are the primitive's):

* **spawn** — a worker that fails to start fails the pool's
  construction with the child's own error;
* **health heartbeat** — a daemon monitor thread pings idle workers
  every :data:`HEARTBEAT_INTERVAL_S` and respawns any that died between
  requests;
* **crash detection** — a worker that dies mid-batch (or overruns
  :data:`FORWARD_TIMEOUT_S` and is terminated) raises
  :class:`WorkerCrashedError` (the HTTP layer maps it to 503 +
  ``Retry-After``; the request is never answered with garbage);
* **respawn** — the fork happens with no instrumented lock held (the
  sanitizer's fork hook would rightly object otherwise); restart counts
  feed ``/healthz``, and :data:`MAX_SPAWN_FAILURES` consecutive failed
  respawns disable the shard instead of forking forever;
* **drain** — ``close`` stops the monitor and closes every worker
  (stop message, join, escalation to ``terminate``).

Trace identity crosses the fork per batch: ``forward`` runs inside the
``serve.batch`` span, the primitive carries that context and the active
trace path, and the worker's ``serve.forward`` span parents to it, so
one request still reads back from the trace as one connected tree.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.obs import counter, current_recorder, record_lane_crash, span
from repro.runtime.pool import resolve_worker_count
from repro.runtime.sync import make_lock
from repro.runtime.worker import ForkedWorker, WorkerDied, fork_available
from repro.tensor import Tensor, no_grad

from .batcher import ServeError
from .engine import PlanExecutor

__all__ = ["WorkerCrashedError", "WorkerPool", "resolve_serve_workers"]

#: monitor-thread poll period for liveness and idle heartbeats
HEARTBEAT_INTERVAL_S = 0.25
#: cap on one batch (or heartbeat) round trip before the worker is
#: declared wedged, terminated and replaced
FORWARD_TIMEOUT_S = 60.0
#: how long ``close(drain=True)`` waits for a worker to exit before
#: escalating to ``terminate``
DRAIN_TIMEOUT_S = 10.0
#: consecutive failed respawns before a shard is disabled instead of
#: respawned in a tight loop; surfaces as ``alive < workers`` on
#: ``/healthz``
MAX_SPAWN_FAILURES = 3


class WorkerCrashedError(ServeError):
    """A worker process died while (or before) running a batch.

    Mapped to HTTP 503 with ``Retry-After``: the in-flight request is
    failed fast and retried by the client against the respawned worker —
    it is never answered with a partial or stale result.
    """


def resolve_serve_workers(workers: int | None = None) -> int:
    """Resolve the serving worker count: arg > ``REPRO_SERVE_WORKERS`` > 1.

    The default is 1 — the historical in-process path with zero fork or
    pipe overhead — not the core count: multi-process serving is opt-in
    per deployment.
    """
    return resolve_worker_count(workers, "REPRO_SERVE_WORKERS", 1)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _forward(model, executor, batch: np.ndarray, engine: str) -> np.ndarray:
    """One batch through the worker's model (module level, so a test can
    slow it down before the fork to widen the kill window)."""
    with span("serve.forward", size=len(batch), engine=engine,
              worker_pid=os.getpid()):
        output = executor.run(batch) if executor is not None else None
        if output is None:
            with no_grad():
                output = model(Tensor(batch)).numpy()
    return np.asarray(output)


def _serve_batches(model, content_hash: str, engine: str, label: str):
    """Worker setup: freeze the inherited parameters, return the handler."""
    for _, param in model.named_parameters():
        param.data.setflags(write=False)
    executor = PlanExecutor(model, content_hash, label=label) \
        if engine == "plan" else None

    def handle(batch):
        if batch is None:
            return None  # heartbeat
        return _forward(model, executor, batch, engine)
    return handle


class _WorkerHandle:
    """Parent-side state for one shard's worker (stable across respawns)."""

    def __init__(self, shard: int, name: str):
        self.shard = shard
        # serializes calls per worker; ordering: handle.lock may be
        # taken before the pool stats lock, never the reverse
        self.lock = make_lock(f"serve.pool.{name}.w{shard}")
        self.process: ForkedWorker | None = None
        self.restarts = 0
        self.batches_done = 0
        self.last_heartbeat_s: float | None = None
        self.respawning = False
        self.spawn_failures = 0
        #: set after MAX_SPAWN_FAILURES consecutive failed respawns; a
        #: disabled shard is never forked again (no respawn storms)
        self.disabled = False

    @property
    def busy(self) -> bool:
        """A batch is in flight: the fault-injection tests' kill window."""
        return self.process is not None and self.process.busy

    def alive(self) -> bool:
        return self.process is not None and self.process.alive()


class WorkerPool:
    """N forked serving workers, one per shard, with crash respawn."""

    def __init__(self, model, content_hash: str, engine: str, workers: int,
                 name: str = "default"):
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 workers, got {workers}")
        if not fork_available():
            raise RuntimeError(
                "multi-process serving requires the fork start method; "
                "run with workers=1 on this platform")
        self.engine = engine
        self.name = name
        self._setup = lambda: _serve_batches(model, content_hash, engine,
                                             f"{name}-pool")
        self._stats_lock = make_lock(f"serve.pool.{name}.stats")
        self._closed = False
        self._workers = [_WorkerHandle(shard, name) for shard in range(workers)]
        try:
            for handle in self._workers:
                self._spawn(handle)
        except Exception:
            # a failed first spawn must not strand the siblings that did start
            for handle in self._workers:
                if handle.process is not None:
                    handle.process.close(timeout_s=0.0)
            raise
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name=f"repro-serve-pool-{name}-monitor")
        self._monitor.start()

    @property
    def workers(self) -> int:
        return len(self._workers)

    # -- spawn / respawn ----------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """Fork a fresh worker for ``handle``.  Caller must NOT hold
        ``handle.lock`` — forking under an instrumented lock is exactly
        what the sanitizer's fork hook flags."""
        process = ForkedWorker(
            self._setup, name=f"repro-serve-{self.name}-w{handle.shard}")
        with handle.lock:
            old, handle.process = handle.process, process
            handle.last_heartbeat_s = time.monotonic()
        if old is not None:
            old.close(timeout_s=0.0)
        counter("serve.pool.spawned").inc()

    def _mark_crashed(self, handle: _WorkerHandle, why: str) -> WorkerCrashedError:
        counter("serve.pool.crashes").inc()
        error = WorkerCrashedError(
            f"serving worker {handle.shard} (pool {self.name!r}) {why}; "
            "it is being respawned — retry shortly")
        # a dead worker is exactly what the black box exists for: grab a
        # dump while the surrounding state (queues, requests, alerts) is
        # still the crash-time state.  record_crash rate-limits, so a
        # crash-looping worker costs one dump per interval, not per death.
        recorder = current_recorder()
        if recorder is not None:
            try:
                recorder.record_crash(f"pool.worker.{handle.shard}", error)
            except Exception:  # noqa: BLE001 - observing must not block respawn
                pass
        return error

    def _monitor_loop(self) -> None:
        """Respawn workers that died between requests (idle crashes)."""
        try:
            self._monitor_run()
        except BaseException as exc:
            record_lane_crash("pool.monitor", exc)
            raise

    def _monitor_run(self) -> None:
        while not self._monitor_stop.wait(HEARTBEAT_INTERVAL_S):
            for handle in self._workers:
                if self._closed:
                    return
                if handle.disabled:
                    continue
                needs_respawn = False
                with handle.lock:
                    if not handle.alive() and not handle.respawning:
                        handle.respawning = True
                        needs_respawn = True
                if needs_respawn:
                    self._mark_crashed(handle, "died while idle")
                    self._respawn(handle)
                    continue
                self._heartbeat(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        if self._closed:
            with handle.lock:
                handle.respawning = False
            return
        try:
            try:
                self._spawn(handle)
            except Exception:  # noqa: BLE001 - a dead shard beats a dead monitor
                counter("serve.pool.respawn_failures").inc()
                with self._stats_lock:
                    handle.spawn_failures += 1
                    if handle.spawn_failures >= MAX_SPAWN_FAILURES:
                        handle.disabled = True
                return
            with self._stats_lock:
                handle.spawn_failures = 0
                handle.restarts += 1
            counter("serve.pool.restarts").inc()
        finally:
            with handle.lock:
                handle.respawning = False

    def _heartbeat(self, handle: _WorkerHandle) -> None:
        """Ping an idle worker; skip (without blocking) if it is busy."""
        if not handle.lock.acquire(blocking=False):
            return
        try:
            if not handle.alive():
                return
            try:
                handle.process.call(None, timeout_s=FORWARD_TIMEOUT_S)
            except WorkerDied:
                return  # liveness check on the next tick handles it
            # batch counts stay parent-side: they span respawns
            handle.last_heartbeat_s = time.monotonic()
        finally:
            handle.lock.release()

    # -- forward path --------------------------------------------------
    def forward(self, shard: int, batch: np.ndarray) -> np.ndarray:
        """Run one batch on ``shard``'s worker; raises on crash/timeout."""
        handle = self._workers[shard]
        with handle.lock:
            if self._closed:
                raise ServeError(f"pool {self.name!r} is shut down")
            if handle.disabled:
                raise ServeError(
                    f"serving worker {handle.shard} (pool {self.name!r}) is "
                    f"disabled after {handle.spawn_failures} failed respawns")
            if not handle.alive():
                raise self._mark_crashed(handle, "was down when the batch arrived")
            try:
                output = handle.process.call(np.ascontiguousarray(batch),
                                             timeout_s=FORWARD_TIMEOUT_S)
            except WorkerDied as error:
                raise self._mark_crashed(handle, f"failed mid-batch ({error})") \
                    from error
        with self._stats_lock:
            handle.batches_done += 1
        return output

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        now = time.monotonic()
        per_worker = []
        with self._stats_lock:
            counts = [(h.restarts, h.batches_done) for h in self._workers]
        for handle, (restarts, batches_done) in zip(self._workers, counts):
            beat = handle.last_heartbeat_s
            per_worker.append({
                "shard": handle.shard,
                "pid": handle.process.pid if handle.process else None,
                "alive": handle.alive(),
                "disabled": handle.disabled,
                "restarts": restarts,
                "batches_done": batches_done,
                "heartbeat_age_s": round(now - beat, 3) if beat else None,
            })
        return {
            "workers": len(self._workers),
            "engine": self.engine,
            "restarts": sum(w["restarts"] for w in per_worker),
            "alive": sum(1 for w in per_worker if w["alive"]),
            "per_worker": per_worker,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the monitor, then stop and reap every worker."""
        if self._closed:
            return
        self._closed = True
        self._monitor_stop.set()
        self._monitor.join(timeout=5.0)
        with span("serve.pool.close", drain=drain, workers=len(self._workers)):
            for handle in self._workers:
                # under the lock: a heartbeat still on the pipe finishes first
                with handle.lock:
                    if handle.process is not None:
                        handle.process.close(
                            timeout_s=DRAIN_TIMEOUT_S if drain else 0.5)

    @property
    def closed(self) -> bool:
        return self._closed
