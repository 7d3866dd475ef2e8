"""The batch forward, and the forked workers that run it at N > 1.

:func:`make_forward` runs one batch through the model's tape forward
under ``no_grad``: at one worker the batcher's lane calls it
in-process, at N it is every forked worker's handler.  The
single-process server serializes every forward on one core because of
the GIL.  The :class:`WorkerPool` escapes it: N
:class:`~repro.runtime.worker.ForkedWorker`\\ s, each owning one core.
A worker serves the model it inherits through the fork — the parent's
copy, already cast to float64 and carrying its output stats — with the
parameter arrays marked read-only in the child, so an accidental
in-place write fails loudly instead of silently diverging one worker.
The parent keeps the model's one
:class:`~repro.serve.batcher.MicroBatcher` with one lane per worker,
and :meth:`WorkerPool.forward` hands each lane's batch to a worker that
is idle and not disabled, the way :func:`~repro.runtime.parallel_map`
hands tasks to free workers.

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
  respawns disable the worker instead of forking forever.  A disabled
  worker gets no batches; only when every worker is disabled does
  ``forward`` fail;
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
from repro.runtime.sync import make_condition
from repro.runtime.worker import ForkedWorker, WorkerDied, fork_available
from repro.tensor import Tensor, no_grad

from .batcher import ServeError

__all__ = ["WorkerCrashedError", "WorkerPool", "make_forward",
           "resolve_serve_workers"]

#: monitor-thread poll period for liveness and idle heartbeats
HEARTBEAT_INTERVAL_S = 0.25
#: cap on one batch (or heartbeat) round trip before the worker is
#: declared wedged, terminated and replaced
FORWARD_TIMEOUT_S = 60.0
#: how long ``close(drain=True)`` waits for a worker to exit before
#: escalating to ``terminate``
DRAIN_TIMEOUT_S = 10.0
#: consecutive failed respawns before a worker is disabled instead of
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
# The batch forward
# ----------------------------------------------------------------------
def _forward(model, batch: np.ndarray) -> np.ndarray:
    """One batch through the model (module level, so a test can slow it
    down before the fork to widen the kill window)."""
    # validate_input casts each clip to float64 and np.stack keeps it,
    # so the batch needs no per-request conversion
    if batch.dtype != np.float64:
        raise ServeError(f"batch reached the forward path as {batch.dtype}; "
                         "inputs must be cast to float64 at validation")
    with span("serve.forward", size=len(batch), worker_pid=os.getpid()), \
            no_grad():
        output = model(Tensor(batch)).numpy()
    return np.asarray(output)


def make_forward(model):
    """The batch forward over ``model``."""
    def forward(batch: np.ndarray) -> np.ndarray:
        return _forward(model, batch)
    return forward


def _serve_batches(model):
    """Worker setup: freeze the inherited parameters, return the handler."""
    for _, param in model.named_parameters():
        param.data.setflags(write=False)
    forward = make_forward(model)

    def handle(batch):
        return None if batch is None else forward(batch)  # None: heartbeat
    return handle


class _WorkerHandle:
    """Parent-side state for one worker (stable across respawns)."""

    def __init__(self, index: int):
        self.index = index
        self.process: ForkedWorker | None = None
        #: claimed by a ``forward`` or by the monitor's heartbeat or
        #: respawn; nothing else touches the worker meanwhile
        self.in_use = False
        self.restarts = 0
        self.batches_done = 0
        self.last_heartbeat_s: float | None = None
        self.spawn_failures = 0
        #: set after MAX_SPAWN_FAILURES consecutive failed respawns; a
        #: disabled worker gets no batches and is never forked again
        self.disabled = False

    @property
    def busy(self) -> bool:
        """A call is in flight: the fault-injection tests' kill window."""
        return self.process is not None and self.process.busy

    def alive(self) -> bool:
        return self.process is not None and self.process.alive()


class WorkerPool:
    """N forked serving workers, each batch to a free one, with crash
    respawn."""

    def __init__(self, model, workers: int, name: str = "default"):
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 workers, got {workers}")
        if not fork_available():
            raise RuntimeError(
                "multi-process serving requires the fork start method; "
                "run with workers=1 on this platform")
        self.name = name
        self._setup = lambda: _serve_batches(model)
        #: guards every handle's claim, counters and ``disabled`` flag,
        #: and ``_closed``; notified whenever a claim is released
        self._idle = make_condition(f"serve.pool.{name}")
        self._closed = False
        self._workers = [_WorkerHandle(index) for index in range(workers)]
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

    # -- claims ----------------------------------------------------------
    def _claim(self) -> _WorkerHandle:
        """An idle worker that is not disabled, alive ones first; waits
        while every such worker is claimed."""
        with self._idle:
            while not self._closed:
                enabled = [h for h in self._workers if not h.disabled]
                if not enabled:
                    raise ServeError(
                        f"every serving worker of pool {self.name!r} is "
                        f"disabled after {MAX_SPAWN_FAILURES} failed respawns")
                idle = [h for h in enabled if not h.in_use]
                if idle:
                    handle = min(idle, key=lambda h: not h.alive())
                    handle.in_use = True
                    return handle
                self._idle.wait()
        raise ServeError(f"pool {self.name!r} is shut down")

    def _try_claim(self, handle: _WorkerHandle) -> bool:
        with self._idle:
            if handle.in_use or handle.disabled or self._closed:
                return False
            handle.in_use = True
            return True

    def _release(self, handle: _WorkerHandle) -> None:
        with self._idle:
            handle.in_use = False
            self._idle.notify_all()

    # -- spawn / respawn ----------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """Fork a fresh worker for a claimed (or not yet shared) ``handle``
        — with no instrumented lock held, since forking under one is
        exactly what the sanitizer's fork hook flags."""
        process = ForkedWorker(
            self._setup, name=f"repro-serve-{self.name}-w{handle.index}")
        old, handle.process = handle.process, process
        handle.last_heartbeat_s = time.monotonic()
        if old is not None:
            old.close(timeout_s=0.0)
        counter("serve.pool.spawned").inc()

    def _mark_crashed(self, handle: _WorkerHandle, why: str) -> WorkerCrashedError:
        counter("serve.pool.crashes").inc()
        error = WorkerCrashedError(
            f"serving worker {handle.index} (pool {self.name!r}) {why}; "
            "it is being respawned — retry shortly")
        # a dead worker is exactly what the black box exists for: grab a
        # dump while the surrounding state (queues, requests, alerts) is
        # still the crash-time state.  record_crash rate-limits, so a
        # crash-looping worker costs one dump per interval, not per death.
        recorder = current_recorder()
        if recorder is not None:
            try:
                recorder.record_crash(f"pool.worker.{handle.index}", error)
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
                # a worker running a batch is skipped: forward reports it
                if not self._try_claim(handle):
                    continue
                try:
                    if handle.alive():
                        self._heartbeat(handle)
                    else:
                        self._mark_crashed(handle, "died while idle")
                        self._respawn(handle)
                finally:
                    self._release(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        try:
            self._spawn(handle)
        except Exception:  # noqa: BLE001 - a dead worker beats a dead monitor
            counter("serve.pool.respawn_failures").inc()
            with self._idle:
                handle.spawn_failures += 1
                handle.disabled = handle.spawn_failures >= MAX_SPAWN_FAILURES
            return
        with self._idle:
            handle.spawn_failures = 0
            handle.restarts += 1
        counter("serve.pool.restarts").inc()

    def _heartbeat(self, handle: _WorkerHandle) -> None:
        try:
            handle.process.call(None, timeout_s=FORWARD_TIMEOUT_S)
        except WorkerDied:
            return  # liveness check on the next tick handles it
        handle.last_heartbeat_s = time.monotonic()

    # -- forward path --------------------------------------------------
    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Run one batch on a free worker; raises on crash/timeout."""
        handle = self._claim()
        try:
            if not handle.alive():
                raise self._mark_crashed(handle, "was down when the batch arrived")
            try:
                output = handle.process.call(np.ascontiguousarray(batch),
                                             timeout_s=FORWARD_TIMEOUT_S)
            except WorkerDied as error:
                raise self._mark_crashed(handle, f"failed mid-batch ({error})") \
                    from error
            with self._idle:
                handle.batches_done += 1
            return output
        finally:
            self._release(handle)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        now = time.monotonic()
        per_worker = []
        with self._idle:
            counts = [(h.restarts, h.batches_done) for h in self._workers]
        for handle, (restarts, batches_done) in zip(self._workers, counts):
            beat = handle.last_heartbeat_s
            per_worker.append({
                "worker": handle.index,
                "pid": handle.process.pid if handle.process else None,
                "alive": handle.alive(),
                "disabled": handle.disabled,
                "restarts": restarts,
                "batches_done": batches_done,
                "heartbeat_age_s": round(now - beat, 3) if beat else None,
            })
        return {
            "workers": len(self._workers),
            "restarts": sum(w["restarts"] for w in per_worker),
            "alive": sum(1 for w in per_worker if w["alive"]),
            "per_worker": per_worker,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the monitor, then stop and reap every worker."""
        with self._idle:
            if self._closed:
                return
            self._closed = True
            self._idle.notify_all()
        self._monitor_stop.set()
        self._monitor.join(timeout=5.0)
        with span("serve.pool.close", drain=drain, workers=len(self._workers)):
            with self._idle:
                # a batch or heartbeat still on a pipe finishes first
                self._idle.wait_for(
                    lambda: not any(h.in_use for h in self._workers),
                    FORWARD_TIMEOUT_S)
            for handle in self._workers:
                if handle.process is not None:
                    handle.process.close(
                        timeout_s=DRAIN_TIMEOUT_S if drain else 0.5)
