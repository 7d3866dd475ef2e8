"""The job executor: claim → chunk → checkpoint → repeat.

One daemon thread owns the scheduler loop: it claims the oldest queued
job, then executes it **chunk by chunk** — each chunk is up to
``checkpoint_every`` stepper iterations run in a *disposable forked
process*, one :class:`~repro.runtime.worker.ForkedWorker` per chunk.
The child ships its new state back over the worker's pipe; the parent
persists it as the job's checkpoint before forking the next chunk.

That process-per-chunk shape is what buys fault tolerance:

* a SIGKILLed step worker raises
  :class:`~repro.runtime.worker.WorkerDied` in the parent, which
  requeues the job, and the next attempt resumes from the last
  checkpoint (steppers are deterministic functions of their state, so
  the rerun is bitwise-identical to the uninterrupted path);
* a full server restart finds the job ``running`` with nobody executing
  it; :meth:`repro.jobs.store.JobStore.recover` flips it back to
  ``queued`` on boot and the same resume path applies;
* cancellation and drain are chunk-boundary checks — no partial step is
  ever visible in a checkpoint.

Without ``fork`` the chunk runs inline in the executor thread: same
chunk semantics, no kill immunity.  The kill window for tests is the
primitive's: ``busy`` plus ``child_pid`` (the chunk worker's
``busy``/``pid``) land a SIGKILL inside a chunk, and patching the
stepper's ``step`` before the fork slows the child down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs import (
    TraceContext, counter, record_lane_crash, span, use_context,
)
from repro.runtime.sync import make_condition, make_lock
from repro.runtime.worker import (
    ForkedWorker, WorkerDied, fork_available, limit_openblas_threads,
)

from .store import JobRecord, JobStore
from .types import build_stepper

__all__ = ["JobExecutor", "JobExecutorConfig"]


@dataclass
class JobExecutorConfig:
    """Executor tuning knobs."""

    poll_interval_s: float = 0.2
    #: stepper iterations per chunk (= checkpoint cadence)
    checkpoint_every: int = 2
    #: attempts (initial + retries after crashes) before a job fails
    max_attempts: int = 3
    chunk_timeout_s: float = 300.0


def _run_steps(chunk: tuple) -> tuple:
    """Run up to ``max_steps`` stepper iterations of one chunk.

    In a forked chunk worker the ``jobs.chunk`` span parents to the
    parent's open ``jobs.execute`` span through the call's trace
    context; inline (no-fork) execution takes the identical path in the
    executor thread itself.  A stepper exception becomes
    :class:`_ChunkError`, which fails the job cleanly.
    """
    job_type, params, state, max_steps = chunk
    try:
        with span("jobs.chunk", job_type=job_type, max_steps=max_steps):
            stepper = build_stepper(job_type, params)
            progress = None
            result = None
            steps = 0
            while steps < max_steps and not stepper.done(state):
                state, progress = stepper.step(state)
                steps += 1
            done = stepper.done(state)
            if done:
                result, state = stepper.finalize(state)
    except Exception as error:  # noqa: BLE001 - recorded on the job
        raise _ChunkError(f"{type(error).__name__}: {error}") from None
    return state, progress, result, done


class JobExecutor:
    """Single-threaded scheduler over a :class:`JobStore`."""

    def __init__(self, store: JobStore,
                 config: JobExecutorConfig | None = None):
        self.store = store
        self.config = config if config is not None else JobExecutorConfig()
        self._lock = make_lock("jobs.executor")
        self._wake = make_condition("jobs.executor.wake", lock=self._lock)
        self._closed = False
        self._drain_on_close = True
        self._busy = False
        self._worker: ForkedWorker | None = None
        self._current_job_id: str | None = None
        self._counts = {"completed": 0, "failed": 0, "cancelled": 0,
                        "crashes": 0, "chunks": 0, "requeued": 0}
        self._use_fork = fork_available()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-jobs-executor")

    def start(self) -> "JobExecutor":
        if self._use_fork:
            # chunks fork from a process whose other threads may be
            # running a served forward's BLAS products
            limit_openblas_threads()
        self._thread.start()
        return self

    # -- introspection (tests + healthz) --------------------------------
    @property
    def busy(self) -> bool:
        with self._lock:
            return self._busy

    @property
    def child_pid(self) -> int | None:
        with self._lock:
            worker = self._worker
        return worker.pid if worker is not None else None

    @property
    def current_job_id(self) -> str | None:
        with self._lock:
            return self._current_job_id

    def stats(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
            counts["busy"] = self._busy
            counts["fork"] = self._use_fork
            counts["alive"] = self._thread.is_alive()
            counts["draining"] = self._closed and self._drain_on_close
        return counts

    def notify(self) -> None:
        """Wake the scheduler early (called after a submit)."""
        with self._lock:
            self._wake.notify_all()

    # -- scheduler loop -------------------------------------------------
    def _loop(self) -> None:
        try:
            self._loop_inner()
        except BaseException as exc:
            # per-job failures are recorded on the job; an exception
            # reaching here kills the whole scheduler lane — black-box it
            record_lane_crash("jobs.executor", exc)
            raise

    def _loop_inner(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
            record = self._claim()
            if record is None:
                with self._lock:
                    if self._closed:
                        return
                    self._wake.wait(timeout=self.config.poll_interval_s)
                continue
            self._execute(record)

    def _claim(self) -> JobRecord | None:
        for record in self.store.list():
            if record.state != "queued":
                continue
            if record.cancel_requested:
                self.store.transition(record.id, "cancelled")
                with self._lock:
                    self._counts["cancelled"] += 1
                continue
            return self.store.transition(record.id, "running",
                                         attempts=record.attempts + 1)
        return None

    def _execute(self, record: JobRecord) -> None:
        with self._lock:
            self._current_job_id = record.id
        # adopt the submitting request's trace identity: jobs.execute
        # (and the jobs.chunk spans forked under it) parent to the
        # serve.request span that submitted the job, so the whole job
        # reads back from the trace as one connected tree
        ctx = None
        if record.trace:
            ctx = TraceContext(
                trace_id=record.trace.get("trace_id"),
                request_id=record.trace.get("request_id"),
                parent_uid=record.trace.get("parent_uid"))
        try:
            with use_context(ctx), \
                    span("jobs.execute", job_id=record.id,
                         job_type=record.type, attempt=record.attempts):
                self._execute_inner(record)
        finally:
            with self._lock:
                self._current_job_id = None

    def _execute_inner(self, record: JobRecord) -> None:
        try:
            stepper = build_stepper(record.type, record.params)
        except Exception as error:  # noqa: BLE001 - recorded on the job
            self._fail(record.id, f"{type(error).__name__}: {error}")
            return
        state = self.store.load_checkpoint(record.id)
        if state is None:
            state = stepper.init_state()
            self.store.save_checkpoint(record.id, state)

        while True:
            fresh = self.store.get(record.id)
            if fresh.cancel_requested:
                self.store.transition(record.id, "cancelled")
                with self._lock:
                    self._counts["cancelled"] += 1
                counter("jobs.cancelled").inc()
                return
            with self._lock:
                closing = self._closed
            if closing:
                # Drain: park the job back in the queue with its latest
                # checkpoint; the next boot resumes it.
                self.store.transition(record.id, "queued")
                with self._lock:
                    self._counts["requeued"] += 1
                return
            if stepper.done(state):
                break
            try:
                state, progress, result, done = self._run_chunk(record, state)
            except WorkerDied:
                with self._lock:
                    self._counts["crashes"] += 1
                    closing = self._closed
                counter("jobs.step_crashes").inc()
                if closing:
                    # the chunk died because close() tore it down, not on
                    # its own: requeue without burning an attempt
                    self.store.transition(record.id, "queued")
                    with self._lock:
                        self._counts["requeued"] += 1
                elif fresh.attempts >= self.config.max_attempts:
                    self._fail(record.id,
                               f"step process crashed "
                               f"{fresh.attempts} times (limit "
                               f"{self.config.max_attempts})")
                else:
                    self.store.transition(record.id, "queued")
                    with self._lock:
                        self._counts["requeued"] += 1
                return
            except _ChunkError as error:
                self._fail(record.id, str(error))
                return
            with self._lock:
                self._counts["chunks"] += 1
            self.store.save_checkpoint(record.id, state)
            if progress is not None:
                self.store.transition(record.id, "running",
                                      progress=progress)
            if done:
                self.store.transition(record.id, "completed", result=result)
                with self._lock:
                    self._counts["completed"] += 1
                counter("jobs.completed").inc()
                return

        # Budget already exhausted when we arrived (e.g. resumed after a
        # crash that landed exactly on the last checkpoint): finalize
        # inline.
        result, state = stepper.finalize(state)
        self.store.save_checkpoint(record.id, state)
        self.store.transition(record.id, "completed", result=result)
        with self._lock:
            self._counts["completed"] += 1
        counter("jobs.completed").inc()

    def _fail(self, job_id: str, message: str) -> None:
        self.store.transition(job_id, "failed", error=message)
        with self._lock:
            self._counts["failed"] += 1
        counter("jobs.failed").inc()

    # -- one chunk ------------------------------------------------------
    def _run_chunk(self, record: JobRecord, state: dict):
        chunk = (record.type, record.params, state, self.config.checkpoint_every)
        with self._lock:
            self._busy = True
        try:
            if not self._use_fork:
                return _run_steps(chunk)
            worker = ForkedWorker(lambda: _run_steps,
                                  name=f"repro-jobs-step-{record.id}")
            with self._lock:
                self._worker = worker
            try:
                return worker.call(chunk, timeout_s=self.config.chunk_timeout_s)
            finally:
                with self._lock:
                    self._worker = None
                worker.close(timeout_s=5.0)
        finally:
            with self._lock:
                self._busy = False

    # -- shutdown -------------------------------------------------------
    def close(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the scheduler.

        ``drain=True`` lets the in-flight chunk finish and requeues the
        current job at its latest checkpoint; ``drain=False`` terminates
        the step process immediately (the job still requeues — its last
        checkpoint is intact).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain_on_close = drain
            worker = self._worker
            self._wake.notify_all()
        if not drain and worker is not None:
            worker.terminate()
        if self._thread.is_alive():
            self._thread.join(timeout_s)


class _ChunkError(RuntimeError):
    """The stepper raised inside the chunk; the job fails cleanly."""
