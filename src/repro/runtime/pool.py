"""Process-pool execution policy for embarrassingly parallel stages.

The rigorous ``[A] -> [I]`` flow is one independent solver run per
seeded clip, so it parallelizes trivially — *provided* the results come
back in a deterministic order and each task derives all of its
randomness from its own seed (which :func:`repro.litho.generate_clip`
guarantees).  :func:`parallel_map` forks N
:class:`~repro.runtime.worker.ForkedWorker`\\ s, hands each free worker
the next task and reassembles results in submission order; a worker
that dies raises :class:`~repro.runtime.worker.WorkerDied` instead of
hanging the map.  On platforms without ``fork`` (or with ``workers=1``)
it degrades to a plain serial loop that is bit-for-bit the historical
code path.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.obs import capture_context, counter, span, use_context

from .worker import ForkedWorker, fork_available

__all__ = ["resolve_worker_count", "resolve_workers", "fork_available",
           "parallel_map"]


def resolve_worker_count(workers: int | None, env_var: str, default: int) -> int:
    """Resolve a worker count: explicit arg > ``env_var`` > ``default``.

    Always at least 1; a non-positive or unparsable request raises so a
    typo'd environment variable fails loudly instead of silently running
    with some other count.
    """
    if workers is None:
        env = os.environ.get(env_var, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ValueError(f"{env_var}={env!r} is not an integer") from exc
        else:
            workers = default
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def resolve_workers(workers: int | None = None) -> int:
    """Pool size: explicit arg > ``REPRO_WORKERS`` > cpu count."""
    return resolve_worker_count(workers, "REPRO_WORKERS", os.cpu_count() or 1)


def _task_runner(fn: Callable) -> Callable:
    """Worker-side handler: each task runs under a ``pool.worker_task``
    span, which the call's trace context parents to ``pool.dispatch``."""
    def run(task):
        with span("pool.worker_task"):
            return fn(task)
    return run


def _run_tasks(workers: list[ForkedWorker], tasks: Sequence) -> list:
    """Each free worker takes the next task; results come back in input
    order, and the first failure (a task's exception or a dead worker's
    :class:`~repro.runtime.worker.WorkerDied`) is raised."""
    # captured inside the dispatch span so worker-side spans hang off it
    # (and inherit the request context, if any)
    ctx = capture_context()
    idle: queue.SimpleQueue = queue.SimpleQueue()
    for worker in workers:
        idle.put(worker)

    def run(task):
        worker = idle.get()
        try:
            with use_context(ctx):
                return worker.call(task)
        finally:
            idle.put(worker)

    lanes = ThreadPoolExecutor(len(workers), thread_name_prefix="repro-pool-lane")
    try:
        return list(lanes.map(run, tasks))
    finally:
        lanes.shutdown(cancel_futures=True)


def parallel_map(fn: Callable, items: Iterable, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` across forked worker processes.

    Results are returned in input order regardless of completion order.
    Runs serially (in-process, no fork, identical numerics) when the
    resolved worker count is 1, there are fewer than two items, ``fork``
    is unavailable, or a fork is refused (e.g. a sandbox forbidding new
    processes).  Every worker is reaped before this returns.

    ``fn`` reaches the workers through the fork, so any callable works;
    tasks and results cross a pipe, so they must pickle.  ``fn`` must
    derive any randomness from its argument, not from global state.
    """
    tasks: Sequence = list(items)
    workers = resolve_workers(workers)
    counter("pool.dispatches").inc()
    counter("pool.tasks").inc(len(tasks))
    if workers == 1 or len(tasks) < 2 or not fork_available():
        counter("pool.serial_runs").inc()
        with span("pool.dispatch", mode="serial", workers=1, tasks=len(tasks)):
            return [fn(task) for task in tasks]
    size = min(workers, len(tasks))
    started: list[ForkedWorker] = []
    try:
        with span("pool.dispatch", mode="fork", workers=size, tasks=len(tasks)):
            for index in range(size):
                started.append(ForkedWorker(lambda: _task_runner(fn),
                                            name=f"repro-pool-{index}"))
            return _run_tasks(started, tasks)
    except OSError:
        if len(started) == size:
            raise  # raised by a task, not by a refused fork
    finally:
        for worker in started:
            worker.close()
    counter("pool.serial_fallbacks").inc()
    with span("pool.dispatch", mode="serial_fallback", workers=1, tasks=len(tasks)):
        return [fn(task) for task in tasks]
