"""Batched inference serving: model registry, micro-batcher, HTTP front end.

``repro.serve`` is the deployment shape the paper's pitch implies: a
learned PEB surrogate answering many clip-sized requests in
milliseconds each, instead of the rigorous solver's minutes.  The
subsystem is stdlib + numpy only:

* :mod:`repro.serve.registry` — versioned checkpoint manifests (model
  class, grid, dtype, param count, SHA-256 content hash) wrapping
  ``Module.save/load``, with integrity verification on load;
* :mod:`repro.serve.batcher` — a bounded queue coalescing concurrent
  single-clip requests into batched forward passes under a
  max-batch/max-wait policy, with deadlines, backpressure and an LRU
  response cache; one per served model, with one lane thread per
  worker;
* :mod:`repro.serve.server` — ``POST /v1/predict``, ``GET /v1/models``,
  ``GET /healthz`` and ``GET /metrics`` on a threading HTTP server with
  graceful draining shutdown;
* :mod:`repro.serve.jobs` — the async job queue behind ``/v1/jobs``:
  long-running checkpointed work (gradient-based OPC/ILT) submitted
  over HTTP, surviving worker crashes and server restarts
  (``--jobs-dir``; see ``docs/jobs.md``);
* :mod:`repro.serve.pool` — the batch forward, run in-process at one
  worker, and the multi-process backend: N forked workers
  (:mod:`repro.runtime.worker`) each owning a core and serving the
  parent's model, read-only, through the fork;
  each batcher lane hands its batch to a free worker
  (``--serve-workers`` / ``REPRO_SERVE_WORKERS``).

Entry point: ``python -m repro.cli serve --ckpt model.npz``; load-test
with ``benchmarks/run_serve_bench.py``.  See ``docs/serving.md``.
"""

from .batcher import (
    BatcherClosedError, BatchPolicy, DeadlineExceededError, MicroBatcher,
    QueueFullError, ServeError, content_hash,
)
from .jobs import JobService
from .pool import WorkerCrashedError, WorkerPool, resolve_serve_workers
from .registry import (
    IntegrityError, ModelManifest, ModelRegistry, RegistryError,
    load_checkpoint, manifest_path_for, read_manifest, save_checkpoint,
    verify_checkpoint,
)
from .server import (
    DEFAULT_LATENCY_BUCKETS, PredictServer, ServeConfig, ServedModel,
    escape_label_value, render_prometheus,
)

__all__ = [
    "BatchPolicy", "MicroBatcher", "ServeError", "QueueFullError",
    "DeadlineExceededError", "BatcherClosedError", "content_hash",
    "ModelManifest", "ModelRegistry", "RegistryError", "IntegrityError",
    "save_checkpoint", "load_checkpoint", "read_manifest", "verify_checkpoint",
    "manifest_path_for",
    "PredictServer", "ServeConfig", "ServedModel", "render_prometheus",
    "escape_label_value", "DEFAULT_LATENCY_BUCKETS", "JobService",
    "WorkerPool", "WorkerCrashedError", "resolve_serve_workers",
]
