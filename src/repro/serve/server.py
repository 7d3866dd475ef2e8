"""HTTP front end for the batched inference service.

Stdlib-only (``http.server.ThreadingHTTPServer``) so the serving path
carries zero dependencies beyond what the substrate already needs.
Routes:

* ``POST /v1/predict`` — one photoacid clip in, one label-space
  prediction out.  Payloads are either a JSON object
  ``{"acid": [[[...]]]}`` or an ``.npz`` archive with an ``acid`` array
  (``Content-Type: application/octet-stream``); the response mirrors
  the request format.  ``?model=NAME`` and ``?version=N`` select a
  served checkpoint; ``?deadline_ms=`` bounds queue wait.
* ``GET /v1/models`` — manifest summaries of every served checkpoint.
* ``POST /v1/jobs`` / ``GET /v1/jobs[/<id>]`` / ``DELETE /v1/jobs/<id>``
  — the async job queue (:mod:`repro.serve.jobs`): submit returns an id
  immediately, GET reports per-iteration progress or the final result,
  DELETE requests cancellation.  Long-running work (gradient-based OPC)
  runs behind this instead of holding a request thread.
* ``GET /healthz`` — liveness plus queue depth, cache hit rate and
  in-flight counts (what a load balancer sheds on).
* ``GET /metrics`` — the :mod:`repro.obs` registry rendered in the
  Prometheus text exposition format, including cumulative
  ``_bucket``/``_sum``/``_count`` histogram series.

Every request gets a request-scoped trace identity: the handler mints
(or adopts, from a well-formed ``X-Request-Id`` request header) a
request id, returns it in the ``X-Request-Id`` response header, and —
when tracing is enabled — opens a ``serve.request`` root span whose
context follows the request across the micro-batcher's worker thread
and any forked solver workers, so one request reads back from the
trace as one connected span tree.  Each response also produces a
structured JSON access-log line on stderr (info lines only with
``verbose``; 503/504 warning lines always).

Failure mapping: malformed payloads are 400, unknown models 404,
oversized bodies 413, queue backpressure 503 (with ``Retry-After``),
queue-deadline expiry 504, and any other exception a route raises a 500
with a JSON body and ``Connection: close``.  Shutdown is graceful: the
listener stops, in-flight handler threads finish (``block_on_close``),
and each batcher drains its queue before the process exits.
"""

from __future__ import annotations

import io
import json
import math
import sys
import threading
import time
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.config import PEBConfig
from repro.jobs import JobNotFound, JobTypeError
from repro.obs import (
    FlightRecorder, HealthConfig, HealthMonitor, SLOEvaluator,
    TelemetrySampler, TimeSeriesDB, TraceContext, counter, default_slos,
    gauge, histogram, metrics_snapshot, new_request_context,
    process_info, refresh_process_gauges, span, timer, use_context,
)
from repro.obs.dashboard import render_dashboard
from repro.runtime.sync import make_lock

from .batcher import (
    BatcherClosedError, BatchPolicy, DeadlineExceededError, MicroBatcher,
    QueueFullError, ServeError,
)
from .engine import plan_cache_stats, resolve_engine
from .jobs import JobService
from .pool import (
    WorkerCrashedError, WorkerPool, make_forward, resolve_serve_workers,
)
from .registry import ModelManifest

__all__ = ["ServeConfig", "ServedModel", "PredictServer", "render_prometheus",
           "escape_label_value"]

NPZ_CONTENT_TYPES = ("application/octet-stream", "application/x-npz", "application/zip")

#: default latency-histogram bucket bounds in seconds (Prometheus `le`)
DEFAULT_LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                           0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


@dataclass(frozen=True)
class ServeConfig:
    """Front-end configuration (batching policy lives in BatchPolicy)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests, benches)
    port: int = 8080
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    #: request bodies above this many bytes are rejected with 413
    max_body_bytes: int = 64 * 1024 * 1024
    #: per-request wall-clock cap while waiting for a result
    request_timeout_s: float = 120.0
    #: `serve.request_latency_s` histogram bucket bounds, seconds
    latency_buckets: tuple = DEFAULT_LATENCY_BUCKETS
    #: rolling-window telemetry sampler (``/v1/telemetry``, ``/dashboard``)
    telemetry: bool = True
    telemetry_interval_s: float = 10.0
    telemetry_slots: int = 360
    #: SLO burn-rate windows (seconds); tests shrink these to the
    #: sampling interval so alerts respond within a few samples
    slo_fast_window_s: float = 300.0
    slo_slow_window_s: float = 3600.0
    #: black-box flight recorder (span/log/request rings + crash dumps)
    flight: bool = True
    flight_dump_dir: str = "."
    flight_min_dump_interval_s: float = 30.0


class ServedModel:
    """One checkpoint behind its own micro-batcher.

    ``health`` attaches a physics :class:`~repro.obs.HealthMonitor` as
    the batcher's post-forward observer: invariant checks run inline on
    the batcher's lane thread, sampled shadow audits on their own daemon
    thread.  The monitor only ever reads the batch — served outputs are
    bitwise identical with and without it.

    ``engine`` selects how batched forwards run: ``"tape"`` is the
    ordinary autograd tape under ``no_grad``; ``"plan"`` compiles one
    inference plan per batch shape on first use and replays it (bitwise
    identical, falling back to tape on capture failure or while a
    capture is in flight).  ``None`` consults ``REPRO_INFER_PLAN``.

    ``workers`` (default ``REPRO_SERVE_WORKERS``, else 1) sets where
    the forward runs.  Either way there is one micro-batcher — one
    queue, one response cache — with one lane thread per worker.  At 1
    its lane runs the forward in-process, under the GIL.  At N > 1 the
    model is served by N forked worker processes (each with its own core
    and plan cache, serving this object's model, read-only, through the
    fork), and each lane hands its batch to a free one.  Outputs are
    bitwise identical either way.
    """

    def __init__(self, model, manifest: ModelManifest, policy: BatchPolicy,
                 health: HealthConfig | None = None,
                 peb: PEBConfig | None = None, engine: str | None = None,
                 workers: int | None = None):
        self.model = model
        self.manifest = manifest
        self.model.eval()
        self._cast_params_once()
        self.engine = resolve_engine(engine)
        label = f"{manifest.name}-v{manifest.version}"
        self.workers = resolve_serve_workers(workers)
        self.pool = None
        peb = peb if peb is not None else PEBConfig()
        self.monitor = None
        if health is not None:
            self.monitor = HealthMonitor(
                manifest.grid_config(), peb.catalysis_rate, config=health,
                peb=peb, name=label)
        if self.workers > 1:
            # forked after the cast: workers inherit float64 weights
            self.pool = WorkerPool(self.model, manifest.content_hash,
                                   self.engine, self.workers, name=label)
            forward = self.pool.forward
        else:
            forward = make_forward(self.model, manifest.content_hash,
                                   self.engine, label)
        self.batcher = MicroBatcher(forward, policy, name=label,
                                    observer=self._observe_batch,
                                    lanes=self.workers)
        self.clip_shape = tuple(manifest.grid_config().shape)

    def _cast_params_once(self) -> None:
        # weights are cast to the serving dtype exactly once, at load —
        # the per-request hot path asserts instead of re-casting
        for _, param in self.model.named_parameters():
            if param.data.dtype != np.float64:
                param.data = param.data.astype(np.float64)

    def _observe_batch(self, batch, outputs, request_ids, ctxs) -> None:
        if self.monitor is not None:
            self.monitor.observe_batch(batch, outputs,
                                       request_ids=request_ids, ctxs=ctxs)

    def close(self, drain: bool = True) -> None:
        self.batcher.close(drain=drain)
        if self.pool is not None:
            self.pool.close(drain=drain)
        if self.monitor is not None:
            self.monitor.close()

    def validate_input(self, acid: np.ndarray) -> np.ndarray:
        acid = np.asarray(acid, dtype=np.float64)
        if acid.shape == (1,) + self.clip_shape:
            acid = acid[0]
        if acid.shape != self.clip_shape:
            raise ValueError(
                f"expected one clip of shape {self.clip_shape} (nz, ny, nx), "
                f"got {acid.shape}")
        if not np.all(np.isfinite(acid)):
            raise ValueError("input contains NaN/Inf")
        return acid


class _HTTPError(Exception):
    def __init__(self, status: int, message: str, retry_after_s: int | None = None,
                 close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s
        #: the request stream cannot be resynced: answer, then hang up
        self.close = close


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_prometheus(snapshot: dict | None = None) -> str:
    """Render a :func:`repro.obs.metrics_snapshot` in Prometheus text format.

    Each family is one ``# HELP``/``# TYPE`` pair followed by its sample
    lines (the exposition-format ordering scrapers validate); the help
    string is the dotted registry name, which is the one piece of
    provenance the flat name loses.
    """
    snapshot = metrics_snapshot() if snapshot is None else snapshot
    lines: list[str] = []

    def family(flat: str, kind: str, source: str) -> None:
        lines.append(f"# HELP {flat} repro metric {source}")
        lines.append(f"# TYPE {flat} {kind}")

    for name, metric in sorted(snapshot.items()):
        flat = "repro_" + name.replace(".", "_").replace("-", "_")
        kind = metric.get("type")
        if kind == "counter":
            # OpenMetrics style: the family is the base name, the sample
            # carries the _total suffix
            family(flat, "counter", name)
            lines.append(f"{flat}_total {metric['value']}")
        elif kind == "gauge":
            family(flat, "gauge", name)
            lines.append(f"{flat} {metric['value']}")
        elif kind == "timer":
            family(f"{flat}_seconds", "summary", name)
            lines.append(f"{flat}_seconds_count {metric['count']}")
            lines.append(f"{flat}_seconds_sum {metric['total_s']:.9f}")
        elif kind == "histogram":
            family(flat, "histogram", name)
            cumulative = 0
            for bound, bucket in zip(metric["bounds"], metric["bucket_counts"]):
                cumulative += bucket
                le = escape_label_value(f"{bound:g}")
                lines.append(f'{flat}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f'{flat}_bucket{{le="+Inf"}} {metric["count"]}')
            lines.append(f"{flat}_count {metric['count']}")
            lines.append(f"{flat}_sum {metric['total']:.9f}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: idle keep-alive connections are dropped after this many seconds so
    #: abandoned clients cannot pin handler threads forever
    timeout = 30
    #: status+headers and the body leave in separate writes; with Nagle
    #: on, the body write stalls until the client ACKs the header packet
    #: (~40ms of delayed-ACK floor per loopback request), which would
    #: swamp a single-digit-millisecond model forward
    disable_nagle_algorithm = True

    # the PredictServer that owns this handler's ThreadingHTTPServer
    @property
    def app(self) -> "PredictServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.app.config_verbose:
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------
    def _begin_request(self) -> TraceContext:
        """Per-request setup: trace identity + timing for the access log."""
        self._started_s = time.perf_counter()
        self._status = None
        ctx = new_request_context(self.headers.get("X-Request-Id"))
        self._request_id = ctx.request_id
        return ctx

    def _finish_request(self, path: str) -> None:
        """Emit the structured access-log line for the completed exchange."""
        elapsed = time.perf_counter() - getattr(self, "_started_s", time.perf_counter())
        status = getattr(self, "_status", None) or 0
        counter(f"serve.http.status.{status}").inc()
        record = {
            "method": self.command,
            "path": path,
            "status": status,
            "dur_ms": round(elapsed * 1e3, 3),
            "request_id": getattr(self, "_request_id", None),
            "client": self.client_address[0] if self.client_address else None,
        }
        flight = self.app.flight
        if flight is not None:
            flight.record_request({"t_wall_s": round(time.time(), 3),
                                   **record})
        self.app.access_log(record, warn=status in (503, 504))

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: dict | None = None) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   extra_headers: dict | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, body, "application/json", extra_headers)

    def _send_error_json(self, error: _HTTPError) -> None:
        headers = {}
        if error.retry_after_s is not None:
            headers["Retry-After"] = error.retry_after_s
        if error.close:
            headers["Connection"] = "close"  # send_header also ends keep-alive
        self._send_json(error.status, {"error": error.message}, headers)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as error:
            raise _HTTPError(400, "Content-Length must be an integer",
                             close=True) from error
        if length <= 0:
            raise _HTTPError(400, "empty request body")
        if length > self.app.config.max_body_bytes:
            raise _HTTPError(413, f"request body of {length} bytes exceeds "
                                  f"limit {self.app.config.max_body_bytes}")
        return self.rfile.read(length)

    # -- routes --------------------------------------------------------
    def _handle(self, route) -> None:
        """Run one route with the error mapping every request gets: an
        :class:`_HTTPError` is its own status, and any other exception
        raised before the response started is a 500 with a JSON body —
        the connection is never dropped without an answer."""
        parsed = urlparse(self.path)
        ctx = self._begin_request()
        try:
            with use_context(ctx):
                route(parsed)
        except _HTTPError as error:
            self._send_error_json(error)
        except Exception as error:  # noqa: BLE001 - mapped to a 500 reply
            if self._status is not None:
                raise  # the response is already on the wire
            counter("serve.http.unhandled_errors").inc()
            self.server.handle_error(self.request, self.client_address)
            # how much of the body was read is unknown: answer, then hang up
            self._send_error_json(_HTTPError(
                500, f"internal error: {type(error).__name__}: {error}",
                close=True))
        finally:
            self._finish_request(parsed.path)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._post)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        self._handle(self._delete)

    def _get(self, parsed) -> None:
        if parsed.path == "/healthz":
            self._send_json(200, self.app.health())
        elif parsed.path == "/metrics":
            self.app.refresh_cache_metrics()
            self._send(200, render_prometheus().encode(),
                       "text/plain; version=0.0.4")
        elif parsed.path == "/v1/telemetry":
            query = parse_qs(parsed.query)
            self._send_json(200, self.app.telemetry(
                prefix=query.get("prefix", [""])[0],
                window_s=_float_arg(query, "window_s")))
        elif parsed.path == "/dashboard":
            self._send(200, self.app.dashboard().encode(),
                       "text/html; charset=utf-8")
        elif parsed.path == "/v1/models":
            self._send_json(200, {"models": self.app.list_models()})
        elif parsed.path == "/v1/jobs":
            jobs = self._require_jobs()
            self._send_json(200, {"jobs": [
                _job_summary(record) for record in jobs.list()]})
        elif parsed.path.startswith("/v1/jobs/"):
            jobs = self._require_jobs()
            record = self._lookup_job(jobs, parsed.path)
            self._send_json(200, _job_payload(record))
        else:
            raise _HTTPError(404, f"no route {parsed.path}")

    def _post(self, parsed) -> None:
        if parsed.path == "/v1/predict":
            self._predict(parse_qs(parsed.query))
        elif parsed.path == "/v1/jobs":
            self._submit_job()
        else:
            raise _HTTPError(404, f"no route {parsed.path}")

    def _delete(self, parsed) -> None:
        if not parsed.path.startswith("/v1/jobs/"):
            raise _HTTPError(404, f"no route {parsed.path}")
        jobs = self._require_jobs()
        record = self._lookup_job(jobs, parsed.path)
        record = jobs.cancel(record.id)
        self._send_json(202, _job_payload(record))

    # -- job routes ----------------------------------------------------
    def _require_jobs(self) -> JobService:
        jobs = self.app.jobs
        if jobs is None:
            raise _HTTPError(404, "job queue is not enabled on this server")
        return jobs

    @staticmethod
    def _lookup_job(jobs: JobService, path: str):
        job_id = path[len("/v1/jobs/"):].strip("/")
        if not job_id or "/" in job_id:
            raise _HTTPError(404, f"no route {path}")
        try:
            return jobs.get(job_id)
        except JobNotFound as error:
            raise _HTTPError(404, str(error)) from error

    def _submit_job(self) -> None:
        jobs = self._require_jobs()
        counter("serve.http.jobs_submit").inc()
        with span("serve.request", route="/v1/jobs",
                  request_id=self._request_id):
            payload = _json_body(self._read_body())
            if not isinstance(payload, dict) or "type" not in payload:
                raise _HTTPError(
                    400, 'JSON body must be an object with a "type" field')
            params = payload.get("params") or {}
            if not isinstance(params, dict):
                raise _HTTPError(400, '"params" must be an object')
            try:
                record = jobs.submit(str(payload["type"]), params)
            except JobTypeError as error:
                raise _HTTPError(400, str(error)) from error
            self._send_json(202, _job_payload(record),
                            {"Location": f"/v1/jobs/{record.id}"})

    def _predict(self, query: dict) -> None:
        app = self.app
        app.inflight_inc()
        counter("serve.http.predict").inc()
        started = time.perf_counter()
        try:
            with span("serve.request", route="/v1/predict",
                      request_id=self._request_id), \
                    timer("serve.request").time():
                served = app.resolve_model(query.get("model", [None])[0],
                                           query.get("version", [None])[0])
                body = self._read_body()
                content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
                as_json = content_type == "application/json"
                acid, deadline_ms = _parse_predict_payload(
                    body, as_json, query, served.clip_shape)
                try:
                    acid = served.validate_input(acid)
                except ValueError as error:
                    raise _HTTPError(400, str(error)) from error
                try:
                    prediction = served.batcher.submit(
                        acid, deadline_ms=deadline_ms,
                        timeout_s=app.config.request_timeout_s)
                except QueueFullError as error:
                    raise _HTTPError(503, str(error), retry_after_s=1) from error
                except BatcherClosedError as error:
                    raise _HTTPError(503, str(error)) from error
                except DeadlineExceededError as error:
                    raise _HTTPError(504, str(error)) from error
                except WorkerCrashedError as error:
                    # the worker died mid-batch: the request was never
                    # answered, the pool is respawning — fail fast,
                    # tell the client to retry, never serve garbage
                    raise _HTTPError(503, str(error), retry_after_s=1) from error
                except ServeError as error:
                    raise _HTTPError(500, str(error)) from error
                headers = {
                    "X-Repro-Model": served.manifest.name,
                    "X-Repro-Model-Version": served.manifest.version,
                }
                if as_json:
                    self._send_json(200, {
                        "model": served.manifest.name,
                        "version": served.manifest.version,
                        "request_id": self._request_id,
                        "shape": list(prediction.shape),
                        "prediction": prediction.tolist(),
                    }, headers)
                else:
                    buffer = io.BytesIO()
                    np.savez_compressed(buffer, prediction=prediction)
                    self._send(200, buffer.getvalue(), "application/octet-stream",
                               headers)
        finally:
            histogram("serve.request_latency_s",
                      bounds=app.config.latency_buckets).observe(
                time.perf_counter() - started)
            app.inflight_dec()


def _finite(value, key: str) -> float:
    """``value`` as a finite float, or a 400 naming ``key``."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise _HTTPError(400, f"{key} must be a number") from error
    if not math.isfinite(number):
        raise _HTTPError(400, f"{key} must be a finite number, got {number}")
    return number


def _float_arg(query: dict, key: str) -> float | None:
    return _finite(query[key][0], key) if key in query else None


def _job_summary(record) -> dict:
    return {
        "id": record.id,
        "type": record.type,
        "state": record.state,
        "attempts": record.attempts,
        "created_s": record.created_s,
        "updated_s": record.updated_s,
        "cancel_requested": record.cancel_requested,
    }


def _job_payload(record) -> dict:
    payload = record.to_dict()
    payload["href"] = f"/v1/jobs/{record.id}"
    return payload


def _json_body(body: bytes):
    """The parsed JSON body, or a 400.  Bytes that are not UTF-8 raise
    ``UnicodeDecodeError`` and a deeply nested document
    ``RecursionError``, neither of them a ``JSONDecodeError``."""
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as error:
        raise _HTTPError(400, f"invalid JSON body: {error}") from error


def _check_npy_header(archive, clip_shape: tuple) -> None:
    """400 unless the archive's ``acid`` member declares one clip of
    ``clip_shape`` (a leading 1 allowed) with a bool, integer or real
    float dtype — read from the ``.npy`` header, before any data is
    decompressed."""
    # NpzFile's own lookup order: a member named exactly "acid" first
    names = archive.zip.namelist()
    with archive.zip.open("acid" if "acid" in names else "acid.npy") as member:
        version = np.lib.format.read_magic(member)
        if version == (1, 0):
            shape, _, dtype = np.lib.format.read_array_header_1_0(member)
        elif version == (2, 0):
            shape, _, dtype = np.lib.format.read_array_header_2_0(member)
        else:
            raise _HTTPError(400, f'"acid" uses .npy format version {version}; '
                                  "expected 1.0 or 2.0")
    if shape not in (clip_shape, (1,) + clip_shape):
        raise _HTTPError(400, f'"acid" has shape {shape}; expected one clip of '
                              f"shape {clip_shape} (nz, ny, nx)")
    if dtype.kind not in "biuf":
        raise _HTTPError(400, f'"acid" has dtype {dtype}; expected bool, '
                              "integer or real float")


#: what zipfile and numpy raise on a malformed archive, beyond
#: ``BadZipFile`` and ``ValueError``: a corrupt deflate stream
#: (``zlib.error``), a member cut short (``EOFError``), flags claiming
#: encryption (``RuntimeError``), an unknown compression method
#: (``NotImplementedError``, a ``RuntimeError``) and a garbled ``.npy``
#: header (``tokenize.TokenError``)
_NPZ_ERRORS = (zipfile.BadZipFile, ValueError, OSError, zlib.error, EOFError,
               RuntimeError, tokenize.TokenError)


def _parse_predict_payload(body: bytes, as_json: bool, query: dict,
                           clip_shape: tuple) -> tuple[np.ndarray, float | None]:
    deadline_ms = _float_arg(query, "deadline_ms")
    if as_json:
        payload = _json_body(body)
        if not isinstance(payload, dict) or "acid" not in payload:
            raise _HTTPError(400, 'JSON body must be an object with an "acid" array')
        if deadline_ms is None and "deadline_ms" in payload:
            deadline_ms = _finite(payload["deadline_ms"], "deadline_ms")
        try:
            acid = np.asarray(payload["acid"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as error:
            raise _HTTPError(400, f'"acid" is not a numeric array: {error}') from error
        return acid, deadline_ms
    try:
        archive = np.load(io.BytesIO(body))
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise _HTTPError(400, "body is a bare .npy array, not an npz archive "
                                  'holding an "acid" array')
        with archive:
            if "acid" not in archive.files:
                raise _HTTPError(400, 'npz payload must contain an "acid" array '
                                      f"(found {archive.files})")
            _check_npy_header(archive, clip_shape)
            return np.asarray(archive["acid"], dtype=np.float64), deadline_ms
    except _NPZ_ERRORS as error:
        raise _HTTPError(400, f"body is not a readable npz archive: {error}") from error


_CLIENT_GONE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class _Server(ThreadingHTTPServer):
    # Handler threads are daemons and server_close does not join them:
    # idle keep-alive connections would otherwise block shutdown
    # indefinitely.  Graceful drain is done explicitly by
    # PredictServer.shutdown, which waits for the *in-flight request*
    # count (not connection count) to reach zero.
    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        # a client that went away (say, reset an idle keep-alive
        # connection) is not a server fault: print nothing for it
        if isinstance(sys.exc_info()[1], _CLIENT_GONE):
            return
        super().handle_error(request, client_address)


class PredictServer:
    """Owns the HTTP listener and one :class:`ServedModel` per checkpoint."""

    def __init__(self, served: list[ServedModel] | ServedModel,
                 config: ServeConfig | None = None, verbose: bool = False,
                 jobs: JobService | None = None):
        self.config = config if config is not None else ServeConfig()
        self.config_verbose = verbose
        # the job service arrives constructed-but-not-started; the server
        # owns its lifecycle so shutdown drains exactly once
        self.jobs = jobs
        if jobs is not None:
            jobs.start()
        served = [served] if isinstance(served, ServedModel) else list(served)
        if not served:
            raise ValueError("PredictServer needs at least one ServedModel")
        self._models: dict[str, dict[int, ServedModel]] = {}
        for entry in served:
            versions = self._models.setdefault(entry.manifest.name, {})
            versions[entry.manifest.version] = entry
        self.default_name = served[0].manifest.name
        self._inflight = 0
        self._inflight_lock = make_lock("serve.server.inflight")
        # telemetry / SLO / flight recorder (all observation-only; each
        # individually disableable through ServeConfig)
        self.telemetry_db: TimeSeriesDB | None = None
        self.sampler: TelemetrySampler | None = None
        self.slo: SLOEvaluator | None = None
        if self.config.telemetry:
            self.telemetry_db = TimeSeriesDB(self.config.telemetry_interval_s,
                                             self.config.telemetry_slots)
            self.sampler = TelemetrySampler(
                self.telemetry_db,
                snapshot_fn=self._sampler_snapshot).start()
            self.slo = SLOEvaluator(self.telemetry_db, default_slos(
                fast_window_s=self.config.slo_fast_window_s,
                slow_window_s=self.config.slo_slow_window_s))
        self.flight: FlightRecorder | None = None
        if self.config.flight:
            self.flight = FlightRecorder(
                dump_dir=self.config.flight_dump_dir,
                min_dump_interval_s=self.config.flight_min_dump_interval_s,
            ).install()
            # the dump carries the same context an operator would curl
            self.flight.context_providers["health"] = self.health
            self.flight.context_providers["alerts"] = self.alerts
        self._http = _Server((self.config.host, self.config.port), _Handler)
        self._http.app = self
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()

    # -- model resolution ---------------------------------------------
    def resolve_model(self, name: str | None, version: str | None) -> ServedModel:
        name = name or self.default_name
        versions = self._models.get(name)
        if not versions:
            raise _HTTPError(404, f"no served model named {name!r} "
                                  f"(serving: {sorted(self._models)})")
        if version is None:
            return versions[max(versions)]
        try:
            numeric = int(version)
        except ValueError as error:
            raise _HTTPError(400, "version must be an integer") from error
        if numeric not in versions:
            raise _HTTPError(404, f"model {name!r} has no served version {numeric} "
                                  f"(serving: {sorted(versions)})")
        return versions[numeric]

    def list_models(self) -> list[dict]:
        out = []
        for name in sorted(self._models):
            latest = max(self._models[name])
            for version in sorted(self._models[name]):
                entry = self._models[name][version]
                summary = entry.manifest.summary()
                summary["latest"] = version == latest
                summary["default"] = name == self.default_name
                out.append(summary)
        return out

    def health(self) -> dict:
        queues = {
            f"{name}:v{version}": entry.batcher.stats()
            for name, versions in self._models.items()
            for version, entry in versions.items()
        }
        monitors = {
            f"{name}:v{version}": entry.monitor.stats()
            for name, versions in self._models.items()
            for version, entry in versions.items()
            if entry.monitor is not None
        }
        pools = {
            f"{name}:v{version}": entry.pool.stats()
            for name, versions in self._models.items()
            for version, entry in versions.items()
            if entry.pool is not None
        }
        total_depth = sum(stats["queue_depth"] for stats in queues.values())
        hits = sum(stats["cache_hits"] for stats in queues.values())
        lookups = hits + sum(stats["cache_misses"] for stats in queues.values())
        refresh_process_gauges()
        alerts = self.alerts()
        payload = {
            "status": "ok",
            "alerts": alerts,
            "process": process_info(),
            "models": sorted(self._models),
            "inflight": self.inflight,
            "engines": sorted({entry.engine for versions in self._models.values()
                               for entry in versions.values()}),
            "serve_workers": max(entry.workers
                                 for versions in self._models.values()
                                 for entry in versions.values()),
            # top-level shed signals for load balancers: total queued
            # requests and the combined batcher cache hit rate
            "queue_depth": total_depth,
            "cache_hit_rate": round(hits / lookups, 6) if lookups else 0.0,
            "queues": queues,
            "caches": self.cache_stats(),
            "plan_cache": plan_cache_stats(),
        }
        if pools:
            payload["pools"] = pools
            payload["worker_restarts"] = sum(p["restarts"]
                                             for p in pools.values())
        if monitors:
            payload["health_monitors"] = monitors
        if self.jobs is not None:
            payload["jobs"] = self.jobs.stats()
        if self.sampler is not None:
            payload["telemetry"] = self.sampler.stats()
        if self.flight is not None:
            payload["flight"] = self.flight.stats()
        return payload

    def alerts(self) -> dict:
        """Current SLO burn-rate alert states (the ``/healthz`` block)."""
        if self.slo is None:
            return {"state": "disabled", "slos": []}
        return self.slo.evaluate()

    def telemetry(self, prefix: str = "",
                  window_s: float | None = None) -> dict:
        """The ``/v1/telemetry`` payload: retained series + derived views."""
        if self.telemetry_db is None:
            return {"enabled": False, "series": {}}
        payload = self.telemetry_db.series(prefix=prefix, window_s=window_s)
        payload["enabled"] = True
        payload["alerts"] = self.alerts()
        return payload

    def dashboard(self) -> str:
        """The self-contained ``/dashboard`` HTML page."""
        if self.telemetry_db is None:
            return ("<!doctype html><html><body><p>telemetry disabled "
                    "(ServeConfig.telemetry=False)</p></body></html>")
        return render_dashboard(self.telemetry_db, alerts=self.alerts())

    def _sampler_snapshot(self) -> dict:
        """What the telemetry sampler records each tick: the registry,
        with scrape-time gauges (caches, pool, jobs, process) refreshed
        first so their history lands in the TSDB too."""
        try:
            self.refresh_cache_metrics()
        except Exception:  # noqa: BLE001 - a closing batcher mid-sample
            # must not kill the sampler thread
            pass
        refresh_process_gauges()
        return metrics_snapshot()

    def cache_stats(self) -> dict:
        """Size/hit-rate/eviction snapshot of every cache on the serve path."""
        from repro.obs import propagator_cache_stats

        response = {
            f"{name}:v{version}": entry.batcher.response_cache_stats()
            for name, versions in self._models.items()
            for version, entry in versions.items()
        }
        return {
            "propagator": propagator_cache_stats(record=True),
            "response": response,
        }

    def refresh_cache_metrics(self) -> None:
        """Mirror cache gauges into the metric registry (``/metrics``)."""
        from repro.obs import propagator_cache_stats

        propagator_cache_stats(record=True)
        entries = evictions = 0
        for versions in self._models.values():
            for entry in versions.values():
                stats = entry.batcher.response_cache_stats()
                entries += stats["entries"]
                evictions += stats["evictions"]
        gauge("serve.cache.entries").set(entries)
        gauge("serve.cache.evictions").set(evictions)
        plans = plan_cache_stats()
        gauge("serve.plan.cached_plans").set(plans["plans"])
        gauge("serve.plan.arena_bytes").set(plans["arena_bytes"])
        workers = alive = restarts = 0
        for versions in self._models.values():
            for entry in versions.values():
                if entry.pool is None:
                    continue
                stats = entry.pool.stats()
                workers += stats["workers"]
                alive += stats["alive"]
                restarts += stats["restarts"]
        gauge("serve.pool.workers").set(workers)
        gauge("serve.pool.alive").set(alive)
        gauge("serve.pool.restart_total").set(restarts)
        if self.jobs is not None:
            stats = self.jobs.stats()
            for state, count in stats["counts"].items():
                gauge(f"serve.jobs.{state}").set(count)
            gauge("serve.jobs.total").set(stats["total"])
            age = stats.get("oldest_checkpoint_age_s")
            gauge("serve.jobs.oldest_checkpoint_age_s").set(
                round(age, 3) if age is not None else 0)
            executor = stats["executor"]
            gauge("serve.jobs.executor_busy").set(int(executor["busy"]))
            gauge("serve.jobs.step_crashes").set(executor["crashes"])
            gauge("serve.jobs.requeued").set(executor["requeued"])

    def access_log(self, record: dict, warn: bool = False) -> None:
        """One structured JSON access-log line on stderr.

        Warning lines (503/504 — the load-shedding outcomes an operator
        must see) are always emitted; info lines only with ``verbose``.
        """
        if not warn and not self.config_verbose:
            return
        record = {"kind": "access", "level": "warning" if warn else "info",
                  "ts_unix_s": round(time.time(), 6), **record}
        print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)

    # -- in-flight accounting -----------------------------------------
    def inflight_inc(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def inflight_dec(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — resolves port 0 to the real ephemeral port."""
        return self._http.server_address[:2]

    def serve_forever(self) -> None:
        """Blocking accept loop; returns after :meth:`shutdown`."""
        try:
            self._http.serve_forever(poll_interval=0.1)
        finally:
            self._stopped.set()

    def start(self) -> "PredictServer":
        """Run the accept loop on a background thread (tests, benches)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True,
                                        name="repro-serve-http")
        self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout_s: float | None = None) -> None:
        """Stop accepting, finish in-flight requests, drain the batchers."""
        timeout_s = self.config.request_timeout_s if timeout_s is None else timeout_s
        with span("serve.shutdown", drain=drain):
            self._http.shutdown()          # stops the accept loop
            if drain:
                deadline = time.monotonic() + timeout_s
                while self.inflight > 0 and time.monotonic() < deadline:
                    time.sleep(0.01)
            self._http.server_close()
            if self.jobs is not None:
                # in-flight jobs park back in the queue at their latest
                # checkpoint; the next boot's recover() resumes them
                self.jobs.close(drain=drain, timeout_s=timeout_s)
            for versions in self._models.values():
                for entry in versions.values():
                    entry.close(drain=drain)
            if self.sampler is not None:
                self.sampler.close()
            if self.flight is not None:
                # uninstall the process-global span tap so a later server
                # in the same process (tests) starts with a clean hook
                self.flight.close()
            if self._thread is not None:
                self._thread.join(timeout=10.0)
        self._stopped.set()
