"""Observability layer: metrics, tracing, health monitors, analytics.

``repro.obs`` is strictly *observation-only* infrastructure.  Nothing in
this package touches a numpy array that belongs to the simulation, the
training loop or a served response; enabling or disabling it cannot
change a single bit of any numerical output (the determinism matrices
in ``tests/runtime/`` and ``tests/serve/`` assert exactly that).  It is
disabled by default and its disabled fast path is a single boolean
check, so instrumented hot loops pay effectively nothing when nobody is
watching.

Sub-modules:

* :mod:`repro.obs.metrics` — process-local counters, timers and
  histograms in a named registry (``counter("pool.tasks").inc()``);
* :mod:`repro.obs.trace` — nested span tracing with a JSONL event sink,
  switched on by ``REPRO_TRACE=path`` or the CLI ``--trace`` flag;
* :mod:`repro.obs.context` — ``contextvars``-based request/trace
  identity that survives thread hand-offs and ``fork``;
* :mod:`repro.obs.health` — physics health monitors for served
  predictions (Eq. 1–4 invariants plus sampled rigorous shadow audits);
* :mod:`repro.obs.export` — trace analytics: Chrome/Perfetto export,
  span-tree reconstruction, critical path, per-request breakdowns;
* :mod:`repro.obs.profile` — wall-time/tracemalloc profiling contexts
  and propagator-cache hit-rate collection;
* :mod:`repro.obs.timeseries` — in-process ring-buffer TSDB: a sampler
  snapshots every metric at a fixed interval into rolling windows with
  derived rates and sliding-window quantiles (``/v1/telemetry``,
  ``/dashboard``);
* :mod:`repro.obs.slo` — declarative SLO targets with multiwindow
  burn-rate alerting surfaced in ``/healthz`` and ``repro_slo_*``;
* :mod:`repro.obs.flight` — black-box flight recorder: bounded rings of
  recent spans/logs/requests, dumped atomically on SIGQUIT or lane
  crashes (``repro flightdump`` renders one);
* :mod:`repro.obs.process` — process-level gauges (RSS, open fds,
  uptime).

``python -m repro.cli report <trace.jsonl>`` summarizes a recorded
trace (``--export-chrome``, ``--critical-path``, ``--requests`` for the
analytics); see ``docs/observability.md`` for the event schema and the
span/metric catalog.
"""

from .metrics import (
    Counter, Gauge, Timer, Histogram, MetricsRegistry,
    counter, gauge, timer, histogram, metrics_snapshot, reset_metrics,
)
from .trace import (
    span, trace_event, set_span_attrs, trace_enabled, enable_tracing,
    disable_tracing, current_trace_path, configure_from_env,
    capture_context, current_span_uid, set_flight_hook, flight_hook,
)
from .context import (
    TraceContext, current_context, use_context, new_request_id,
    new_request_context, sanitize_request_id,
)
from .health import (
    HealthConfig, HealthMonitor, ShadowAuditor, check_prediction,
    threshold_cd_nm,
)
from .profile import profiled, propagator_cache_stats
from .timeseries import Ring, TimeSeriesDB, TelemetrySampler
from .slo import (
    RatioSLO, LatencySLO, ThresholdSLO, SLOEvaluator, default_slos,
)
from .flight import (
    FlightRecorder, current_recorder, record_lane_crash,
    render_flight_dump, load_flight_dump,
)
from .process import refresh_process_gauges, process_info

__all__ = [
    "Counter", "Gauge", "Timer", "Histogram", "MetricsRegistry",
    "counter", "gauge", "timer", "histogram", "metrics_snapshot",
    "reset_metrics",
    "span", "trace_event", "set_span_attrs", "trace_enabled",
    "enable_tracing", "disable_tracing", "current_trace_path",
    "configure_from_env", "capture_context", "current_span_uid",
    "set_flight_hook", "flight_hook",
    "Ring", "TimeSeriesDB", "TelemetrySampler",
    "RatioSLO", "LatencySLO", "ThresholdSLO", "SLOEvaluator",
    "default_slos",
    "FlightRecorder", "current_recorder", "record_lane_crash",
    "render_flight_dump", "load_flight_dump",
    "refresh_process_gauges", "process_info",
    "TraceContext", "current_context", "use_context", "new_request_id",
    "new_request_context", "sanitize_request_id",
    "HealthConfig", "HealthMonitor", "ShadowAuditor", "check_prediction",
    "threshold_cd_nm",
    "profiled", "propagator_cache_stats",
]
