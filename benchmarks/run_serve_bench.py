#!/usr/bin/env python
"""Load-test harness for the ``repro.serve`` inference service.

Spins a :class:`~repro.serve.PredictServer` in-process on a loopback
ephemeral port over a tiny published checkpoint, then drives it with
concurrent ``http.client`` workers issuing npz ``POST /v1/predict``
requests.  Records per-request wall latency and derives:

* ``latency_p50_s`` / ``latency_p95_s`` / ``latency_p99_s`` — client-
  observed percentiles across all successful requests;
* ``throughput_rps`` — completed requests per second of driving time;
* ``mean_batch_size`` / ``cache_hit_rate`` — how well the micro-batcher
  coalesced and memoized under the offered load;
* ``rejected`` — 503 responses observed when the bounded queue pushed
  back (the overload probe drives a deliberately tiny queue to prove
  rejection instead of unbounded growth).

Results land in the ``serving`` section of ``BENCH_perf.json`` (merged
into an existing file so the other sections survive), and
``--check`` gates the latency percentiles against
``benchmarks/reference_perf.json`` exactly like ``run_benchmarks.py``.

Usage:
    PYTHONPATH=src python benchmarks/run_serve_bench.py [--smoke] [--check]
        [--clients N] [--requests-per-client M] [--out PATH]
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.obs import (
    HealthConfig, disable_tracing, enable_tracing, metrics_snapshot,
    reset_metrics,
)
from repro.serve import (
    BatchPolicy, PredictServer, ServeConfig, ServedModel, load_checkpoint,
    save_checkpoint,
)

REFERENCE_PATH = REPO_ROOT / "benchmarks" / "reference_perf.json"
BENCH_GRID = GridConfig(size_um=1.0, nx=16, ny=16, nz=2)
BENCH_METHOD = "DeepCNN"


def _bench_server(tmp_dir: Path, policy: BatchPolicy,
                  health: HealthConfig | None = None,
                  engine: str | None = None,
                  method: str = BENCH_METHOD,
                  workers: int = 1,
                  serve_kwargs: dict | None = None) -> PredictServer:
    """A server over a freshly published tiny checkpoint (untrained weights —
    serving latency does not depend on what the parameters converged to)."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    nn.init.seed(0)
    model, _ = build_method(method, BENCH_GRID)
    model.set_output_stats(0.5, 1.0)
    save_checkpoint(model, tmp_dir / "bench.npz", method=method,
                    grid=BENCH_GRID, name="bench")
    loaded, manifest = load_checkpoint(tmp_dir / "bench.npz")
    served = ServedModel(loaded, manifest, policy, health=health, engine=engine,
                         workers=workers)
    # telemetry + flight default ON in ServeConfig; benchmarks measure the
    # bare serving path unless a leg opts back in through serve_kwargs
    # (bench_obs_overhead's sampler leg), so every section's baseline is
    # comparable across configurations
    config_kwargs = {"telemetry": False, "flight": False}
    config_kwargs.update(serve_kwargs or {})
    config = ServeConfig(port=0, policy=policy, **config_kwargs)
    return PredictServer(served, config).start()


def _npz_payload(acid: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, acid=acid)
    return buffer.getvalue()


class _Client(threading.Thread):
    """One closed-loop client: POSTs its payloads back-to-back."""

    def __init__(self, host: str, port: int, payloads: list[bytes]):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.payloads = payloads
        self.latencies_s: list[float] = []
        self.rejected = 0
        self.errors = 0

    def run(self) -> None:
        conn = HTTPConnection(self.host, self.port, timeout=120)
        headers = {"Content-Type": "application/octet-stream"}
        for payload in self.payloads:
            start = time.perf_counter()
            try:
                conn.request("POST", "/v1/predict", body=payload, headers=headers)
                response = conn.getresponse()
                response.read()
            except OSError:
                self.errors += 1
                conn.close()
                continue
            elapsed = time.perf_counter() - start
            if response.status == 200:
                self.latencies_s.append(elapsed)
            elif response.status == 503:
                self.rejected += 1
            else:
                self.errors += 1
        conn.close()


def _drive(server: PredictServer, num_clients: int, requests_per_client: int,
           repeat_fraction: float = 0.25, seed: int = 7) -> dict:
    """Run the client fleet; returns raw latencies + outcome counts."""
    host, port = server.address
    rng = np.random.default_rng(seed)
    # a shared pool of distinct clips plus deliberate repeats so the
    # response cache sees realistic re-query traffic
    distinct = max(4, int(num_clients * requests_per_client * (1.0 - repeat_fraction)))
    pool = [_npz_payload(rng.random(BENCH_GRID.shape)) for _ in range(min(distinct, 256))]
    clients = []
    for _ in range(num_clients):
        picks = rng.integers(0, len(pool), size=requests_per_client)
        clients.append(_Client(host, port, [pool[i] for i in picks]))
    start = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    wall_s = time.perf_counter() - start
    latencies = sorted(lat for client in clients for lat in client.latencies_s)
    return {
        "wall_s": wall_s,
        "latencies_s": latencies,
        "rejected": sum(c.rejected for c in clients),
        "errors": sum(c.errors for c in clients),
    }


def _percentile(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) if latencies else 0.0


def bench_serving(smoke: bool, engine: str | None = None) -> dict:
    """The ``serving`` section of ``BENCH_perf.json``."""
    import tempfile

    num_clients = 8
    requests_per_client = 6 if smoke else 25
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=4.0, max_queue=64,
                         cache_entries=128)
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        server = _bench_server(Path(tmp), policy, engine=engine)
        try:
            # warm-up: first forward pays one-time lazy-init costs
            _drive(server, 2, 2, repeat_fraction=0.0, seed=1)
            reset_metrics()
            run = _drive(server, num_clients, requests_per_client)
            snapshot = metrics_snapshot()
            stats = server.health()["queues"]
        finally:
            server.shutdown()

        # overload probe: a one-slot queue under a stalled-size burst must
        # reject with 503 rather than queue without bound
        overload_policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0,
                                      max_queue=1, cache_entries=0)
        overload_server = _bench_server(Path(tmp) / "overload", overload_policy)
        try:
            overload = _drive(overload_server, num_clients, 4, repeat_fraction=0.0,
                              seed=3)
        finally:
            overload_server.shutdown()

    latencies = run["latencies_s"]
    completed = len(latencies)
    batch_hist = snapshot.get("serve.batch_size", {})
    hits = snapshot.get("serve.cache.hits", {}).get("value", 0)
    misses = snapshot.get("serve.cache.misses", {}).get("value", 0)
    queue_stats = next(iter(stats.values()))
    return {
        "clients": num_clients,
        "requests_per_client": requests_per_client,
        "engine": engine or "tape",
        "grid": list(BENCH_GRID.shape),
        "completed": completed,
        "rejected": run["rejected"],
        "errors": run["errors"],
        "wall_clock_s": run["wall_s"],
        "throughput_rps": completed / run["wall_s"] if run["wall_s"] > 0 else 0.0,
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p95_s": _percentile(latencies, 95),
        "latency_p99_s": _percentile(latencies, 99),
        "latency_mean_s": float(np.mean(latencies)) if latencies else 0.0,
        "mean_batch_size": batch_hist.get("mean", 0.0),
        "batches_run": queue_stats["batches_run"],
        "cache_hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        "overload_rejected": overload["rejected"],
        "overload_completed": len(overload["latencies_s"]),
        "policy": {"max_batch_size": policy.max_batch_size,
                   "max_wait_ms": policy.max_wait_ms,
                   "max_queue": policy.max_queue},
        "worker_scaling": bench_worker_scaling(smoke),
    }


def bench_worker_scaling(smoke: bool) -> dict:
    """The ``serving.worker_scaling`` subsection: the same closed-loop
    fleet driven against process pools of 1/2/4/8 batcher workers.

    Distinct payloads with the response cache off force every request
    through a worker forward, so throughput measures the pool, not
    memoization.  ``speedup_2v1`` is throughput at 2 workers over
    throughput at 1; ``check_gates`` holds it above
    ``gates.serving_scaling_min_speedup_2v1`` — but only on multi-core
    runners (``cpu_count`` travels with the curve so single-core CI
    skips the gate instead of recording a meaningless ratio).
    """
    import os
    import tempfile

    counts = (1, 2, 4, 8)
    num_clients = 8
    requests_per_client = 4 if smoke else 12
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=2.0, max_queue=256,
                         cache_entries=0)
    curve: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workers in counts:
            server = _bench_server(Path(tmp) / f"w{workers}", policy,
                                   workers=workers)
            try:
                # warm-up covers the workers' first forward and plan capture
                _drive(server, 2, 2, repeat_fraction=0.0, seed=1)
                run = _drive(server, num_clients, requests_per_client,
                             repeat_fraction=0.0, seed=5)
                pool_stats = (server.health().get("pools") or {})
            finally:
                server.shutdown()
            latencies = run["latencies_s"]
            point = {
                "workers": workers,
                "completed": len(latencies),
                "errors": run["errors"],
                "throughput_rps": (len(latencies) / run["wall_s"]
                                   if run["wall_s"] > 0 else 0.0),
                "latency_p50_s": _percentile(latencies, 50),
                "latency_p95_s": _percentile(latencies, 95),
            }
            if pool_stats:
                entry = next(iter(pool_stats.values()))
                point["restarts"] = entry["restarts"]
                point["per_worker_batches"] = [w["batches_done"]
                                               for w in entry["per_worker"]]
            curve[f"w{workers}"] = point
    t1 = curve["w1"]["throughput_rps"]
    t2 = curve["w2"]["throughput_rps"]
    return {
        "cpu_count": os.cpu_count() or 1,
        "clients": num_clients,
        "requests_per_client": requests_per_client,
        "curve": curve,
        "speedup_2v1": t2 / t1 if t1 > 0 else 0.0,
    }


def bench_inference_plan(smoke: bool) -> dict:
    """The ``inference_plan`` section: served p50 with the compiled-plan
    engine vs the tape engine at a matched batch composition.

    One closed-loop client with ``max_batch_size=1`` pins every forward
    to the same batch shape — the only variable between the two runs is
    the engine.  The plan run's warm-up drive pays the one-time capture
    cost; the measured window is pure replay.  ``p50_speedup`` is gated
    (lower bound) through ``gates.inference_plan_min_speedup`` in
    ``reference_perf.json``.
    """
    import tempfile

    from repro.serve import clear_plan_cache, plan_cache_stats

    requests = 30 if smoke else 60
    method = "SDM-PEB"
    policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0, max_queue=64,
                         cache_entries=0)
    runs: dict[str, dict] = {}
    reset_metrics()
    clear_plan_cache()
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ("tape", "plan"):
            server = _bench_server(Path(tmp) / engine, policy, engine=engine,
                                   method=method)
            try:
                # warm-up: lazy init; for the plan engine the first
                # request of the shape pays capture + validation here
                _drive(server, 1, 6, repeat_fraction=0.0, seed=2)
                runs[engine] = _drive(server, 1, requests,
                                      repeat_fraction=0.0, seed=21)
            finally:
                server.shutdown()
    plans = plan_cache_stats()
    clear_plan_cache()
    tape_p50 = _percentile(runs["tape"]["latencies_s"], 50)
    plan_p50 = _percentile(runs["plan"]["latencies_s"], 50)
    return {
        "method": method,
        "grid": list(BENCH_GRID.shape),
        "requests": requests,
        "completed_tape": len(runs["tape"]["latencies_s"]),
        "completed_plan": len(runs["plan"]["latencies_s"]),
        "tape_p50_s": tape_p50,
        "plan_p50_s": plan_p50,
        "tape_p95_s": _percentile(runs["tape"]["latencies_s"], 95),
        "plan_p95_s": _percentile(runs["plan"]["latencies_s"], 95),
        "p50_speedup": tape_p50 / plan_p50 if plan_p50 > 0 else 0.0,
        "plans_compiled": plans["plans"],
        "plan_capture_failures": plans["capture_failures"],
        "plan_fallbacks": plans["fallbacks"],
        "plan_replays": plans["replays"],
        "plan_arena_bytes": plans["arena_bytes"],
        "plan_capture_total_s": plans["capture_s_total"],
    }


def _obs_session(tmp_dir: Path, policy: BatchPolicy,
                 health: HealthConfig | None, trace_path: Path | None,
                 num_clients: int, requests_per_client: int,
                 serve_kwargs: dict | None = None) -> dict:
    """One warmed measurement session with the given observability setup."""
    if trace_path is not None:
        enable_tracing(trace_path)
    try:
        server = _bench_server(tmp_dir, policy, health=health,
                               serve_kwargs=serve_kwargs)
        try:
            _drive(server, 2, 2, repeat_fraction=0.0, seed=1)   # warm-up
            return _drive(server, num_clients, requests_per_client,
                          repeat_fraction=0.0, seed=11)
        finally:
            server.shutdown()
    finally:
        if trace_path is not None:
            disable_tracing()


def bench_obs_overhead(smoke: bool) -> dict:
    """The ``obs_overhead`` section: served-request latency under three
    observability configurations against the bare serving path:

    * ``baseline`` — telemetry, flight recorder, tracing and health
      monitors all off;
    * ``monitored`` — request tracing + physics health monitors on (the
      hot-path cost of span recording plus inline invariant checks);
    * ``telemetry`` — the production default: background telemetry
      sampler (sub-second interval so it actually fires during the
      measured window) + flight recorder rings on every request.

    The cache is disabled so the monitor sees every request, and shadow
    audits stay off (they run off-thread by design).  The sampler leg is
    gated: ``sampler_overhead_p50_pct`` must stay under
    ``gates.obs_overhead_max_p50_pct`` — the telemetry tentpole promises
    observation-only monitoring, so its served-p50 cost is a quality bar,
    not just a recorded number.
    """
    import tempfile

    num_clients = 4
    requests_per_client = 6 if smoke else 25
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=4.0, max_queue=64,
                         cache_entries=0)
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        baseline = _obs_session(Path(tmp) / "off", policy, None, None,
                                num_clients, requests_per_client)
        trace_path = Path(tmp) / "trace.jsonl"
        monitored = _obs_session(Path(tmp) / "on", policy, HealthConfig(),
                                 trace_path, num_clients, requests_per_client)
        trace_events = sum(1 for line in trace_path.read_text().splitlines()
                           if line.strip())
        telemetry = _obs_session(
            Path(tmp) / "sampler", policy, None, None,
            num_clients, requests_per_client,
            serve_kwargs={"telemetry": True, "flight": True,
                          "telemetry_interval_s": 0.2,
                          "flight_dump_dir": str(Path(tmp) / "flight")})
    reset_metrics()
    p50_off = _percentile(baseline["latencies_s"], 50)
    p95_off = _percentile(baseline["latencies_s"], 95)
    p95_on = _percentile(monitored["latencies_s"], 95)
    p50_telemetry = _percentile(telemetry["latencies_s"], 50)
    return {
        "clients": num_clients,
        "requests_per_client": requests_per_client,
        "grid": list(BENCH_GRID.shape),
        "completed_baseline": len(baseline["latencies_s"]),
        "completed_monitored": len(monitored["latencies_s"]),
        "completed_telemetry": len(telemetry["latencies_s"]),
        "baseline_p50_s": p50_off,
        "monitored_p50_s": _percentile(monitored["latencies_s"], 50),
        "baseline_p95_s": p95_off,
        "monitored_p95_s": p95_on,
        "telemetry_p50_s": p50_telemetry,
        "telemetry_p95_s": _percentile(telemetry["latencies_s"], 95),
        "overhead_p95_pct": (100.0 * (p95_on - p95_off) / p95_off
                             if p95_off > 0 else 0.0),
        "sampler_overhead_p50_pct": (100.0 * (p50_telemetry - p50_off) / p50_off
                                     if p50_off > 0 else 0.0),
        "trace_events": trace_events,
    }


def bench_sanitize_overhead(smoke: bool) -> dict:
    """The ``sanitize_overhead`` section: served-request latency with the
    runtime lock sanitizer instrumenting every serve/obs lock vs off.

    The sanitizer is scoped around server construction so the batcher,
    registry, response-cache and health locks are all the instrumented
    wrappers — the exact configuration ``REPRO_SANITIZE=1`` produces.
    The run double-checks that the serve path is violation-free while
    measuring what the instrumentation costs on the request path.
    """
    import tempfile

    from repro.runtime.sync import (
        reset_sync_state, sanitize_locks, sync_violations,
    )

    num_clients = 4
    requests_per_client = 6 if smoke else 25
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=4.0, max_queue=64,
                         cache_entries=0)
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        baseline = _obs_session(Path(tmp) / "off", policy, None, None,
                                num_clients, requests_per_client)
        reset_sync_state()
        with sanitize_locks(enabled=True, raise_on_violation=False):
            sanitized = _obs_session(Path(tmp) / "on", policy, None, None,
                                     num_clients, requests_per_client)
        violations = [v.kind for v in sync_violations()]
        snapshot = metrics_snapshot()
        acquisitions = int(sum(m.get("value", 0) for name, m in snapshot.items()
                               if name.startswith("sync.acquire.")))
        contended = int(sum(m.get("value", 0) for name, m in snapshot.items()
                            if name.startswith("sync.contention.")))
        reset_sync_state()
    reset_metrics()
    p50_off = _percentile(baseline["latencies_s"], 50)
    p50_on = _percentile(sanitized["latencies_s"], 50)
    p95_off = _percentile(baseline["latencies_s"], 95)
    p95_on = _percentile(sanitized["latencies_s"], 95)
    return {
        "clients": num_clients,
        "requests_per_client": requests_per_client,
        "grid": list(BENCH_GRID.shape),
        "completed_baseline": len(baseline["latencies_s"]),
        "completed_sanitized": len(sanitized["latencies_s"]),
        "baseline_p50_s": p50_off,
        "sanitized_p50_s": p50_on,
        "baseline_p95_s": p95_off,
        "sanitized_p95_s": p95_on,
        "overhead_p50_pct": (100.0 * (p50_on - p50_off) / p50_off
                             if p50_off > 0 else 0.0),
        "overhead_p95_pct": (100.0 * (p95_on - p95_off) / p95_off
                             if p95_off > 0 else 0.0),
        "lock_acquisitions": acquisitions,
        "contended_acquisitions": contended,
        "violations": len(violations),
    }


def merge_into_bench_json(section: dict, out_path: Path,
                          name: str = "serving") -> dict:
    """Insert/replace one section, preserving the others."""
    if out_path.exists():
        payload = json.loads(out_path.read_text())
    else:
        payload = {"meta": {}, "sections": {}, "timings": {}}
    payload.setdefault("sections", {})[name] = section
    timings = payload.setdefault("timings", {})
    keys = {"serving": ("latency_p50_s", "latency_p95_s", "latency_p99_s"),
            "obs_overhead": ("baseline_p95_s", "monitored_p95_s",
                             "telemetry_p50_s"),
            "sanitize_overhead": ("baseline_p50_s", "sanitized_p50_s"),
            "inference_plan": ("tape_p50_s", "plan_p50_s")}[name]
    for key in keys:
        timings[f"{name}.{key}"] = section[key]
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer requests per client)")
    parser.add_argument("--check", action="store_true",
                        help="gate serving latencies against reference_perf.json")
    parser.add_argument("--clients", type=int, default=None,
                        help="override concurrent client count (default 8)")
    parser.add_argument("--requests-per-client", type=int, default=None)
    parser.add_argument("--engine", choices=("tape", "plan"), default=None,
                        help="forward-pass engine for the serving section "
                             "(default: tape; the inference_plan section "
                             "always measures both)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_perf.json"))
    args = parser.parse_args(argv)

    section = bench_serving(args.smoke, engine=args.engine) \
        if args.clients is None else _custom(args)
    for key, value in section.items():
        print(f"    {key}: {value}")
    payload = merge_into_bench_json(section, Path(args.out))
    print(f"wrote serving section to {args.out}")

    if args.clients is None:
        overhead = bench_obs_overhead(args.smoke)
        for key, value in overhead.items():
            print(f"    {key}: {value}")
        payload = merge_into_bench_json(overhead, Path(args.out),
                                        name="obs_overhead")
        print(f"wrote obs_overhead section to {args.out}")

        sanitize = bench_sanitize_overhead(args.smoke)
        for key, value in sanitize.items():
            print(f"    {key}: {value}")
        payload = merge_into_bench_json(sanitize, Path(args.out),
                                        name="sanitize_overhead")
        print(f"wrote sanitize_overhead section to {args.out}")

        plan_section = bench_inference_plan(args.smoke)
        for key, value in plan_section.items():
            print(f"    {key}: {value}")
        payload = merge_into_bench_json(plan_section, Path(args.out),
                                        name="inference_plan")
        print(f"wrote inference_plan section to {args.out}")

    if args.check:
        from run_benchmarks import check_gates, check_regressions

        print("checking serving timings against reference:")
        failures = check_regressions(payload["timings"], REFERENCE_PATH)
        gated = [f for f in failures
                 if f.startswith(("serving.", "obs_overhead.",
                                  "sanitize_overhead.", "inference_plan."))]
        gated += check_gates(payload.get("sections", {}), REFERENCE_PATH)
        if gated:
            print(f"SERVING PERF REGRESSION: {', '.join(gated)}")
            return 1
        print("no serving regressions")
    return 0


def _custom(args) -> dict:
    """bench_serving with CLI-overridden fleet shape."""
    import tempfile

    policy = BatchPolicy(max_batch_size=8, max_wait_ms=4.0, max_queue=64)
    reset_metrics()
    with tempfile.TemporaryDirectory() as tmp:
        server = _bench_server(Path(tmp), policy)
        try:
            run = _drive(server, args.clients,
                         args.requests_per_client or (6 if args.smoke else 25))
        finally:
            server.shutdown()
    latencies = run["latencies_s"]
    return {
        "clients": args.clients,
        "requests_per_client": args.requests_per_client,
        "completed": len(latencies),
        "rejected": run["rejected"],
        "errors": run["errors"],
        "wall_clock_s": run["wall_s"],
        "throughput_rps": len(latencies) / run["wall_s"] if run["wall_s"] else 0.0,
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p95_s": _percentile(latencies, 95),
        "latency_p99_s": _percentile(latencies, 99),
    }


if __name__ == "__main__":
    raise SystemExit(main())
