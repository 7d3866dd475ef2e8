"""Command-line interface for the SDM-PEB reproduction.

Subcommands mirror the stages a user actually runs:

* ``simulate``  — run the rigorous flow on seeded clips and cache them;
* ``train``     — fit a surrogate (any Table II method) on cached clips
  and save its weights;
* ``predict``   — load weights and predict inhibitor volumes for clips;
* ``evaluate``  — full Table II-style evaluation of saved weights
  (both take the method and grid from the checkpoint's manifest);
* ``reproduce`` — regenerate all tables/figures (wraps
  :mod:`repro.experiments.reproduce_all`);
* ``serve``     — batched inference HTTP service over a saved
  checkpoint or a model registry (wraps :mod:`repro.serve`), with a
  persistent ``/v1/jobs`` queue for long-running work;
* ``jobs``      — submit/status/cancel/list async jobs (gradient-based
  OPC and friends) against a running ``serve`` process;
* ``lint``      — repo-specific static analysis and the full-op
  gradcheck sweep (wraps :mod:`repro.lint`);
* ``report``    — summarize a trace JSONL (from ``--trace`` or
  ``REPRO_TRACE``) into a per-span table (wraps :mod:`repro.obs.report`);
* ``flightdump`` — render a black-box ``flightdump-*.json`` written by a
  serving process on SIGQUIT or a lane crash (wraps
  :mod:`repro.obs.flight`).

Every simulation/training subcommand accepts ``--sanitize``, which runs
the whole command under the autograd tape sanitizer: each op's forward
output and each backward vjp result is checked for NaN/Inf and
shape/dtype mismatch, raising with the offending op's name.  They also
accept ``--trace PATH``, which records observation-only spans (solver
stages, trainer epochs/steps, pool dispatches) to a JSONL file.

Usage:  python -m repro.cli <subcommand> [options]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro import nn
from repro.config import GridConfig, LithoConfig
from repro.data import generate_dataset
from repro.experiments import (
    ExperimentSettings, TABLE2_METHODS, build_method, evaluate_method,
    train_method,
)
from repro.nn.module import normalize_weights_path


class CLIError(Exception):
    """A user-facing CLI failure: printed as one line, exit code 2."""


def _weights_or_cli_error(path_text: str) -> Path:
    """The normalized weights path, or a friendly CLIError when unusable."""
    path = normalize_weights_path(path_text)
    if not path.exists():
        raise CLIError(
            f"weights file not found: {path}\n"
            f"  (train one first: python -m repro.cli train --weights {path})")
    try:
        with np.load(path) as archive:
            if not archive.files:
                raise CLIError(f"weights file {path} is empty (no arrays)")
    except CLIError:
        raise
    except Exception as error:
        raise CLIError(f"weights file {path} is not a readable npz archive: "
                       f"{error}") from error
    return path


def _load_checkpoint(path_text: str):
    """``(model, manifest)`` of a hash-verified checkpoint, or a CLIError."""
    from repro.serve import RegistryError, load_checkpoint

    weights = _weights_or_cli_error(path_text)
    try:
        return load_checkpoint(weights)
    except RegistryError as error:
        raise CLIError(str(error)) from error


def _settings_from_args(args, grid: GridConfig | None = None) -> ExperimentSettings:
    """Dataset settings; ``grid`` defaults to the ``--nx/--nz/--clip-um`` flags."""
    if grid is None:
        grid = GridConfig(size_um=args.clip_um, nx=args.nx, ny=args.nx, nz=args.nz)
    return ExperimentSettings(
        num_clips=args.clips, epochs=args.epochs, cache_dir=args.cache,
        config=LithoConfig(grid=grid), workers=args.workers,
    )


def _add_common(parser: argparse.ArgumentParser, grid: bool = True) -> None:
    parser.add_argument("--clips", type=int, default=12, help="number of clips")
    if grid:  # predict and evaluate take theirs from the checkpoint's manifest
        parser.add_argument("--nx", type=int, default=32, help="x/y grid points")
        parser.add_argument("--nz", type=int, default=4, help="depth grid points")
        parser.add_argument("--clip-um", type=float, default=1.0, help="clip size in um")
    parser.add_argument("--cache", default=".repro_cache", help="dataset cache dir")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for rigorous dataset generation "
                             "(default: REPRO_WORKERS env or all cores; 1 = serial)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run under the autograd tape sanitizer (NaN/Inf and "
                             "shape/dtype checks on every op) and the lock "
                             "sanitizer (lock-order + fork-safety checks)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record observation-only spans to this JSONL file "
                             "(same as REPRO_TRACE=PATH; summarize with "
                             "`python -m repro.cli report PATH`)")


def cmd_simulate(args) -> int:
    settings = _settings_from_args(args)
    dataset = generate_dataset(settings.num_clips, settings.config,
                               cache_dir=settings.cache_dir, verbose=True)
    seconds = sum(s.rigorous_seconds for s in dataset.samples)
    print(f"\n{len(dataset)} clips cached in {settings.cache_dir} "
          f"(rigorous solver time {seconds:.1f}s)")
    return 0


def cmd_train(args) -> int:
    settings = _settings_from_args(args)
    train_set, test_set = generate_dataset(
        settings.num_clips, settings.config, cache_dir=settings.cache_dir,
        verbose=True).split(0.8)
    nn.init.seed(args.seed)
    model, loss_config = build_method(args.method, settings.config.grid)
    print(f"training {args.method} ({model.num_parameters()} parameters) "
          f"for {settings.epochs} epochs...")
    train_method(model, loss_config, train_set, settings, verbose=True)
    from repro.serve import save_checkpoint

    manifest = save_checkpoint(model, args.weights, method=args.method,
                               grid=settings.config.grid,
                               extra={"epochs": settings.epochs})
    print(f"weights saved to {normalize_weights_path(args.weights)} "
          f"(manifest {manifest.content_hash[:19]}..., "
          f"{manifest.param_count} params)")
    return 0


def cmd_predict(args) -> int:
    model, manifest = _load_checkpoint(args.weights)
    settings = _settings_from_args(args, manifest.grid_config())
    dataset = generate_dataset(settings.num_clips, settings.config,
                               cache_dir=settings.cache_dir)
    sample = dataset.samples[args.clip]
    inhibitor = model.predict_inhibitor(sample.acid)
    np.savez_compressed(args.out, acid=sample.acid, inhibitor=inhibitor,
                        truth=sample.inhibitor)
    error = np.abs(inhibitor - sample.inhibitor)
    print(f"{manifest.model_class} prediction for clip {args.clip}: "
          f"max |error| {error.max():.4f}, mean {error.mean():.5f}")
    print(f"arrays saved to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from repro.core import Trainer, TrainConfig

    model, manifest = _load_checkpoint(args.weights)
    settings = _settings_from_args(args, manifest.grid_config())
    train_set, test_set = generate_dataset(
        settings.num_clips, settings.config, cache_dir=settings.cache_dir).split(0.8)
    trainer = Trainer(model, train_set.inputs(), train_set.labels(), TrainConfig(epochs=1))
    # Trainer.__init__ resets output stats from data; restore the saved ones.
    model.set_output_stats(manifest.output_mean, manifest.output_std)
    result = evaluate_method(manifest.model_class, trainer, test_set, settings)
    print(f"{'method':<16}: {result.name}")
    print(f"{'RMSE(I)':<16}: {result.inhibitor_rmse * 1e3:.2f}e-3")
    print(f"{'NRMSE(I)':<16}: {result.inhibitor_nrmse * 100:.2f}%")
    print(f"{'RMSE(R)':<16}: {result.rate_rmse:.3f} nm/s")
    print(f"{'NRMSE(R)':<16}: {result.rate_nrmse * 100:.2f}%")
    print(f"{'CD error x/y':<16}: {result.cd_error_x:.2f} / {result.cd_error_y:.2f} nm")
    print(f"{'runtime':<16}: {result.runtime_s:.3f} s/clip")
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments.reproduce_all import run_all

    settings = ExperimentSettings.quick() if args.quick else ExperimentSettings.full()
    settings.workers = args.workers
    run_all(settings, Path(args.out))
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.obs import HealthConfig
    from repro.serve import (
        DEFAULT_LATENCY_BUCKETS, BatchPolicy, JobService, ModelRegistry,
        PredictServer, RegistryError, ServeConfig, ServedModel,
    )

    policy = BatchPolicy(max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms,
                         max_queue=args.queue_size, cache_entries=args.cache_size)
    health = None
    if not args.no_health_checks or args.shadow_audit > 0:
        health = HealthConfig(check_invariants=not args.no_health_checks,
                              shadow_every=args.shadow_audit)
    if args.latency_buckets:
        try:
            buckets = tuple(sorted(float(b) for b in args.latency_buckets.split(",")))
        except ValueError as error:
            raise CLIError(f"--latency-buckets must be comma-separated numbers: "
                           f"{error}") from error
    else:
        buckets = DEFAULT_LATENCY_BUCKETS
    try:
        if args.registry:
            registry = ModelRegistry(args.registry)
            names = [args.model] if args.model else registry.names()
            if not names:
                raise CLIError(f"registry {args.registry} has no published models")
            loaded = [registry.load(name, args.model_version) for name in names]
        else:
            loaded = [_load_checkpoint(args.ckpt)]
    except RegistryError as error:
        raise CLIError(str(error)) from error
    # install the drain handlers before any pooled backend forks its
    # workers, so a SIGTERM that lands during startup still drains and
    # reaps them on the way out
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    try:
        served = [ServedModel(model, manifest, policy, health=health,
                              workers=args.serve_workers)
                  for model, manifest in loaded]
    except ValueError as error:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        raise CLIError(str(error)) from error
    jobs = None
    if not args.no_jobs:
        from repro.jobs import JobExecutorConfig

        # JobService runs boot-time recovery (running → queued) before
        # the executor starts, so jobs interrupted by the previous
        # process resume from their last checkpoint
        jobs = JobService(args.jobs_dir, JobExecutorConfig(
            checkpoint_every=args.jobs_checkpoint_every))
        if jobs.recovered:
            print(f"recovered {jobs.recovered} interrupted job(s) from "
                  f"{args.jobs_dir}")
    config = ServeConfig(host=args.host, port=args.port, policy=policy,
                         latency_buckets=buckets,
                         telemetry=not args.no_telemetry,
                         telemetry_interval_s=args.telemetry_interval,
                         flight=not args.no_flight,
                         flight_dump_dir=args.flight_dir)
    server = PredictServer(served, config, verbose=args.verbose, jobs=jobs)
    # SIGQUIT = operator-triggered black-box snapshot of the live server
    # (kill -QUIT <pid>); the process keeps serving afterwards
    def _sigquit(*_):
        if server.flight is not None:
            path = server.flight.dump("sigquit", force=True)
            if path:
                print(f"flight dump written to {path} "
                      f"(render: python -m repro.cli flightdump {path})")
    previous[signal.SIGQUIT] = signal.signal(signal.SIGQUIT, _sigquit)
    host, port = server.address
    for entry in served:
        m = entry.manifest
        backend = (f"{entry.workers} workers" if entry.workers > 1
                   else "in-process")
        print(f"serving {m.name} v{m.version} ({m.model_class}, "
              f"{m.param_count} params, grid {tuple(m.grid_config().shape)}, "
              f"{backend})")
    routes = "POST /v1/predict, GET /v1/models /healthz /metrics"
    if not args.no_telemetry:
        routes += " /v1/telemetry /dashboard"
    if jobs is not None:
        routes += ", POST/GET/DELETE /v1/jobs"
        print(f"job queue at {args.jobs_dir} "
              f"(types: {', '.join(sorted(set(jobs.stats()['types'])))})")
    print(f"listening on http://{host}:{port}  ({routes}; ctrl-c to stop)")

    server.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("draining in-flight requests...")
        server.shutdown(drain=True)
        print("shutdown complete")
    return 0


def _jobs_request(args, method: str, path: str, payload: dict | None = None):
    """One JSON exchange with a running server's /v1/jobs routes."""
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + path
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        detail = error.read().decode(errors="replace").strip()
        try:
            detail = json.loads(detail).get("error", detail)
        except json.JSONDecodeError:
            pass
        raise CLIError(f"{method} {url} failed: {error.code} {detail}") from error
    except urllib.error.URLError as error:
        raise CLIError(f"cannot reach {url}: {error.reason}\n"
                       f"  (is the server running? start one with "
                       f"`python -m repro.cli serve`)") from error


def _print_job(record: dict) -> None:
    line = f"{record['id']}  {record['type']:<14} {record['state']:<10}"
    progress = record.get("progress") or {}
    if "cd_rmse_nm" in progress:
        line += f" iter {progress.get('iteration', '?')}" \
                f"  rms {progress['cd_rmse_nm']:.3f} nm"
    elif "iteration" in progress:
        line += f" iter {progress['iteration']}"
    if record.get("error"):
        line += f"  error: {record['error']}"
    print(line)


def cmd_jobs(args) -> int:
    import time as time_mod

    if args.action == "submit":
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as error:
            raise CLIError(f"--params is not valid JSON: {error}") from error
        record = _jobs_request(args, "POST", "/v1/jobs",
                               {"type": args.type, "params": params})
        print(f"submitted {record['id']} ({record['type']})")
        if not args.watch:
            return 0
        args.id = record["id"]
    if args.action == "list":
        listing = _jobs_request(args, "GET", "/v1/jobs")["jobs"]
        if not listing:
            print("no jobs")
            return 0
        for entry in listing:
            print(f"{entry['id']}  {entry['type']:<14} {entry['state']:<10} "
                  f"attempts {entry['attempts']}")
        return 0
    if args.action == "cancel":
        record = _jobs_request(args, "DELETE", f"/v1/jobs/{args.id}")
        _print_job(record)
        return 0
    # status (and submit --watch falls through to here)
    while True:
        record = _jobs_request(args, "GET", f"/v1/jobs/{args.id}")
        _print_job(record)
        if not getattr(args, "watch", False) \
                or record["state"] in ("completed", "failed", "cancelled"):
            break
        time_mod.sleep(args.poll_s)
    if record["state"] == "completed" and args.action != "list":
        print(json.dumps(record["result"], indent=2, sort_keys=True))
    return 0 if record["state"] == "completed" or args.action == "cancel" \
        else (0 if record["state"] in ("queued", "running") else 1)


def cmd_report(args) -> int:
    from repro.obs.export import (
        build_span_forest, format_critical_path, format_requests,
        request_summaries, write_chrome_trace,
    )
    from repro.obs.report import format_report, load_events, summarize_spans

    path = Path(args.trace_file)
    if not path.exists():
        print(f"no trace file at {path} — record one with --trace PATH or "
              f"REPRO_TRACE=PATH")
        return 1
    try:
        events = load_events(path)
    except OSError as error:
        raise CLIError(f"cannot read trace file {path}: {error}") from error
    if not events:
        print(f"{path} contains no trace events (empty or fully corrupt file)")
        return 0
    if args.export_chrome:
        written = write_chrome_trace(events, args.export_chrome)
        print(f"wrote {written} Chrome trace event(s) to {args.export_chrome} "
              f"(open in Perfetto or chrome://tracing)")
    if args.requests:
        print(format_requests(request_summaries(events), limit=args.limit))
        return 0
    if args.critical_path:
        print(format_critical_path(build_span_forest(events)))
        return 0
    if args.export_chrome:
        return 0
    summaries = summarize_spans(events)
    print(format_report(summaries, limit=args.limit,
                        title=f"{path} — {len(events)} event(s)"))
    return 0


def cmd_flightdump(args) -> int:
    from repro.obs import load_flight_dump, render_flight_dump

    path = Path(args.dump_file)
    if not path.exists():
        raise CLIError(f"no flight dump at {path}")
    if path.is_dir():
        # pointing at a directory picks the newest dump there — the
        # "what just happened" workflow
        candidates = sorted(path.glob("flightdump-*.json"))
        if not candidates:
            raise CLIError(f"no flightdump-*.json files in {path}")
        path = candidates[-1]
    try:
        body = load_flight_dump(path)
    except (OSError, ValueError) as error:
        raise CLIError(str(error)) from error
    if args.json:
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    print(f"{path}")
    print(render_flight_dump(body, max_rows=args.limit))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import main as lint_main

    argv = list(args.paths) or ["src"]
    if args.gradcheck:
        argv.append("--gradcheck")
    if args.select:
        argv.extend(["--select", args.select])
    if args.jobs != 1:
        argv.extend(["--jobs", str(args.jobs)])
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the rigorous flow and cache clips")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a surrogate and save weights")
    _add_common(p)
    p.add_argument("--method", choices=TABLE2_METHODS, default="SDM-PEB")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default="model.npz")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one clip with saved weights")
    _add_common(p, grid=False)
    p.add_argument("--weights", default="model.npz")
    p.add_argument("--clip", type=int, default=0)
    p.add_argument("--out", default="prediction.npz")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate saved weights on the test split")
    _add_common(p, grid=False)
    p.add_argument("--weights", default="model.npz")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="regenerate all tables and figures")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out", default="results")
    p.add_argument("--workers", type=int, default=None,
                   help="processes for rigorous dataset generation")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the autograd tape + lock sanitizers")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record observation-only spans to this JSONL file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("serve", help="batched inference HTTP service over a checkpoint")
    p.add_argument("--ckpt", "--weights", dest="ckpt", default="model.npz",
                   help="weights npz with the manifest `train` wrote beside it")
    p.add_argument("--registry", default=None,
                   help="serve published models from this registry directory "
                        "instead of --ckpt")
    p.add_argument("--model", default=None,
                   help="with --registry: serve only this model name")
    p.add_argument("--model-version", type=int, default=None,
                   help="with --registry: serve this version (default: latest)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="largest coalesced forward-pass batch")
    p.add_argument("--max-wait-ms", type=float, default=5.0,
                   help="how long to hold an open batch for stragglers")
    p.add_argument("--queue-size", type=int, default=64,
                   help="bounded request queue; overflow is rejected with 503")
    p.add_argument("--cache-size", type=int, default=128,
                   help="LRU response-cache entries (0 disables)")
    p.add_argument("--serve-workers", type=int, default=None, metavar="N",
                   help="forked prediction worker processes serving the "
                        "parent's model read-only; each batch goes to a "
                        "free worker (default: REPRO_SERVE_WORKERS env, "
                        "else 1 = in-process)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record serving spans to this JSONL file")
    p.add_argument("--no-health-checks", action="store_true",
                   help="disable per-prediction physics invariant checks")
    p.add_argument("--shadow-audit", type=int, default=0, metavar="N",
                   help="re-run the rigorous solver on 1-in-N served "
                        "predictions and record surrogate error histograms "
                        "(0 disables)")
    p.add_argument("--latency-buckets", default=None, metavar="S,S,...",
                   help="comma-separated request-latency histogram bucket "
                        "bounds in seconds (default: 1ms..10s log-ish ladder)")
    p.add_argument("--jobs-dir", default=".repro_jobs", metavar="DIR",
                   help="persistent job-queue directory for /v1/jobs; jobs "
                        "interrupted by a crash or restart resume from their "
                        "last checkpoint here on boot")
    p.add_argument("--no-jobs", action="store_true",
                   help="disable the /v1/jobs async job queue")
    p.add_argument("--jobs-checkpoint-every", type=int, default=2, metavar="N",
                   help="job-executor checkpoint cadence in stepper iterations")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the rolling time-series sampler "
                        "(/v1/telemetry, /dashboard, SLO burn alerts)")
    p.add_argument("--telemetry-interval", type=float, default=10.0,
                   metavar="S", help="telemetry sampling interval in seconds")
    p.add_argument("--no-flight", action="store_true",
                   help="disable the black-box flight recorder")
    p.add_argument("--flight-dir", default=".", metavar="DIR",
                   help="directory for flightdump-*.json crash/SIGQUIT dumps")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("jobs", help="submit/inspect async jobs on a running server")
    jobs_sub = p.add_subparsers(dest="action", required=True)
    for action, helptext in (("submit", "submit a job and print its id"),
                             ("status", "print one job's state and result"),
                             ("cancel", "request cancellation of a job"),
                             ("list", "list all jobs on the server")):
        q = jobs_sub.add_parser(action, help=helptext)
        q.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the running serve process")
        q.add_argument("--timeout", type=float, default=30.0,
                       help="per-request HTTP timeout in seconds")
        if action == "submit":
            q.add_argument("--type", required=True,
                           help="registered job type (e.g. opc_gradient)")
            q.add_argument("--params", default=None, metavar="JSON",
                           help='job parameters as a JSON object, e.g. '
                                '\'{"iterations": 8}\'')
            q.add_argument("--watch", action="store_true",
                           help="poll until the job reaches a terminal state")
            q.add_argument("--poll-s", type=float, default=1.0,
                           help="--watch polling interval in seconds")
        elif action in ("status", "cancel"):
            q.add_argument("id", help="job id returned by submit")
            if action == "status":
                q.add_argument("--watch", action="store_true",
                               help="poll until the job reaches a terminal state")
                q.add_argument("--poll-s", type=float, default=1.0,
                               help="--watch polling interval in seconds")
        q.set_defaults(func=cmd_jobs)

    p = sub.add_parser("report", help="summarize a trace JSONL into a per-span table")
    p.add_argument("trace_file", help="trace file written via --trace / REPRO_TRACE")
    p.add_argument("--limit", type=int, default=None,
                   help="show only the top N span names by total time")
    p.add_argument("--export-chrome", metavar="PATH", default=None,
                   help="also write the trace in Chrome trace-event JSON "
                        "(loadable in Perfetto / chrome://tracing)")
    p.add_argument("--critical-path", action="store_true",
                   help="show the largest root span's critical path with "
                        "per-span self time instead of the summary table")
    p.add_argument("--requests", action="store_true",
                   help="per-request latency breakdown (one line per "
                        "X-Request-Id seen in the trace)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("flightdump",
                       help="render a black-box flight dump for humans")
    p.add_argument("dump_file",
                   help="a flightdump-*.json file, or a directory holding "
                        "them (picks the newest)")
    p.add_argument("--limit", type=int, default=20, metavar="N",
                   help="rows shown per section (requests/spans/logs)")
    p.add_argument("--json", action="store_true",
                   help="print the raw dump JSON instead of the rendering")
    p.set_defaults(func=cmd_flightdump)

    p = sub.add_parser("lint", help="static analysis (REP rules) and gradcheck sweep")
    p.add_argument("paths", nargs="*", help="files or directories to lint (default: src)")
    p.add_argument("--gradcheck", action="store_true",
                   help="also run the finite-difference sweep over every op")
    p.add_argument("--select", help="comma-separated rule ids to run")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="lint files across N fork-pool workers")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # `train` defines --epochs; other subcommands fall back to a default.
    if not hasattr(args, "epochs"):
        args.epochs = 30
    if getattr(args, "trace", None):
        from repro.obs import enable_tracing

        enable_tracing(args.trace)
    try:
        if getattr(args, "sanitize", False):
            from repro.runtime.sync import sanitize_locks
            from repro.tensor import sanitize

            # locks created by the command (batcher, registry, health)
            # come out instrumented; violations are recorded + counted
            # rather than raised so a serving process stays up
            with sanitize(True), sanitize_locks(raise_on_violation=False):
                return args.func(args)
        return args.func(args)
    except CLIError as error:
        import sys

        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
