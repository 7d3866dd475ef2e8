#!/usr/bin/env python
"""Perf regression harness: time the hot paths, record ``BENCH_perf.json``.

Seven sections, each a dict of timings/counters:

* ``scan``     — forward and forward+backward wall time of the two scan
  kernels at a training-typical (B, L, C, N);
* ``solver``   — rigorous dataset generation wall time per clip, serial
  (``workers=1``) vs. parallel (``workers=min(4, cores)``), no disk cache;
* ``backward`` — tracemalloc peak / live-block count across one SDM-PEB
  loss.backward() at quick scale, plus the wall time of a full
  forward+backward+step;
* ``epoch``    — one Trainer epoch on synthetic quick-scale data;
* ``stages``   — per-stage breakdown of one rigorous solve (lateral
  diffusion by dense per-axis DCT operators vs z matrix-exponential vs
  reaction step) recorded through
  the ``repro.obs`` trace layer, plus the tracing overhead ratio and the
  cost of a disabled (no-op) span;
* ``serving``  — p50/p95/p99 request latency, throughput and overload
  rejection of the ``repro.serve`` HTTP service under 8 concurrent
  clients (delegates to ``run_serve_bench.bench_serving``);
* ``obs_overhead`` — served-request p50/p95 with request tracing and
  physics health monitors enabled vs the bare serving path, plus a
  third leg with the telemetry sampler + flight recorder on (delegates
  to ``run_serve_bench.bench_obs_overhead``; both p95s are regression-
  checked and the sampler's p50 overhead is gated under
  ``gates.obs_overhead_max_p50_pct``);
* ``sanitize_overhead`` — served-request p50/p95 with the runtime lock
  sanitizer (``repro.runtime.sync``) instrumenting every serve/obs lock
  vs off (delegates to ``run_serve_bench.bench_sanitize_overhead``;
  both p50s are gated and the run must stay violation-free);
* ``inference_plan`` — served p50 with the compiled-plan engine vs the
  tape engine at a matched batch composition (delegates to
  ``run_serve_bench.bench_inference_plan``; the speedup ratio is gated
  as a lower bound through ``gates.inference_plan_min_speedup``);
* ``jobs`` — gradient-based OPC (the ``opc_gradient`` job workload) vs
  perturbation-based ``calibrate_mask_bias`` on the same clip and PEB
  backend: final CD-RMSE and forward-solve counts for both, gated so
  the gradient path stays >= ``gates.jobs_min_solve_ratio``x cheaper in
  solves while matching or beating the baseline RMS.

``--smoke`` shrinks every section to CI-runner size (seconds, not
minutes).  ``--check`` compares the fresh timings against
``benchmarks/reference_perf.json`` and exits non-zero on a >2x
regression (with an absolute floor so runner noise on sub-second
entries never flakes).  The JSON lands at the repo root by default so
successive PRs accumulate a perf trajectory.

Usage:
    PYTHONPATH=src python benchmarks/run_benchmarks.py [--smoke] [--check] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

import numpy as np
import scipy

from repro import nn
from repro.config import GridConfig, LithoConfig
from repro.core import TrainConfig, Trainer
from repro.core.losses import SDMPEBLoss
from repro.data import generate_dataset
from repro.experiments import build_method
from repro.ssm.scan import diagonal_scan, run_scan
from repro.tensor import Tensor

REFERENCE_PATH = REPO_ROOT / "benchmarks" / "reference_perf.json"

#: regression gate: fail when fresh > max(RATIO * ref, ref + FLOOR_S).
#: The additive floor keeps sub-second entries from flaking on noisy
#: shared CI runners.
REGRESSION_RATIO = 2.0
REGRESSION_FLOOR_S = 0.75


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def machine_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "repro_workers_env": os.environ.get("REPRO_WORKERS", ""),
        "timestamp_unix_s": round(time.time(), 3),
    }


def bench_scan(smoke: bool) -> dict:
    shape = (1, 64, 4, 4) if smoke else (2, 256, 8, 8)
    rng = np.random.default_rng(0)
    a = np.exp(-rng.uniform(0.01, 3.0, size=shape))
    b = rng.standard_normal(shape)
    out: dict = {"shape": list(shape)}
    for mode in ("sequential", "chunked"):
        out[f"forward_{mode}_s"] = best_of(lambda m=mode: run_scan(a, b, mode=m))

        def forward_backward(m=mode):
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            diagonal_scan(ta, tb, mode=m).sum().backward()

        out[f"forward_backward_{mode}_s"] = best_of(forward_backward)
    return out


def bench_solver(smoke: bool) -> dict:
    if smoke:
        clips, grid, dt = 2, GridConfig(size_um=1.0, nx=16, ny=16, nz=2), 1.0
    else:
        clips, grid, dt = 8, GridConfig(size_um=1.0, nx=32, ny=32, nz=4), 0.5
    config = LithoConfig(grid=grid)
    parallel_workers = max(2, min(4, os.cpu_count() or 1))

    def timed_run(workers: int) -> float:
        start = time.perf_counter()
        generate_dataset(clips, config, time_step_s=dt, cache_dir=None, workers=workers)
        return time.perf_counter() - start

    serial_s = timed_run(1)
    parallel_s = timed_run(parallel_workers)
    return {
        "clips": clips,
        "grid": list(grid.shape),
        "time_step_s": dt,
        "serial_s": serial_s,
        "serial_per_clip_s": serial_s / clips,
        "parallel_workers": parallel_workers,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
    }


def _quick_model_and_batch(smoke: bool):
    grid = (GridConfig(size_um=1.0, nx=16, ny=16, nz=2) if smoke
            else GridConfig(size_um=1.0, nx=32, ny=32, nz=4))
    nn.init.seed(0)
    model, loss_config = build_method("SDM-PEB", grid)
    model.set_output_stats(0.5, 1.0)
    rng = np.random.default_rng(1)
    inputs = rng.random((2,) + grid.shape)
    targets = rng.random((2,) + grid.shape)
    return model, SDMPEBLoss(loss_config), inputs, targets, grid


def bench_backward(smoke: bool) -> dict:
    model, loss_fn, inputs, targets, _ = _quick_model_and_batch(smoke)
    model.train()
    prediction = model(Tensor(inputs))
    loss = loss_fn(prediction, Tensor(targets))
    tracemalloc.start()
    loss.backward()
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    live_blocks = sum(stat.count for stat in snapshot.statistics("filename"))

    optimizer = nn.Adam(model.parameters(), lr=1e-3)

    def train_step():
        optimizer.zero_grad()
        step_loss = loss_fn(model(Tensor(inputs)), Tensor(targets))
        step_loss.backward()
        optimizer.step()

    return {
        "batch_shape": list(inputs.shape),
        "backward_peak_bytes": peak,
        "backward_live_bytes": current,
        "backward_live_blocks": live_blocks,
        "train_step_s": best_of(train_step),
    }


def bench_epoch(smoke: bool) -> dict:
    model, _, _, _, grid = _quick_model_and_batch(smoke)
    rng = np.random.default_rng(2)
    n = 4 if smoke else 6
    inputs = rng.random((n,) + grid.shape)
    targets = 2.0 * inputs + rng.normal(0.0, 0.05, size=inputs.shape)
    trainer = Trainer(model, inputs, targets, TrainConfig(epochs=1, batch_size=2))
    start = time.perf_counter()
    trainer.fit()
    return {"samples": n, "epoch_s": time.perf_counter() - start}


def bench_stages(smoke: bool) -> dict:
    """Per-stage solver breakdown via the trace layer + tracing overhead."""
    import tempfile

    from repro.config import PEBConfig
    from repro.litho.peb import RigorousPEBSolver
    from repro.obs import disable_tracing, enable_tracing, span
    from repro.obs.report import load_events, summarize_spans

    grid = (GridConfig(size_um=1.0, nx=16, ny=16, nz=2) if smoke
            else GridConfig(size_um=1.0, nx=32, ny=32, nz=4))
    dt = 1.0 if smoke else 0.5
    rng = np.random.default_rng(3)
    acid = rng.random(grid.shape)
    solver = RigorousPEBSolver(grid, PEBConfig(), splitting="strang", time_step_s=dt)
    solver.solve(acid)  # warm the propagator caches out of the measurement

    untraced_s = best_of(lambda: solver.solve(acid), repeats=2)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "stages.jsonl"
        enable_tracing(trace_path)
        try:
            traced_s = best_of(lambda: solver.solve(acid), repeats=1)
        finally:
            disable_tracing()
        events = load_events(trace_path)
    totals = {s.name: s.total_s for s in summarize_spans(events)}

    noop_iters = 20000
    start = time.perf_counter()
    for _ in range(noop_iters):
        with span("bench.noop"):
            pass
    noop_span_us = (time.perf_counter() - start) / noop_iters * 1e6

    return {
        "grid": list(grid.shape),
        "time_step_s": dt,
        "untraced_solve_s": untraced_s,
        "traced_solve_s": traced_s,
        "trace_overhead_ratio": traced_s / untraced_s if untraced_s > 0 else float("inf"),
        "stage_lateral_s": totals.get("peb.lateral", 0.0),
        "stage_z_s": totals.get("peb.z", 0.0),
        "stage_react_s": totals.get("peb.react", 0.0),
        "solve_span_s": totals.get("peb.solve", 0.0),
        "trace_events": len(events),
        "noop_span_us": noop_span_us,
    }


def bench_jobs(smoke: bool) -> dict:
    """Gradient OPC (the ``opc_gradient`` job) vs perturbation calibration.

    Both optimizers drive the same Gaussian-PEB forward chain on the
    same seeded clip, so the comparison isolates the optimizer: the
    gradient path gets a full per-contact, per-axis Jacobian from one
    reverse-mode sweep, while ``calibrate_mask_bias`` re-simulates to
    probe a single scalar gain.  Gated quantities: the gradient run must
    reach a final CD-RMSE at least as good as the perturbation baseline
    using ``jobs_min_solve_ratio``x fewer forward solves.
    """
    from repro.litho.ilt import GaussianPEBBackend, GradientOPC, GradientOPCConfig
    from repro.litho.mask import generate_clip

    grid = GridConfig(size_um=0.8, nx=32, ny=32, nz=2)
    config = LithoConfig(grid=grid)
    clip = generate_clip(3, grid=grid, edge_margin_nm=100.0)
    backend = GaussianPEBBackend(config, effective_time_s=1.3)
    calibrate_iters, gradient_iters = (25, 4) if smoke else (45, 8)

    from repro.litho.opc import calibrate_mask_bias

    start = time.perf_counter()
    calibrated = calibrate_mask_bias(clip, config, backend,
                                     iterations=calibrate_iters)
    calibrate_s = time.perf_counter() - start
    calibrate_solves = calibrate_iters + 1  # one probe per iter + final

    opc = GradientOPC(clip, config, backend,
                      GradientOPCConfig(iterations=gradient_iters))
    start = time.perf_counter()
    state = opc.run(opc.init_state())
    result, _ = opc.finalize(state)
    gradient_s = time.perf_counter() - start

    solve_ratio = calibrate_solves / result.forward_solves
    return {
        "grid": list(grid.shape),
        "contacts": len(clip.contacts),
        "calibrate_iterations": calibrate_iters,
        "calibrate_solves": calibrate_solves,
        "calibrate_final_rms_nm": calibrated.final_rms_nm,
        "calibrate_s": calibrate_s,
        "gradient_iterations": gradient_iters,
        "gradient_solves": result.forward_solves,
        "gradient_initial_rms_nm": result.initial_rms_nm,
        "gradient_final_rms_nm": result.final_rms_nm,
        "gradient_s": gradient_s,
        "solve_ratio": solve_ratio,
    }


#: ``_s``-suffixed section entries that are parameters, not measurements
NON_TIMING_KEYS = {"time_step_s"}


def flatten_timings(sections: dict) -> dict:
    """``section.key -> seconds`` for every float entry ending in ``_s``."""
    flat = {}
    for section, values in sections.items():
        for key, value in values.items():
            if (key.endswith("_s") and key not in NON_TIMING_KEYS
                    and isinstance(value, (int, float))):
                flat[f"{section}.{key}"] = float(value)
    return flat


def check_gates(sections: dict, reference_path: Path) -> list[str]:
    """Quality-bar gates from ``reference_perf.json``'s ``gates`` dict.

    Unlike :func:`check_regressions` (which caps how much slower a
    timing may get), a gate pins a quality bar that must keep holding —
    e.g. the compiled-plan engine staying at least ``N``x faster than
    the tape at the served p50.
    """
    if not reference_path.exists():
        return []
    gates = json.loads(reference_path.read_text()).get("gates", {})
    failures = []
    min_speedup = gates.get("inference_plan_min_speedup")
    section = sections.get("inference_plan")
    if min_speedup is not None and section is not None:
        speedup = float(section.get("p50_speedup", 0.0))
        status = "FAIL" if speedup < min_speedup else "ok"
        print(f"  {status:>4}  inference_plan.p50_speedup: {speedup:.2f}x "
              f"(gate >= {min_speedup:.2f}x)")
        if speedup < min_speedup:
            failures.append("inference_plan.p50_speedup")
    min_scaling = gates.get("serving_scaling_min_speedup_2v1")
    scaling = (sections.get("serving") or {}).get("worker_scaling")
    if min_scaling is not None and scaling is not None:
        cpus = int(scaling.get("cpu_count", 1))
        if cpus < 2:
            # a single core can't run two batcher workers concurrently;
            # the ratio would only measure fork + pipe overhead
            print(f"  skip  serving.worker_scaling.speedup_2v1 "
                  f"(single-core runner, cpu_count={cpus})")
        else:
            speedup = float(scaling.get("speedup_2v1", 0.0))
            status = "FAIL" if speedup < min_scaling else "ok"
            print(f"  {status:>4}  serving.worker_scaling.speedup_2v1: "
                  f"{speedup:.2f}x (gate >= {min_scaling:.2f}x)")
            if speedup < min_scaling:
                failures.append("serving.worker_scaling.speedup_2v1")
    max_obs_pct = gates.get("obs_overhead_max_p50_pct")
    obs = sections.get("obs_overhead")
    if (max_obs_pct is not None and obs is not None
            and "sampler_overhead_p50_pct" in obs):
        pct = float(obs["sampler_overhead_p50_pct"])
        status = "FAIL" if pct > max_obs_pct else "ok"
        print(f"  {status:>4}  obs_overhead.sampler_overhead_p50_pct: "
              f"{pct:+.1f}% (gate <= {max_obs_pct:.1f}%)")
        if pct > max_obs_pct:
            failures.append("obs_overhead.sampler_overhead_p50_pct")
    min_solve_ratio = gates.get("jobs_min_solve_ratio")
    jobs = sections.get("jobs")
    if min_solve_ratio is not None and jobs is not None:
        ratio = float(jobs.get("solve_ratio", 0.0))
        status = "FAIL" if ratio < min_solve_ratio else "ok"
        print(f"  {status:>4}  jobs.solve_ratio: {ratio:.2f}x "
              f"(gate >= {min_solve_ratio:.2f}x)")
        if ratio < min_solve_ratio:
            failures.append("jobs.solve_ratio")
        grad_rms = float(jobs.get("gradient_final_rms_nm", float("inf")))
        calib_rms = float(jobs.get("calibrate_final_rms_nm", 0.0))
        status = "FAIL" if grad_rms > calib_rms else "ok"
        print(f"  {status:>4}  jobs.gradient_final_rms_nm: {grad_rms:.3f} "
              f"(gate <= calibrate {calib_rms:.3f})")
        if grad_rms > calib_rms:
            failures.append("jobs.gradient_final_rms_nm")
    return failures


def check_regressions(fresh: dict, reference_path: Path) -> list[str]:
    if not reference_path.exists():
        print(f"no reference timings at {reference_path}; skipping check")
        return []
    reference = json.loads(reference_path.read_text())["timings"]
    failures = []
    for key, ref_value in reference.items():
        new_value = fresh.get(key)
        if new_value is None:
            continue
        limit = max(REGRESSION_RATIO * ref_value, ref_value + REGRESSION_FLOOR_S)
        status = "FAIL" if new_value > limit else "ok"
        print(f"  {status:>4}  {key}: {new_value:.4f}s (ref {ref_value:.4f}s, limit {limit:.4f}s)")
        if new_value > limit:
            failures.append(key)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized subset (seconds of wall time)")
    parser.add_argument("--check", action="store_true",
                        help="compare against benchmarks/reference_perf.json and "
                             "fail on >2x regressions")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_perf.json"),
                        help="output JSON path (default: repo-root BENCH_perf.json)")
    args = parser.parse_args(argv)

    from run_serve_bench import (
        bench_inference_plan, bench_obs_overhead, bench_sanitize_overhead,
        bench_serving,
    )

    sections = {}
    for name, fn in (("scan", bench_scan), ("solver", bench_solver),
                     ("backward", bench_backward), ("epoch", bench_epoch),
                     ("stages", bench_stages), ("serving", bench_serving),
                     ("obs_overhead", bench_obs_overhead),
                     ("sanitize_overhead", bench_sanitize_overhead),
                     ("inference_plan", bench_inference_plan),
                     ("jobs", bench_jobs)):
        print(f"[{name}] ...", flush=True)
        sections[name] = fn(args.smoke)
        for key, value in sections[name].items():
            print(f"    {key}: {value}")

    payload = {
        "meta": machine_metadata(),
        "smoke": args.smoke,
        "sections": sections,
        "timings": flatten_timings(sections),
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    if args.check:
        print("checking against reference timings:")
        failures = check_regressions(payload["timings"], REFERENCE_PATH)
        failures += check_gates(sections, REFERENCE_PATH)
        if failures:
            print(f"PERF REGRESSION in {len(failures)} timing(s): {', '.join(failures)}")
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
