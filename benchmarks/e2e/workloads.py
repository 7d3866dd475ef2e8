"""The served workloads: serve_small, serve_default and opc_beside_predict.

Each run builds its inputs from the seed, computes the oracle in-process
before any server starts, sets a server up ``plan.setups`` times
(spawn -> ``/healthz`` 200 -> warm-up; the median is ``setup_s``), drives
the measured phases against the last one, and checks every sampled
output.  A traced run starts its servers through ``serve_host.py`` and
adds the per-layer numbers.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs as gen
import loadgen
import spec
import tracing
from loadgen import ClosedLoop, JobLoop, OpenLoop, Request
from server import ServerProcess

ORACLE_BATCH = 8


@dataclass
class Outcome:
    """What a workload run measured, before it becomes the result line."""

    e2e: dict
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checked: int = 0
    lag_p99_ms: float = 0.0


# -- model, oracle, checks ----------------------------------------------------

def make_checkpoint(grid, path: Path):
    """An untrained SDM-PEB (``nn.init.seed(0)``) published as a checkpoint;
    returns the model as the server will load it."""
    from repro import nn
    from repro.experiments import build_method
    from repro.serve import load_checkpoint, save_checkpoint

    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", grid)
    save_checkpoint(model, path, method="SDM-PEB", grid=grid, name="bench")
    loaded, _ = load_checkpoint(path)
    loaded.eval()
    return loaded


def forward(model, batch: np.ndarray) -> np.ndarray:
    from repro.tensor import Tensor, no_grad

    with no_grad():
        return model(Tensor(np.asarray(batch, dtype=np.float64))).numpy()


def oracle(model, payloads: gen.Payloads) -> dict[int, np.ndarray]:
    """In-process tape forward of every checked payload."""
    ids = [i for i, checked in enumerate(payloads.checked) if checked]
    out = {}
    for at in range(0, len(ids), ORACLE_BATCH):
        chunk = ids[at:at + ORACLE_BATCH]
        for pid, row in zip(chunk, forward(model, np.stack([payloads.acids[i] for i in chunk]))):
            out[pid] = row
    return out


def matches(reference: np.ndarray, body: bytes) -> bool:
    try:
        with np.load(io.BytesIO(body)) as archive:
            served = archive["prediction"]
    except (OSError, ValueError, KeyError):
        return False
    return (served.shape == reference.shape
            and float(np.max(np.abs(served - reference)))
            <= spec.ORACLE_RTOL * float(np.max(np.abs(reference))))


def predict_request(payloads: gen.Payloads, pid: int) -> Request:
    return Request("POST", "/v1/predict", payloads.bodies[pid], tag=pid)


def tally(outcome: Outcome, requests: list[Request], expected: dict[int, np.ndarray]) -> None:
    """Count attempts, failures and oracle mismatches of predict requests."""
    for request in requests:
        outcome.attempted += 1
        if request.status != 200:
            outcome.failed += 1
        elif request.tag in expected:
            outcome.checked += 1
            if not matches(expected[request.tag], request.response):
                outcome.wrong += 1
                outcome.failed += 1


# -- server set-up ------------------------------------------------------------

def set_up(root: Path, workdir: Path, ckpt: Path, plan, payloads: gen.Payloads,
           warm: list[int], spans_dir: Path | None = None):
    """Spawn a server, wait for ``/healthz``, warm it; returns (server,
    seconds, warm-up requests).  The warm-up is ``warm_singles`` lone
    requests then ``warm_pairs`` concurrent pairs, so lazy per-batch-shape
    costs (plan capture) land in set-up."""
    server = ServerProcess(root, workdir, ckpt, spans_dir)
    try:
        server.wait_ready()
        ids = iter(warm)
        singles = ClosedLoop([predict_request(payloads, next(ids))
                              for _ in range(plan.warm_singles)])
        loadgen.run(server.host, server.port, [[singles]])
        done = list(singles.finished)
        for _ in range(plan.warm_pairs):
            pair = [ClosedLoop([predict_request(payloads, next(ids))]) for _ in range(2)]
            loadgen.run(server.host, server.port, [[pair[0]], [pair[1]]])
            done += pair[0].finished + pair[1].finished
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started, done


def set_up_repeatedly(root, scratch, ckpt, plan, payloads, warm, outcome, spans_dir):
    """``plan.setups`` fresh servers; the last one is kept.

    A traced run sets up as often as an untraced one: the first server a
    run starts serves measurably slower than the later ones, so a traced
    run with fewer set-ups would charge that to tracing.
    """
    times = []
    for index in range(plan.setups):
        server, seconds, warmed = set_up(root, scratch / f"server{index}", ckpt, plan,
                                         payloads, warm, spans_dir)
        tally(outcome, warmed, {})
        times.append(seconds)
        if index < plan.setups - 1:
            server.stop()
    return server, statistics.median(times)


# -- metrics ------------------------------------------------------------------

def latency_stats(requests: list[Request], tail: float) -> dict:
    """Open-loop latencies in ms: the median (``latency_ms``) and the
    ``tail`` percentile."""
    ok = [r.latency_s for r in requests if r.status == 200]
    if not ok:
        raise RuntimeError("no successful open-loop requests")
    return {"latency_ms": 1e3 * spec.percentile(ok, 50.0),
            "latency_tail_ms": 1e3 * spec.percentile(ok, tail)}


def lag_p99_ms(requests: list[Request]) -> float:
    lags = [r.lag_s for r in requests if r.sent]
    return 1e3 * spec.percentile(lags, 99.0) if lags else 0.0


def closed_loop_rate(loops: list[ClosedLoop], start: float) -> float:
    """Successful completions per second of the closed loops together,
    from their start to the last reply."""
    done = [r.done for loop in loops for r in loop.finished if r.status == 200]
    if not done:
        raise RuntimeError("no successful closed-loop requests")
    return len(done) / (max(done) - start)


def server_rss_mb(samples: dict) -> float:
    """The server's resident memory, from a ``/metrics`` scrape.

    Not ``ru_maxrss`` of the benchmark's children: a child spawned by
    ``vfork`` inherits the benchmark process's own high-water mark.
    """
    return samples["repro_process_rss_bytes"] / 2.0**20


def delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def mean_of(before: dict, after: dict, name: str) -> float:
    count = delta(before, after, f"{name}_count")
    return delta(before, after, f"{name}_sum") / count if count else 0.0


def serve_layers(before: dict, after: dict, spans: list[tuple],
                 requests: list[Request], inproc_b1_s: float) -> dict:
    """Per-layer numbers of one traced serving window."""
    request_s = mean_of(before, after, "repro_serve_request_seconds")
    validate = tracing.durations(spans, "serve.server.validate")
    submit = tracing.durations(spans, "serve.batcher.submit")
    validate_s = statistics.fmean(validate) if validate else 0.0
    submit_s = statistics.fmean(submit) if submit else 0.0
    client = [r.done - r.sent for r in requests if r.status == 200]
    hits = delta(before, after, "repro_serve_cache_hits_total")
    lookups = hits + delta(before, after, "repro_serve_cache_misses_total")
    single = [e - s for n, s, e, _, _, size in spans if n == "serve.predict_fn" and size == 1]
    observe_single = [e - s for n, s, e, _, _, size in spans
                      if n == "obs.health.observe" and size == 1]
    compute_single = (statistics.fmean(single) + statistics.fmean(observe_single)
                      if single and observe_single else 0.0)
    observe = tracing.durations(spans, "obs.health.observe")
    layers = {
        "serve.server.request_ms": 1e3 * request_s,
        "serve.server.validate_ms": 1e3 * validate_s,
        "serve.server.parse_serialize_ms": 1e3 * (request_s - validate_s - submit_s),
        "serve.http_overhead_ms": 1e3 * (statistics.fmean(client) - request_s) if client else 0.0,
        "serve.batcher.queue_wait_ms": 1e3 * mean_of(before, after,
                                                     "repro_serve_queue_wait_seconds"),
        "serve.batcher.batch_size_mean": mean_of(before, after, "repro_serve_batch_size"),
        "serve.batcher.batch_compute_ms": 1e3 * mean_of(before, after,
                                                        "repro_serve_batch_compute_seconds"),
        "serve.batcher.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.batcher.compute_inflation": compute_single / inproc_b1_s if inproc_b1_s else 0.0,
        "serve.engine.plan_replays": delta(before, after,
                                           "repro_serve_plan_replay_seconds_count"),
        "serve.engine.plan_fallbacks": delta(before, after, "repro_serve_plan_fallbacks_total"),
        "obs.health.observe_ms": 1e3 * statistics.fmean(observe) if observe else 0.0,
    }
    layers.update(tracing.model_layers(spans))
    return layers


def inproc_b1_seconds(model, acids: list[np.ndarray], repeats: int = 5) -> float:
    """Median in-process b1 tape forward (the compute_inflation base)."""
    times = []
    for acid in acids[:repeats]:
        start = time.perf_counter()
        forward(model, acid[None])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- workloads ----------------------------------------------------------------

def run_serve(workload: str, root: Path, scratch: Path, seed: int, seconds: float,
              traced: bool, smoke: bool) -> Outcome:
    plan = spec.serve_plan(workload, seconds, smoke)
    rng = np.random.default_rng(seed)
    data = gen.serve_inputs(plan, rng)
    model = make_checkpoint(gen.grid_config(plan.grid), scratch / "model.npz")
    expected = oracle(model, data.payloads)
    spans_dir = scratch if traced else None
    inproc_s = inproc_b1_seconds(model, data.payloads.acids) if traced else 0.0

    outcome = Outcome(e2e={})
    server, setup_s = set_up_repeatedly(root, scratch, scratch / "model.npz", plan,
                                        data.payloads, data.warm, outcome, spans_dir)
    try:
        before = server.metrics()
        open_loop = OpenLoop([predict_request(data.payloads, i) for i in data.open_ids],
                             data.open_offsets)
        closed = [ClosedLoop([predict_request(data.payloads, i) for i in ids], plan.closed_s)
                  for ids in data.closed_ids]
        with loadgen.on_time():
            window_start = time.perf_counter()
            loadgen.run(server.host, server.port, [[open_loop], [open_loop]])
            closed_start = time.perf_counter()
            loadgen.run(server.host, server.port, [[c] for c in closed])
            window_end = time.perf_counter()
        after = server.metrics()
    finally:
        server.stop()

    closed_done = [r for c in closed for r in c.finished]
    tally(outcome, open_loop.finished + closed_done, expected)
    outcome.lag_p99_ms = lag_p99_ms(open_loop.finished)
    outcome.e2e = {
        "setup_s": setup_s,
        **latency_stats(open_loop.finished, spec.WORKLOADS[workload].tail_percentile),
        "throughput_per_s": closed_loop_rate(closed, closed_start),
        "rss_mb": server_rss_mb(after),
    }
    if traced:
        spans = tracing.within(tracing.load_spans(scratch), window_start, window_end)
        outcome.layers = serve_layers(before, after, spans, open_loop.finished + closed_done,
                                      inproc_s)
    return outcome


def run_opc(root: Path, scratch: Path, seed: int, seconds: float, traced: bool,
            smoke: bool) -> Outcome:
    plan = spec.opc_plan(seconds, smoke)
    rng = np.random.default_rng(seed)
    data = gen.serve_inputs(plan.predict, rng)
    seeds = gen.job_seeds(plan, rng)
    oracle_jobs = sorted(rng.choice(plan.jobs, size=plan.oracle_jobs, replace=False).tolist())
    model = make_checkpoint(gen.grid_config(plan.predict.grid), scratch / "model.npz")
    expected = oracle(model, data.payloads)
    job_results, step_s = opc_oracle(plan, seeds, oracle_jobs)
    spans_dir = scratch if traced else None

    outcome = Outcome(e2e={})
    server, setup_s = set_up_repeatedly(root, scratch, scratch / "model.npz", plan.predict,
                                        data.payloads, data.warm, outcome, spans_dir)
    try:
        before = server.metrics()
        jobs = JobLoop([{"type": "opc_gradient", "params": gen.job_params(plan, s)}
                        for s in seeds], plan.poll_s)
        reads = OpenLoop([predict_request(data.payloads, i) for i in data.open_ids],
                         data.open_offsets)
        with loadgen.on_time():
            window_start = time.perf_counter()
            loadgen.run(server.host, server.port, [[jobs], [reads]], until=jobs)
            window_end = time.perf_counter()
        after = server.metrics()
    finally:
        server.stop()

    tally(outcome, reads.finished, expected)
    completed = [r for r in jobs.records if r.get("state") == "completed"]
    outcome.attempted += len(jobs.records)
    outcome.failed += len(jobs.records) - len(completed)
    for index in oracle_jobs:
        outcome.checked += 1
        record = jobs.records[index]
        if record.get("state") == "completed" and not same_opc_result(
                job_results[index], record["result"]):
            outcome.wrong += 1
            outcome.failed += 1
    outcome.lag_p99_ms = lag_p99_ms(reads.finished)
    # the server's own submit-to-completion time; jobs run one at a time
    job_times = [r["updated_s"] - r["created_s"] for r in completed]
    if not job_times:
        raise RuntimeError("no job completed")
    outcome.e2e = {
        "setup_s": setup_s,
        **latency_stats(reads.finished, spec.WORKLOADS["opc_beside_predict"].tail_percentile),
        # jobs run one at a time: back to back, this many complete per second
        "throughput_per_s": 1.0 / statistics.median(job_times),
        "rss_mb": server_rss_mb(after),
    }
    if traced:
        spans = tracing.within(tracing.load_spans(scratch), window_start, window_end)
        inproc_s = inproc_b1_seconds(model, data.payloads.acids)
        outcome.layers = serve_layers(before, after, spans, reads.finished, inproc_s)
        job_s = statistics.median(job_times)
        checkpoints = tracing.durations(spans, "jobs.store.checkpoint")
        outcome.layers.update({
            "jobs.job_s": job_s,
            "jobs.step_ms": 1e3 * step_s,
            "jobs.overhead_ms": 1e3 * (job_s - plan.iterations * step_s),
            "jobs.store.checkpoint_ms": 1e3 * statistics.fmean(checkpoints) if checkpoints
            else 0.0,
            "jobs.store.checkpoints": len(checkpoints) / max(len(jobs.records), 1),
            "jobs.attempts": statistics.fmean(r.get("attempts", 0) for r in jobs.records),
        })
    return outcome


OPC_CHECKED = ("final_rms_nm", "bias_x_nm", "bias_y_nm")


def opc_oracle(plan, seeds: list[int], indices: list[int]):
    """In-process ``opc_gradient`` results for the sampled jobs, JSON
    round-tripped like the served ones, and the mean step time."""
    from repro.jobs import build_stepper

    results, steps = {}, []
    for index in indices:
        stepper = build_stepper("opc_gradient", gen.job_params(plan, seeds[index]))
        state = stepper.init_state()
        while not stepper.done(state):
            start = time.perf_counter()
            state, _ = stepper.step(state)
            steps.append(time.perf_counter() - start)
        result, _ = stepper.finalize(state)
        results[index] = json.loads(json.dumps(result))
    return results, statistics.fmean(steps)


def same_opc_result(expected: dict, served: dict | None) -> bool:
    return served is not None and all(expected[k] == served.get(k) for k in OPC_CHECKED)
