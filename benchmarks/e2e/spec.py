"""What the end-to-end benchmark measures: workloads, metrics, layer map.

Everything a run needs to know before it starts lives here, so that two
commits measured with the same benchmark code see the same plan:

* :data:`WORKLOADS` fixes each workload's traffic shape and its tail
  percentile.  The tail is the highest percentile with at least ten
  samples beyond it at the planned sample count of a default-length run
  (:func:`tail_percentile`), frozen here so it never shifts between
  commits.
* :data:`E2E` and :data:`LAYERS` are the metric definitions mirrored in
  the root ``BENCHMARK.json``; :func:`validate_benchmark_json` checks the
  two agree.  Every layer metric names the end-to-end metric it should
  move and the workload where that shows.
* :func:`serve_plan`, :func:`opc_plan` and :func:`flow_plan` scale each
  phase with ``--seconds``; ``smoke`` cuts every phase to about a second.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_E2E = 16
MAX_LAYERS = 128
MAX_BOUND = 0.25

#: the run length ``BENCHMARK.json`` asks for.  A run of this length takes
#: about 27 s with its set-up, so 92 runs (ten per workload twice, plus
#: traced runs) end within 57 minutes even when the box runs slow.  The
#: spread between runs does not shrink with longer phases (README, "Noise").
DEFAULT_SECONDS = 20

#: open-loop runs whose generator lag p99 exceeds this are invalid: the
#: client, not the server, set the latency
MAX_LAG_P99_MS = 10.0

#: served predictions must match the in-process tape forward this closely
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: fixed percentile reported as ``traced.latency_tail_ms``
    tail_percentile: float


WORKLOADS = {
    "serve_small": Workload(
        "serve_small",
        "16x16x2 clips through repro serve, 30% from a hot set: bound by "
        "dispatch, batching, cache and HTTP rather than the forward",
        tail_percentile=95.0),
    "serve_default": Workload(
        "serve_default",
        "64x64x8 clips, all distinct so the cache never hits: bound by the "
        "model forward and the 256 KB npz payloads",
        tail_percentile=54.5),
    "opc_beside_predict": Workload(
        "opc_beside_predict",
        "sequential opc_gradient jobs on one connection beside 10 rps "
        "predicts on the other: forked job chunks and checkpoints compete "
        "with reads",
        tail_percentile=94.0),
    "litho_flow": Workload(
        "litho_flow",
        "rigorous ground truth: generate_dataset over the process pool, "
        "then the eikonal development and contact CDs per clip; no server",
        tail_percentile=58.0),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# Bounds: timings on the shared 2-CPU reference box spread by 10-30%
# between runs (README, "Noise"), so they carry the largest bound allowed,
# which setup_s must carry anyway.  The tail spreads wider still; it is the
# traced diagnostic ``traced.latency_tail_ms``.
E2E = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_ms", "ms", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("rss_mb", "MB", "lower", 0.10),
)


@dataclass(frozen=True)
class Layer:
    metric: Metric
    #: the end-to-end metric this layer metric should move ...
    moves: str
    #: ... and the workload where that shows
    workload: str


def _layer(name: str, unit: str, better: str, moves: str, workload: str) -> Layer:
    return Layer(Metric(name, unit, better), moves, workload)


#: model groups timed per forward; each is the self time of the named
#: submodules (children that are themselves groups are subtracted)
CORE_GROUPS = (
    ["stem", "skip"]
    + [f"embed{i}" for i in range(4)]
    + [f"encoder{i}.{part}" for i in range(4) for part in ("attn", "ffn", "sdm")]
    + ["fusion", "decoder", "refine", "glue"]
)

LAYERS = tuple(
    [
        _layer("serve.server.request_ms", "ms", "lower", "latency_ms", "serve_default"),
        _layer("serve.server.validate_ms", "ms", "lower", "latency_ms", "serve_default"),
        _layer("serve.server.parse_serialize_ms", "ms", "lower", "latency_ms",
               "serve_default"),
        _layer("serve.http_overhead_ms", "ms", "lower", "latency_ms", "serve_default"),
        _layer("serve.batcher.queue_wait_ms", "ms", "lower", "latency_ms", "serve_small"),
        _layer("serve.batcher.batch_size_mean", "count", "higher", "throughput_per_s",
               "serve_small"),
        _layer("serve.batcher.batch_compute_ms", "ms", "lower", "latency_ms",
               "serve_default"),
        _layer("serve.batcher.cache_hit_ratio", "ratio", "higher", "latency_ms",
               "serve_small"),
        _layer("serve.batcher.compute_inflation", "ratio", "lower", "latency_ms",
               "serve_default"),
        _layer("serve.engine.plan_replays", "count", "higher", "latency_ms", "serve_small"),
        _layer("serve.engine.plan_fallbacks", "count", "lower", "latency_ms",
               "serve_small"),
        _layer("obs.health.observe_ms", "ms", "lower", "latency_ms", "serve_default"),
    ]
    + [_layer(f"core.{group}_ms", "ms", "lower", "latency_ms", "serve_default")
       for group in CORE_GROUPS]
    + [
        _layer("ssm.selective_ms", "ms", "lower", "latency_ms", "serve_default"),
        _layer("tensor.ops_per_forward", "count", "lower", "latency_ms", "serve_small"),
        _layer("litho.mask.clip_ms", "ms", "lower", "throughput_per_s", "litho_flow"),
        _layer("litho.optics.aerial_ms", "ms", "lower", "throughput_per_s", "litho_flow"),
        _layer("litho.exposure.dill_ms", "ms", "lower", "throughput_per_s", "litho_flow"),
        _layer("litho.peb.solve_ms", "ms", "lower", "latency_ms", "litho_flow"),
        _layer("litho.peb.lateral_ms", "ms", "lower", "latency_ms", "litho_flow"),
        _layer("litho.peb.react_ms", "ms", "lower", "latency_ms", "litho_flow"),
        _layer("litho.peb.z_other_ms", "ms", "lower", "latency_ms", "litho_flow"),
        _layer("litho.profile.arrival_ms", "ms", "lower", "throughput_per_s", "litho_flow"),
        _layer("litho.profile.cd_ms", "ms", "lower", "throughput_per_s", "litho_flow"),
        _layer("runtime.pool.parallel_efficiency", "ratio", "higher", "throughput_per_s",
               "litho_flow"),
        _layer("jobs.job_s", "s", "lower", "throughput_per_s", "opc_beside_predict"),
        _layer("jobs.step_ms", "ms", "lower", "throughput_per_s", "opc_beside_predict"),
        _layer("jobs.overhead_ms", "ms", "lower", "throughput_per_s", "opc_beside_predict"),
        _layer("jobs.store.checkpoint_ms", "ms", "lower", "throughput_per_s",
               "opc_beside_predict"),
        _layer("jobs.store.checkpoints", "count", "lower", "throughput_per_s",
               "opc_beside_predict"),
        _layer("jobs.attempts", "count", "lower", "throughput_per_s", "opc_beside_predict"),
        _layer("loadgen.lag_p99_ms", "ms", "lower", "latency_ms", "serve_small"),
        _layer("traced.latency_ms", "ms", "lower", "latency_ms", "serve_small"),
        _layer("traced.latency_tail_ms", "ms", "lower", "latency_ms", "serve_default"),
        _layer("traced.throughput_per_s", "1/s", "higher", "throughput_per_s", "litho_flow"),
    ]
)


def tail_percentile(samples: int) -> float:
    """Highest percentile (to 0.5) with at least ten samples beyond it."""
    if samples < 20:
        return 50.0
    return math.floor(2.0 * 100.0 * (1.0 - 10.0 / samples)) / 2.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- phase plans ------------------------------------------------------------

@dataclass(frozen=True)
class ServePlan:
    grid: tuple                  # (size_um, nx, nz)
    open_rate_rps: float
    open_s: float
    #: the closed loop sends for this long on each of two connections ...
    closed_s: float
    #: ... and may use at most this many payloads per connection
    closed_per_conn: int
    hot_set: int
    hot_fraction: float
    setups: int
    warm_singles: int
    warm_pairs: int
    #: one in this many distinct payloads is checked against the oracle
    check_every: int = 8


@dataclass(frozen=True)
class OPCPlan:
    predict: ServePlan
    jobs: int
    job_grid: tuple              # (size_um, nx)
    iterations: int
    poll_s: float
    oracle_jobs: int
    #: accepted clip seeds have a contact count in this band, so a job's
    #: cost does not swing with the seed
    contacts: tuple = (14, 26)


@dataclass(frozen=True)
class FlowPlan:
    grid: tuple
    #: clips of one ``generate_dataset`` call
    clips: int
    time_step_s: float
    oracle_clips: int
    setups: int


SMALL_GRID = (1.0, 16, 2)
DEFAULT_GRID = (2.0, 64, 8)

# Work per second asked for is sized from the 2-CPU reference box (README):
# closed-loop serve_small up to ~140 req/s, serve_default up to ~9 req/s,
# one 64x64 opc_gradient job ~0.7 s, one litho clip ~1 s in a pool worker.
# Set-ups are repeated five times where one costs under a second.

#: nominal seconds per opc_gradient job, for the planned predict count
NOMINAL_JOB_S = 0.6


def serve_plan(workload: str, seconds: float, smoke: bool = False) -> ServePlan:
    if workload == "serve_small":
        closed_s = 0.25 * seconds
        plan = ServePlan(SMALL_GRID, open_rate_rps=15.0, open_s=0.7 * seconds,
                         closed_s=closed_s, closed_per_conn=int(100 * closed_s),
                         hot_set=16, hot_fraction=0.3, setups=5, warm_singles=2, warm_pairs=2)
    elif workload == "serve_default":
        # a 64x64x8 request costs ~0.24 s: a short warm-up that still runs
        # both batch shapes the phases use, and more closed-loop time.  At
        # 2.4 req/s about half the requests queued, and the median of a
        # phase's ~29 flipped between queued and not with the seed's
        # arrival order (README, "Noise"); 1.8 req/s keeps the median off
        # that edge
        closed_s = 0.3 * seconds
        plan = ServePlan(DEFAULT_GRID, open_rate_rps=1.8, open_s=0.6 * seconds,
                         closed_s=closed_s, closed_per_conn=int(8 * closed_s) + 2,
                         hot_set=0, hot_fraction=0.0, setups=3, warm_singles=1, warm_pairs=1)
    else:
        raise ValueError(f"{workload} is not a serve workload")
    if smoke:
        plan = dataclasses.replace(plan, open_s=1.0, closed_s=0.5,
                                   hot_set=min(plan.hot_set, 2), setups=1,
                                   warm_singles=1, warm_pairs=1, check_every=1)
    return plan


def opc_plan(seconds: float, smoke: bool = False) -> OPCPlan:
    jobs = 1 if smoke else int(1.4 * seconds)
    # predicts are scheduled for three times the nominal job phase and cut
    # when the last job finishes
    predict = ServePlan(SMALL_GRID, open_rate_rps=10.0,
                        open_s=max(10.0, 3.0 * jobs * NOMINAL_JOB_S), closed_s=0.0,
                        closed_per_conn=0, hot_set=0, hot_fraction=0.0,
                        setups=1 if smoke else 5, warm_singles=1 if smoke else 2,
                        warm_pairs=1 if smoke else 2)
    return OPCPlan(predict, jobs=jobs, job_grid=(1.6, 64), iterations=8, poll_s=0.05,
                   oracle_jobs=1 if smoke else 3)


def flow_plan(seconds: float, smoke: bool = False) -> FlowPlan:
    if smoke:
        return FlowPlan(DEFAULT_GRID, clips=2, time_step_s=0.25, oracle_clips=1, setups=1)
    # an even count keeps both pool workers busy to the end
    return FlowPlan(DEFAULT_GRID, clips=2 * round(0.6 * seconds), time_step_s=0.25,
                    oracle_clips=2, setups=5)


def planned_samples(workload: str, seconds: float) -> int:
    """Latency samples a run of ``seconds`` is planned to take."""
    if workload == "litho_flow":
        return flow_plan(seconds).clips
    if workload == "opc_beside_predict":
        plan = opc_plan(seconds)
        return int(round(plan.predict.open_rate_rps * plan.jobs * NOMINAL_JOB_S))
    plan = serve_plan(workload, seconds)
    return int(round(plan.open_rate_rps * plan.open_s))


# -- BENCHMARK.json ---------------------------------------------------------

def expected_benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this module describes."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in E2E],
        "per_layer": [{"name": layer.metric.name, "unit": layer.metric.unit,
                       "better": layer.metric.better} for layer in LAYERS],
    }


def validate_benchmark_json(payload: dict) -> list[str]:
    """Problems with a parsed ``BENCHMARK.json``; empty when it is valid."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(payload) != keys:
        problems.append(f"top-level keys {sorted(payload)} != {sorted(keys)}")
        return problems
    names: list[str] = []
    workloads = payload["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads (need 2..8)")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload keys {sorted(entry)}")
        elif len(entry["why"]) > 200 or "\n" in entry["why"]:
            problems.append(f"workload {entry['name']}: why is not one short line")
        names.append(entry.get("name", ""))
    e2e = payload["end_to_end"]
    layers = payload["per_layer"]
    if not 1 <= len(e2e) <= MAX_E2E:
        problems.append(f"{len(e2e)} end_to_end metrics (need 1..{MAX_E2E})")
    if not 1 <= len(layers) <= MAX_LAYERS:
        problems.append(f"{len(layers)} per_layer metrics (need 1..{MAX_LAYERS})")
    for entry in e2e:
        if set(entry) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end keys {sorted(entry)}")
            continue
        if not 0 < entry["bound"] <= MAX_BOUND:
            problems.append(f"{entry['name']}: bound {entry['bound']} outside (0, {MAX_BOUND}]")
    for entry in layers:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"per_layer keys {sorted(entry)}")
    for entry in list(e2e) + list(layers):
        names.append(entry.get("name", ""))
        if not UNIT_RE.match(str(entry.get("unit", ""))):
            problems.append(f"{entry.get('name')}: bad unit {entry.get('unit')!r}")
        if entry.get("better") not in ("lower", "higher"):
            problems.append(f"{entry.get('name')}: better must be lower or higher")
    for name in names:
        if not NAME_RE.match(str(name)):
            problems.append(f"bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (unit s, lower) is required")
    elif any(m["bound"] > setup[0]["bound"] for m in e2e):
        problems.append("setup_s must carry the largest bound")
    e2e_names = {m.get("name") for m in e2e}
    for layer in LAYERS:
        if layer.moves not in e2e_names:
            problems.append(f"{layer.metric.name} moves unknown metric {layer.moves!r}")
        if layer.workload not in names:
            problems.append(f"{layer.metric.name} names unknown workload {layer.workload!r}")
    if not 1 <= int(payload["run_seconds"]) <= 60:
        problems.append("run_seconds outside 1..60")
    for path in payload["paths"]:
        if not re.match(r"^[A-Za-z0-9_.\-/]{1,200}$", path) or path.startswith("/") \
                or ".." in path.split("/"):
            problems.append(f"bad path {path!r}")
    return problems


def load_benchmark_json(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())
