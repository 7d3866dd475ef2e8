"""The litho_flow workload: offline rigorous ground truth, no server.

The flow runs in its own process, exactly as a user's script would:
``generate_dataset`` (no disk cache, default workers, dt 0.25 s, Strang
splitting) fans the clips out over ``repro.runtime.pool``, then
``development_arrival`` and ``contact_cds`` run per clip.  The
throughput is clips per second of the whole flow, the latency the
fastest clip's solve.  The parent spawns that process ``plan.setups``
times; every spawn but the last stops at its first flow call, and the
median spawn-to-first-call time is ``setup_s``.

Run as a script it is the flow process itself:
``python3 flow.py JOB.json`` reads its job and writes ``JOB.out.json``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spec
from server import program_env

HERE = Path(__file__).resolve().parent
FLOW_TIMEOUT_S = 170.0


def run_flow(root: Path, scratch: Path, seed: int, seconds: float, traced: bool,
             smoke: bool):
    from workloads import Outcome

    plan = spec.flow_plan(seconds, smoke)
    rng = np.random.default_rng(seed)
    job = {"grid": plan.grid, "clips": plan.clips, "time_step_s": plan.time_step_s,
           "base_seed": int(rng.integers(0, 2**31 - plan.clips)),
           "oracle": sorted(rng.choice(plan.clips, size=plan.oracle_clips,
                                       replace=False).tolist()),
           "spans": str(scratch / "spans") if traced else None}
    (scratch / "spans").mkdir()
    setups = []
    result = None
    for index in range(plan.setups):
        job["setup_only"] = index < plan.setups - 1
        path = scratch / f"flow{index}.json"
        path.write_text(json.dumps(job))
        started = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "flow.py"), str(path)], check=True,
                       env=program_env(root), cwd=scratch, timeout=FLOW_TIMEOUT_S,
                       stdin=subprocess.DEVNULL)
        result = json.loads(path.with_suffix(".out.json").read_text())
        setups.append(result["first_call"] - started)

    clips = plan.clips
    latencies = [1e3 * s for s in result["rigorous_seconds"]]
    outcome = Outcome(e2e={
        "setup_s": statistics.median(setups),
        # the fastest clip: over ten-seed sweeps its spread was at most that
        # of the median clip, and often a third of it (README, "Noise")
        "latency_ms": min(latencies),
        "latency_tail_ms": spec.percentile(latencies,
                                           spec.WORKLOADS["litho_flow"].tail_percentile),
        "throughput_per_s": clips / (result["end"] - result["first_call"]),
        "rss_mb": result["maxrss_kb"] / 1024.0,
    })
    outcome.attempted = clips
    outcome.checked = len(job["oracle"])
    outcome.wrong = result["mismatched"]
    outcome.failed = result["mismatched"] + result["nonfinite_cd_clips"]
    if traced:
        import tracing

        spans = tracing.within(tracing.load_spans(scratch / "spans"),
                               result["first_call"], result["end"])
        outcome.layers = flow_layers(spans, clips, result)
    return outcome


def flow_layers(spans, clips: int, result: dict) -> dict:
    import tracing

    def per_clip_ms(name: str) -> float:
        return 1e3 * sum(tracing.durations(spans, name)) / clips

    layers = {
        "litho.mask.clip_ms": per_clip_ms("litho.mask.clip"),
        "litho.optics.aerial_ms": per_clip_ms("litho.optics.aerial"),
        "litho.exposure.dill_ms": per_clip_ms("litho.exposure.dill"),
        "litho.peb.solve_ms": per_clip_ms("litho.peb.solve"),
        "litho.peb.lateral_ms": per_clip_ms("litho.peb.lateral"),
        "litho.peb.react_ms": per_clip_ms("litho.peb.react"),
        "litho.profile.arrival_ms": per_clip_ms("litho.profile.arrival"),
        "litho.profile.cd_ms": per_clip_ms("litho.profile.cd"),
    }
    layers["litho.peb.z_other_ms"] = (layers["litho.peb.solve_ms"]
                                      - layers["litho.peb.lateral_ms"]
                                      - layers["litho.peb.react_ms"])
    serial_s = statistics.fmean(result["serial_seconds"])
    generate_s = result["generated"] - result["first_call"]
    layers["runtime.pool.parallel_efficiency"] = (
        serial_s * clips / (result["workers"] * generate_s))
    return layers


def own_peak_rss_kb() -> int:
    """This process's peak resident memory (``VmHWM``).

    Not ``ru_maxrss``, which a process spawned by ``vfork`` starts at its
    parent's high-water mark.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def flow_main(job_path: Path) -> int:
    """The flow process: time to first call, the flow, its oracle, its RSS."""
    import repro.data.dataset as dataset
    import repro.litho as litho
    from repro.config import GridConfig, LithoConfig
    from repro.runtime import resolve_workers

    job = json.loads(job_path.read_text())
    size_um, nx, nz = job["grid"]
    config = LithoConfig(grid=GridConfig(size_um=size_um, nx=nx, ny=nx, nz=nz))
    out_path = job_path.with_suffix(".out.json")
    recorder = None
    if job["spans"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install_flow(recorder, Path(job["spans"]))
    first_call = time.perf_counter()
    if job["setup_only"]:
        out_path.write_text(json.dumps({"first_call": first_call}))
        return 0

    samples = dataset.generate_dataset(job["clips"], config, base_seed=job["base_seed"],
                                       time_step_s=job["time_step_s"], cache_dir=None).samples
    generated = time.perf_counter()
    nonfinite = 0
    for sample in samples:
        arrival = litho.development_arrival(sample.inhibitor, config.grid, config.develop)
        cds = litho.contact_cds(arrival, sample.contacts, config.grid, config.develop)
        if not all(math.isfinite(v) for axis in ("x", "y") for v in cds[axis]):
            nonfinite += 1
    end = time.perf_counter()

    mismatched, serial = 0, []
    for index in job["oracle"]:
        began = time.perf_counter()
        reference = dataset.simulate_clip(job["base_seed"] + index, config,
                                          job["time_step_s"], "strang")
        serial.append(time.perf_counter() - began)
        sample = samples[index]
        if not (np.array_equal(sample.acid, reference.acid)
                and np.array_equal(sample.inhibitor, reference.inhibitor)
                and np.array_equal(sample.label, reference.label)
                and sample.contacts == reference.contacts):
            mismatched += 1
    if recorder is not None:
        recorder.flush(Path(job["spans"]))
    maxrss_kb = own_peak_rss_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out_path.write_text(json.dumps({
        "first_call": first_call, "generated": generated, "end": end,
        "rigorous_seconds": [s.rigorous_seconds for s in samples],
        "nonfinite_cd_clips": nonfinite, "mismatched": mismatched,
        "serial_seconds": serial, "workers": min(resolve_workers(), job["clips"]),
        "maxrss_kb": maxrss_kb,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(flow_main(Path(sys.argv[1])))
