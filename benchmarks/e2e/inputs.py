"""Seeded inputs: photoacid payloads, arrival schedules, job and clip seeds.

Every random choice of a run is drawn from one ``numpy`` generator
seeded with ``--seed``, in a fixed order, so the same seed gives the
same payload bytes, schedule, hot-set picks and job parameters.  The
program under test only ever sees the generated inputs.

Photoacid volumes come from the repository's own chain
(``generate_clip`` -> ``aerial_image_stack`` -> ``initial_photoacid``);
the eight dihedral transforms and in-plane rolls of a few base clips
multiply them cheaply into distinct payloads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np


def grid_config(grid: tuple):
    from repro.config import GridConfig

    size_um, nx, nz = grid
    return GridConfig(size_um=size_um, nx=nx, ny=nx, nz=nz)


def base_acids(grid, seeds) -> list[np.ndarray]:
    """Initial photoacid volumes of seeded clips on ``grid``."""
    from repro.config import LithoConfig
    from repro.litho import aerial_image_stack, generate_clip, initial_photoacid

    config = LithoConfig(grid=grid)
    acids = []
    for seed in seeds:
        clip = generate_clip(int(seed), grid=grid)
        aerial = aerial_image_stack(clip.pattern, grid, config.optics)
        acids.append(initial_photoacid(aerial, config.exposure))
    return acids


def variant(base: np.ndarray, dihedral: int, shift_y: int, shift_x: int) -> np.ndarray:
    """One of the eight in-plane symmetries of ``base``, then rolled."""
    out = np.rot90(base, k=dihedral % 4, axes=(1, 2))
    if dihedral >= 4:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(np.roll(out, (shift_y, shift_x), axis=(1, 2)))


def distinct_variants(bases: list[np.ndarray], count: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` pairwise-distinct transformed copies of ``bases``."""
    out: list[np.ndarray] = []
    seen: set[bytes] = set()
    size = bases[0].shape[-1]
    while len(out) < count:
        base = bases[int(rng.integers(len(bases)))]
        candidate = variant(base, int(rng.integers(8)), int(rng.integers(size)),
                            int(rng.integers(size)))
        key = candidate.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(candidate)
    return out


def npz_bytes(acid: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, acid=acid)
    return buffer.getvalue()


def arrival_schedule(rate_rps: float, duration_s: float,
                     rng: np.random.Generator) -> list[float]:
    """Arrival offsets (seconds from phase start) at ``rate_rps``.

    The gaps are exponential, as in a Poisson process, but stratified:
    every seed uses the same ``rate * duration`` gaps (the exponential
    quantiles at ``(i + 0.5) / n``) in a seed-shuffled order.  Each run
    then offers the same load with the same burstiness, and only the
    order of bursts changes with the seed.
    """
    count = int(round(rate_rps * duration_s))
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / rate_rps
    return np.cumsum(rng.permutation(gaps)).tolist()


@dataclass
class Payloads:
    """Distinct acid volumes, their npz bodies, and which ones are checked."""

    acids: list[np.ndarray] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    checked: list[bool] = field(default_factory=list)

    def add(self, acid: np.ndarray, checked: bool) -> int:
        self.acids.append(acid)
        self.bodies.append(npz_bytes(acid))
        self.checked.append(checked)
        return len(self.acids) - 1


@dataclass
class ServeInputs:
    payloads: Payloads
    warm: list[int]
    open_offsets: list[float]
    open_ids: list[int]
    closed_ids: list[list[int]]


def stratified_picks(count: int, fraction: float, rng: np.random.Generator,
                     group: int = 10) -> np.ndarray:
    """``count`` flags, exactly ``round(fraction * group)`` set at seeded
    positions in every run of ``group`` (pro rata in a short last run), so
    every latency block carries the same share of picks."""
    picks = np.zeros(count, dtype=bool)
    for start in range(0, count, group):
        size = min(group, count - start)
        picks[start + rng.permutation(size)[:int(round(fraction * size))]] = True
    return picks


def serve_inputs(plan, rng: np.random.Generator, base_clips: int = 6) -> ServeInputs:
    """Payloads and request order for one serve workload run.

    In every ten consecutive requests of a phase, a seeded
    ``plan.hot_fraction`` are hot-set clips; the rest are payloads no
    other request uses.  Every hot-set response is checked against the
    oracle, plus every ``plan.check_every``-th distinct one from a seeded
    offset, so any prefix of a phase's requests (a closed loop cut off by
    its time) is still sampled that often.
    """
    grid = grid_config(plan.grid)
    bases = base_acids(grid, rng.integers(0, 2**31 - 1, size=base_clips))
    offsets = arrival_schedule(plan.open_rate_rps, plan.open_s, rng) if plan.open_s else []
    streams = [len(offsets)] + [plan.closed_per_conn] * (2 if plan.closed_per_conn else 0)
    hot_picks = [stratified_picks(n, plan.hot_fraction, rng) for n in streams]
    distinct = sum(int((~picks).sum()) for picks in hot_picks)
    warm_count = plan.warm_singles + 2 * plan.warm_pairs
    acids = distinct_variants(bases, warm_count + plan.hot_set + distinct, rng)
    every = plan.check_every
    offset = int(rng.integers(min(every, max(distinct, 1))))

    payloads = Payloads()
    warm = [payloads.add(a, checked=False) for a in acids[:warm_count]]
    hot = [payloads.add(a, checked=True) for a in acids[warm_count:warm_count + plan.hot_set]]
    fresh = iter(acids[warm_count + plan.hot_set:])
    order = 0
    stream_ids: list[list[int]] = []
    for picks in hot_picks:
        ids = []
        for is_hot in picks:
            if is_hot and hot:
                ids.append(hot[int(rng.integers(len(hot)))])
            else:
                ids.append(payloads.add(next(fresh), checked=(order + offset) % every == 0))
                order += 1
        stream_ids.append(ids)
    return ServeInputs(payloads, warm, offsets, stream_ids[0], stream_ids[1:])


def job_seeds(plan, rng: np.random.Generator) -> list[int]:
    """Clip seeds for ``plan.jobs`` OPC jobs, each with a contact count in
    ``plan.contacts`` so job cost does not swing with ``--seed``."""
    from repro.config import GridConfig
    from repro.litho import generate_clip

    size_um, nx = plan.job_grid
    grid = GridConfig(size_um=size_um, nx=nx, ny=nx, nz=2)
    low, high = plan.contacts
    seeds: list[int] = []
    while len(seeds) < plan.jobs:
        seed = int(rng.integers(0, 2**31 - 1))
        # the job type's default edge margin, so the count is the job's own
        if low <= len(generate_clip(seed, grid=grid, edge_margin_nm=100.0).contacts) <= high:
            seeds.append(seed)
    return seeds


def job_params(plan, seed: int) -> dict:
    size_um, nx = plan.job_grid
    return {"seed": seed, "nx": nx, "ny": nx, "size_um": size_um,
            "iterations": plan.iterations}
