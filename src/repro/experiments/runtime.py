"""Runtime comparison: learned surrogates vs the rigorous solver.

The paper reports SDM-PEB at 1.06 s vs S-Litho's 147 s (138×), with the
method-vs-method ordering DeepCNN < SDM-PEB < FNO < DeePEB «
TEMPO-resist.  This experiment times the rigorous solver and every
untrained surrogate's forward pass on one clip and reports the speedup
factors (absolute numbers differ on the numpy substrate; the ordering
and the orders-of-magnitude gap are the reproduced shape).  Every time
is a distribution: the median and quartiles of repeated runs, and a
speedup is the ratio of medians.

Run:  python -m repro.experiments.runtime [--quick]
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.data import simulate_clip
from repro.tensor import Tensor, no_grad
from .harness import ExperimentSettings, TABLE2_METHODS, build_method

#: timed forwards per surrogate, after one warm-up forward
FORWARD_RUNS = 7
#: timed rigorous solves of the clip
RIGOROUS_RUNS = 5


@dataclass
class RuntimeRow:
    """Wall times of one solver: median and quartiles over ``runs``."""

    name: str
    seconds: float
    q1_s: float
    q3_s: float
    runs: int
    speedup_vs_rigorous: float

    @classmethod
    def from_times(cls, name: str, times, reference: float | None = None) -> "RuntimeRow":
        """Summarize ``times``; the speedup is ``reference`` over the
        median (1 for the reference itself)."""
        q1, median, q3 = (float(v) for v in np.percentile(times, [25, 50, 75]))
        reference = median if reference is None else reference
        return cls(name, median, q1, q3, len(times), reference / median)


def time_forward(model, acid: np.ndarray, repeats: int = FORWARD_RUNS) -> list[float]:
    """Wall times of ``repeats`` forwards on one clip, after a warm-up."""
    x = Tensor(acid[None])
    with no_grad():
        model(x)  # warm-up
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            model(x)
            times.append(time.perf_counter() - start)
    return times


def run(settings: ExperimentSettings | None = None) -> tuple[RuntimeRow, list[RuntimeRow]]:
    """Returns (the rigorous solver's row, per-method runtime rows)."""
    settings = settings if settings is not None else ExperimentSettings()
    samples = [simulate_clip(settings.base_seed, settings.config,
                             time_step_s=settings.time_step_s)
               for _ in range(RIGOROUS_RUNS)]
    rigorous = RuntimeRow.from_times("Rigorous (ours)",
                                     [s.rigorous_seconds for s in samples])
    rows = []
    for name in TABLE2_METHODS:
        nn.init.seed(settings.init_seed)
        model, _ = build_method(name, settings.config.grid)
        rows.append(RuntimeRow.from_times(name, time_forward(model, samples[0].acid),
                                          reference=rigorous.seconds))
    return rigorous, rows


def format_table(rigorous: RuntimeRow, rows: list[RuntimeRow]) -> str:
    header = (f"{'Solver':<16} {'RT (s)':>8} {'IQR (s)':>17} {'runs':>5} "
              f"{'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in [rigorous] + rows:
        iqr = f"[{row.q1_s:.3f}, {row.q3_s:.3f}]"
        lines.append(f"{row.name:<16} {row.seconds:>8.3f} {iqr:>17} {row.runs:>5} "
                     f"{row.speedup_vs_rigorous:>7.1f}x")
    return "\n".join(lines)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    settings = ExperimentSettings.quick() if args.quick else ExperimentSettings.full()
    rigorous, rows = run(settings)
    print(format_table(rigorous, rows))
    return rigorous, rows


if __name__ == "__main__":
    main()
