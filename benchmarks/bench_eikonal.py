"""Eikonal solver bench: active-set fast-iterative vs heap fast-marching.

The development-front solver runs once per clip in the offline flow,
in CD evaluation and on every iteration of gradient OPC, so its speed
shapes those pipelines.  Each solver is timed on two media: a seeded
64×64×8 ``simulate_clip`` clip, the inhibitor the flow develops, and a
random-normal inhibitor field, whose many fast/slow flips make the
front take about twice as many sweeps.  The fast iterative solver
(the default, after the paper's reference [31]) must agree with the
ordered FMM solution on both.
"""

import numpy as np
import pytest

from repro.config import GridConfig, LithoConfig
from repro.data import simulate_clip
from repro.litho import development_rate, fast_iterative, fast_marching

CONFIG = LithoConfig(grid=GridConfig(nx=64, ny=64, nz=8))
GRID = CONFIG.grid


def random_normal_inhibitor():
    rng = np.random.default_rng(3)
    return np.clip(rng.normal(0.85, 0.25, size=GRID.shape), 0.0, 1.0)


def simulated_clip_inhibitor():
    return simulate_clip(101, CONFIG).inhibitor


@pytest.fixture(scope="module", params=[simulated_clip_inhibitor, random_normal_inhibitor],
                ids=["simulated_clip", "random_normal"])
def slowness(request):
    return 1.0 / development_rate(request.param(), CONFIG.develop)


SPACING = (GRID.dz_nm, GRID.dy_nm, GRID.dx_nm)


def test_bench_fast_iterative(benchmark, slowness):
    benchmark(fast_iterative, slowness, SPACING)


def test_bench_fast_marching(benchmark, slowness):
    benchmark.pedantic(fast_marching, args=(slowness, SPACING), rounds=1, iterations=1)


def test_solvers_agree(slowness):
    fim = fast_iterative(slowness, SPACING)
    fmm = fast_marching(slowness, SPACING)
    finite = np.isfinite(fmm)
    assert np.allclose(fim[finite], fmm[finite], rtol=1e-6, atol=1e-6)
