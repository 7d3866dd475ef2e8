"""Micro-benchmarks of the autograd engine's hot kernels.

Conv3d (the dominant cost in every model) and the transposed conv
(decoder), each forward and backward, the SDM unit, and one full
SDM-PEB training step — useful for tracking performance regressions in
the from-scratch substrate.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import SDMPEB, SDMUnit, SDMPEBLoss
from repro.experiments import sdmpeb_config_for
from repro.config import GridConfig
from repro.tensor import Tensor, conv3d, conv_transpose3d, no_grad

RNG = np.random.default_rng(4)


def test_bench_conv3d_forward(benchmark):
    x = Tensor(RNG.standard_normal((1, 16, 8, 32, 32)))
    w = Tensor(RNG.standard_normal((16, 16, 3, 3, 3)))

    def forward():
        with no_grad():
            return conv3d(x, w, padding=1)

    benchmark(forward)


def test_bench_conv3d_backward(benchmark):
    x = Tensor(RNG.standard_normal((1, 16, 8, 32, 32)), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 16, 3, 3, 3)), requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        conv3d(x, w, padding=1).sum().backward()

    benchmark(step)


def test_bench_conv_transpose3d(benchmark):
    x = Tensor(RNG.standard_normal((1, 16, 8, 16, 16)))
    w = Tensor(RNG.standard_normal((16, 8, 3, 2, 2)))

    def forward():
        with no_grad():
            return conv_transpose3d(x, w, stride=(1, 2, 2), padding=(1, 0, 0))

    benchmark(forward)


def test_bench_conv_transpose3d_backward(benchmark):
    x = Tensor(RNG.standard_normal((1, 16, 8, 16, 16)), requires_grad=True)
    w = Tensor(RNG.standard_normal((16, 8, 3, 2, 2)), requires_grad=True)

    def step():
        x.zero_grad()
        w.zero_grad()
        conv_transpose3d(x, w, stride=(1, 2, 2), padding=(1, 0, 0)).sum().backward()

    benchmark(step)


def test_bench_sdm_unit(benchmark):
    nn.init.seed(0)
    unit = SDMUnit(channels=16, state_dim=8)
    x = Tensor(RNG.standard_normal((1, 16, 8, 16, 16)))

    def forward():
        with no_grad():
            return unit(x)

    benchmark(forward)


def test_bench_sdmpeb_training_step(benchmark):
    nn.init.seed(0)
    grid = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)
    model = SDMPEB(sdmpeb_config_for(grid))
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    loss_fn = SDMPEBLoss()
    x = Tensor(RNG.random((1, 4, 32, 32)))
    target = Tensor(RNG.random((1, 4, 32, 32)))

    def step():
        optimizer.zero_grad()
        loss = loss_fn(model(x), target)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    value = benchmark(step)
    assert np.isfinite(value)
