"""Convolution modules (1D/3D, transposed, depthwise)."""

from __future__ import annotations

import numpy as np

from repro import tensor as T
from repro.tensor.ops_nn import _triple
from . import init
from .module import Module, Parameter


class Conv3d(Module):
    """Grouped 3D convolution over (B, C, D, H, W) volumes."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, groups: int = 1, bias: bool = True):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        kernel_size = _triple(kernel_size)
        self.stride, self.padding, self.groups = stride, padding, groups
        fan_in = (in_channels // groups) * int(np.prod(kernel_size))
        self.weight = Parameter(init.kaiming_uniform(
            (out_channels, in_channels // groups) + kernel_size, fan_in=fan_in, gain=1.0))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x):
        return T.conv3d(x, self.weight, bias=self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class DepthwiseConv3d(Conv3d):
    """Channelwise 3D convolution (groups == channels).

    This is the "DW-Conv3D" block appearing twice in the SDM-PEB
    architecture (Fig. 2 / Fig. 5a of the paper): once on the raw input
    and once refining the SDM unit output.
    """

    def __init__(self, channels: int, kernel_size=3, padding=1, bias: bool = True):
        super().__init__(channels, channels, kernel_size, stride=1, padding=padding,
                         groups=channels, bias=bias)


class ConvTranspose3d(Module):
    """Grouped transposed 3D convolution (decoder upsampling)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, output_padding=0, groups: int = 1, bias: bool = True):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        kernel_size = _triple(kernel_size)
        self.stride, self.padding, self.output_padding, self.groups = stride, padding, output_padding, groups
        fan_in = (out_channels // groups) * int(np.prod(kernel_size))
        self.weight = Parameter(init.kaiming_uniform(
            (in_channels, out_channels // groups) + kernel_size, fan_in=fan_in, gain=1.0))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x):
        return T.conv_transpose3d(x, self.weight, bias=self.bias, stride=self.stride,
                                  padding=self.padding, output_padding=self.output_padding,
                                  groups=self.groups)


class Conv1d(Module):
    """Grouped 1D convolution over (B, C, L) sequences."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1, bias: bool = True):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("channels must be divisible by groups")
        self.stride, self.padding, self.groups = stride, padding, groups
        fan_in = (in_channels // groups) * kernel_size
        self.weight = Parameter(init.kaiming_uniform(
            (out_channels, in_channels // groups, kernel_size), fan_in=fan_in, gain=1.0))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x):
        return T.conv1d(x, self.weight, bias=self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)
