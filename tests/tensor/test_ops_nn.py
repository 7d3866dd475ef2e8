"""Convolution primitives: values vs scipy, gradients vs finite differences."""

import numpy as np
import pytest
from scipy import signal

from repro import tensor as T
from repro.tensor import ops_nn
from repro.tensor.gradcheck import gradcheck

RNG = np.random.default_rng(3)


def rand(*shape):
    return RNG.standard_normal(shape)


def reference_conv3d(x, w, stride, padding):
    """Direct (slow) grouped=1 conv3d via scipy correlate, for cross-checking."""
    b, cin, d, h, wd = x.shape
    cout = w.shape[0]
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    outs = []
    for bi in range(b):
        per_out = []
        for oc in range(cout):
            acc = np.zeros(tuple(xp.shape[2 + i] - w.shape[2 + i] + 1 for i in range(3)))
            for ic in range(cin):
                acc += signal.correlate(xp[bi, ic], w[oc, ic], mode="valid")
            per_out.append(acc[:: stride[0], :: stride[1], :: stride[2]])
        outs.append(np.stack(per_out))
    return np.stack(outs)


class TestConv3dForward:
    @pytest.mark.parametrize("stride,padding", [((1, 1, 1), (0, 0, 0)), ((2, 2, 2), (1, 1, 1)), ((1, 2, 1), (0, 1, 2))])
    def test_matches_scipy(self, stride, padding):
        x, w = rand(2, 3, 5, 6, 7), rand(4, 3, 3, 3, 3)
        out = ops_nn.conv3d_forward(x, w, stride, padding, groups=1)
        assert np.allclose(out, reference_conv3d(x, w, stride, padding))

    def test_grouped_matches_blockwise(self):
        x, w = rand(1, 4, 4, 4, 4), rand(6, 2, 3, 3, 3)
        out = ops_nn.conv3d_forward(x, w, 1, 1, groups=2)
        expected_a = reference_conv3d(x[:, :2], w[:3], (1, 1, 1), (1, 1, 1))
        expected_b = reference_conv3d(x[:, 2:], w[3:], (1, 1, 1), (1, 1, 1))
        assert np.allclose(out, np.concatenate([expected_a, expected_b], axis=1))

    def test_depthwise_shape(self):
        x, w = rand(1, 4, 4, 5, 5), rand(4, 1, 3, 3, 3)
        out = ops_nn.conv3d_forward(x, w, 1, 1, groups=4)
        assert out.shape == (1, 4, 4, 5, 5)


class TestConv3dGrad:
    def test_gradcheck_basic(self):
        w = rand(1, 2, 2, 2, 2)
        gradcheck(
            lambda ts: (T.conv3d(ts[0], ts[1]) * w).sum(),
            [rand(1, 2, 3, 3, 3), rand(2, 2, 2, 2, 2)],
        )

    def test_gradcheck_stride_padding(self):
        gradcheck(
            lambda ts: T.conv3d(ts[0], ts[1], stride=2, padding=1).sum(),
            [rand(1, 1, 4, 4, 4), rand(2, 1, 3, 3, 3)],
        )

    def test_gradcheck_grouped(self):
        gradcheck(
            lambda ts: T.conv3d(ts[0], ts[1], padding=1, groups=2).sum(),
            [rand(1, 2, 3, 3, 3), rand(2, 1, 3, 3, 3)],
        )

    def test_gradcheck_bias(self):
        gradcheck(
            lambda ts: T.conv3d(ts[0], ts[1], bias=ts[2]).sum(),
            [rand(1, 1, 3, 3, 3), rand(2, 1, 2, 2, 2), rand(2)],
        )


class TestConvTranspose3d:
    def test_is_adjoint_of_conv(self):
        """<conv(x), y> == <x, conv_transpose(y)> for matching parameters."""
        x = rand(1, 2, 5, 5, 5)
        # One array, two roles: (Cout=3, Cin=2, k...) for conv is exactly
        # (in=3, out=2, k...) for the transposed conv that is its adjoint.
        w = rand(3, 2, 3, 3, 3)
        for stride, padding in [(1, 0), (2, 1), (2, 0)]:
            fwd = ops_nn.conv3d_forward(x, w, stride, padding, 1)
            y = rand(*fwd.shape)
            back = ops_nn.conv_transpose3d_forward(y, w, stride, padding, 0, 1)
            assert np.isclose((fwd * y).sum(), (x * back).sum())

    def test_output_shape_with_output_padding(self):
        x = rand(1, 2, 3, 3, 3)
        w = rand(2, 4, 2, 2, 2)
        out = ops_nn.conv_transpose3d_forward(x, w, 2, 0, 1, 1)
        assert out.shape == (1, 4, 7, 7, 7)

    def test_output_padding_must_be_below_the_stride(self):
        """As in torch; then the input gradient, a convolution of the output
        gradient, has the input's shape."""
        with pytest.raises(ValueError, match="output padding"):
            ops_nn.conv_transpose3d_forward(rand(1, 2, 3, 3, 3), rand(2, 4, 2, 2, 2), 2, 0, 2, 1)

    def test_gradcheck(self):
        gradcheck(
            lambda ts: T.conv_transpose3d(ts[0], ts[1], stride=2, padding=1).sum(),
            [rand(1, 2, 3, 3, 3), rand(2, 2, 3, 3, 3)],
        )

    def test_gradcheck_bias_output_padding(self):
        gradcheck(
            lambda ts: T.conv_transpose3d(ts[0], ts[1], bias=ts[2], stride=2, output_padding=1).sum(),
            [rand(1, 1, 2, 2, 2), rand(1, 2, 2, 2, 2), rand(2)],
        )


class TestConv1d:
    def test_matches_numpy_correlate(self):
        x, w = rand(1, 1, 8), rand(1, 1, 3)
        out = T.conv1d(T.Tensor(x), T.Tensor(w))
        assert np.allclose(out.data[0, 0], np.correlate(x[0, 0], w[0, 0], mode="valid"))

    def test_gradcheck(self):
        gradcheck(
            lambda ts: T.conv1d(ts[0], ts[1], padding=1).sum(),
            [rand(2, 2, 5), rand(3, 2, 3)],
        )

    def test_gradcheck_depthwise(self):
        gradcheck(
            lambda ts: T.conv1d(ts[0], ts[1], padding=2, groups=3).sum(),
            [rand(1, 3, 6), rand(3, 1, 3)],
        )


class TestUpsample:
    def test_values(self):
        x = T.Tensor(np.arange(8.0).reshape(1, 1, 2, 2, 2))
        out = T.upsample_nearest3d(x, 2)
        assert out.shape == (1, 1, 4, 4, 4)
        assert np.allclose(out.data[0, 0, :2, :2, :2], x.data[0, 0, 0, 0, 0])

    def test_gradcheck(self):
        w = rand(1, 1, 2, 4, 4)
        gradcheck(
            lambda ts: (T.upsample_nearest3d(ts[0], (1, 2, 2)) * w).sum(),
            [rand(1, 1, 2, 2, 2)],
        )
