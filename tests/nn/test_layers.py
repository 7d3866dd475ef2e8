"""Layer behaviour: shapes, values, and gradient flow end-to-end."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor

RNG = np.random.default_rng(7)


def rand(*shape):
    return RNG.standard_normal(shape)


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(rand(2, 5))).shape == (2, 3)

    def test_batched_last_axis(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(rand(2, 7, 5))).shape == (2, 7, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        zero = layer(Tensor(np.zeros((1, 5))))
        assert np.allclose(zero.data, 0.0)

    def test_matches_manual(self):
        layer = nn.Linear(4, 2)
        x = rand(3, 4)
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)


class TestConvModules:
    def test_conv3d_shape(self):
        layer = nn.Conv3d(2, 4, 3, stride=2, padding=1)
        assert layer(Tensor(rand(1, 2, 8, 8, 8))).shape == (1, 4, 4, 4, 4)

    def test_depthwise_preserves_channels(self):
        layer = nn.DepthwiseConv3d(4)
        out = layer(Tensor(rand(1, 4, 4, 6, 6)))
        assert out.shape == (1, 4, 4, 6, 6)

    def test_depthwise_channels_independent(self):
        layer = nn.DepthwiseConv3d(2, kernel_size=3, padding=1, bias=False)
        x = np.zeros((1, 2, 4, 4, 4))
        x[0, 0] = rand(4, 4, 4)
        out = layer(Tensor(x))
        assert np.allclose(out.data[0, 1], 0.0)

    def test_conv_transpose_inverts_stride(self):
        down = nn.Conv3d(1, 2, 2, stride=2)
        up = nn.ConvTranspose3d(2, 1, 2, stride=2)
        x = Tensor(rand(1, 1, 4, 4, 4))
        assert up(down(x)).shape == x.shape

    def test_conv1d_shape(self):
        layer = nn.Conv1d(3, 6, 3, padding=1)
        assert layer(Tensor(rand(2, 3, 10))).shape == (2, 6, 10)

    @pytest.mark.parametrize("module", [nn.Conv3d, nn.ConvTranspose3d])
    def test_kernel_size_of_two_values_refused_at_construction(self, module):
        with pytest.raises(ValueError, match="expected 3 values"):
            module(2, 2, kernel_size=(3, 3))

    def test_grad_reaches_weights(self):
        layer = nn.Conv3d(1, 2, 3, padding=1)
        layer(Tensor(rand(1, 1, 3, 3, 3))).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None


class TestNorms:
    def test_layernorm_statistics(self):
        layer = nn.LayerNorm(16)
        out = layer(Tensor(rand(4, 16)))
        assert np.allclose(out.data.mean(-1), 0.0, atol=1e-9)

    def test_channel_layernorm_layout(self):
        layer = nn.ChannelLayerNorm(6)
        out = layer(Tensor(rand(2, 6, 3, 4, 5)))
        assert out.shape == (2, 6, 3, 4, 5)
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-9)


class TestAttention:
    def test_shape_preserved(self):
        attn = nn.EfficientSpatialSelfAttention(8, num_heads=2, reduction_ratio=1)
        assert attn(Tensor(rand(2, 12, 8))).shape == (2, 12, 8)

    def test_reduction_shape_preserved(self):
        attn = nn.EfficientSpatialSelfAttention(8, num_heads=2, reduction_ratio=4)
        assert attn(Tensor(rand(2, 16, 8))).shape == (2, 16, 8)

    def test_reduction_indivisible_raises(self):
        import pytest

        attn = nn.EfficientSpatialSelfAttention(8, reduction_ratio=4)
        with pytest.raises(ValueError):
            attn(Tensor(rand(1, 10, 8)))

    def test_bad_heads_raises(self):
        import pytest

        with pytest.raises(ValueError):
            nn.EfficientSpatialSelfAttention(7, num_heads=2)

    def test_grad_flows(self):
        attn = nn.EfficientSpatialSelfAttention(4, num_heads=2, reduction_ratio=2)
        x = Tensor(rand(1, 8, 4), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.sr_proj.weight.grad is not None

    def test_reduction_changes_result(self):
        nn.init.seed(0)
        a = nn.EfficientSpatialSelfAttention(8, reduction_ratio=1)
        nn.init.seed(0)
        b = nn.EfficientSpatialSelfAttention(8, reduction_ratio=2)
        x = Tensor(rand(1, 8, 8))
        assert not np.allclose(a(x).data, b(x).data)


class TestMLP:
    def test_shape(self):
        mlp = nn.MLP(8, 16)
        assert mlp(Tensor(rand(2, 5, 8))).shape == (2, 5, 8)

    def test_out_dim_override(self):
        mlp = nn.MLP(8, 16, out_dim=4)
        assert mlp(Tensor(rand(2, 8))).shape == (2, 4)
