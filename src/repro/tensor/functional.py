"""Composite differentiable functions built from the primitive ops."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ensure_tensor
from . import ops_basic as B
from . import ops_reduce as R
from . import ops_shape as S


def relu(x) -> Tensor:
    """Rectified linear unit."""
    return B.maximum(x, 0.0)


def leaky_relu(x, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU used between the decoder's transposed convolutions."""
    x = ensure_tensor(x)
    positive = x.data >= 0
    scale = np.where(positive, 1.0, negative_slope)
    return Tensor.from_op(x.data * scale, [(x, lambda g: g * scale)])


def silu(x) -> Tensor:
    """SiLU / swish activation, ``x * sigmoid(x)`` — used in the SDM unit."""
    x = ensure_tensor(x)
    return B.mul(x, B.sigmoid(x))


def gelu(x) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    x = ensure_tensor(x)
    inner = B.mul(B.add(x, B.mul(B.pow_(x, 3.0), 0.044715)), np.sqrt(2.0 / np.pi))
    return B.mul(B.mul(x, 0.5), B.add(B.tanh(inner), 1.0))


def softplus(x) -> Tensor:
    """Numerically stable softplus, ``log(1 + exp(x))``.

    Used by Mamba's Δ parameterisation (Eq. 11 of the paper).
    """
    x = ensure_tensor(x)
    data = x.data
    out = np.maximum(data, 0.0) + np.log1p(np.exp(-np.abs(data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(data, -60.0, 60.0)))
    return Tensor.from_op(out, [(x, lambda g: g * sig)])


def detached_max(x, axis: int = -1) -> Tensor:
    """``max`` over ``axis`` (keepdims) treated as a constant shift.

    The softmax stabilizer must not contribute gradient (the true vjp of
    the shift cancels anyway).  It is still recorded as an op, so the
    sanitizer checks it like any other; the ``None`` contribution is
    skipped by ``backward``.
    """
    x = ensure_tensor(x)
    out = x.data.max(axis=axis, keepdims=True)
    return Tensor.from_op(out, [(x, lambda g: None)])


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (max-subtracted for stability)."""
    x = ensure_tensor(x)
    shifted = B.sub(x, detached_max(x, axis=axis))
    exps = B.exp(shifted)
    return B.div(exps, R.sum_(exps, axis=axis, keepdims=True))


def log_softmax(x, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    x = ensure_tensor(x)
    shifted = B.sub(x, detached_max(x, axis=axis))
    lse = B.log(R.sum_(B.exp(shifted), axis=axis, keepdims=True))
    return B.sub(shifted, lse)


def layer_norm(x, weight=None, bias=None, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Layer normalization over ``axis`` with optional affine parameters."""
    x = ensure_tensor(x)
    mu = R.mean(x, axis=axis, keepdims=True)
    centered = B.sub(x, mu)
    variance = R.mean(B.mul(centered, centered), axis=axis, keepdims=True)
    inv_std = B.pow_(B.add(variance, eps), -0.5)
    normalized = B.mul(centered, inv_std)
    if weight is not None:
        normalized = B.mul(normalized, weight)
    if bias is not None:
        normalized = B.add(normalized, bias)
    return normalized


def mse_loss(prediction, target) -> Tensor:
    """Mean squared error."""
    diff = B.sub(prediction, target)
    return R.mean(B.mul(diff, diff))


# Fallback generator for callers that do not thread their own; seeded so
# repeated runs of the same script stay reproducible.
_DROPOUT_RNG = np.random.default_rng(0)


def dropout(x, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity at evaluation time."""
    if not training or p <= 0.0:
        return ensure_tensor(x)
    x = ensure_tensor(x)
    rng = rng if rng is not None else _DROPOUT_RNG
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return Tensor.from_op(x.data * mask, [(x, lambda g: g * mask)])


def flatten_spatial(x) -> Tensor:
    """Flatten (B, C, D, H, W) to the sequence layout (B, C, D*H*W)."""
    b, c = x.shape[:2]
    return S.reshape(x, (b, c, -1))
