"""Reduction primitives with backward rules."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ensure_tensor


def _expand_like(grad: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    """Re-insert reduced axes so ``grad`` broadcasts back to ``shape``."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        expanded = list(grad.shape)
        for a in sorted(axes):
            expanded.insert(a, 1)
        grad = grad.reshape(expanded)
    return np.broadcast_to(grad, shape)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes."""
    a = ensure_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return Tensor.from_op(out, [
        (a, lambda g: _expand_like(g, a.shape, axis, keepdims).copy()),
    ])


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over the given axes."""
    a = ensure_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax % a.ndim] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )
    return Tensor.from_op(out, [
        (a, lambda g: _expand_like(g, a.shape, axis, keepdims) / count),
    ])


def max_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over the given axes.

    Gradient is split evenly between tied maxima, which keeps the vjp a
    true subgradient even on plateaus.
    """
    a = ensure_tensor(a)
    out = a.data.max(axis=axis, keepdims=keepdims)

    def vjp(g):
        full = _expand_like(g, a.shape, axis, keepdims)
        peak = _expand_like(a.data.max(axis=axis, keepdims=keepdims), a.shape, axis, keepdims)
        mask = (a.data == peak).astype(a.data.dtype)
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        return full * mask / _expand_like(np.asarray(counts), a.shape, None, True)

    return Tensor.from_op(out, [(a, vjp)])


def min_(a, axis=None, keepdims: bool = False) -> Tensor:
    """Minimum over the given axes (see :func:`max_` for tie handling)."""
    from .ops_basic import neg

    return neg(max_(neg(a), axis=axis, keepdims=keepdims))


def var(a, axis=None, keepdims: bool = False, ddof: int = 0) -> Tensor:
    """Variance, composed from differentiable primitives."""
    a = ensure_tensor(a)
    mu = mean(a, axis=axis, keepdims=True)
    from .ops_basic import mul, sub

    centered = sub(a, mu)
    squared = mul(centered, centered)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax % a.ndim] for ax in ((axis,) if isinstance(axis, int) else axis)]
    )
    scale = count / max(count - ddof, 1)
    return mul(mean(squared, axis=axis, keepdims=keepdims), scale)


def _install_methods():
    Tensor.sum = sum_
    Tensor.mean = mean
    Tensor.max = max_
    Tensor.min = min_
    Tensor.var = var


_install_methods()
