"""Shape-manipulation primitives with backward rules."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ensure_tensor


def reshape(a, *shape) -> Tensor:
    """Return a view of ``a`` with a new shape."""
    a = ensure_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)
    return Tensor.from_op(out, [(a, lambda g: g.reshape(a.shape))])


def transpose(a, axes=None) -> Tensor:
    """Permute dimensions (numpy ``transpose`` semantics)."""
    a = ensure_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return Tensor.from_op(out, [(a, lambda g: np.transpose(g, inverse))])


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    """Swap two dimensions."""
    a = ensure_tensor(a)
    out = np.swapaxes(a.data, axis1, axis2)
    return Tensor.from_op(out, [(a, lambda g: np.swapaxes(g, axis1, axis2))])


def moveaxis(a, source: int, destination: int) -> Tensor:
    """Move a dimension to a new position."""
    a = ensure_tensor(a)
    out = np.moveaxis(a.data, source, destination)
    return Tensor.from_op(out, [(a, lambda g: np.moveaxis(g, destination, source))])


def getitem(a, index) -> Tensor:
    """Basic indexing/slicing; gradient scatters back into place."""
    a = ensure_tensor(a)
    out = a.data[index]

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        return grad

    return Tensor.from_op(out, [(a, vjp)])


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(slicer)]
        parents.append((t, vjp))
    return Tensor.from_op(out, parents)


def stack(tensors, axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i):
            return np.take(g, i, axis=axis)
        parents.append((t, vjp))
    return Tensor.from_op(out, parents)


def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad; gradient crops the padding back off."""
    a = ensure_tensor(a)
    pad_width = [(int(lo), int(hi)) for lo, hi in pad_width]
    out = np.pad(a.data, pad_width, constant_values=constant_value)

    def vjp(g):
        slicer = tuple(slice(lo, g.shape[i] - hi) for i, (lo, hi) in enumerate(pad_width))
        return g[slicer]

    return Tensor.from_op(out, [(a, vjp)])


def flip(a, axis) -> Tensor:
    """Reverse along the given axis/axes."""
    a = ensure_tensor(a)
    out = np.flip(a.data, axis=axis)
    return Tensor.from_op(out, [(a, lambda g: np.flip(g, axis=axis))])


def broadcast_to(a, shape) -> Tensor:
    """Broadcast ``a`` to ``shape``; gradient sums over broadcast axes."""
    from .tensor import unbroadcast

    a = ensure_tensor(a)
    out = np.broadcast_to(a.data, shape).copy()
    return Tensor.from_op(out, [(a, lambda g: unbroadcast(g, a.shape))])


def repeat_interleave(a, repeats: int, axis: int) -> Tensor:
    """Repeat each element ``repeats`` times along ``axis``.

    This is the building block for nearest-neighbour upsampling; the
    gradient sums each block of repeated entries.
    """
    a = ensure_tensor(a)
    out = np.repeat(a.data, repeats, axis=axis)

    def vjp(g):
        new_shape = list(a.shape)
        new_shape.insert(axis + 1, repeats)
        return g.reshape(new_shape).sum(axis=axis + 1)

    return Tensor.from_op(out, [(a, vjp)])


def split(a, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into ``sections`` equal chunks along ``axis``."""
    a = ensure_tensor(a)
    if a.shape[axis] % sections:
        raise ValueError(f"axis {axis} of size {a.shape[axis]} not divisible by {sections}")
    step = a.shape[axis] // sections
    chunks = []
    for i in range(sections):
        slicer = [slice(None)] * a.ndim
        slicer[axis] = slice(i * step, (i + 1) * step)
        chunks.append(getitem(a, tuple(slicer)))
    return chunks


def _install_methods():
    Tensor.reshape = reshape
    Tensor.transpose = transpose
    Tensor.swapaxes = swapaxes
    Tensor.moveaxis = moveaxis
    Tensor.__getitem__ = getitem
    Tensor.flip = flip


_install_methods()
