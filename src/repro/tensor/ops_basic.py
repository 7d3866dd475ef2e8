"""Elementwise and linear-algebra primitives with backward rules.

Every function here takes/returns :class:`~repro.tensor.tensor.Tensor`
objects and registers the vector-Jacobian products needed for reverse-
mode differentiation.  Methods and operator overloads are attached onto
``Tensor`` at the bottom of the module.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ensure_tensor, unbroadcast


def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(g, b.shape)),
    ])


def sub(a, b) -> Tensor:
    """Elementwise ``a - b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g, a.shape)),
        (b, lambda g: unbroadcast(-g, b.shape)),
    ])


def mul(a, b) -> Tensor:
    """Elementwise ``a * b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g * b.data, a.shape)),
        (b, lambda g: unbroadcast(g * a.data, b.shape)),
    ])


def div(a, b) -> Tensor:
    """Elementwise ``a / b``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data / b.data
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g / b.data, a.shape)),
        (b, lambda g: unbroadcast(-g * a.data / (b.data ** 2), b.shape)),
    ])


def neg(a) -> Tensor:
    """Elementwise ``-a``."""
    a = ensure_tensor(a)
    return Tensor.from_op(-a.data, [(a, lambda g: -g)])


def pow_(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant scalar exponent."""
    a = ensure_tensor(a)
    out = a.data ** exponent
    return Tensor.from_op(out, [
        (a, lambda g: g * exponent * a.data ** (exponent - 1)),
    ])


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = ensure_tensor(a)
    out = np.exp(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * out)])


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = ensure_tensor(a)
    out = np.log(a.data)
    return Tensor.from_op(out, [(a, lambda g: g / a.data)])


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = ensure_tensor(a)
    out = np.sqrt(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * 0.5 / out)])


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = ensure_tensor(a)
    out = np.tanh(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * (1.0 - out ** 2))])


def sigmoid(a) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = ensure_tensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return Tensor.from_op(out, [(a, lambda g: g * out * (1.0 - out))])


def abs_(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the kink)."""
    a = ensure_tensor(a)
    out = np.abs(a.data)
    return Tensor.from_op(out, [(a, lambda g: g * np.sign(a.data))])


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties route gradient to the first argument."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g * take_a, a.shape)),
        (b, lambda g: unbroadcast(g * ~take_a, b.shape)),
    ])


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties route gradient to the first argument."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g * take_a, a.shape)),
        (b, lambda g: unbroadcast(g * ~take_a, b.shape)),
    ])


def clip(a, low: float | None, high: float | None) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside."""
    a = ensure_tensor(a)
    out = np.clip(a.data, low, high)
    inside = np.ones_like(a.data, dtype=bool)
    if low is not None:
        inside &= a.data >= low
    if high is not None:
        inside &= a.data <= high
    return Tensor.from_op(out, [(a, lambda g: g * inside)])


def where(condition, a, b) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition is constant."""
    cond = condition.data.astype(bool) if isinstance(condition, Tensor) else np.asarray(condition, dtype=bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.where(cond, a.data, b.data)
    return Tensor.from_op(out, [
        (a, lambda g: unbroadcast(g * cond, a.shape)),
        (b, lambda g: unbroadcast(g * ~cond, b.shape)),
    ])


def matmul(a, b) -> Tensor:
    """Matrix product with numpy ``@`` semantics (batched supported)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data

    def grad_a(g):
        if b.data.ndim == 1:
            ga = np.multiply.outer(g, b.data) if a.data.ndim > 1 else g * b.data
        else:
            ga = g @ np.swapaxes(b.data, -1, -2)
        return unbroadcast(ga, a.shape)

    def grad_b(g):
        if a.data.ndim == 1 and b.data.ndim == 1:
            gb = g * a.data
        elif a.data.ndim == 1:
            gb = np.multiply.outer(a.data, g) if b.data.ndim == 2 else np.einsum("...m,n->...nm", g, a.data)
        elif b.data.ndim == 1:
            gb = np.einsum("...ij,...i->...j", a.data, g)
            if gb.ndim > 1:
                gb = gb.reshape(-1, gb.shape[-1]).sum(axis=0)
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(gb, b.shape)

    return Tensor.from_op(out, [(a, grad_a), (b, grad_b)])


def einsum(subscripts: str, *operands) -> Tensor:
    """Differentiable :func:`numpy.einsum` (explicit subscripts, no ellipsis).

    The backward rule swaps the output subscript with each operand's
    subscript in turn, which is valid whenever every operand index also
    appears in the output or another operand (true for all uses here).
    """
    tensors = [ensure_tensor(op) for op in operands]
    inputs, arrow, output = subscripts.partition("->")
    if not arrow:
        raise ValueError("einsum requires explicit '->' output subscripts")
    in_specs = inputs.split(",")
    if len(in_specs) != len(tensors):
        raise ValueError("einsum operand count mismatch")
    out = np.einsum(subscripts, *[t.data for t in tensors])

    parents = []
    for i, t in enumerate(tensors):
        def vjp(g, i=i, t=t):
            other_specs = [in_specs[j] for j in range(len(tensors)) if j != i]
            other_data = [tensors[j].data for j in range(len(tensors)) if j != i]
            spec = ",".join([output] + other_specs) + "->" + in_specs[i]
            needs_sum = set(in_specs[i]) - set(output) - set("".join(other_specs))
            if needs_sum:
                raise ValueError(f"einsum backward: operand index {needs_sum} summed away; unsupported")
            return np.einsum(spec, g, *other_data)
        parents.append((t, vjp))
    return Tensor.from_op(out, parents)


def _install_operators():
    Tensor.__add__ = add
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = sub
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = mul
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = div
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = neg
    Tensor.__pow__ = pow_
    Tensor.__matmul__ = matmul
    Tensor.exp = exp
    Tensor.log = log
    Tensor.sqrt = sqrt
    Tensor.tanh = tanh
    Tensor.sigmoid = sigmoid
    Tensor.abs = abs_
    Tensor.clip = clip


_install_operators()
