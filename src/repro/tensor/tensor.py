"""Core reverse-mode autograd tensor.

This module provides the :class:`Tensor` class — an ndarray wrapper that
records the operations applied to it so gradients can be computed with
:meth:`Tensor.backward`.  The design mirrors the classic define-by-run
tape: every differentiable operation creates a new tensor whose
``_parents`` list holds ``(parent_tensor, vjp)`` pairs, where ``vjp`` maps
the output gradient to the contribution to that parent's gradient.

The engine is deliberately small and explicit: the full operator set
lives in the sibling ``ops_*`` modules which attach methods onto
:class:`Tensor` when :mod:`repro.tensor` is imported.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading

import numpy as np

DEFAULT_DTYPE = np.float64

_state = threading.local()


class SanitizeError(RuntimeError):
    """Raised by the tape sanitizer on a non-finite value or a vjp whose
    output does not match its parent's shape/dtype."""


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Operations executed inside the block create constant tensors with no
    tape, which is both faster and lighter on memory.  Used by
    evaluation loops and optimizer update steps.
    """
    previous = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded."""
    return _grad_enabled()


def is_sanitize_enabled() -> bool:
    """Return whether the tape sanitizer is active.

    An explicit :func:`sanitize` block wins; otherwise the
    ``REPRO_SANITIZE`` environment variable decides, so whole test runs
    and CLI invocations can opt in without code changes.
    """
    flag = getattr(_state, "sanitize", None)
    if flag is not None:
        return flag
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0", "false", "False")


@contextlib.contextmanager
def sanitize(enabled: bool = True):
    """Context manager toggling the tape sanitizer.

    While active, every op's forward output is checked for NaN/Inf as it
    is recorded, and every vjp result is checked during backward for
    NaN/Inf and for shape/dtype mismatch against its parent.  Failures
    raise :class:`SanitizeError` naming the offending op and the operand
    shapes, which turns a loss that "goes NaN somewhere" into a stack
    trace pointing at the first bad op.
    """
    previous = getattr(_state, "sanitize", None)
    _state.sanitize = bool(enabled)
    try:
        yield
    finally:
        _state.sanitize = previous


def _is_float_array(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.complexfloating)


def _describe_operands(parents) -> str:
    return ", ".join(f"{tuple(p.shape)}:{p.dtype}" for p, _ in parents) or "<no operands>"


def _sanitize_forward(data: np.ndarray, parents, op_name: str) -> None:
    if _is_float_array(data) and not np.all(np.isfinite(data)):
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise SanitizeError(
            f"op '{op_name}' produced {bad} non-finite value(s) in output of shape "
            f"{tuple(data.shape)} (operands: {_describe_operands(parents)})"
        )


def _sanitize_vjp(contribution: np.ndarray, parent: "Tensor", op_name: str) -> None:
    contribution = np.asarray(contribution)
    if contribution.shape != parent.data.shape:
        raise SanitizeError(
            f"vjp of op '{op_name}' returned gradient of shape {tuple(contribution.shape)} "
            f"for a parent of shape {tuple(parent.data.shape)}"
        )
    if (_is_float_array(contribution) and _is_float_array(parent.data)
            and contribution.dtype != parent.data.dtype):
        raise SanitizeError(
            f"vjp of op '{op_name}' returned dtype {contribution.dtype} for a parent of "
            f"dtype {parent.data.dtype} (silent promotion)"
        )
    if _is_float_array(contribution) and not np.all(np.isfinite(contribution)):
        bad = int(np.count_nonzero(~np.isfinite(contribution)))
        raise SanitizeError(
            f"vjp of op '{op_name}' produced {bad} non-finite gradient value(s) for a "
            f"parent of shape {tuple(parent.data.shape)}"
        )


def as_array(value, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Coerce ``value`` (scalar, sequence, ndarray or Tensor) to ndarray."""
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A multidimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.
    requires_grad:
        If True, gradients will be accumulated into ``self.grad`` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name", "_op")

    # Let Tensor win against ndarray in mixed binary ops.
    __array_priority__ = 200

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: list[tuple[Tensor, object]] = []
        self.name = name
        self._op: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(data: np.ndarray, parents, op: str | None = None) -> "Tensor":
        """Create the result tensor of an operation.

        ``parents`` is an iterable of ``(tensor, vjp)`` pairs; pairs whose
        tensor does not require grad are dropped.  When grad recording is
        globally disabled, or no parent requires grad, the result is a
        plain constant tensor.

        ``op`` names the operation for sanitizer error messages; when
        omitted under :func:`sanitize`, the calling function's name is
        used, which matches the public op name for every ``ops_*`` module.
        """
        out = Tensor(data)
        if is_sanitize_enabled():
            parents = list(parents)
            out._op = op or sys._getframe(1).f_code.co_name
            _sanitize_forward(out.data, parents, out._op)
        if _grad_enabled():
            kept = [(p, fn) for p, fn in parents if p.requires_grad]
            if kept:
                out.requires_grad = True
                out._parents = kept
        return out

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a constant deep copy of this tensor's data."""
        return Tensor(self.data.copy())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, got shape "
                f"{tuple(self.shape)} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{flag}{label})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ones, which is the conventional seed for scalar losses.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        seed_owned = False
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        sanitizing = is_sanitize_enabled()
        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Ownership discipline: a buffer returned by a vjp may alias
        # forward data (identity-like vjps return the incoming gradient,
        # others return cached activations), so it is stored *borrowed*
        # and never written to.  Only buffers this pass allocated itself
        # (`owned`) are accumulated into with np.add(..., out=...);
        # everything else falls back to the allocating `a + b`.
        owned: set[int] = {id(self)} if seed_owned else set()
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if not node._parents:
                # Leaf: accumulate into .grad.  An owned buffer transfers
                # straight into .grad (nothing else references it); a
                # borrowed one is copied so the tape stays untouched.
                if node.grad is None:
                    node.grad = node_grad if id(node) in owned else node_grad.copy()
                elif (node.grad.shape == node_grad.shape
                      and np.result_type(node.grad.dtype, node_grad.dtype) == node.grad.dtype):
                    np.add(node.grad, node_grad, out=node.grad)
                else:
                    node.grad = node.grad + node_grad
                continue
            for parent, vjp in node._parents:
                contribution = vjp(node_grad)
                if contribution is None:
                    continue
                if sanitizing:
                    _sanitize_vjp(contribution, parent, node._op or "<unnamed op>")
                contribution = np.asarray(contribution)
                key = id(parent)
                accumulated = grads.get(key)
                if accumulated is None:
                    grads[key] = contribution
                elif (key in owned
                      and accumulated.shape == contribution.shape
                      and np.result_type(accumulated.dtype, contribution.dtype) == accumulated.dtype):
                    np.add(accumulated, contribution, out=accumulated)
                else:
                    grads[key] = accumulated + contribution
                    owned.add(key)

    def _topological_order(self) -> list["Tensor"]:
        """Nodes reachable from self, ordered output-to-input."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None


def ensure_tensor(value) -> Tensor:
    """Return ``value`` as a Tensor (constants wrap without grad)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
