"""Compiled no-grad inference plans: shape-specialized capture and replay.

The autograd tape executes the training-shaped forward even under
``no_grad()``: every op allocates a fresh :class:`Tensor` wrapper plus a
fresh ndarray result, so the serve hot path is dominated by allocator
traffic rather than FLOPs.  This module trades generality for speed by
compiling one forward into a **plan**:

1. **Capture** — :func:`capture` runs one ``no_grad`` forward with a
   thread-local builder installed.  Every ``Tensor.from_op`` call site
   passes ``capture=(op_name, params)`` metadata describing itself; the
   builder records the op sequence with concrete shapes and dtypes.  Any
   op that reaches ``from_op`` *without* capture metadata (custom ops in
   losses, solver code, third-party extensions) aborts the capture with
   :class:`PlanCaptureError` — the caller falls back to the tape.
2. **Compile** — constant folding (weight-derived subgraphs such as SSM
   discretization or transposed ``Linear`` weights become baked arrays),
   dead-code elimination, then liveness-driven arena allocation: every
   dynamic intermediate lands in a preallocated buffer, buffers are
   recycled the step after their last read, and adjacent elementwise
   steps *fuse* by writing into a dying input's buffer in place.  Pure
   view ops (reshape/transpose/slice/flip) are resolved once at compile
   time into stable numpy views of arena buffers and cost nothing at
   replay.
3. **Replay** — :meth:`Plan.run` copies the request batch into the input
   buffer and executes a flat list of closures over ``out=`` ufunc
   kernels.  No tensors, no tape, no allocation except the final output
   copy (which guarantees two consecutive replays never alias each
   other's results).

Identity contract
-----------------
Every kernel replicates the tape op's exact numpy expression — same
ufuncs, same operand order, same memory layouts — so a replay is
**bitwise identical** to the tape forward for the same input.  The
convolutions do not replicate: their builders bind the tape's own
kernels (:func:`repro.tensor.ops_nn.conv3d_kernel`) to arena buffers.
The identity is enforced, not assumed: after compiling, :func:`capture`
replays the capture input and compares bitwise against the traced
output, then runs a second, independently generated input through both
the plan and the tape.  The second input catches data-dependent
constants baked into a plan by accident (the classic trace-compiler
bug); any mismatch raises :class:`PlanCaptureError` so callers degrade
to the tape rather than serve wrong answers.

Kernels for ops defined outside ``repro.tensor`` (the SSM scan, the LTI
FFT convolution) register themselves via :func:`register_kernel`, which
keeps the dependency arrow pointing the right way.
"""

from __future__ import annotations

import time

import numpy as np

from .ops_nn import conv3d_kernel, conv_transpose3d_kernel
from .tensor import Tensor, _state, no_grad

__all__ = [
    "Plan", "PlanError", "PlanCaptureError", "PlanExecutionError",
    "capture", "register_kernel",
]


class PlanError(RuntimeError):
    """Base class for plan compilation/execution failures."""


class PlanCaptureError(PlanError):
    """The forward could not be captured or failed validation; use the tape."""


class PlanExecutionError(PlanError):
    """A compiled plan was replayed with incompatible inputs."""


#: op name -> builder(ctx); see :func:`register_kernel`
_KERNELS: dict[str, object] = {}


def register_kernel(name: str):
    """Decorator registering a plan kernel builder for op ``name``.

    The builder receives a :class:`_Ctx` and must allocate its output
    (``ctx.alloc_out`` / ``ctx.out_view``) and emit zero or more replay
    closures (``ctx.emit``).  Ops outside ``repro.tensor`` (e.g. the SSM
    scan) use this hook so the tensor package never imports them.
    """

    def _register(fn):
        _KERNELS[name] = fn
        return fn

    return _register


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
_CONST, _INPUT, _STEP = 0, 1, 2


class _Slot:
    __slots__ = ("value", "kind", "producer")

    def __init__(self, value: np.ndarray, kind: int, producer: int | None = None):
        self.value = value
        self.kind = kind
        self.producer = producer


class _Step:
    __slots__ = ("op", "params", "in_slots", "out_slot")

    def __init__(self, op: str, params: dict, in_slots: list[int], out_slot: int):
        self.op = op
        self.params = params
        self.in_slots = in_slots
        self.out_slot = out_slot


class _Builder:
    """Thread-local recorder installed by :func:`capture`.

    ``Tensor.from_op`` calls :meth:`record` for every op executed while
    the builder is active; tensors are mapped to slots by object id, with
    strong references held so ids stay unique for the capture's lifetime.
    """

    def __init__(self):
        self.slots: list[_Slot] = []
        self.steps: list[_Step] = []
        self.failed: str | None = None
        self._slot_of: dict[int, int] = {}
        self._keepalive: list[Tensor] = []
        self._tensor_of_slot: dict[int, Tensor] = {}

    def fail(self, reason: str) -> None:
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, tensor: Tensor, kind: int, producer: int | None = None) -> int:
        index = len(self.slots)
        self.slots.append(_Slot(tensor.data, kind, producer))
        self._slot_of[id(tensor)] = index
        self._keepalive.append(tensor)
        self._tensor_of_slot[index] = tensor
        return index

    def add_input(self, tensor: Tensor) -> int:
        return self._new_slot(tensor, _INPUT)

    def slot_for(self, tensor: Tensor) -> int:
        found = self._slot_of.get(id(tensor))
        if found is not None:
            return found
        # first sighting: a leaf from outside the traced region — a
        # weight, a wrapped python scalar, a cached constant.  Its value
        # is embedded by reference.
        return self._new_slot(tensor, _CONST)

    def slot_of(self, tensor: Tensor) -> int | None:
        """Slot index if ``tensor`` was seen during this capture."""
        return self._slot_of.get(id(tensor))

    def record(self, out: Tensor, parents, capture) -> None:
        if self.failed is not None:
            return
        if capture is None:
            self.fail("op without capture metadata reached Tensor.from_op "
                      "(custom or un-instrumented op)")
            return
        name, params = capture
        if name not in _KERNELS:
            self.fail(f"no plan kernel registered for op {name!r}")
            return
        in_slots = [self.slot_for(parent) for parent, _ in parents]
        step_index = len(self.steps)
        out_slot = self._new_slot(out, _STEP, producer=step_index)
        self.steps.append(_Step(name, params, in_slots, out_slot))

    def alias(self, out: Tensor, source: Tensor) -> None:
        """``detach()``-style alias: same data, same slot."""
        if self.failed is not None:
            return
        slot = self.slot_for(source)
        self._slot_of[id(out)] = slot
        self._keepalive.append(out)


# ----------------------------------------------------------------------
# Compilation: arena, liveness, kernel builders
# ----------------------------------------------------------------------
class _Storage:
    __slots__ = ("block", "last", "arena")

    def __init__(self, block: np.ndarray | None, last: int, arena: bool):
        self.block = block
        self.last = last
        self.arena = arena


def _nbytes(shape, dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _layout_permutation(value: np.ndarray):
    """Axes such that ``value.transpose(axes)`` is C-contiguous, or None.

    numpy ufuncs write their result in the *iteration* order of their
    inputs, so the tape routinely produces permuted-contiguous arrays
    (e.g. ``mul`` over two transposed views).  Replay buffers must
    replicate that layout — BLAS consumers pick their accumulation path
    from operand strides, and a layout mismatch costs a ulp.  Size-1
    axes carry arbitrary strides and are ignored.
    """
    axes = sorted(range(value.ndim),
                  key=lambda i: (value.shape[i] == 1, -value.strides[i], i))
    expected = value.itemsize
    for axis in reversed(axes):
        if value.shape[axis] == 1:
            continue
        if value.strides[axis] != expected:
            return None
        expected *= value.shape[axis]
    return axes


class _Ctx:
    """Per-step interface handed to kernel builders."""

    def __init__(self, compiler: "_Compiler", step: _Step):
        self._compiler = compiler
        self._step = step
        self.params = step.params
        out = compiler.slots[step.out_slot].value
        self.out_shape = out.shape
        self.out_dtype = out.dtype
        self._out_assigned = False

    @property
    def n_inputs(self) -> int:
        return len(self._step.in_slots)

    def inp(self, i: int) -> np.ndarray:
        """The runtime buffer (or baked constant) for input ``i``."""
        return self._compiler.buffers[self._step.in_slots[i]]

    def cap(self, i: int) -> np.ndarray:
        """The capture-time value of input ``i`` (for compile-time probes)."""
        return self._compiler.slots[self._step.in_slots[i]].value

    def is_const(self, i: int) -> bool:
        return self._compiler.slots[self._step.in_slots[i]].kind == _CONST

    def fail(self, reason: str):
        raise PlanCaptureError(f"op {self._step.op!r}: {reason}")

    def contiguous_inp(self, i: int) -> np.ndarray:
        """Input ``i`` as a C-contiguous array, copying via a replay step
        only when the buffer is dynamic and strided."""
        arr = self.inp(i)
        if arr.flags["C_CONTIGUOUS"]:
            return arr
        if self.is_const(i):
            return np.ascontiguousarray(arr)
        copy = self.scratch(arr.shape, arr.dtype)
        self.emit(lambda copy=copy, arr=arr: np.copyto(copy, arr))
        return copy

    def alloc_out(self, inplace: tuple[int, ...] = ()) -> tuple[np.ndarray, int | None]:
        """Allocate the output buffer, fusing in place onto a dying input
        when the kernel declared that input alias-safe.  Returns
        ``(buffer, fused_input_index_or_None)``."""
        comp, step = self._compiler, self._step
        shape, dtype = self.out_shape, self.out_dtype
        cap_out = comp.slots[step.out_slot].value
        if cap_out.ndim <= 1 or cap_out.flags["C_CONTIGUOUS"]:
            for idx in inplace:
                slot = step.in_slots[idx]
                storage_index = comp.slot_storage.get(slot)
                if storage_index is None:
                    continue
                storage = comp.storages[storage_index]
                buffer = comp.buffers[slot]
                if (storage.arena and storage.last == comp.index
                        and buffer.shape == shape and buffer.dtype == dtype
                        and buffer.flags["C_CONTIGUOUS"]):
                    storage.last = max(storage.last, comp.slot_last_of(step.out_slot))
                    comp.bind_out(step.out_slot, buffer, storage_index)
                    comp.plan.fused_steps += 1
                    self._out_assigned = True
                    return buffer, idx
        buffer, storage_index = comp.alloc_buffer(
            shape, dtype, last=comp.slot_last_of(step.out_slot), like=cap_out)
        comp.bind_out(step.out_slot, buffer, storage_index)
        self._out_assigned = True
        return buffer, None

    def out_view(self, array: np.ndarray, base: int = 0) -> None:
        """Register the output as a compile-time view of input ``base``."""
        comp, step = self._compiler, self._step
        base_slot = step.in_slots[base]
        storage_index = comp.slot_storage.get(base_slot)
        if storage_index is None:
            # view of a constant with a dynamic sibling cannot happen
            # (such steps fold); guard anyway.
            self.fail("view of a non-arena buffer")
        storage = comp.storages[storage_index]
        storage.last = max(storage.last, comp.slot_last_of(step.out_slot))
        comp.bind_out(step.out_slot, array, storage_index)
        self._out_assigned = True

    def scratch(self, shape, dtype) -> np.ndarray:
        """A per-step scratch buffer, recycled immediately after this step."""
        buffer, _ = self._compiler.alloc_buffer(shape, np.dtype(dtype),
                                                last=self._compiler.index)
        return buffer

    def emit(self, fn) -> None:
        self._compiler.program.append(fn)


class _Compiler:
    def __init__(self, slots: list[_Slot], steps: list[_Step], out_slot: int,
                 input_slots: list[int], plan: "Plan"):
        self.slots = slots
        self.steps = steps
        self.out_slot = out_slot
        self.plan = plan
        self.program: list = plan._program
        self.index = -1
        # buffers: slot -> ndarray used at replay (const value, arena
        # buffer, or compile-time view of an arena buffer)
        self.buffers: dict[int, np.ndarray] = {}
        self.slot_storage: dict[int, int] = {}
        self.storages: list[_Storage] = []
        self._free: dict[int, list[np.ndarray]] = {}
        self._slot_last: dict[int, int] = {}
        for i, step in enumerate(steps):
            for slot in step.in_slots:
                self._slot_last[slot] = i
        self._slot_last[out_slot] = len(steps)
        for slot_index, slot in enumerate(self.slots):
            if slot.kind == _CONST:
                self.buffers[slot_index] = slot.value
        for slot_index in input_slots:
            value = self.slots[slot_index].value
            buffer, storage_index = self.alloc_buffer(
                value.shape, value.dtype, last=self._slot_last.get(slot_index, -1))
            self.buffers[slot_index] = buffer
            self.slot_storage[slot_index] = storage_index
            plan._in_bufs.append(buffer)

    def slot_last_of(self, slot: int) -> int:
        return self._slot_last.get(slot, -1)

    def alloc_buffer(self, shape, dtype, last: int,
                     like: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        nbytes = _nbytes(shape, dtype)
        bucket = self._free.get(nbytes)
        if bucket:
            block = bucket.pop()
        else:
            block = np.empty(max(nbytes, 1), dtype=np.uint8)
            self.plan.arena_bytes += max(nbytes, 1)
            self.plan.arena_blocks += 1
        flat = block[:nbytes].view(dtype)
        buffer = None
        if like is not None and like.ndim > 1 and not like.flags["C_CONTIGUOUS"]:
            axes = _layout_permutation(like)
            if axes is None:
                raise PlanCaptureError(
                    f"cannot replicate output layout {like.strides} "
                    f"for shape {like.shape}")
            inverse = np.argsort(axes)
            buffer = flat.reshape(tuple(shape[a] for a in axes)).transpose(inverse)
        if buffer is None:
            buffer = flat.reshape(shape)
        self.storages.append(_Storage(block, last, arena=True))
        return buffer, len(self.storages) - 1

    def bind_out(self, slot: int, buffer: np.ndarray, storage_index: int) -> None:
        self.buffers[slot] = buffer
        self.slot_storage[slot] = storage_index

    def run(self) -> None:
        for i, step in enumerate(self.steps):
            self.index = i
            builder = _KERNELS.get(step.op)
            if builder is None:
                raise PlanCaptureError(f"no plan kernel registered for op {step.op!r}")
            ctx = _Ctx(self, step)
            builder(ctx)
            if not ctx._out_assigned:
                raise PlanCaptureError(f"kernel for {step.op!r} did not bind an output")
            # recycle every storage whose last consumer just ran
            for storage in self.storages:
                if storage.last == i and storage.arena and storage.block is not None:
                    self._free.setdefault(storage.block.nbytes, []).append(storage.block)
                    storage.block = None


# ----------------------------------------------------------------------
# Kernel builders — each replicates its tape op's exact numpy expression
# (same ufuncs, operand order and layouts) so replays stay bitwise
# identical; only result placement changes (``out=`` into the arena).
# ----------------------------------------------------------------------
def _register_binary_ufunc(name: str, ufunc):
    @register_kernel(name)
    def _build(ctx, ufunc=ufunc):
        a, b = ctx.inp(0), ctx.inp(1)
        out, _ = ctx.alloc_out(inplace=(0, 1))
        ctx.emit(lambda a=a, b=b, out=out: ufunc(a, b, out=out))


def _register_unary_ufunc(name: str, ufunc):
    @register_kernel(name)
    def _build(ctx, ufunc=ufunc):
        x = ctx.inp(0)
        out, _ = ctx.alloc_out(inplace=(0,))
        ctx.emit(lambda x=x, out=out: ufunc(x, out=out))


_register_binary_ufunc("add", np.add)
_register_binary_ufunc("sub", np.subtract)
_register_binary_ufunc("mul", np.multiply)
_register_binary_ufunc("div", np.divide)
_register_unary_ufunc("neg", np.negative)
_register_unary_ufunc("exp", np.exp)
_register_unary_ufunc("log", np.log)
_register_unary_ufunc("sqrt", np.sqrt)
_register_unary_ufunc("tanh", np.tanh)
_register_unary_ufunc("abs", np.abs)


@register_kernel("pow")
def _build_pow(ctx):
    x = ctx.inp(0)
    exponent = ctx.params["exponent"]
    out, _ = ctx.alloc_out(inplace=(0,))
    ctx.emit(lambda x=x, e=exponent, out=out: np.power(x, e, out=out))


@register_kernel("clip")
def _build_clip(ctx):
    x = ctx.inp(0)
    low, high = ctx.params["low"], ctx.params["high"]
    out, _ = ctx.alloc_out(inplace=(0,))
    ctx.emit(lambda x=x, low=low, high=high, out=out: np.clip(x, low, high, out=out))


def _emit_select(ctx, out, fused, mask_fn, a, b):
    """Shared tail of where/maximum/minimum: ``np.where(mask, a, b)``
    semantics via masked copies.  ``mask_fn`` fills a boolean scratch each
    replay (or is a baked constant mask for static conditions)."""
    shape = ctx.out_shape
    a_b = np.broadcast_to(a, shape)
    b_b = np.broadcast_to(b, shape)
    if callable(mask_fn):
        mask = ctx.scratch(shape, np.bool_)
        ctx.emit(lambda mask=mask, fn=mask_fn: fn(mask))
    else:
        mask = np.broadcast_to(mask_fn, shape)
    if fused == 0:
        # out already holds a: overwrite only where the mask picks b
        if callable(mask_fn):
            def _inv(out=out, b_b=b_b, mask=mask):
                np.logical_not(mask, out=mask)
                np.copyto(out, b_b, where=mask)
            ctx.emit(_inv)
        else:
            inv = ~mask
            ctx.emit(lambda out=out, b_b=b_b, inv=inv: np.copyto(out, b_b, where=inv))
    elif fused == 1:
        ctx.emit(lambda out=out, a_b=a_b, mask=mask: np.copyto(out, a_b, where=mask))
    else:
        def _select(out=out, a_b=a_b, b_b=b_b, mask=mask):
            np.copyto(out, b_b)
            np.copyto(out, a_b, where=mask)
        ctx.emit(_select)


@register_kernel("maximum")
def _build_maximum(ctx):
    a, b = ctx.inp(0), ctx.inp(1)
    out, fused = ctx.alloc_out(inplace=(0, 1))
    _emit_select(ctx, out, fused,
                 lambda mask, a=a, b=b: np.greater_equal(a, b, out=mask), a, b)


@register_kernel("minimum")
def _build_minimum(ctx):
    a, b = ctx.inp(0), ctx.inp(1)
    out, fused = ctx.alloc_out(inplace=(0, 1))
    _emit_select(ctx, out, fused,
                 lambda mask, a=a, b=b: np.less_equal(a, b, out=mask), a, b)


@register_kernel("where")
def _build_where(ctx):
    condition = ctx.params["cond"]
    if isinstance(condition, Tensor):
        ctx.fail("condition is a traced tensor (data-dependent selection); "
                 "plans only support static conditions")
    cond = np.asarray(condition, dtype=bool)
    a, b = ctx.inp(0), ctx.inp(1)
    out, fused = ctx.alloc_out(inplace=(0, 1))
    _emit_select(ctx, out, fused, cond, a, b)


@register_kernel("sigmoid")
def _build_sigmoid(ctx):
    x = ctx.inp(0)
    mask = ctx.scratch(ctx.out_shape, np.bool_)
    e = ctx.scratch(ctx.out_shape, ctx.out_dtype)
    denom = ctx.scratch(ctx.out_shape, ctx.out_dtype)
    out, _ = ctx.alloc_out(inplace=(0,))

    def _sigmoid(x=x, mask=mask, e=e, denom=denom, out=out):
        np.greater_equal(x, 0, out=mask)
        np.abs(x, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(1.0, e, out=denom)
        np.divide(e, denom, out=out)        # negative branch e/(1+e)
        np.divide(1.0, denom, out=denom)    # positive branch 1/(1+e)
        np.copyto(out, denom, where=mask)

    ctx.emit(_sigmoid)


@register_kernel("softplus")
def _build_softplus(ctx):
    x = ctx.inp(0)
    tail = ctx.scratch(ctx.out_shape, ctx.out_dtype)
    out, _ = ctx.alloc_out(inplace=(0,))

    def _softplus(x=x, tail=tail, out=out):
        np.abs(x, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(x, 0.0, out=out)
        np.add(out, tail, out=out)

    ctx.emit(_softplus)


@register_kernel("leaky_relu")
def _build_leaky_relu(ctx):
    x = ctx.inp(0)
    slope = ctx.params["negative_slope"]
    mask = ctx.scratch(ctx.out_shape, np.bool_)
    scale = ctx.scratch(ctx.out_shape, ctx.out_dtype)
    out, _ = ctx.alloc_out(inplace=(0,))

    def _leaky(x=x, slope=slope, mask=mask, scale=scale, out=out):
        np.greater_equal(x, 0, out=mask)
        scale.fill(slope)
        np.copyto(scale, 1.0, where=mask)
        np.multiply(x, scale, out=out)

    ctx.emit(_leaky)


@register_kernel("sum")
def _build_sum(ctx):
    x = ctx.inp(0)
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    out, _ = ctx.alloc_out()
    ctx.emit(lambda x=x, axis=axis, keepdims=keepdims, out=out:
             np.sum(x, axis=axis, keepdims=keepdims, out=out))


@register_kernel("mean")
def _build_mean(ctx):
    x = ctx.inp(0)
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    out, _ = ctx.alloc_out()
    ctx.emit(lambda x=x, axis=axis, keepdims=keepdims, out=out:
             np.mean(x, axis=axis, keepdims=keepdims, out=out))


@register_kernel("max")
def _build_max(ctx):
    x = ctx.inp(0)
    axis, keepdims = ctx.params["axis"], ctx.params["keepdims"]
    out, _ = ctx.alloc_out()
    ctx.emit(lambda x=x, axis=axis, keepdims=keepdims, out=out:
             np.max(x, axis=axis, keepdims=keepdims, out=out))


@register_kernel("detached_max")
def _build_detached_max(ctx):
    x = ctx.inp(0)
    axis = ctx.params["axis"]
    out, _ = ctx.alloc_out()
    ctx.emit(lambda x=x, axis=axis, out=out:
             np.max(x, axis=axis, keepdims=True, out=out))


def _out_form_is_bitwise(fn, cap_operands, shape, dtype) -> bool:
    """Probe whether ``fn(..., out=)`` matches the allocating form bitwise
    on the capture-time operands.  numpy's ``out=`` dispatch can take a
    different accumulation path for some shapes (observed: stacked-gemm
    ``matmul`` differs by 1 ulp), and which path is taken depends only on
    shapes/layouts — which the arena buffers replicate — so a single
    capture-time probe decides correctly for every replay."""
    want = fn(*cap_operands)
    probe = np.empty(shape, dtype=dtype)
    fn(*cap_operands, out=probe)
    return _bitwise_equal(np.asarray(want), probe)


@register_kernel("matmul")
def _build_matmul(ctx):
    a, b = ctx.inp(0), ctx.inp(1)
    out, _ = ctx.alloc_out()
    if _out_form_is_bitwise(np.matmul, (ctx.cap(0), ctx.cap(1)),
                            ctx.out_shape, ctx.out_dtype):
        ctx.emit(lambda a=a, b=b, out=out: np.matmul(a, b, out=out))
    else:
        ctx.emit(lambda a=a, b=b, out=out: np.copyto(out, np.matmul(a, b)))


@register_kernel("einsum")
def _build_einsum(ctx):
    subscripts = ctx.params["subscripts"]
    operands = [ctx.inp(i) for i in range(ctx.n_inputs)]
    cap_operands = [ctx.cap(i) for i in range(ctx.n_inputs)]
    out, _ = ctx.alloc_out()
    want = np.einsum(subscripts, *cap_operands)
    probe = np.empty(ctx.out_shape, dtype=ctx.out_dtype)
    np.einsum(subscripts, *cap_operands, out=probe)
    if _bitwise_equal(np.asarray(want), probe):
        ctx.emit(lambda subscripts=subscripts, operands=operands, out=out:
                 np.einsum(subscripts, *operands, out=out))
    else:
        ctx.emit(lambda subscripts=subscripts, operands=operands, out=out:
                 np.copyto(out, np.einsum(subscripts, *operands)))


@register_kernel("copy")
def _build_copy(ctx):
    x = ctx.inp(0)
    out, _ = ctx.alloc_out()
    ctx.emit(lambda x=x, out=out: np.copyto(out, x))


# -- shape ops: compile-time views where numpy gives a view, arena
#    copies (no replay allocation) where numpy would copy --------------
@register_kernel("reshape")
def _build_reshape(ctx):
    x = ctx.inp(0)
    shape = tuple(ctx.params["shape"])
    candidate = x.reshape(shape)
    if x.size == 0 or np.shares_memory(candidate, x):
        ctx.out_view(candidate)
        return
    # strided source: reshape copies on the tape; copy into the arena
    # through a view of the output laid out in the source's shape.
    out, _ = ctx.alloc_out()
    dst = out.reshape(x.shape)
    ctx.emit(lambda dst=dst, x=x: np.copyto(dst, x))


@register_kernel("transpose")
def _build_transpose(ctx):
    ctx.out_view(np.transpose(ctx.inp(0), ctx.params["axes"]))


@register_kernel("swapaxes")
def _build_swapaxes(ctx):
    ctx.out_view(np.swapaxes(ctx.inp(0), ctx.params["axis1"], ctx.params["axis2"]))


@register_kernel("moveaxis")
def _build_moveaxis(ctx):
    ctx.out_view(np.moveaxis(ctx.inp(0), ctx.params["source"], ctx.params["destination"]))


@register_kernel("flip")
def _build_flip(ctx):
    ctx.out_view(np.flip(ctx.inp(0), axis=ctx.params["axis"]))


def _is_basic_index(index) -> bool:
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(item, (int, np.integer, slice, type(Ellipsis), type(None)))
               for item in items)


@register_kernel("getitem")
def _build_getitem(ctx):
    index = ctx.params["index"]
    if not _is_basic_index(index):
        ctx.fail("advanced indexing (array/boolean index) is not capturable")
    ctx.out_view(ctx.inp(0)[index])


@register_kernel("broadcast_to")
def _build_broadcast_to(ctx):
    src = np.broadcast_to(ctx.inp(0), tuple(ctx.params["shape"]))
    out, _ = ctx.alloc_out()
    ctx.emit(lambda out=out, src=src: np.copyto(out, src))


@register_kernel("repeat_interleave")
def _build_repeat_interleave(ctx):
    x = ctx.inp(0)
    repeats = ctx.params["repeats"]
    axis = ctx.params["axis"] % x.ndim
    out, _ = ctx.alloc_out()
    dst = out.reshape(x.shape[:axis + 1] + (repeats,) + x.shape[axis + 1:])
    src = np.expand_dims(x, axis + 1)
    ctx.emit(lambda dst=dst, src=src: np.copyto(dst, src))


@register_kernel("pad")
def _build_pad(ctx):
    x = ctx.inp(0)
    pad_width = ctx.params["pad_width"]
    value = ctx.params["constant_value"]
    out, _ = ctx.alloc_out()
    interior = out[tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, x.shape))]

    def _pad(out=out, interior=interior, x=x, value=value):
        out.fill(value)
        np.copyto(interior, x)

    ctx.emit(_pad)


@register_kernel("concatenate")
def _build_concatenate(ctx):
    axis = ctx.params["axis"] % len(ctx.out_shape)
    out, _ = ctx.alloc_out()
    pairs = []
    offset = 0
    for i in range(ctx.n_inputs):
        src = ctx.inp(i)
        size = src.shape[axis]
        slicer = [slice(None)] * out.ndim
        slicer[axis] = slice(offset, offset + size)
        pairs.append((out[tuple(slicer)], src))
        offset += size

    def _concat(pairs=pairs):
        for dst, src in pairs:
            np.copyto(dst, src)

    ctx.emit(_concat)


@register_kernel("stack")
def _build_stack(ctx):
    axis = ctx.params["axis"] % len(ctx.out_shape)
    out, _ = ctx.alloc_out()
    pairs = []
    for i in range(ctx.n_inputs):
        slicer = [slice(None)] * out.ndim
        slicer[axis] = i
        pairs.append((out[tuple(slicer)], ctx.inp(i)))

    def _stack(pairs=pairs):
        for dst, src in pairs:
            np.copyto(dst, src)

    ctx.emit(_stack)


# -- convolutions: the tape's own kernels, bound to arena buffers ------
def _register_conv(name: str, kernel):
    @register_kernel(name)
    def _build(ctx, kernel=kernel):
        params = ctx.params
        x, w = ctx.contiguous_inp(0), ctx.contiguous_inp(1)
        out, _ = ctx.alloc_out()
        ctx.emit(kernel(out, x, w, params["stride"], params["padding"], params["groups"],
                        scratch=ctx.scratch))


_register_conv("conv3d", conv3d_kernel)
_register_conv("conv_transpose3d", conv_transpose3d_kernel)


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class Plan:
    """A compiled, shape-specialized, replayable ``no_grad`` forward."""

    def __init__(self, input_shapes, input_dtypes, label: str | None = None):
        from repro.runtime.sync import make_lock

        self.label = label or "plan"
        self.input_shapes = [tuple(s) for s in input_shapes]
        self.input_dtypes = list(input_dtypes)
        self._lock = make_lock(f"tensor.plan.{self.label}")
        self._program: list = []
        self._in_bufs: list[np.ndarray] = []
        self._out: np.ndarray | None = None
        self.captured_steps = 0
        self.folded_steps = 0
        self.pruned_steps = 0
        self.compiled_steps = 0
        self.fused_steps = 0
        self.arena_bytes = 0
        self.arena_blocks = 0
        self.capture_s = 0.0
        self.validate_s = 0.0
        self.replays = 0
        self.replay_s_total = 0.0

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        """Replay the plan; returns a fresh array (never an arena alias)."""
        if len(inputs) != len(self._in_bufs):
            raise PlanExecutionError(
                f"plan takes {len(self._in_bufs)} inputs, got {len(inputs)}")
        with self._lock:
            started = time.perf_counter()
            for buffer, value in zip(self._in_bufs, inputs):
                value = np.asarray(value)
                if value.shape != buffer.shape or value.dtype != buffer.dtype:
                    raise PlanExecutionError(
                        f"plan compiled for {buffer.shape}/{buffer.dtype}, "
                        f"got {value.shape}/{value.dtype}")
                np.copyto(buffer, value)
            for op in self._program:
                op()
            result = self._out.copy()
            self.replays += 1
            self.replay_s_total += time.perf_counter() - started
        return result

    def stats(self) -> dict:
        with self._lock:
            replays, replay_s = self.replays, self.replay_s_total
        return {
            "label": self.label,
            "input_shapes": [list(s) for s in self.input_shapes],
            "captured_steps": self.captured_steps,
            "folded_steps": self.folded_steps,
            "pruned_steps": self.pruned_steps,
            "compiled_steps": self.compiled_steps,
            "program_ops": len(self._program),
            "fused_steps": self.fused_steps,
            "arena_bytes": self.arena_bytes,
            "arena_blocks": self.arena_blocks,
            "capture_s": round(self.capture_s, 6),
            "validate_s": round(self.validate_s, 6),
            "replays": replays,
            "replay_s_total": round(replay_s, 6),
        }


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def _compile(builder: _Builder, out_tensor: Tensor, input_slots: list[int],
             plan: Plan) -> None:
    out_slot = builder.slot_of(out_tensor)
    if out_slot is None:
        raise PlanCaptureError("the traced callable returned a tensor created "
                               "outside the captured op graph")
    slots, steps = builder.slots, builder.steps
    plan.captured_steps = len(steps)

    # constant folding: a step whose inputs are all static produced its
    # (weight-derived) value during capture; bake it and drop the step.
    static = [slot.kind == _CONST for slot in slots]
    dynamic_steps: list[_Step] = []
    for step in steps:
        if all(static[s] for s in step.in_slots):
            static[step.out_slot] = True
            slots[step.out_slot].kind = _CONST
        else:
            dynamic_steps.append(step)
    plan.folded_steps = len(steps) - len(dynamic_steps)

    # dead-code elimination: keep only steps the output depends on
    producer = {step.out_slot: step for step in dynamic_steps}
    needed: set[int] = set()
    frontier = [out_slot]
    while frontier:
        slot = frontier.pop()
        if slot in needed:
            continue
        needed.add(slot)
        step = producer.get(slot)
        if step is not None:
            frontier.extend(step.in_slots)
    live_steps = [step for step in dynamic_steps if step.out_slot in needed]
    plan.pruned_steps = len(dynamic_steps) - len(live_steps)
    plan.compiled_steps = len(live_steps)

    compiler = _Compiler(slots, live_steps, out_slot, input_slots, plan)
    compiler.run()
    plan._out = compiler.buffers[out_slot]


def capture(fn, *examples, validate: bool = True, validation_inputs=None,
            label: str | None = None) -> Plan:
    """Trace one ``no_grad`` call of ``fn`` on ``examples`` into a Plan.

    ``fn`` maps Tensors to one Tensor; ``examples`` are ndarrays fixing
    the (shape, dtype) specialization.  ``validate`` replays the capture
    input (bitwise against the traced output) and one generated — or each
    caller-supplied ``validation_inputs`` tuple — input (bitwise against
    a fresh tape forward); the second input is what catches accidentally
    baked data-dependent values.  Raises :class:`PlanCaptureError` on any
    unsupported op or identity mismatch — callers keep the tape path.
    """
    if getattr(_state, "plan_builder", None) is not None:
        raise PlanCaptureError("capture() is not reentrant")
    examples = [np.asarray(e) for e in examples]
    if not examples:
        raise ValueError("capture() needs at least one example input")
    plan = Plan([e.shape for e in examples], [e.dtype for e in examples],
                label=label)
    builder = _Builder()
    started = time.perf_counter()
    _state.plan_builder = builder
    try:
        with no_grad():
            tensors = [Tensor(e) for e in examples]
            input_slots = [builder.add_input(t) for t in tensors]
            try:
                traced = fn(*tensors)
            except PlanError:
                raise
            except Exception as error:
                raise PlanCaptureError(f"traced forward raised {error!r}") from error
    finally:
        _state.plan_builder = None
    if builder.failed is not None:
        raise PlanCaptureError(builder.failed)
    if not isinstance(traced, Tensor):
        raise PlanCaptureError("traced callable must return a single Tensor")
    _compile(builder, traced, input_slots, plan)
    plan.capture_s = time.perf_counter() - started

    if validate:
        started = time.perf_counter()
        replayed = plan.run(*examples)
        if not _bitwise_equal(replayed, np.asarray(traced.data)):
            raise PlanCaptureError(
                "plan replay of the capture input diverged from the traced "
                "output (kernel identity violation)")
        if validation_inputs is None:
            rng = np.random.default_rng(0x5EED)
            validation_inputs = [tuple(
                rng.standard_normal(e.shape).astype(e.dtype, copy=False)
                if np.issubdtype(e.dtype, np.floating) else e.copy()
                for e in examples)]
        for values in validation_inputs:
            values = [np.asarray(v) for v in values]
            with no_grad():
                expected = fn(*[Tensor(v) for v in values]).data
            got = plan.run(*values)
            if not _bitwise_equal(got, np.asarray(expected)):
                raise PlanCaptureError(
                    "plan replay diverged from the tape on a validation input "
                    "(data-dependent value baked into the plan?)")
        plan.validate_s = time.perf_counter() - started
    return plan
