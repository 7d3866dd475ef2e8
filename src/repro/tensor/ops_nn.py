"""Convolution primitives (1D/3D, grouped, transposed) with backward rules.

A forward convolution runs one GEMM per tile of rows, with tiles sized
so that no scratch buffer outgrows :data:`COLUMN_BYTES`.  The kernels
take their output and a scratch allocator as arguments (destination
passing): the autograd tape hands them numpy allocations, and a caller
that keeps its own buffers can bind those instead.
:func:`conv3d_kernel` gathers each tile's input windows into columns
(im2col) and multiplies them straight into the output; a stride-1
convolution with fewer output than input channels per group (a
one-channel head) instead multiplies every kernel offset's weights with
the input at once and shift-adds the products.
:func:`conv_transpose3d_kernel` is that second form with the shifts
reversed.  The backward passes run on the same kernels: a convolution's
input gradient is the transposed convolution of the output gradient
with the same weight, a transposed convolution's is the convolution,
and either weight gradient multiplies one operand's rows by the other's
im2col columns, tile by tile (:func:`_weight_grad`).

Shape conventions follow torch:

* ``conv3d``:            x ``(B, Cin, D, H, W)``, w ``(Cout, Cin/G, kd, kh, kw)``
* ``conv_transpose3d``:  x ``(B, Cin, D, H, W)``, w ``(Cin, Cout/G, kd, kh, kw)``
* ``conv1d``:            x ``(B, Cin, L)``,       w ``(Cout, Cin/G, k)``
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, ensure_tensor

#: Bound in bytes on a convolution's column scratch (one row may exceed
#: it); chosen by measurement, see docs/performance.md, "Convolution kernels".
COLUMN_BYTES = 2 << 20


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return tuple(int(v) for v in value)
    return (int(value),) * 3


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _tiles(batch: int, depth: int, rows: int, row_bytes: int) -> list[tuple]:
    """Tiles ``(b0, b1, d0, d1, h0, h1)`` of ``batch`` samples of ``depth x
    rows`` rows, each at most :data:`COLUMN_BYTES` at ``row_bytes`` a row
    (or one row): whole samples, else depth slices, else rows of a slice.
    Tiles depend on the shapes alone; the first is the largest."""
    fit = max(1, COLUMN_BYTES // max(row_bytes, 1))
    if fit >= depth * rows:
        step = fit // (depth * rows)
        return [(b, min(b + step, batch), 0, depth, 0, rows)
                for b in range(0, batch, step)]
    if fit >= rows:
        step = fit // rows
        return [(b, b + 1, d, min(d + step, depth), 0, rows)
                for b in range(batch) for d in range(0, depth, step)]
    return [(b, b + 1, d, d + 1, h, min(h + fit, rows))
            for b in range(batch) for d in range(depth) for h in range(0, rows, fit)]


def _require_contiguous(*arrays) -> None:
    # kernels bind views of their operands once, so a reshape must never copy
    if not all(array.flags["C_CONTIGUOUS"] for array in arrays):
        raise ValueError("convolution kernels need C-contiguous operands")


def _im2col(x, kernel, out_sizes, stride, padding, groups, scratch) -> list[tuple]:
    """Bind the column gather of a convolution of ``x`` by a ``kernel``-sized
    weight into an output of spatial size ``out_sizes``, per :func:`_tiles`
    tile: ``(samples, voxels, col, gather)``, the tile's samples and slice
    of the flattened output voxels, its columns ``(nb, G, Cin/G*kd*kh*kw,
    voxels)``, and a callable that copies the input rows the tile reads
    into a zero-padded box and the box's windows into the columns."""
    batch, cin, depth, height, width = x.shape
    kd, kh, kw = kernel
    do, ho, wo = out_sizes
    (sd, sh, sw), (pd, ph, pw) = stride, padding
    k, wp = cin // groups * kd * kh * kw, width + 2 * pw
    tiles = _tiles(batch, do, ho, groups * k * wo * x.itemsize)
    b0, b1, d0, d1, h0, h1 = tiles[0]
    cols = scratch(((b1 - b0) * (d1 - d0) * (h1 - h0) * cin * kd * kh * kw * wo,), x.dtype)
    boxes = scratch(((b1 - b0) * cin * ((d1 - d0 - 1) * sd + kd)
                     * ((h1 - h0 - 1) * sh + kh) * wp,), x.dtype)
    steps = []
    for b0, b1, d0, d1, h0, h1 in tiles:
        nb, td, th = b1 - b0, d1 - d0, h1 - h0
        nd, nh = (td - 1) * sd + kd, (th - 1) * sh + kh
        zd, zh = d0 * sd - pd, h0 * sh - ph   # the box's first input slice and row
        src = x[b0:b1, :, max(zd, 0):max(zd + nd, 0), max(zh, 0):max(zh + nh, 0)]
        box = boxes[:nb * cin * nd * nh * wp].reshape(nb, cin, nd, nh, wp)
        interior = box[:, :, max(-zd, 0):max(-zd, 0) + src.shape[2],
                       max(-zh, 0):max(-zh, 0) + src.shape[3], pw:pw + width]
        windows = sliding_window_view(box, (kd, kh, kw), axis=(2, 3, 4))
        windows = windows[:, :, ::sd, ::sh, ::sw].transpose(0, 1, 5, 6, 7, 2, 3, 4)
        col = cols[:windows.size]
        steps.append((slice(b0, b1), slice((d0 * ho + h0) * wo, ((d1 - 1) * ho + h1) * wo),
                      col.reshape(nb, groups, k, td * th * wo),
                      functools.partial(_gather, box, interior, src,
                                        col.reshape(windows.shape), windows)))
    return steps


def _gather(box, interior, src, col, windows) -> None:
    box.fill(0.0)
    np.copyto(interior, src)
    np.copyto(col, windows)


def _im2col_gemm(out, x, w, stride, padding, groups, scratch):
    """Bind ``out = conv3d(x, w)``: per tile, gather the columns
    (:func:`_im2col`) and multiply once, straight into the output."""
    batch, cout = out.shape[:2]
    wg = w.reshape(groups, cout // groups, -1)
    out_rows = out.reshape(batch, groups, cout // groups, -1)
    steps = [(gather, col, out_rows[samples, :, :, voxels]) for samples, voxels, col, gather
             in _im2col(x, w.shape[2:], out.shape[2:], stride, padding, groups, scratch)]

    def run():
        for gather, col, target in steps:
            gather()
            np.matmul(wg, col, out=target)

    return run


def _weight_grad(gout, x, w_shape, stride, padding, groups: int) -> np.ndarray:
    """Gradient w.r.t. ``w`` of ``sum(gout * conv3d(x, w))``: per
    :func:`_im2col` tile, ``gout``'s rows times the columns' transpose,
    summed over the tile's samples.  With ``x`` and ``gout`` swapped it is
    a transposed convolution's weight gradient."""
    stride, padding = _triple(stride), _triple(padding)
    batch, rows = gout.shape[:2]
    gw = np.zeros((groups, rows // groups, int(np.prod(w_shape[1:]))), dtype=x.dtype)
    if gout.size and x.size:
        gout_rows = gout.reshape(batch, groups, rows // groups, -1)
        for samples, voxels, col, gather in _im2col(x, w_shape[2:], gout.shape[2:], stride,
                                                     padding, groups, np.empty):
            gather()
            gw += np.matmul(gout_rows[samples, :, :, voxels], col.swapaxes(2, 3)).sum(axis=0)
    return gw.reshape(w_shape)


def _hits(q0: int, q1: int, stride: int, shift: int, size: int):
    """Input positions ``q`` in ``[q0, q1)`` that land inside an output of
    ``size`` at ``q * stride + shift``: (tile-local source slice, output
    slice), or None when there are none."""
    lo = max(q0, -(shift // stride))
    hi = min(q1, (size - 1 - shift) // stride + 1)
    if lo >= hi:
        return None
    return (slice(lo - q0, hi - q0),
            slice(lo * stride + shift, (hi - 1) * stride + shift + 1, stride))


def _gemm_shift_add(out, x, w6, stride, padding, sign, scratch):
    """Bind ``out[b, g, o, q*stride + sign*(t - padding)] += w6[g, o, :, t] @ x[b, g, :, q]``
    over input positions ``q`` and kernel offsets ``t`` (per axis), where
    ``w6`` is ``(G, O, C, kd, kh, kw)``: one GEMM per tile multiplies every
    offset's weights at once, then each product is added at its shift."""
    groups, og, cg, kd, kh, kw = w6.shape
    taps = kd * kh * kw
    batch, _, depth, height, width = x.shape
    do, ho, wo = out.shape[2:]
    wt = scratch((groups, taps * og, cg), w6.dtype)
    x_rows = x.reshape(batch, groups, cg, depth * height * width)
    out6 = out.reshape(batch, groups, og, do, ho, wo)
    tiles = _tiles(batch, depth, height, groups * taps * og * width * out.itemsize)
    b0, b1, d0, d1, h0, h1 = tiles[0]
    prods = scratch(((b1 - b0) * (d1 - d0) * (h1 - h0) * groups * taps * og * width,),
                    out.dtype)
    steps = []
    for b0, b1, d0, d1, h0, h1 in tiles:
        nb, td, th = b1 - b0, d1 - d0, h1 - h0
        prod = prods[:nb * groups * taps * og * td * th * width]
        prod9 = prod.reshape(nb, groups, kd, kh, kw, og, td, th, width)
        adds = []
        for i, j, k in itertools.product(range(kd), range(kh), range(kw)):
            shift = [sign * (t - p) for t, p in zip((i, j, k), padding)]
            hits = (_hits(d0, d1, stride[0], shift[0], do),
                    _hits(h0, h1, stride[1], shift[1], ho),
                    _hits(0, width, stride[2], shift[2], wo))
            if None in hits:
                continue
            (qd, od), (qh, oh), (qw, ow) = hits
            adds.append((out6[b0:b1, :, :, od, oh, ow], prod9[:, :, i, j, k, :, qd, qh, qw]))
        steps.append((x_rows[b0:b1, :, :, (d0 * height + h0) * width:((d1 - 1) * height + h1) * width],
                       prod.reshape(nb, groups, taps * og, td * th * width), adds))

    def run():
        np.copyto(wt.reshape(groups, kd, kh, kw, og, cg), w6.transpose(0, 3, 4, 5, 1, 2))
        out.fill(0.0)
        for src, prod, adds in steps:
            np.matmul(wt, src, out=prod)
            for target, part in adds:
                np.add(target, part, out=target)

    return run


def conv3d_kernel(out, x, w, stride, padding, groups: int, scratch=np.empty):
    """Bind the grouped 3D cross-correlation ``out = conv3d(x, w)``: return a
    callable computing it from the current contents of ``x`` and ``w``
    (all C-contiguous), with scratch taken once from ``scratch(shape,
    dtype)``.  The same shapes run the same GEMMs, so results are bitwise
    reproducible whichever buffers the caller binds."""
    stride, padding = _triple(stride), _triple(padding)
    _require_contiguous(out, x, w)
    if out.size == 0 or x.size == 0:
        return lambda: out.fill(0.0)
    cout, cg, kd, kh, kw = w.shape
    if stride == (1, 1, 1) and cout // groups < cg:
        # out[p] gathers x[p + t - padding], so x[q] lands at q - (t - padding)
        w6 = w.reshape(groups, cout // groups, cg, kd, kh, kw)
        return _gemm_shift_add(out, x, w6, stride, padding, -1, scratch)
    return _im2col_gemm(out, x, w, stride, padding, groups, scratch)


def _run(kernel, shape, x, w, *args) -> np.ndarray:
    """Bind ``kernel`` to a new ``shape`` output and C-contiguous ``x`` and
    ``w``, and run it once."""
    out = np.empty(shape, dtype=x.dtype)
    kernel(out, np.ascontiguousarray(x), np.ascontiguousarray(w), *args)()
    return out


def conv3d_forward(x: np.ndarray, w: np.ndarray, stride, padding, groups: int) -> np.ndarray:
    """Raw-numpy grouped 3D cross-correlation (see :func:`conv3d_kernel`)."""
    stride, padding = _triple(stride), _triple(padding)
    out_sizes = tuple(
        _out_size(x.shape[2 + i], w.shape[2 + i], stride[i], padding[i]) for i in range(3)
    )
    return _run(conv3d_kernel, (x.shape[0], w.shape[0]) + out_sizes, x, w, stride, padding, groups)


def conv_transpose3d_kernel(out, x, w, stride, padding, groups: int, scratch=np.empty):
    """Bind the grouped transposed convolution ``out = conv_transpose3d(x, w)``
    as :func:`conv3d_kernel` binds a convolution: input voxel ``q`` and offset
    ``t`` land at ``q * stride + t - padding``, and ``out``'s shape carries
    any output padding."""
    stride, padding = _triple(stride), _triple(padding)
    _require_contiguous(out, x, w)
    if out.size == 0 or x.size == 0:
        return lambda: out.fill(0.0)
    cin, og, kd, kh, kw = w.shape
    w6 = w.reshape(groups, cin // groups, og, kd, kh, kw).transpose(0, 2, 1, 3, 4, 5)
    return _gemm_shift_add(out, x, w6, stride, padding, 1, scratch)


def conv_transpose3d_forward(x: np.ndarray, w: np.ndarray, stride, padding, output_padding, groups: int) -> np.ndarray:
    """Raw-numpy grouped transposed 3D convolution (see :func:`conv_transpose3d_kernel`)."""
    stride, padding, output_padding = _triple(stride), _triple(padding), _triple(output_padding)
    if any(op >= s for op, s in zip(output_padding, stride)):
        # as in torch; the input gradient's convolution relies on it
        raise ValueError(f"output padding {output_padding} must be below the stride {stride}")
    out_sizes = tuple(
        (x.shape[2 + i] - 1) * stride[i] + w.shape[2 + i] + output_padding[i] - 2 * padding[i]
        for i in range(3)
    )
    return _run(conv_transpose3d_kernel, (x.shape[0], groups * w.shape[1]) + out_sizes, x, w,
                stride, padding, groups)


# ----------------------------------------------------------------------
# Tensor-level differentiable ops
# ----------------------------------------------------------------------
def conv3d(x, w, bias=None, stride=1, padding=0, groups: int = 1) -> Tensor:
    """Differentiable grouped 3D convolution (cross-correlation)."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out_data = conv3d_forward(x.data, w.data, stride, padding, groups)
    parents = [
        (x, lambda g: _run(conv_transpose3d_kernel, x.shape, g, w.data, stride, padding, groups)),
        (w, lambda g: _weight_grad(g, x.data, w.shape, stride, padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents)
    if bias is not None:
        bias = ensure_tensor(bias)
        from .ops_basic import add
        from .ops_shape import reshape

        out = add(out, reshape(bias, (1, -1, 1, 1, 1)))
    return out


def conv_transpose3d(x, w, bias=None, stride=1, padding=0, output_padding=0, groups: int = 1) -> Tensor:
    """Differentiable grouped transposed 3D convolution."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out_data = conv_transpose3d_forward(x.data, w.data, stride, padding, output_padding, groups)
    parents = [
        (x, lambda g: _run(conv3d_kernel, x.shape, g, w.data, stride, padding, groups)),
        (w, lambda g: _weight_grad(x.data, g, w.shape, stride, padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents)
    if bias is not None:
        bias = ensure_tensor(bias)
        from .ops_basic import add
        from .ops_shape import reshape

        out = add(out, reshape(bias, (1, -1, 1, 1, 1)))
    return out


def conv1d(x, w, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Differentiable grouped 1D convolution, routed through conv3d."""
    from .ops_shape import reshape

    x, w = ensure_tensor(x), ensure_tensor(w)
    b, c, length = x.shape
    cout, cg, k = w.shape
    x3 = reshape(x, (b, c, 1, 1, length))
    w3 = reshape(w, (cout, cg, 1, 1, k))
    out = conv3d(x3, w3, bias=bias, stride=(1, 1, stride), padding=(0, 0, padding), groups=groups)
    return reshape(out, (b, cout, out.shape[-1]))


def upsample_nearest3d(x, scale) -> Tensor:
    """Nearest-neighbour upsampling of a (B, C, D, H, W) tensor."""
    from .ops_shape import repeat_interleave

    sd, sh, sw = _triple(scale)
    out = x
    if sd > 1:
        out = repeat_interleave(out, sd, axis=2)
    if sh > 1:
        out = repeat_interleave(out, sh, axis=3)
    if sw > 1:
        out = repeat_interleave(out, sw, axis=4)
    return out
