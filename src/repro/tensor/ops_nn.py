"""Convolution primitives (1D/3D, grouped, transposed) with backward rules.

A forward convolution runs one GEMM per tile of rows, with tiles sized
so that no scratch buffer outgrows :data:`COLUMN_BYTES`.  The kernels
take their output and a scratch allocator as arguments, so the autograd
tape (numpy allocations) and the compiled plan (:mod:`repro.tensor.plan`,
arena buffers) run the same code.  :func:`conv3d_kernel` gathers each
tile's input windows into columns (im2col) and multiplies them straight
into the output; a stride-1 convolution with fewer output than input
channels per group (a one-channel head) instead multiplies every kernel
offset's weights with the input at once and shift-adds the products.
:func:`conv_transpose3d_kernel` is that second form with the shifts
reversed.  The backward kernels loop over kernel offsets: ``kd*kh*kw``
strided einsums, scattered for the input gradient.

Shape conventions follow torch:

* ``conv3d``:            x ``(B, Cin, D, H, W)``, w ``(Cout, Cin/G, kd, kh, kw)``
* ``conv_transpose3d``:  x ``(B, Cin, D, H, W)``, w ``(Cin, Cout/G, kd, kh, kw)``
* ``conv1d``:            x ``(B, Cin, L)``,       w ``(Cout, Cin/G, k)``
"""

from __future__ import annotations

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


def _grouped(x: np.ndarray, groups: int) -> np.ndarray:
    """View (B, C, *spatial) as (B, G, C/G, *spatial)."""
    b, c = x.shape[:2]
    return x.reshape(b, groups, c // groups, *x.shape[2:])


def _pad_spatial(x: np.ndarray, padding) -> np.ndarray:
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def _offset_slices(offset, stride, out_sizes):
    """Slices selecting the input positions hit by a kernel offset."""
    return tuple(
        slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out_sizes)
    )


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


def _im2col_gemm(out, x, w, stride, padding, groups, scratch):
    """Bind ``out = conv3d(x, w)``: per tile, copy the input rows the tile
    reads into a zero-padded box, gather the box's windows into columns
    and multiply once, straight into the output."""
    batch, cin, depth, height, width = x.shape
    cout, cg, kd, kh, kw = w.shape
    do, ho, wo = out.shape[2:]
    (sd, sh, sw), (pd, ph, pw) = stride, padding
    k, wp = cg * kd * kh * kw, width + 2 * pw
    wg = w.reshape(groups, cout // groups, k)
    out_rows = out.reshape(batch, groups, cout // groups, do * ho * wo)
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
        target = out_rows[b0:b1, :, :, (d0 * ho + h0) * wo:((d1 - 1) * ho + h1) * wo]
        steps.append((box, interior, src, col.reshape(windows.shape), windows,
                      col.reshape(nb, groups, k, td * th * wo), target))

    def run():
        for box, interior, src, col8, windows, col, target in steps:
            box.fill(0.0)
            np.copyto(interior, src)
            np.copyto(col8, windows)
            np.matmul(wg, col, out=target)

    return run


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
    reproducible and the tape and a compiled plan agree bitwise."""
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


def conv3d_forward(x: np.ndarray, w: np.ndarray, stride, padding, groups: int) -> np.ndarray:
    """Raw-numpy grouped 3D cross-correlation (see :func:`conv3d_kernel`)."""
    stride, padding = _triple(stride), _triple(padding)
    out_sizes = tuple(
        _out_size(x.shape[2 + i], w.shape[2 + i], stride[i], padding[i]) for i in range(3)
    )
    out = np.empty((x.shape[0], w.shape[0]) + out_sizes, dtype=x.dtype)
    conv3d_kernel(out, np.ascontiguousarray(x), np.ascontiguousarray(w),
                  stride, padding, groups)()
    return out


def conv3d_grad_input(gout: np.ndarray, w: np.ndarray, x_shape, stride, padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv3d_forward` w.r.t. its input."""
    stride, padding = _triple(stride), _triple(padding)
    cout, cg, kd, kh, kw = w.shape
    b = x_shape[0]
    padded_shape = tuple(x_shape[2 + i] + 2 * padding[i] for i in range(3))
    out_sizes = gout.shape[2:]
    gg = _grouped(gout, groups)
    wg = w.reshape(groups, cout // groups, cg, kd, kh, kw)
    gxp = np.zeros((b, groups, cg) + padded_shape, dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, out_sizes)
        gxp[(slice(None), slice(None), slice(None)) + sl] += np.einsum(
            "bgodhw,goc->bgcdhw", gg, wg[:, :, :, offset[0], offset[1], offset[2]]
        )
    pd, ph, pw = padding
    crop = (
        slice(pd, gxp.shape[3] - pd),
        slice(ph, gxp.shape[4] - ph),
        slice(pw, gxp.shape[5] - pw),
    )
    return gxp[(slice(None), slice(None), slice(None)) + crop].reshape(x_shape)


def conv3d_grad_weight(gout: np.ndarray, x: np.ndarray, w_shape, stride, padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv3d_forward` w.r.t. the weight."""
    stride, padding = _triple(stride), _triple(padding)
    cout, cg, kd, kh, kw = w_shape
    xp = _pad_spatial(x, padding)
    xg = _grouped(xp, groups)
    gg = _grouped(gout, groups)
    out_sizes = gout.shape[2:]
    gw = np.zeros((groups, cout // groups, cg, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, out_sizes)
        patch = xg[(slice(None), slice(None), slice(None)) + sl]
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum("bgodhw,bgcdhw->goc", gg, patch)
    return gw.reshape(w_shape)


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
    out_sizes = tuple(
        (x.shape[2 + i] - 1) * stride[i] + w.shape[2 + i] + output_padding[i] - 2 * padding[i]
        for i in range(3)
    )
    out = np.empty((x.shape[0], groups * w.shape[1]) + out_sizes, dtype=x.dtype)
    conv_transpose3d_kernel(out, np.ascontiguousarray(x), np.ascontiguousarray(w),
                            stride, padding, groups)()
    return out


def conv_transpose3d_grad_input(gout: np.ndarray, w: np.ndarray, x_shape, stride, padding, output_padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv_transpose3d_forward` w.r.t. its input."""
    stride, padding, output_padding = _triple(stride), _triple(padding), _triple(output_padding)
    cin, og, kd, kh, kw = w.shape
    in_sizes = x_shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i] for i in range(3)
    )
    pd, ph, pw = padding
    gfull = np.zeros((x_shape[0], groups * og) + full_sizes, dtype=gout.dtype)
    gfull[:, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw] = gout
    gg = _grouped(gfull, groups)
    wg = w.reshape(groups, cin // groups, og, kd, kh, kw)
    gx = np.zeros((x_shape[0], groups, cin // groups) + tuple(in_sizes), dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, in_sizes)
        gx += np.einsum(
            "bgodhw,gco->bgcdhw",
            gg[(slice(None), slice(None), slice(None)) + sl],
            wg[:, :, :, offset[0], offset[1], offset[2]],
        )
    return gx.reshape(x_shape)


def conv_transpose3d_grad_weight(gout: np.ndarray, x: np.ndarray, w_shape, stride, padding, output_padding, groups: int) -> np.ndarray:
    """Gradient of :func:`conv_transpose3d_forward` w.r.t. the weight."""
    stride, padding, output_padding = _triple(stride), _triple(padding), _triple(output_padding)
    cin, og, kd, kh, kw = w_shape
    in_sizes = x.shape[2:]
    full_sizes = tuple(
        (in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i] for i in range(3)
    )
    pd, ph, pw = padding
    gfull = np.zeros((x.shape[0], gout.shape[1]) + full_sizes, dtype=gout.dtype)
    gfull[:, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw] = gout
    gg = _grouped(gfull, groups)
    xg = _grouped(x, groups)
    gw = np.zeros((groups, cin // groups, og, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = _offset_slices(offset, stride, in_sizes)
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum(
            "bgodhw,bgcdhw->gco",
            gg[(slice(None), slice(None), slice(None)) + sl],
            xg,
        )
    return gw.reshape(w_shape)


# ----------------------------------------------------------------------
# Tensor-level differentiable ops
# ----------------------------------------------------------------------
def conv3d(x, w, bias=None, stride=1, padding=0, groups: int = 1) -> Tensor:
    """Differentiable grouped 3D convolution (cross-correlation)."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out_data = conv3d_forward(x.data, w.data, stride, padding, groups)
    parents = [
        (x, lambda g: conv3d_grad_input(g, w.data, x.shape, stride, padding, groups)),
        (w, lambda g: conv3d_grad_weight(g, x.data, w.shape, stride, padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents,
                         capture=("conv3d", {"stride": stride,
                                             "padding": padding,
                                             "groups": groups}))
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
        (x, lambda g: conv_transpose3d_grad_input(g, w.data, x.shape, stride, padding, output_padding, groups)),
        (w, lambda g: conv_transpose3d_grad_weight(g, x.data, w.shape, stride, padding, output_padding, groups)),
    ]
    out = Tensor.from_op(out_data, parents,
                         capture=("conv_transpose3d",
                                  {"stride": stride, "padding": padding,
                                   "output_padding": output_padding,
                                   "groups": groups}))
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
