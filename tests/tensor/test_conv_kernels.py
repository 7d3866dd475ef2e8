"""The convolution kernels, pinned to the per-offset loops they replaced.

``conv3d_kernel`` and ``conv_transpose3d_kernel`` run a few large GEMMs
per convolution, and the backward passes run on them too.  The loop
kernels below are the forward and backward kernels as they were before:
one strided patch copy, one small matmul or einsum and one add per
kernel offset.  The GEMMs sum in another order, so the pin is a relative
tolerance of 1e-12 (float64 rounding is ~1e-16), not bitwise equality.
Bitwise equality is pinned where the arithmetic is the same: run to run,
across threads, across stale scratch contents, and across rebinding.
"""

import contextlib
import itertools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.tensor as T
from repro import nn
from repro.config import GridConfig
from repro.core import SDMPEBLoss
from repro.experiments import build_method
from repro.tensor import Tensor, ensure_tensor, no_grad, ops_nn

RELATIVE = 1e-12


def grouped(x, groups):
    """View (B, C, *spatial) as (B, G, C/G, *spatial)."""
    b, c = x.shape[:2]
    return x.reshape(b, groups, c // groups, *x.shape[2:])


def pad_spatial(x, padding):
    pd, ph, pw = padding
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def offset_slices(offset, stride, out_sizes):
    """Slices selecting the input positions hit by a kernel offset."""
    return tuple(
        slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out_sizes)
    )


def loop_conv3d(x, w, stride, padding, groups):
    """The per-offset conv3d forward (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    xp = pad_spatial(x, padding)
    cout, cg, kd, kh, kw = w.shape
    out_sizes = tuple(ops_nn._out_size(x.shape[2 + i], (kd, kh, kw)[i], stride[i], padding[i])
                      for i in range(3))
    xg = grouped(xp, groups)
    wg = w.reshape(groups, cout // groups, cg, kd, kh, kw)
    voxels = int(np.prod(out_sizes))
    batch = x.shape[0]
    out = np.zeros((batch, groups, cout // groups, voxels), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, out_sizes)
        patch = xg[(slice(None), slice(None), slice(None)) + sl]
        out += np.matmul(wg[:, :, :, offset[0], offset[1], offset[2]],
                         patch.reshape(batch, groups, cg, voxels))
    return out.reshape(batch, cout, *out_sizes)


def loop_conv3d_grad_input(gout, w, x_shape, stride, padding, groups):
    """The per-offset input gradient of conv3d (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    cout, cg, kd, kh, kw = w.shape
    padded_shape = tuple(x_shape[2 + i] + 2 * padding[i] for i in range(3))
    out_sizes = gout.shape[2:]
    gg = grouped(gout, groups)
    wg = w.reshape(groups, cout // groups, cg, kd, kh, kw)
    gxp = np.zeros((x_shape[0], groups, cg) + padded_shape, dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, out_sizes)
        gxp[(slice(None), slice(None), slice(None)) + sl] += np.einsum(
            "bgodhw,goc->bgcdhw", gg, wg[:, :, :, offset[0], offset[1], offset[2]]
        )
    pd, ph, pw = padding
    crop = (slice(pd, gxp.shape[3] - pd), slice(ph, gxp.shape[4] - ph),
            slice(pw, gxp.shape[5] - pw))
    return gxp[(slice(None), slice(None), slice(None)) + crop].reshape(x_shape)


def loop_conv3d_grad_weight(gout, x, w_shape, stride, padding, groups):
    """The per-offset weight gradient of conv3d (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    cout, cg, kd, kh, kw = w_shape
    xg = grouped(pad_spatial(x, padding), groups)
    gg = grouped(gout, groups)
    out_sizes = gout.shape[2:]
    gw = np.zeros((groups, cout // groups, cg, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, out_sizes)
        patch = xg[(slice(None), slice(None), slice(None)) + sl]
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum("bgodhw,bgcdhw->goc", gg, patch)
    return gw.reshape(w_shape)


def full_gradient(gout, in_sizes, kernel, stride, padding, output_padding):
    """A transposed convolution's output gradient, zero-padded back to the
    uncropped scatter buffer of the per-offset loop."""
    full_sizes = tuple((in_sizes[i] - 1) * stride[i] + kernel[i] + output_padding[i]
                       for i in range(3))
    pd, ph, pw = padding
    gfull = np.zeros(gout.shape[:2] + full_sizes, dtype=gout.dtype)
    gfull[:, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw] = gout
    return gfull


def loop_conv_transpose3d(x, w, stride, padding, output_padding, groups):
    """The per-offset transposed conv3d forward (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    output_padding = ops_nn._triple(output_padding)
    cin, og, kd, kh, kw = w.shape
    in_sizes = x.shape[2:]
    full_sizes = tuple((in_sizes[i] - 1) * stride[i] + (kd, kh, kw)[i] + output_padding[i]
                       for i in range(3))
    xg = grouped(x, groups)
    wg = w.reshape(groups, cin // groups, og, kd, kh, kw)
    batch = x.shape[0]
    xm = xg.reshape(batch, groups, cin // groups, int(np.prod(in_sizes)))
    full = np.zeros((batch, groups, og) + full_sizes, dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, in_sizes)
        w_off = np.swapaxes(wg[:, :, :, offset[0], offset[1], offset[2]], -1, -2)
        full[(slice(None), slice(None), slice(None)) + sl] += \
            np.matmul(w_off, xm).reshape(batch, groups, og, *in_sizes)
    pd, ph, pw = padding
    out = full[:, :, :, pd:full_sizes[0] - pd, ph:full_sizes[1] - ph, pw:full_sizes[2] - pw]
    return out.reshape(batch, groups * og, *out.shape[3:])


def loop_conv_transpose3d_grad_input(gout, w, x_shape, stride, padding, output_padding, groups):
    """The per-offset input gradient of the transposed conv3d (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    output_padding = ops_nn._triple(output_padding)
    cin, og, kd, kh, kw = w.shape
    in_sizes = x_shape[2:]
    gg = grouped(full_gradient(gout, in_sizes, (kd, kh, kw), stride, padding, output_padding),
                 groups)
    wg = w.reshape(groups, cin // groups, og, kd, kh, kw)
    gx = np.zeros((x_shape[0], groups, cin // groups) + tuple(in_sizes), dtype=gout.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, in_sizes)
        gx += np.einsum("bgodhw,gco->bgcdhw", gg[(slice(None), slice(None), slice(None)) + sl],
                        wg[:, :, :, offset[0], offset[1], offset[2]])
    return gx.reshape(x_shape)


def loop_conv_transpose3d_grad_weight(gout, x, w_shape, stride, padding, output_padding, groups):
    """The per-offset weight gradient of the transposed conv3d (the reference)."""
    stride, padding = ops_nn._triple(stride), ops_nn._triple(padding)
    output_padding = ops_nn._triple(output_padding)
    cin, og, kd, kh, kw = w_shape
    in_sizes = x.shape[2:]
    gg = grouped(full_gradient(gout, in_sizes, (kd, kh, kw), stride, padding, output_padding),
                 groups)
    xg = grouped(x, groups)
    gw = np.zeros((groups, cin // groups, og, kd, kh, kw), dtype=x.dtype)
    for offset in itertools.product(range(kd), range(kh), range(kw)):
        sl = offset_slices(offset, stride, in_sizes)
        gw[:, :, :, offset[0], offset[1], offset[2]] = np.einsum(
            "bgodhw,bgcdhw->gco", gg[(slice(None), slice(None), slice(None)) + sl], xg)
    return gw.reshape(w_shape)


def loop_conv3d_op(x, w, bias=None, stride=1, padding=0, groups=1):
    """``ops_nn.conv3d`` with the per-offset backward."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    out = Tensor.from_op(ops_nn.conv3d_forward(x.data, w.data, stride, padding, groups), [
        (x, lambda g: loop_conv3d_grad_input(g, w.data, x.shape, stride, padding, groups)),
        (w, lambda g: loop_conv3d_grad_weight(g, x.data, w.shape, stride, padding, groups)),
    ])
    return out if bias is None else T.add(out, T.reshape(bias, (1, -1, 1, 1, 1)))


def loop_conv_transpose3d_op(x, w, bias=None, stride=1, padding=0, output_padding=0,
                             groups=1):
    """``ops_nn.conv_transpose3d`` with the per-offset backward."""
    x, w = ensure_tensor(x), ensure_tensor(w)
    args = (stride, padding, output_padding, groups)
    out = Tensor.from_op(ops_nn.conv_transpose3d_forward(x.data, w.data, *args), [
        (x, lambda g: loop_conv_transpose3d_grad_input(g, w.data, x.shape, *args)),
        (w, lambda g: loop_conv_transpose3d_grad_weight(g, x.data, w.shape, *args)),
    ])
    return out if bias is None else T.add(out, T.reshape(bias, (1, -1, 1, 1, 1)))


@contextlib.contextmanager
def loop_backward():
    """Every convolution the models run, with the per-offset backward."""
    with mock.patch.object(T, "conv3d", loop_conv3d_op), \
            mock.patch.object(ops_nn, "conv3d", loop_conv3d_op), \
            mock.patch.object(T, "conv_transpose3d", loop_conv_transpose3d_op):
        yield


def vjps(op, x, w, gout, **kwargs):
    """Tape gradients of ``sum(gout * op(x, w))`` w.r.t. ``x`` and ``w``."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    op(xt, wt, **kwargs).backward(gout)
    return xt.grad, wt.grad


def relative_error(got, want):
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale else float(np.max(np.abs(got)))


def sdmpeb(grid):
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", grid)
    model.eval()
    return model


def recorded_convs(model, x):
    """Every (kind, args) forward conv call of one tape forward of ``model``."""
    calls = []
    conv, transposed = ops_nn.conv3d_forward, ops_nn.conv_transpose3d_forward

    def record_conv(*args):
        calls.append(("conv3d", args))
        return conv(*args)

    def record_transposed(*args):
        calls.append(("conv_transpose3d", args))
        return transposed(*args)

    with mock.patch.object(ops_nn, "conv3d_forward", record_conv), \
            mock.patch.object(ops_nn, "conv_transpose3d_forward", record_transposed), \
            no_grad():
        model(Tensor(x))
    return calls


DEFAULT_GRID = GridConfig()                       # 64x64x8
SMALL_GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


class TestSDMPEBShapes:
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, SMALL_GRID], ids=["64x64x8", "16x16x2"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_every_conv_matches_the_loop_kernel(self, grid, batch):
        model = sdmpeb(grid)
        x = np.random.default_rng(batch).random((batch, 1) + grid.shape)
        calls = recorded_convs(model, x)
        kinds = {kind for kind, _ in calls}
        assert kinds == {"conv3d", "conv_transpose3d"}
        for kind, args in calls:
            new = (ops_nn.conv3d_forward if kind == "conv3d"
                   else ops_nn.conv_transpose3d_forward)(*args)
            old = (loop_conv3d if kind == "conv3d" else loop_conv_transpose3d)(*args)
            shapes = (args[0].shape, args[1].shape) + tuple(args[2:])
            assert relative_error(new, old) <= RELATIVE, (kind, shapes)

    def test_full_forward_matches_the_loop_kernels(self):
        model = sdmpeb(DEFAULT_GRID)
        x = np.random.default_rng(7).random((1, 1) + DEFAULT_GRID.shape)
        with no_grad():
            new = model(Tensor(x)).numpy()
            with mock.patch.object(ops_nn, "conv3d_forward", loop_conv3d), \
                    mock.patch.object(ops_nn, "conv_transpose3d_forward",
                                      loop_conv_transpose3d):
                old = model(Tensor(x)).numpy()
        assert relative_error(new, old) <= RELATIVE


HEADLINE_GRID = GridConfig(size_um=1.0, nx=32, ny=32, nz=4)


def parameter_grads(method):
    """Every parameter gradient of one loss backward of ``method`` at the
    headline grid, batch 2."""
    nn.init.seed(0)
    model, loss_config = build_method(method, HEADLINE_GRID)
    rng = np.random.default_rng(12)
    x, target = rng.random((2, 2) + HEADLINE_GRID.shape)
    SDMPEBLoss(loss_config)(model(Tensor(x)), Tensor(target)).backward()
    return {name: p.grad for name, p in model.named_parameters()}


class TestModelGradients:
    @pytest.mark.parametrize("method", ["SDM-PEB", "DeepCNN", "TEMPO-resist", "FNO", "DeePEB"])
    def test_parameter_grads_match_the_loop_backward_and_repeat(self, method):
        got = parameter_grads(method)
        again = parameter_grads(method)
        with loop_backward():
            want = parameter_grads(method)
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], again[name]), name
            assert relative_error(got[name], want[name]) <= RELATIVE, name


@st.composite
def conv_cases(draw):
    groups = draw(st.sampled_from([1, 2, 3]))
    cg = draw(st.integers(1, 3))
    og = draw(st.integers(1, 3))
    if draw(st.booleans()):                     # depthwise
        cg, og = 1, 1
        groups = draw(st.integers(1, 5))
    kernel = tuple(draw(st.integers(1, 4)) for _ in range(3))
    stride = tuple(draw(st.integers(1, 3)) for _ in range(3))
    padding = tuple(draw(st.integers(0, k + 1)) for k in kernel)
    sizes = (draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    batch = draw(st.integers(1, 3))
    cap = draw(st.sampled_from([8, 300, 4096, ops_nn.COLUMN_BYTES]))
    return groups, cg, og, kernel, stride, padding, sizes, batch, cap


class TestSweep:
    @settings(max_examples=120, deadline=None)
    @given(case=conv_cases(), seed=st.integers(0, 2**16))
    def test_conv3d(self, case, seed):
        groups, cg, og, kernel, stride, padding, sizes, batch, cap = case
        assume(all(n + 2 * p >= k for n, p, k in zip(sizes, padding, kernel)))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, groups * cg) + sizes)
        w = rng.standard_normal((groups * og, cg) + kernel)
        with mock.patch.object(ops_nn, "COLUMN_BYTES", cap):
            got = ops_nn.conv3d_forward(x, w, stride, padding, groups)
            gout = rng.standard_normal(got.shape)
            gx, gw = vjps(ops_nn.conv3d, x, w, gout, stride=stride, padding=padding,
                          groups=groups)
        assert relative_error(got, loop_conv3d(x, w, stride, padding, groups)) <= RELATIVE
        want_gx = loop_conv3d_grad_input(gout, w, x.shape, stride, padding, groups)
        assert relative_error(gx, want_gx) <= RELATIVE
        want_gw = loop_conv3d_grad_weight(gout, x, w.shape, stride, padding, groups)
        assert relative_error(gw, want_gw) <= RELATIVE

    @settings(max_examples=120, deadline=None)
    @given(case=conv_cases(), extra=st.tuples(*[st.integers(0, 2)] * 3),
           seed=st.integers(0, 2**16))
    def test_conv_transpose3d(self, case, extra, seed):
        groups, cg, og, kernel, stride, padding, sizes, batch, cap = case
        # output padding must stay below the stride, as in torch
        output_padding = tuple(min(e, s - 1) for e, s in zip(extra, stride))
        assume(all((n - 1) * s + k + op - 2 * p >= 1 for n, s, k, op, p
                   in zip(sizes, stride, kernel, output_padding, padding)))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, groups * cg) + sizes)
        w = rng.standard_normal((groups * cg, og) + kernel)
        args = (stride, padding, output_padding, groups)
        with mock.patch.object(ops_nn, "COLUMN_BYTES", cap):
            got = ops_nn.conv_transpose3d_forward(x, w, *args)
            gout = rng.standard_normal(got.shape)
            gx, gw = vjps(ops_nn.conv_transpose3d, x, w, gout, stride=stride, padding=padding,
                          output_padding=output_padding, groups=groups)
        assert relative_error(got, loop_conv_transpose3d(x, w, *args)) <= RELATIVE
        want_gx = loop_conv_transpose3d_grad_input(gout, w, x.shape, *args)
        assert relative_error(gx, want_gx) <= RELATIVE
        want_gw = loop_conv_transpose3d_grad_weight(gout, x, w.shape, *args)
        assert relative_error(gw, want_gw) <= RELATIVE


def bind_and_run(kernel, out_shape, *args, scratch=np.empty):
    out = scratch(out_shape, np.float64)
    kernel(out, *args, scratch=scratch)()
    return out


def stale(shape, dtype):
    """Scratch as a reused arena hands it out: full of old values."""
    return np.full(shape, np.nan, dtype=dtype)


# (x shape, w shape, stride, padding, groups): the im2col GEMM, the
# shift-add GEMM (one output channel), depthwise and strided cases
CONV_CASES = [
    ((2, 2, 5, 9, 7), (4, 2, 3, 3, 3), 1, 1, 1),
    ((2, 4, 5, 9, 7), (1, 4, 3, 3, 3), 1, 1, 1),
    ((2, 3, 5, 9, 7), (3, 1, 3, 3, 3), 1, 1, 3),
    ((1, 1, 4, 17, 13), (5, 1, 3, 7, 7), (1, 4, 4), (1, 3, 3), 1),
]


class TestBitwise:
    @pytest.mark.parametrize("case", CONV_CASES)
    @pytest.mark.parametrize("cap", [64, ops_nn.COLUMN_BYTES])
    def test_stale_scratch_and_repeats_do_not_change_a_bit(self, case, cap):
        x_shape, w_shape, stride, padding, groups = case
        rng = np.random.default_rng(3)
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        with mock.patch.object(ops_nn, "COLUMN_BYTES", cap):
            want = ops_nn.conv3d_forward(x, w, stride, padding, groups)
            got = bind_and_run(ops_nn.conv3d_kernel, want.shape, x, w, stride, padding,
                               groups, scratch=stale)
            again = ops_nn.conv3d_forward(x, w, stride, padding, groups)
        assert np.array_equal(got, want)
        assert np.array_equal(again, want)

    @pytest.mark.parametrize("cap", [64, ops_nn.COLUMN_BYTES])
    def test_stale_scratch_transposed(self, cap):
        rng = np.random.default_rng(4)
        x, w = rng.standard_normal((2, 4, 3, 5, 6)), rng.standard_normal((4, 3, 3, 2, 2))
        stride, padding, groups = (1, 2, 2), (1, 0, 0), 2
        with mock.patch.object(ops_nn, "COLUMN_BYTES", cap):
            want = ops_nn.conv_transpose3d_forward(x, w, stride, padding, (0, 1, 0), groups)
            got = bind_and_run(ops_nn.conv_transpose3d_kernel, want.shape, x, w, stride,
                               padding, groups, scratch=stale)
        assert np.array_equal(got, want)

    def test_rebound_kernel_reads_current_inputs(self):
        """A bound kernel recomputes from whatever its input buffers hold
        when it runs."""
        rng = np.random.default_rng(5)
        x, w = rng.standard_normal((1, 2, 4, 6, 6)), rng.standard_normal((3, 2, 3, 3, 3))
        out = np.empty((1, 3, 4, 6, 6))
        run = ops_nn.conv3d_kernel(out, x, w, 1, 1, 1)
        for seed in (6, 7):
            x[...] = np.random.default_rng(seed).standard_normal(x.shape)
            run()
            assert np.array_equal(out, ops_nn.conv3d_forward(x, w, 1, 1, 1))

    def test_threads_share_no_scratch(self):
        rng = np.random.default_rng(8)
        inputs = [rng.standard_normal((1, 2, 6, 20, 20)) for _ in range(4)]
        w = rng.standard_normal((8, 2, 3, 3, 3))
        got = [None] * len(inputs)

        def work(i):
            for _ in range(20):
                got[i] = ops_nn.conv3d_forward(inputs[i], w, 1, 1, 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(ops_nn, "COLUMN_BYTES", 2048):
                want = [ops_nn.conv3d_forward(x, w, 1, 1, 1) for x in inputs]
                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(len(inputs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)

    def test_kernels_refuse_strided_operands(self):
        x = np.zeros((1, 2, 4, 6, 6))[:, :, :, :, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            ops_nn.conv3d_kernel(np.empty((1, 1, 4, 6, 3)), x, np.zeros((1, 2, 1, 1, 1)),
                                 1, 0, 1)
