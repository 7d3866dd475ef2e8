"""Diagonal linear recurrence (the selective-scan kernel).

The heart of Mamba is the per-channel diagonal recurrence

    h_t = a_t * h_{t-1} + b_t,          (elementwise over states)

applied along the sequence axis.  Two interchangeable kernels are
provided:

* ``sequential`` — the obvious time loop; the correctness reference.
* ``chunked`` — a blocked closed-form evaluation that processes ``K``
  steps per python iteration using cumulative products.  This plays the
  role of Mamba's "hardware-aware parallel scan": identical numerics
  (to floating-point roundoff), much less interpreter overhead.

Both are wrapped into a single differentiable op,
:func:`diagonal_scan`, with a hand-derived backward pass (the reverse
recurrence is itself a scan on the time-reversed sequence, so the same
kernels are reused).

Array layout: ``a`` and ``b`` are ``(B, L, C, N)`` — batch, sequence,
channels, SSM state dimension.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.tensor import Tensor, ensure_tensor

SCAN_MODES = ("sequential", "chunked")
DEFAULT_CHUNK = 16


def scan_sequential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference kernel: one python iteration per timestep."""
    h = np.empty_like(b)
    carry = np.zeros_like(b[:, 0])
    for t in range(b.shape[1]):
        carry = a[:, t] * carry + b[:, t]
        h[:, t] = carry
    return h


def scan_chunked(a: np.ndarray, b: np.ndarray, chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Blocked kernel: closed-form evaluation inside chunks of ``chunk`` steps.

    Within a chunk starting with carry ``h0``:

        h_k = P_k * h0 + P_k * sum_{j<=k} b_j / P_j,   P_k = prod_{i<=k} a_i.

    ``a`` values are decay factors in [0, 1]; with the default chunk of
    16 the ratio ``P_k / P_j`` stays far away from overflow in float64.
    Chunks whose running product underflows (exact-zero or denormal
    decays, where ``P_k / P_j`` is no longer representable) are
    integrated step-by-step from the carry instead, so the kernel is
    exact on the full decay domain.
    """
    batch, length = b.shape[:2]
    if length == 0:
        return b.copy()
    # Never pad past the sequence: short sequences (post-patching stages
    # run L=4) would otherwise inflate every intermediate by chunk/L.
    chunk = min(chunk, length)
    pad = (-length) % chunk
    if pad:
        a = np.concatenate([a, np.ones((batch, pad) + a.shape[2:], dtype=a.dtype)], axis=1)
        b = np.concatenate([b, np.zeros((batch, pad) + b.shape[2:], dtype=b.dtype)], axis=1)
    chunks = a.shape[1] // chunk
    a_blocks = a.reshape(batch, chunks, chunk, *a.shape[2:])
    b_blocks = b.reshape(batch, chunks, chunk, *b.shape[2:])
    prods = np.cumprod(a_blocks, axis=2)
    tiny = np.finfo(a.dtype).tiny
    bad = None
    if float(prods.min()) < tiny:
        bad = (prods < tiny).any(axis=tuple(i for i in range(prods.ndim) if i != 1))
    guard = (np.errstate(over="ignore", divide="ignore", invalid="ignore")
             if bad is not None else contextlib.nullcontext())
    with guard:
        # h doubles as the scratch buffer for the whole rescale chain:
        # clamp, divide, running sum, product and the carry folding all
        # land in the one allocation.
        h = np.maximum(prods, tiny)
        np.divide(b_blocks, h, out=h)
        np.cumsum(h, axis=2, out=h)
        np.multiply(prods, h, out=h)
    carry = np.zeros_like(h[:, 0, 0])
    scratch = np.empty_like(h[:, 0])
    for c in range(chunks):
        if bad is not None and bad[c]:
            # Underflowing chunk: the closed form divided by a clamped
            # (or zero) product; fall back to the exact recurrence.
            for t in range(chunk):
                carry = a_blocks[:, c, t] * carry + b_blocks[:, c, t]
                h[:, c, t] = carry
        else:
            np.multiply(prods[:, c], carry[:, None], out=scratch)
            h[:, c] += scratch
            carry = h[:, c, -1]
    h = h.reshape(batch, chunks * chunk, *a.shape[2:])
    return h[:, :length] if pad else h


def run_scan(a: np.ndarray, b: np.ndarray, mode: str = "chunked", chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Dispatch to the requested kernel."""
    if mode == "sequential":
        return scan_sequential(a, b)
    if mode == "chunked":
        return scan_chunked(a, b, chunk=chunk)
    raise ValueError(f"unknown scan mode {mode!r}; expected one of {SCAN_MODES}")


def _reverse_scan(a: np.ndarray, grad_h: np.ndarray, mode: str, chunk: int) -> np.ndarray:
    """Solve ``lam_t = grad_h_t + a_{t+1} * lam_{t+1}`` for all t.

    Implemented as a forward scan on the time-reversed sequence with the
    decay sequence shifted by one step.
    """
    a_flipped = np.flip(a, axis=1)
    a_shifted = np.concatenate([np.ones_like(a_flipped[:, :1]), a_flipped[:, :-1]], axis=1)
    lam_reversed = run_scan(a_shifted, np.flip(grad_h, axis=1), mode=mode, chunk=chunk)
    return np.flip(lam_reversed, axis=1)


def diagonal_scan(a, b, mode: str = "chunked", chunk: int = DEFAULT_CHUNK) -> Tensor:
    """Differentiable diagonal recurrence ``h_t = a_t h_{t-1} + b_t``.

    Parameters are ``(B, L, C, N)`` tensors; returns ``h`` of the same
    shape.  The backward pass uses the adjoint recurrence

        lam_t = dL/dh_t + a_{t+1} lam_{t+1},
        dL/db_t = lam_t,    dL/da_t = lam_t * h_{t-1}.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"scan inputs must match: {a.shape} vs {b.shape}")
    h = run_scan(a.data, b.data, mode=mode, chunk=chunk)

    # Both vjps need the adjoint state lam, and backward calls them with
    # the same output-gradient array, so the reverse scan runs once and
    # is shared (identity-checked: the engine never mutates the gradient
    # it hands to vjps).  Neither vjp may write into lam — grad_b hands
    # the shared buffer to the engine as-is (the engine treats vjp
    # results as read-only), grad_a multiplies into a fresh buffer.
    # After both vjps have consumed it, the closure's reference is
    # dropped so the buffer does not stay pinned to the tape.
    shared = {"grad": None, "lam": None, "uses": 0}

    def _adjoint(grad_h):
        if shared["grad"] is not grad_h:
            shared["lam"] = _reverse_scan(a.data, grad_h, mode, chunk)
            shared["grad"] = grad_h
            shared["uses"] = 0
        shared["uses"] += 1
        lam = shared["lam"]
        if shared["uses"] >= 2:
            shared["grad"] = shared["lam"] = None
        return lam

    def grad_b(grad_h):
        return _adjoint(grad_h)

    def grad_a(grad_h):
        lam = _adjoint(grad_h)
        # dL/da_t = lam_t * h_{t-1}: write directly into the output
        # instead of materializing the shifted h via concatenate.
        out = np.empty_like(lam)
        out[:, :1] = 0.0
        np.multiply(lam[:, 1:], h[:, :-1], out=out[:, 1:])
        return out

    return Tensor.from_op(h, [(a, grad_a), (b, grad_b)])
