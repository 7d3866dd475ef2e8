"""Linear time-invariant diagonal SSM (S4D) — the non-selective ancestor.

Section II-B of the paper presents the LTI state-space model (Eqs. 6-9)
before introducing Mamba's input-dependent selection.  This module
implements that LTI model faithfully, including **both** computation
paths the paper describes:

* the recurrence (Eq. 8), evaluated with the same scan kernels as the
  selective model, and
* the *global convolution* form (Eq. 9): ``y = x * K̄`` with
  ``K̄ = (C B̄, C Ā B̄, ..., C Ā^{L-1} B̄)``, evaluated here via FFT.

Swapping :class:`LTISSM` for :class:`~repro.ssm.mamba.SelectiveSSM`
inside the SDM unit gives the "selectivity" ablation: how much of
SDM-PEB's accuracy comes from input-dependent scanning.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as spfft

from repro import tensor as T
from repro.runtime.fft import fft_workers
from repro.tensor import Tensor, ensure_tensor
from repro.nn.module import Module, Parameter
from repro.nn import init
from .hippo import s4d_real_init, dt_init
from .scan import diagonal_scan


def lti_kernel(a_bar: np.ndarray, b_bar: np.ndarray, c: np.ndarray, length: int) -> np.ndarray:
    """Materialize the Eq. 9 convolution kernel K̄ of shape (C, L).

    ``a_bar``, ``b_bar``, ``c`` are (C, N) per-channel diagonal SSM
    parameters; entry ``K̄[ch, t] = Σ_n c[ch, n] a_bar[ch, n]^t b_bar[ch, n]``.
    """
    powers = a_bar[:, None, :] ** np.arange(length)[None, :, None]   # (C, L, N)
    return np.einsum("cn,cln->cl", c * b_bar, powers)


def causal_conv_fft(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal per-channel convolution of (B, L, C) with kernel (C, L).

    Uses scipy's pocketfft so the B*C transform batch threads across
    :func:`repro.runtime.fft.fft_workers` cores; the spectral product is
    computed in place to avoid a second (B, 2L, C) complex buffer.
    """
    batch, length, channels = x.shape
    size = 2 * length
    workers = fft_workers()
    x_f = spfft.rfft(x, n=size, axis=1, workers=workers)
    x_f *= spfft.rfft(kernel.T[None], n=size, axis=1, workers=workers)
    return spfft.irfft(x_f, n=size, axis=1, workers=workers)[:, :length]


class LTISSM(Module):
    """Non-selective diagonal SSM over (B, L, C), matching the
    :class:`SelectiveSSM` interface.

    Parameters
    ----------
    channels, state_dim:
        As for the selective model.
    mode:
        ``"scan"`` uses the Eq. 8 recurrence; ``"conv"`` the Eq. 9
        global convolution.  Both give identical outputs; conv mode has
        no recurrent tape so it is the faster inference path.
    """

    def __init__(self, channels: int, state_dim: int = 8, mode: str = "scan",
                 scan_mode: str = "chunked"):
        super().__init__()
        if mode not in ("scan", "conv"):
            raise ValueError(f"unknown LTI mode {mode!r}")
        self.channels = channels
        self.state_dim = state_dim
        self.mode = mode
        self.scan_mode = scan_mode
        rng = init.get_rng()
        self.a_log = Parameter(np.log(-s4d_real_init(channels, state_dim)))
        self.b = Parameter(rng.standard_normal((channels, state_dim)) / np.sqrt(state_dim))
        self.c = Parameter(rng.standard_normal((channels, state_dim)) / np.sqrt(state_dim))
        self.dt_bias = Parameter(dt_init(channels, rng=rng))
        self.skip = Parameter(init.ones(channels))

    def _discretize(self):
        """ZOH-discretized (Ā, B̄) as Tensors of shape (C, N)."""
        from repro.tensor import functional as F

        a = -T.exp(self.a_log)
        delta = T.reshape(F.softplus(self.dt_bias), (self.channels, 1))
        a_bar = T.exp(delta * a)
        b_bar = ((a_bar - 1.0) / a) * self.b
        return a_bar, b_bar

    def forward(self, x):
        batch, length, channels = x.shape
        if channels != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {channels}")
        a_bar, b_bar = self._discretize()
        if self.mode == "conv":
            return self._forward_conv(x, a_bar, b_bar)
        return self._forward_scan(x, a_bar, b_bar)

    def _forward_scan(self, x, a_bar, b_bar):
        batch, length, channels = x.shape
        a_seq = T.broadcast_to(T.reshape(a_bar, (1, 1, channels, self.state_dim)),
                               (batch, length, channels, self.state_dim))
        u = T.reshape(x, (batch, length, channels, 1))
        b_seq = T.reshape(b_bar, (1, 1, channels, self.state_dim)) * u
        h = diagonal_scan(a_seq, b_seq, mode=self.scan_mode)
        y = T.einsum("blcn,cn->blc", h, self.c)
        return y + self.skip * x

    def _forward_conv(self, x, a_bar, b_bar):
        """Eq. 9 path: materialize K̄ and convolve (inference only —
        the FFT convolution itself is outside the autograd tape, so this
        path is wrapped as a custom op with an exact adjoint."""
        x = ensure_tensor(x)
        length = x.shape[1]
        kernel = lti_kernel(a_bar.numpy(), b_bar.numpy(), self.c.numpy(), length)
        y = causal_conv_fft(x.data, kernel)

        def grad_x(grad_y):
            # adjoint of causal convolution = anticausal correlation
            flipped = np.flip(grad_y, axis=1)
            return np.flip(causal_conv_fft(flipped, kernel), axis=1)

        out = Tensor.from_op(y, [(x, grad_x)])
        return out + self.skip * x
