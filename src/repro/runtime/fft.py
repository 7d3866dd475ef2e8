"""Thread-count policy for ``scipy.fft`` calls on the hot paths.

scipy's pocketfft backend threads over the *batch* axes of a transform
when passed ``workers=``; the S4D global convolution (B*C transforms)
batches enough to benefit and is the only call site (the rigorous
solver's DCT diffusion propagator applies dense per-axis matrices and
does no FFT).  The count resolves as: explicit
:func:`set_fft_workers` override > ``REPRO_FFT_WORKERS`` > all cores.
Pool workers pin it to 1 (see :mod:`repro.runtime.pool`) so process- and
thread-level parallelism never multiply.

Threading does not change numerics: pocketfft computes identical
results regardless of worker count.
"""

from __future__ import annotations

import os

__all__ = ["fft_workers", "set_fft_workers"]

_override: int | None = None


def fft_workers() -> int:
    """The ``workers=`` value to pass to ``scipy.fft`` transforms."""
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_FFT_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"REPRO_FFT_WORKERS={env!r} is not an integer") from exc
    return max(1, os.cpu_count() or 1)


def set_fft_workers(count: int | None) -> None:
    """Process-wide override of the FFT thread count (None resets to the
    environment/cpu-count policy)."""
    global _override
    if count is not None:
        count = int(count)
        if count < 1:
            raise ValueError(f"fft worker count must be >= 1, got {count}")
    _override = count
