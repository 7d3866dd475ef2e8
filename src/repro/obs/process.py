"""Process-level gauges: RSS, open fds, uptime.

Read straight from ``/proc`` (Linux) with graceful degradation — every
reader returns a best-effort number and never raises, because a metrics
scrape must not be able to fail a health check.  :func:`refresh_process_gauges`
is called on each ``/metrics`` / ``/healthz`` scrape and by the
telemetry sampler, so the TSDB retains RSS/fd history too.
"""

from __future__ import annotations

import os
import resource
import time

from .metrics import gauge

__all__ = [
    "rss_bytes", "open_fd_count", "refresh_process_gauges", "process_info",
]

_STARTED_S = time.time()
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident set size in bytes (0 when unreadable)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        # ru_maxrss is a high-water mark, not current RSS, but it is the
        # best portable fallback (kilobytes on Linux)
        try:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except (OSError, ValueError):
            return 0


def open_fd_count() -> int:
    """Number of open file descriptors (0 when unreadable)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        try:
            return len(os.listdir("/dev/fd"))
        except OSError:
            return 0


def uptime_s() -> float:
    return time.time() - _STARTED_S


def refresh_process_gauges() -> None:
    """Refresh the ``process.*`` gauges from /proc (scrape-time)."""
    gauge("process.rss_bytes").set(float(rss_bytes()))
    gauge("process.open_fds").set(float(open_fd_count()))
    gauge("process.uptime_s").set(round(uptime_s(), 3))


def process_info() -> dict:
    """The ``process`` block for ``/healthz`` and flight dumps."""
    return {
        "pid": os.getpid(),
        "rss_bytes": rss_bytes(),
        "open_fds": open_fd_count(),
        "uptime_s": round(uptime_s(), 3),
    }
