"""REP102 fixture: forking a worker while holding a module lock (line 12)."""

import threading

from repro.runtime.worker import ForkedWorker

_lock = threading.Lock()


def start(setup):
    with _lock:
        return ForkedWorker(setup)


def start_safe(setup):
    with _lock:
        snapshot = setup
    return ForkedWorker(snapshot)
