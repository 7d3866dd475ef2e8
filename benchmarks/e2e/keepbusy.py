"""Keep every CPU out of its idle state while a run measures.

On the 2-CPU reference VM, a virtual CPU that idles between bursts of
work runs Python up to 1.6x slower, at random, for seconds at a time.
An in-process 16x16x2 forward timed every 40 ms for two minutes had a
median of 22.9 ms, and its medians over 12-second windows spread by 14%
(IQR over median).  With one spinner per CPU the same loop had a median
of 15.0 ms and a spread of 4%.  A spinner runs at the ``SCHED_IDLE``
policy, so the kernel gives it a CPU only when no ordinary process wants
one, and it takes next to no time from the program under test.  Each
spinner exits when its parent does.

    python3 keepbusy.py CPU
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path


@contextlib.contextmanager
def cpus_kept_busy():
    """One idle-priority spinner per CPU this process may run on."""
    spinners = [subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(cpu)],
                                 stdin=subprocess.DEVNULL)
                for cpu in sorted(os.sched_getaffinity(0))]
    try:
        yield spinners
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def spin(cpu: int) -> None:
    parent = os.getppid()
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    os.sched_setaffinity(0, {cpu})
    while os.getppid() == parent:
        for _ in range(200_000):
            pass


if __name__ == "__main__":
    spin(int(sys.argv[1]))
