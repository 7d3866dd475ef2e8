"""The idle-priority spinners: one per CPU, SCHED_IDLE, gone afterwards."""

import os
import time

import keepbusy


def test_one_idle_spinner_per_cpu_and_none_left_after():
    with keepbusy.cpus_kept_busy() as spinners:
        assert len(spinners) == len(os.sched_getaffinity(0))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(os.sched_getscheduler(s.pid) == os.SCHED_IDLE for s in spinners):
                break
            time.sleep(0.02)
        assert all(os.sched_getscheduler(s.pid) == os.SCHED_IDLE for s in spinners)
        assert all(s.poll() is None for s in spinners)
    assert all(s.returncode is not None for s in spinners)
    assert not any(os.path.exists(f"/proc/{s.pid}") for s in spinners)
