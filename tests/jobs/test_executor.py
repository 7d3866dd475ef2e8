"""Executor: scheduling, checkpointed resume, SIGKILL fault injection.

The kill tests follow tests/serve/test_fault_injection.py: patching
``CounterJob.step`` to sleep first (chunk workers forked afterwards
inherit the patch) widens the kill window, and the parent-side ``busy``
flag + ``child_pid`` land the SIGKILL deterministically inside a chunk.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.jobs import JobExecutor, JobExecutorConfig, JobStore
from repro.jobs import executor as executor_module
from repro.jobs.types import CounterJob


def wait_until(predicate, timeout_s: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def slow_down_steps(monkeypatch, delay_s: float) -> None:
    """Every CounterJob step sleeps ``delay_s`` first; chunk workers
    forked while the patch is active inherit it."""
    step = CounterJob.step

    def slow_step(self, state):
        time.sleep(delay_s)
        return step(self, state)

    monkeypatch.setattr(CounterJob, "step", slow_step)


def make_executor(store, **overrides):
    overrides.setdefault("poll_interval_s", 0.02)
    return JobExecutor(store, JobExecutorConfig(**overrides))


def reference_checksum(iterations: int) -> int:
    job = CounterJob({"iterations": iterations})
    state = job.init_state()
    while not job.done(state):
        state, _ = job.step(state)
    result, _ = job.finalize(state)
    return result["checksum"]


class TestHappyPath:
    def test_counter_job_completes(self, store):
        record = store.submit("counter", {"iterations": 7})
        executor = make_executor(store).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "completed")
        finally:
            executor.close()
        final = store.get(record.id)
        assert final.result["iterations"] == 7
        assert final.result["checksum"] == reference_checksum(7)
        assert final.progress["iteration"] == 7

    def test_jobs_run_oldest_first(self, store):
        first = store.submit("counter", {"iterations": 2})
        second = store.submit("counter", {"iterations": 2})
        executor = make_executor(store).start()
        try:
            assert wait_until(
                lambda: store.get(second.id).state == "completed")
        finally:
            executor.close()
        assert store.get(first.id).updated_s <= store.get(second.id).updated_s

    def test_inline_mode_completes(self, store, monkeypatch):
        monkeypatch.setattr(executor_module, "fork_available", lambda: False)
        record = store.submit("counter", {"iterations": 5})
        executor = make_executor(store).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "completed")
        finally:
            executor.close()
        assert store.get(record.id).result["checksum"] == reference_checksum(5)

    def test_opc_gradient_job_completes_and_improves(self, store, tmp_path):
        record = store.submit("opc_gradient", {
            "seed": 3, "nx": 32, "ny": 32, "nz": 2, "size_um": 0.8,
            "iterations": 3,
        })
        executor = make_executor(store, checkpoint_every=1,
                                 chunk_timeout_s=600.0).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "completed",
                timeout_s=300.0)
        finally:
            executor.close()
        result = store.get(record.id).result
        assert result["final_rms_nm"] < result["initial_rms_nm"]
        assert result["forward_solves"] == 3 + 1


class TestFailurePaths:
    def test_bad_job_type_fails_cleanly(self, store):
        record = store.submit("no_such_type", {})
        executor = make_executor(store).start()
        try:
            assert wait_until(lambda: store.get(record.id).state == "failed")
        finally:
            executor.close()
        assert "unknown job type" in store.get(record.id).error

    def test_raising_stepper_fails_job(self, store):
        record = store.submit("counter", {"iterations": 5, "fail_at": 2})
        executor = make_executor(store).start()
        try:
            assert wait_until(lambda: store.get(record.id).state == "failed")
        finally:
            executor.close()
        assert "failed at 2" in store.get(record.id).error

    def test_crash_beyond_max_attempts_fails(self, store, monkeypatch):
        slow_down_steps(monkeypatch, 0.2)
        record = store.submit("counter", {"iterations": 50})
        executor = make_executor(store, max_attempts=2).start()
        try:
            for _ in range(2):
                assert wait_until(lambda: executor.busy and
                                  executor.child_pid is not None)
                os.kill(executor.child_pid, signal.SIGKILL)
                assert wait_until(lambda: not executor.busy)
            assert wait_until(lambda: store.get(record.id).state == "failed")
        finally:
            executor.close()
        assert "crashed" in store.get(record.id).error


class TestCancellation:
    def test_cancel_running_job_at_chunk_boundary(self, store, monkeypatch):
        slow_down_steps(monkeypatch, 0.05)
        record = store.submit("counter", {"iterations": 1000})
        executor = make_executor(store, checkpoint_every=1).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "running")
            store.request_cancel(record.id)
            assert wait_until(
                lambda: store.get(record.id).state == "cancelled")
        finally:
            executor.close()

    def test_cancelled_queued_job_never_runs(self, store):
        record = store.submit("counter", {"iterations": 3})
        store.request_cancel(record.id)
        executor = make_executor(store).start()
        try:
            time.sleep(0.2)
            assert store.get(record.id).state == "cancelled"
        finally:
            executor.close()


class TestSigkillResume:
    def test_killed_step_worker_resumes_from_checkpoint(self, store, monkeypatch):
        """Satellite 2: SIGKILL the step child mid-chunk — the job goes
        running → (requeued) → running → completed from the last
        checkpoint, never lost, and the final state is identical to an
        uninterrupted run (the checksum detects any lost or duplicated
        step)."""
        slow_down_steps(monkeypatch, 0.15)
        record = store.submit("counter", {"iterations": 8})
        executor = make_executor(store, checkpoint_every=2,
                                 max_attempts=5).start()
        try:
            assert wait_until(lambda: executor.busy and
                              executor.child_pid is not None)
            pid = executor.child_pid
            os.kill(pid, signal.SIGKILL)
            assert wait_until(
                lambda: store.get(record.id).state == "completed",
                timeout_s=60.0)
        finally:
            executor.close()
        final = store.get(record.id)
        assert final.attempts >= 2, "the crash must have burned an attempt"
        assert final.result["checksum"] == reference_checksum(8)
        assert executor.stats()["crashes"] >= 1

    def test_restart_resumes_with_bitwise_identical_state(self, store, monkeypatch):
        """Acceptance pin: interrupt (drain-close mid-run), restart a
        fresh executor, and the completed checkpoint is bitwise-identical
        to an uninterrupted run's."""
        # uninterrupted reference in a sibling store
        reference_store = JobStore(store.root.parent / "reference")
        reference = reference_store.submit("counter", {"iterations": 9})
        executor = make_executor(reference_store, checkpoint_every=2).start()
        try:
            assert wait_until(
                lambda: reference_store.get(reference.id).state == "completed")
        finally:
            executor.close()
        expected = reference_store.load_checkpoint(reference.id)

        record = store.submit("counter", {"iterations": 9})
        with monkeypatch.context() as patch:
            slow_down_steps(patch, 0.1)
            interrupted = make_executor(store, checkpoint_every=2).start()
            assert wait_until(lambda: interrupted.busy)
            interrupted.close(drain=True)   # mid-run shutdown, like SIGTERM
        parked = store.get(record.id)
        assert parked.state == "queued", "drain must requeue, not lose"

        assert store.recover() == 0     # already queued, nothing to fix
        resumed = make_executor(store, checkpoint_every=2).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "completed")
        finally:
            resumed.close()
        final_state = store.load_checkpoint(record.id)
        assert set(final_state) == set(expected)
        for key in expected:
            assert np.array_equal(final_state[key], expected[key]), key

    def test_recover_requeues_orphaned_running_job(self, store):
        """A hard crash leaves the record 'running'; boot-time recover()
        turns it back into queued and a fresh executor completes it."""
        record = store.submit("counter", {"iterations": 6})
        store.transition(record.id, "running", attempts=1)
        job = CounterJob({"iterations": 6})
        state = job.init_state()
        for _ in range(3):
            state, _ = job.step(state)
        store.save_checkpoint(record.id, state)

        assert store.recover() == 1
        executor = make_executor(store).start()
        try:
            assert wait_until(
                lambda: store.get(record.id).state == "completed")
        finally:
            executor.close()
        assert store.get(record.id).result["checksum"] == \
            reference_checksum(6)


class TestDrainSemantics:
    def test_close_without_drain_requeues_current_job(self, store, monkeypatch):
        slow_down_steps(monkeypatch, 0.1)
        record = store.submit("counter", {"iterations": 1000})
        executor = make_executor(store, checkpoint_every=4).start()
        assert wait_until(lambda: executor.busy)
        executor.close(drain=False)
        assert store.get(record.id).state == "queued"

    def test_close_is_idempotent(self, store):
        executor = make_executor(store).start()
        executor.close()
        executor.close()
        assert not executor.stats()["alive"]

    def test_notify_wakes_scheduler(self, store):
        executor = make_executor(store, poll_interval_s=30.0).start()
        try:
            record = store.submit("counter", {"iterations": 1})
            executor.notify()
            assert wait_until(
                lambda: store.get(record.id).state == "completed",
                timeout_s=5.0)
        finally:
            executor.close()


class TestForksBesideProducts:
    def test_chunk_forks_survive_multithreaded_blas(self, tmp_path):
        """OpenBLAS's fork handler deadlocks, holding the interpreter lock,
        when a fork lands while another thread is inside a multithreaded
        product: a job chunk forked beside a served forward.  A started
        executor keeps BLAS single-threaded, so such forks survive."""
        script = textwrap.dedent(f"""
            import os, threading, time
            import numpy as np
            from repro.jobs import JobExecutor, JobStore
            executor = JobExecutor(JobStore({str(tmp_path / "jobs")!r})).start()
            stop = threading.Event()

            def products():
                a, b = np.ones((200, 200)), np.ones((200, 400))
                while not stop.is_set():
                    a @ b

            thread = threading.Thread(target=products)
            thread.start()
            deadline, forks = time.monotonic() + 2.0, 0
            while time.monotonic() < deadline:
                pid = os.fork()
                if pid == 0:
                    os._exit(0)
                os.waitpid(pid, 0)
                forks += 1
            stop.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            executor.close()
            print("forks", forks)
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("forks ")
