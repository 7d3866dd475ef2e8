"""Worker-count resolution, the process pool, and the propagator caches."""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.config import GridConfig
from repro.runtime import (
    WorkerDied, cached_lateral_propagator, cached_z_propagator,
    clear_propagator_caches, fft_workers, fork_available, parallel_map,
    propagator_cache_info, resolve_workers, set_fft_workers,
)
from repro.runtime import pool as pool_module


def _double(x):
    return 2 * x


def _kill_own_worker_at_3(x):
    """Task 3 SIGKILLs the worker running it, as the OOM killer would."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _openblas_thread_counts(_=None):
    """Thread count of each OpenBLAS this process loaded (runs in workers)."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line})
    counts = []
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(library, name):
                counts.append(getattr(library, name)())
                break
    return counts


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 6)
        assert resolve_workers() == 6

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_bad_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError):
            resolve_workers()

    def test_nonpositive_argument_raises(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, workers=3) == [2 * i for i in items]

    def test_serial_matches_parallel(self):
        items = [1.5, -2.0, 7.25]
        assert parallel_map(_double, items, workers=1) == \
            parallel_map(_double, items, workers=3)

    def test_workers_one_never_spawns(self, monkeypatch):
        def forbid(*args, **kwargs):
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(pool_module, "ForkedWorker", forbid)
        assert parallel_map(_double, [1, 2, 3], workers=1) == [2, 4, 6]

    def test_single_item_never_spawns(self, monkeypatch):
        def forbid(*args, **kwargs):
            raise AssertionError("a single task must not create a pool")

        monkeypatch.setattr(pool_module, "ForkedWorker", forbid)
        assert parallel_map(_double, [21], workers=8) == [42]

    def test_fork_unavailable_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        assert parallel_map(_double, [1, 2, 3], workers=4) == [2, 4, 6]

    def test_workers_run_openblas_single_threaded(self, monkeypatch, tmp_path):
        """BLAS threads must not multiply with forked processes: pool
        workers, job chunks and serving workers all run single-threaded."""
        from repro import nn
        from repro.experiments import build_method
        from repro.jobs import JobExecutor, JobExecutorConfig, JobStore
        from repro.jobs.types import CounterJob
        from repro.serve import WorkerPool
        from repro.serve import pool as serve_pool

        try:
            if not _openblas_thread_counts():
                pytest.skip("numpy's BLAS is not OpenBLAS")
        except OSError:
            pytest.skip("no /proc/self/maps to find the BLAS through")
        per_worker = parallel_map(_openblas_thread_counts, [0, 1], workers=2)
        assert all(counts and set(counts) == {1} for counts in per_worker), per_worker

        finalize = CounterJob.finalize

        def finalize_with_counts(self, state):
            result, state = finalize(self, state)
            result["openblas_threads"] = _openblas_thread_counts()
            return result, state

        monkeypatch.setattr(CounterJob, "finalize", finalize_with_counts)
        store = JobStore(tmp_path / "jobs")
        record = store.submit("counter", {"iterations": 2})
        executor = JobExecutor(store, JobExecutorConfig(poll_interval_s=0.02)).start()
        try:
            deadline = time.monotonic() + 30.0
            while store.get(record.id).state != "completed" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            executor.close()
        assert executor.stats()["fork"]
        assert set(store.get(record.id).result["openblas_threads"]) == {1}

        monkeypatch.setattr(serve_pool, "_forward", lambda *args: np.array(
            _openblas_thread_counts()))
        grid = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)
        nn.init.seed(0)
        model, _ = build_method("DeepCNN", grid)
        pool = WorkerPool(model, 1)
        try:
            counts = pool.forward(np.zeros((1,) + grid.shape))
        finally:
            pool.close()
        assert counts.size and set(counts.tolist()) == {1}, counts

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(pool_module, "ForkedWorker", refuse)
        assert parallel_map(_double, [1, 2, 3], workers=4) == [2, 4, 6]

    def test_killed_worker_raises_instead_of_hanging(self):
        """A SIGKILLed worker fails the map with WorkerDied within
        seconds, and no worker outlives the call."""
        if not fork_available():
            pytest.skip("fork start method unavailable")
        before = {child.pid for child in multiprocessing.active_children()}
        outcome = {}

        def run():
            try:
                outcome["result"] = parallel_map(_kill_own_worker_at_3, range(8),
                                                 workers=2)
            except Exception as error:  # noqa: BLE001 - asserted below
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive(), "parallel_map hung on a dead worker"
        assert isinstance(outcome.get("error"), WorkerDied), outcome
        leftover = [child for child in multiprocessing.active_children()
                    if child.pid not in before]
        assert leftover == []


class TestFFTWorkers:
    def test_override_round_trip(self):
        set_fft_workers(3)
        try:
            assert fft_workers() == 3
        finally:
            set_fft_workers(None)

    def test_env_variable(self, monkeypatch):
        set_fft_workers(None)
        monkeypatch.setenv("REPRO_FFT_WORKERS", "2")
        assert fft_workers() == 2

    def test_nonpositive_override_raises(self):
        with pytest.raises(ValueError):
            set_fft_workers(0)

    def test_reset_restores_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_FFT_WORKERS", raising=False)
        set_fft_workers(None)
        assert fft_workers() >= 1


class TestPropagatorCache:
    def test_same_key_returns_same_object(self):
        clear_propagator_caches()
        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        first = cached_lateral_propagator(grid, 1e4, 0.5)
        second = cached_lateral_propagator(grid, 1e4, 0.5)
        assert first is second
        info = propagator_cache_info()["lateral"]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_different_key_is_a_miss(self):
        clear_propagator_caches()
        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        a = cached_z_propagator(grid, 1e4, 5.0, 1.0, 0.5)
        b = cached_z_propagator(grid, 1e4, 5.0, 1.0, 0.25)
        assert a is not b
        assert propagator_cache_info()["z"]["misses"] == 2

    def test_cached_operator_matches_fresh(self):
        clear_propagator_caches()
        from repro.litho.dct import LateralDiffusionPropagator

        grid = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)
        rng = np.random.default_rng(3)
        volume = rng.random(grid.shape)
        cached = cached_lateral_propagator(grid, 2e4, 0.25)
        fresh = LateralDiffusionPropagator(grid, 2e4, 0.25)
        assert np.array_equal(cached.apply(volume), fresh.apply(volume))
