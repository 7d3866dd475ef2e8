"""Parallel dataset generation: bitwise identity and pool discipline."""

import numpy as np

from repro.config import GridConfig, LithoConfig
from repro.data import generate_dataset
from repro.data import dataset as dataset_module
from repro.runtime import pool as pool_module

TINY = LithoConfig(grid=GridConfig(size_um=1.0, nx=16, ny=16, nz=2))


class TestBitwiseIdentity:
    def test_serial_and_parallel_identical(self):
        serial = generate_dataset(3, TINY, time_step_s=1.0, cache_dir=None, workers=1)
        parallel = generate_dataset(3, TINY, time_step_s=1.0, cache_dir=None, workers=3)
        for a, b in zip(serial.samples, parallel.samples):
            assert a.seed == b.seed
            assert np.array_equal(a.acid, b.acid)
            assert np.array_equal(a.inhibitor, b.inhibitor)
            assert np.array_equal(a.label, b.label)
            assert a.contacts == b.contacts

    def test_env_worker_count_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        from_env = generate_dataset(2, TINY, time_step_s=1.0, cache_dir=None)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = generate_dataset(2, TINY, time_step_s=1.0, cache_dir=None)
        for a, b in zip(from_env.samples, serial.samples):
            assert np.array_equal(a.acid, b.acid)
            assert np.array_equal(a.label, b.label)


class TestPoolDiscipline:
    def test_cache_hits_skip_pool(self, tmp_path, monkeypatch):
        generate_dataset(2, TINY, time_step_s=1.0, cache_dir=tmp_path, workers=1)

        def forbid(fn, items, workers=None):
            raise AssertionError("fully cached datasets must not reach the pool")

        monkeypatch.setattr(dataset_module, "parallel_map", forbid)
        reloaded = generate_dataset(2, TINY, time_step_s=1.0, cache_dir=tmp_path)
        assert len(reloaded) == 2

    def test_workers_one_never_spawns(self, monkeypatch):
        def forbid(*args, **kwargs):
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(pool_module, "ForkedWorker", forbid)
        dataset = generate_dataset(2, TINY, time_step_s=1.0, cache_dir=None, workers=1)
        assert len(dataset) == 2

    def test_partial_cache_only_simulates_misses(self, tmp_path):
        generate_dataset(1, TINY, time_step_s=1.0, cache_dir=tmp_path, workers=1)
        calls = []
        original = dataset_module.parallel_map

        def spy(fn, items, workers=None):
            calls.append([task[0] for task in items])
            return original(fn, items, workers=workers)

        try:
            dataset_module.parallel_map = spy
            dataset = generate_dataset(3, TINY, time_step_s=1.0,
                                       cache_dir=tmp_path, workers=1)
        finally:
            dataset_module.parallel_map = original
        assert calls == [[1, 2]]
        assert [s.seed for s in dataset.samples] == [0, 1, 2]
