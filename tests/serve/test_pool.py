"""Unit coverage for the process-pool plumbing: worker-count resolution,
shard routing determinism, pool stats shape, read-only inherited
weights, worker reaping (close, crash, SIGTERM and a SIGKILLed server)
and closed-pool behavior.  Heavier end-to-end pool behavior (crash,
respawn, bitwise identity) lives in test_fault_injection.py and
test_determinism.py.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, ServedModel, ServeError, load_checkpoint,
    resolve_serve_workers, save_checkpoint, shard_for,
)
from repro.serve import pool as pool_module
from repro.serve.router import ShardRouter

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def wait_until(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _inspect_parameters(model, executor, batch, engine):
    """Stand-in forward run inside a worker: the inherited parameters, and
    for each whether an in-place write was refused."""
    refused = []
    for _, param in model.named_parameters():
        try:
            param.data[...] = 0.0
        except ValueError:
            refused.append(True)
        else:
            refused.append(False)
    return {"refused": refused,
            "values": {name: param.data for name, param in model.named_parameters()}}


class TestResolveServeWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_WORKERS", raising=False)
        assert resolve_serve_workers() == 1

    def test_env_applies_when_arg_omitted(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
        assert resolve_serve_workers() == 4

    def test_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
        assert resolve_serve_workers(2) == 2

    @pytest.mark.parametrize("bad", ["0", "-3", "two", "1.5"])
    def test_bad_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", bad)
        with pytest.raises(ValueError):
            resolve_serve_workers()

    def test_bad_arg_raises(self):
        with pytest.raises(ValueError):
            resolve_serve_workers(0)


class TestShardFor:
    def test_deterministic_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(32):
            key = hashlib.sha256(rng.bytes(16)).hexdigest()
            for n in (1, 2, 4, 8):
                shard = shard_for(key, n)
                assert 0 <= shard < n
                assert shard == shard_for(key, n)

    def test_single_shard_routes_everything_to_zero(self):
        key = hashlib.sha256(b"x").hexdigest()
        assert shard_for(key, 1) == 0

    def test_spreads_across_shards(self):
        keys = [hashlib.sha256(bytes([i])).hexdigest() for i in range(64)]
        hit = {shard_for(k, 4) for k in keys}
        assert hit == {0, 1, 2, 3}


class TestShardRouter:
    def test_same_clip_always_lands_on_same_shard(self):
        seen = []

        def make(shard):
            def predict(batch):
                seen.append(shard)
                return batch
            return predict

        router = ShardRouter(make, 4, BatchPolicy(max_batch_size=1,
                                                  max_wait_ms=0.0,
                                                  cache_entries=0))
        try:
            clip = np.random.default_rng(1).random(GRID.shape)
            expected_shard, key = router.shard_of(clip)
            assert shard_for(key, 4) == expected_shard
            for _ in range(3):
                router.submit(clip, timeout_s=30.0)
            assert seen == [expected_shard] * 3
        finally:
            router.close()
        assert router.closed

    def test_stats_merge_per_shard_sections(self):
        router = ShardRouter(lambda shard: (lambda batch: batch), 2,
                             BatchPolicy(max_batch_size=1, max_wait_ms=0.0))
        try:
            stats = router.stats()
            assert stats["shards"].keys() == {"s0", "s1"}
            assert stats["requests_done"] == 0
            assert stats["batches_run"] == 0
            assert router.queue_depth() == 0
        finally:
            router.close()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", GRID)
    model.set_output_stats(0.5, 1.0)
    path = tmp_path_factory.mktemp("pool-ckpt") / "model.npz"
    save_checkpoint(model, path, method="SDM-PEB", grid=GRID)
    return path


def pooled(checkpoint, workers=2):
    loaded, manifest = load_checkpoint(checkpoint)
    return ServedModel(loaded, manifest,
                       BatchPolicy(max_batch_size=1, max_wait_ms=0.0),
                       workers=workers)


class TestPooledServedModel:
    def test_stats_shape_and_worker_identity(self, checkpoint):
        loaded, manifest = load_checkpoint(checkpoint)
        served = ServedModel(loaded, manifest,
                             BatchPolicy(max_batch_size=1, max_wait_ms=0.0),
                             workers=2)
        try:
            stats = served.pool.stats()
            assert stats["workers"] == 2
            assert stats["alive"] == 2
            assert stats["restarts"] == 0
            assert len(stats["per_worker"]) == 2
            pids = {w["pid"] for w in stats["per_worker"]}
            assert len(pids) == 2
            for worker in stats["per_worker"]:
                assert worker["alive"]
                assert worker["restarts"] == 0
        finally:
            served.close()

    def test_env_worker_count_applies(self, checkpoint, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "2")
        loaded, manifest = load_checkpoint(checkpoint)
        served = ServedModel(loaded, manifest,
                             BatchPolicy(max_batch_size=1, max_wait_ms=0.0))
        try:
            assert served.workers == 2
            assert served.pool is not None
        finally:
            served.close()

    def test_worker_setup_failure_fails_spawn_loudly(self, checkpoint,
                                                     monkeypatch):
        """A worker whose setup raises must fail the ServedModel
        constructor with that error (ready handshake), not leave workers
        crash-looping — and must leave no worker process behind."""
        def broken_setup(*args):
            raise ServeError("worker setup exploded")

        monkeypatch.setattr(pool_module, "_serve_batches", broken_setup)
        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(ServeError, match="setup exploded"):
            pooled(checkpoint)
        assert [child for child in multiprocessing.active_children()
                if child.pid not in before] == []

    def test_worker_parameters_are_readonly_and_exact(self, checkpoint,
                                                      monkeypatch):
        """Workers serve the parent's float64 weights through the fork,
        and an in-place parameter write inside a worker fails loudly."""
        monkeypatch.setattr(pool_module, "_forward", _inspect_parameters)
        served = pooled(checkpoint)
        try:
            report = served.pool.forward(0, np.zeros((1,) + GRID.shape))
        finally:
            served.close()
        assert report["refused"] and all(report["refused"])
        params = dict(served.model.named_parameters())
        assert report["values"].keys() == params.keys()
        for name, value in report["values"].items():
            assert value.dtype == np.float64
            assert np.array_equal(value, params[name].data), name

    def test_closed_pool_rejects_forward(self, checkpoint):
        loaded, manifest = load_checkpoint(checkpoint)
        served = ServedModel(loaded, manifest,
                             BatchPolicy(max_batch_size=1, max_wait_ms=0.0),
                             workers=2)
        pool = served.pool
        served.close()
        clip = np.random.default_rng(2).random(GRID.shape)
        with pytest.raises(Exception):
            pool.forward(0, clip[None])


class TestPoolLifecycle:
    def test_normal_drain_reaps_workers(self, checkpoint):
        served = pooled(checkpoint)
        pids = [w["pid"] for w in served.pool.stats()["per_worker"]]
        assert all(running(pid) for pid in pids)
        served.close(drain=True)
        assert not any(running(pid) for pid in pids)

    def test_worker_crash_then_close_reaps_every_worker(self, checkpoint):
        """SIGKILLed workers are respawned, and close still reaps every
        replacement."""
        served = pooled(checkpoint)
        try:
            for handle in served.pool._workers:
                os.kill(handle.process.pid, signal.SIGKILL)
            assert wait_until(
                lambda: (lambda s: s["alive"] == s["workers"]
                         and s["restarts"] >= 2)(served.pool.stats()),
                timeout_s=10.0), served.pool.stats()
            pids = [w["pid"] for w in served.pool.stats()["per_worker"]]
        finally:
            served.close()
        assert not any(running(pid) for pid in pids)


class TestServeProcessSignals:
    """``repro serve --serve-workers 2`` as a subprocess: SIGTERM drains
    and exits cleanly, and a SIGKILLed server takes its workers down."""

    def start_server(self, checkpoint):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        env.pop("REPRO_SERVE_WORKERS", None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--ckpt", str(checkpoint),
             "--port", "0", "--serve-workers", "2", "--no-jobs"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=Path(__file__).resolve().parents[2], env=env)
        output = []
        for line in process.stdout:
            output.append(line)
            if line.startswith("listening on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
                break
        else:
            process.wait(10.0)
            pytest.fail("server died early:\n" + "".join(output))
        connection = HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        (pool,) = health["pools"].values()
        pids = [w["pid"] for w in pool["per_worker"]]
        assert len(pids) == 2 and all(running(pid) for pid in pids)
        return process, pids

    def test_sigterm_drains_and_reaps_workers(self, checkpoint):
        process, pids = self.start_server(checkpoint)
        try:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60.0) == 0
            assert not any(running(pid) for pid in pids)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10.0)

    def test_sigkilled_server_takes_its_workers_down(self, checkpoint):
        """Each worker closed every copy of its parent's pipe end, so the
        dead server's pipes read EOF in the workers, which exit."""
        process, pids = self.start_server(checkpoint)
        try:
            process.kill()
            process.wait(10.0)
            assert wait_until(lambda: not any(running(pid) for pid in pids),
                              timeout_s=5.0), \
                f"orphaned workers still running: {[p for p in pids if running(p)]}"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10.0)
            for pid in pids:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
