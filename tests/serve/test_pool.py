"""Unit coverage for the process-pool plumbing: worker-count resolution,
pool stats shape, batches going to free and enabled workers, read-only
inherited weights, worker reaping (close, crash, SIGTERM and a
SIGKILLed server) and closed-pool behavior.  Heavier end-to-end pool behavior (crash,
respawn, bitwise identity) lives in test_fault_injection.py and
test_determinism.py.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, MicroBatcher, ServedModel, ServeError, content_hash,
    load_checkpoint, resolve_serve_workers, save_checkpoint,
)
from repro.serve import pool as pool_module

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


def _inspect_parameters(model, batch):
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
            report = served.pool.forward(np.zeros((1,) + GRID.shape))
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
            pool.forward(clip[None])


def batches_done(served) -> list[int]:
    return [w["batches_done"] for w in served.pool.stats()["per_worker"]]


def submit_all(batcher, clips) -> list:
    """Submit every clip from its own thread; each result or error."""
    outcomes: list = [None] * len(clips)

    def run(index):
        try:
            outcomes[index] = batcher.submit(clips[index], timeout_s=60.0)
        except Exception as error:  # noqa: BLE001 - captured for assertions
            outcomes[index] = error

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(clips))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    return outcomes


class TestBatchesGoToFreeWorkers:
    def test_concurrent_clips_run_on_both_workers(self, checkpoint,
                                                  monkeypatch):
        """Two distinct clips whose content hashes agree mod 2 run side by
        side on the two workers instead of queueing for one."""
        rng = np.random.default_rng(11)
        clips = [rng.random(GRID.shape) for _ in range(8)]

        def parity(clip):
            return int(content_hash(clip)[:16], 16) % 2

        pair = [clips[0], next(c for c in clips[1:]
                               if parity(c) == parity(clips[0]))]
        forward = pool_module._forward

        def slow_forward(*args):
            time.sleep(0.5)
            return forward(*args)

        monkeypatch.setattr(pool_module, "_forward", slow_forward)
        served = pooled(checkpoint)
        try:
            results = [None, None]

            def run(index):
                results[index] = served.batcher.submit(pair[index],
                                                       timeout_s=60.0)

            first = threading.Thread(target=run, args=(0,), daemon=True)
            first.start()
            # a heartbeat's busy would only start the second clip sooner
            assert wait_until(lambda: any(h.busy for h in served.pool._workers),
                              timeout_s=30.0)
            second = threading.Thread(target=run, args=(1,), daemon=True)
            second.start()
            first.join(60.0)
            second.join(60.0)
            assert all(result is not None for result in results)
            assert batches_done(served) == [1, 1]
        finally:
            served.close()

    def test_disabled_worker_gets_no_batches(self, checkpoint):
        served = pooled(checkpoint)
        try:
            served.pool._workers[1].disabled = True
            clips = list(np.random.default_rng(12).random((6,) + GRID.shape))
            outcomes = submit_all(served.batcher, clips)
            assert all(isinstance(o, np.ndarray) for o in outcomes), outcomes
            assert batches_done(served) == [6, 0]
        finally:
            served.close()

    def test_more_lanes_than_workers_under_thread_churn(self, checkpoint):
        """Four lanes contend for two workers with the switch interval cut
        short: every clip still gets its own answer (two batches on one
        worker's pipe would swap replies) and every batch is counted."""
        clips = list(np.random.default_rng(14).random((24,) + GRID.shape))
        reference = pooled(checkpoint, workers=1)
        try:
            expected = [reference.batcher.submit(c, timeout_s=60.0) for c in clips]
        finally:
            reference.close()
        served = pooled(checkpoint)
        batcher = MicroBatcher(served.pool.forward,
                               BatchPolicy(max_batch_size=1, max_wait_ms=0.0,
                                           cache_entries=0), lanes=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = submit_all(batcher, clips)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
            served.close()
        for got, want in zip(outcomes, expected):
            assert isinstance(got, np.ndarray), got
            assert np.array_equal(got, want)
        assert sum(batches_done(served)) == len(clips)

    def test_every_worker_disabled_fails_fast(self, checkpoint):
        served = pooled(checkpoint)
        try:
            for handle in served.pool._workers:
                handle.disabled = True
            clip = np.random.default_rng(13).random(GRID.shape)
            with pytest.raises(ServeError, match="disabled"):
                served.batcher.submit(clip, timeout_s=30.0)
        finally:
            served.close()


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
