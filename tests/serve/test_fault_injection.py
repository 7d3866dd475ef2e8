"""Serve-stack fault injection: SIGKILL a worker mid-batch and prove the
stack fails *safe* — in-flight requests get 503 + ``Retry-After`` (never a
wrong answer), the worker respawns, ``/healthz`` reports the restart, and
the span tree stays well-formed.

The kill window is made deterministic, not probabilistic: the test
patches the pool's per-batch forward to sleep before computing (workers
forked afterwards inherit the patch), and the parent-side ``busy`` flag
on the worker handle flips the moment the batch hits the pipe — the
test waits for ``busy``, then kills, landing squarely inside the delay
every run.
"""

import io
import json
import os
import signal
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, PredictServer, ServeConfig, ServedModel,
    WorkerCrashedError, load_checkpoint, save_checkpoint,
)
from repro.serve import pool as pool_module

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)
#: pre-forward sleep inside workers: wide enough that waiting for the
#: parent-side busy flag then killing always lands mid-batch
KILL_WINDOW_S = 0.5


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", GRID)
    model.set_output_stats(0.5, 1.0)
    path = tmp_path_factory.mktemp("fault-ckpt") / "model.npz"
    save_checkpoint(model, path, method="SDM-PEB", grid=GRID)
    return path


def widen_kill_window(monkeypatch):
    """Workers forked from here on sleep KILL_WINDOW_S before each forward."""
    forward = pool_module._forward

    def slow_forward(*args):
        time.sleep(KILL_WINDOW_S)
        return forward(*args)

    monkeypatch.setattr(pool_module, "_forward", slow_forward)


def pooled_model(path, workers=2, **policy_kwargs):
    loaded, manifest = load_checkpoint(path)
    policy_kwargs.setdefault("max_batch_size", 1)
    policy_kwargs.setdefault("max_wait_ms", 0.0)
    policy_kwargs.setdefault("cache_entries", 0)
    return ServedModel(loaded, manifest, BatchPolicy(**policy_kwargs),
                       workers=workers)


def wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def kill_mid_batch(served, submit):
    """Run ``submit`` on a thread and SIGKILL the worker that takes the
    batch while it is in flight.  Returns (outcome box, killed worker's
    index, killed pid)."""
    box = {}

    def run():
        try:
            box["result"] = submit()
        except Exception as error:  # noqa: BLE001 - captured for assertions
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    # in_use: claimed by a forward, so a heartbeat's busy does not count
    def holding():
        return [i for i, h in enumerate(served.pool._workers)
                if h.in_use and h.busy]

    assert wait_until(holding, timeout_s=30.0), \
        "batch never reached the worker pipe"
    (index,) = holding()
    pid = served.pool._workers[index].process.pid
    os.kill(pid, signal.SIGKILL)
    thread.join(60.0)
    assert not thread.is_alive()
    return box, index, pid


def wait_for_respawn(pool, min_restarts=1, timeout_s=15.0):
    assert wait_until(
        lambda: (lambda s: s["alive"] == s["workers"]
                 and s["restarts"] >= min_restarts)(pool.stats()),
        timeout_s=timeout_s), f"pool never recovered: {pool.stats()}"


class TestDirectKill:
    def test_sigkill_mid_batch_errors_then_recovers_bitwise(self, checkpoint,
                                                              monkeypatch):
        """The in-flight request fails with WorkerCrashedError — never a
        wrong answer — and the respawned worker serves the same bytes a
        single-worker reference does."""
        rng = np.random.default_rng(0)
        clip = rng.random(GRID.shape)
        reference = pooled_model(checkpoint, workers=1)
        expected = reference.batcher.submit(clip, timeout_s=60.0)
        reference.close()

        widen_kill_window(monkeypatch)
        served = pooled_model(checkpoint)
        try:
            box, shard, killed_pid = kill_mid_batch(
                served, lambda: served.batcher.submit(clip, timeout_s=60.0))
            assert "result" not in box, \
                "a killed worker must never produce an answer"
            assert isinstance(box["error"], WorkerCrashedError)
            wait_for_respawn(served.pool)
            stats = served.pool.stats()
            new_pid = stats["per_worker"][shard]["pid"]
            assert new_pid is not None and new_pid != killed_pid
            retried = served.batcher.submit(clip, timeout_s=60.0)
            assert np.array_equal(retried, expected)
        finally:
            served.close()

    def test_idle_worker_crash_respawned_by_monitor(self, checkpoint):
        served = pooled_model(checkpoint)
        try:
            pid = served.pool._workers[0].process.pid
            os.kill(pid, signal.SIGKILL)
            wait_for_respawn(served.pool)
            assert served.pool._workers[0].process.pid != pid
            # the respawned worker actually serves
            clip = np.random.default_rng(1).random(GRID.shape)
            served.batcher.submit(clip, timeout_s=60.0)
        finally:
            served.close()


class TestHTTPKill:
    def test_503_retry_after_then_healthz_reports_restart(self, checkpoint,
                                                          tmp_path, monkeypatch):
        widen_kill_window(monkeypatch)
        served = pooled_model(checkpoint)
        # crash dumps go to the flight dir — keep them out of the repo root
        server = PredictServer(
            served,
            ServeConfig(port=0, flight_dump_dir=str(tmp_path))).start()
        try:
            host, port = server.address
            rng = np.random.default_rng(2)
            clip = rng.random(GRID.shape)

            def post():
                connection = HTTPConnection(host, port, timeout=120)
                buffer = io.BytesIO()
                np.savez(buffer, acid=clip)
                connection.request(
                    "POST", "/v1/predict", body=buffer.getvalue(),
                    headers={"Content-Type": "application/octet-stream"})
                response = connection.getresponse()
                body = response.read()
                headers = dict(response.getheaders())
                connection.close()
                return response.status, headers, body

            box, _, _ = kill_mid_batch(served, post)
            status, headers, _ = box["result"]
            assert status == 503
            assert "Retry-After" in headers
            wait_for_respawn(served.pool)

            connection = HTTPConnection(host, port, timeout=60)
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
            assert health["worker_restarts"] >= 1
            pools = health["pools"]
            assert any(p["restarts"] >= 1 and p["alive"] == p["workers"]
                       for p in pools.values())

            # the retry succeeds with a real prediction
            status, _, body = post()
            assert status == 200
            with np.load(io.BytesIO(body)) as archive:
                assert archive["prediction"].shape == (GRID.nz, GRID.ny, GRID.nx)
            connection.close()
        finally:
            server.shutdown()

    def test_span_tree_stays_well_formed_through_crash(
            self, checkpoint, tmp_path_factory, monkeypatch):
        """Every span written during a crash+respawn cycle still parents
        into a span that exists, and the crashed request's tree contains
        serve.request + serve.batch (the forward died with the worker)."""
        from repro.obs import disable_tracing, enable_tracing

        trace_path = tmp_path_factory.mktemp("fault-trace") / "trace.jsonl"
        dump_dir = tmp_path_factory.mktemp("fault-flight")
        widen_kill_window(monkeypatch)
        served = pooled_model(checkpoint)
        server = PredictServer(
            served,
            ServeConfig(port=0, flight_dump_dir=str(dump_dir))).start()
        enable_tracing(trace_path)
        try:
            host, port = server.address
            rng = np.random.default_rng(3)
            clip = rng.random(GRID.shape)

            def post(payload, request_id):
                connection = HTTPConnection(host, port, timeout=120)
                buffer = io.BytesIO()
                np.savez(buffer, acid=payload)
                connection.request(
                    "POST", "/v1/predict", body=buffer.getvalue(),
                    headers={"Content-Type": "application/octet-stream",
                             "X-Request-Id": request_id})
                response = connection.getresponse()
                response.read()
                connection.close()
                return response.status

            box, _, _ = kill_mid_batch(served,
                                       lambda: post(clip, "req-killed"))
            assert box["result"] == 503
            wait_for_respawn(served.pool)
            assert post(clip, "req-retry") == 200

            # the handler thread closes the serve.request span a beat
            # after the client reads the response body; wait for both
            # request spans to land before tearing tracing down, or the
            # tree check below races the final write
            def request_spans_written():
                text = trace_path.read_text() if trace_path.exists() else ""
                return all(
                    any('"serve.request"' in line and rid in line
                        for line in text.splitlines())
                    for rid in ('"req-killed"', '"req-retry"'))

            assert wait_until(request_spans_written, timeout_s=10.0), \
                "request spans never reached the trace file"
        finally:
            server.shutdown()
            disable_tracing()

        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines() if line]
        spans = [s for s in spans if s.get("type") == "span"]
        by_id = {s["id"]: s for s in spans}
        # well-formed: every parent pointer resolves
        for s in spans:
            if s.get("parent"):
                assert s["parent"] in by_id, \
                    f"dangling parent {s['parent']} on {s['name']}"
        by_request = {}
        for s in spans:
            rid = s.get("attrs", {}).get("request_id")
            if rid and s.get("trace"):
                by_request[rid] = s["trace"]
        for rid in ("req-killed", "req-retry"):
            assert rid in by_request
            names = {s["name"] for s in spans
                     if s.get("trace") == by_request[rid]}
            assert "serve.request" in names
            assert "serve.batch" in names
        # the successful retry's tree reaches the respawned worker
        retry_names = {s["name"] for s in spans
                       if s.get("trace") == by_request["req-retry"]}
        assert "serve.forward" in retry_names
