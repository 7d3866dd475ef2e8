"""Serving must not perturb numerics: a clip served through the batcher and
the HTTP stack is bitwise identical to ``Trainer.predict`` offline.

One caveat the tests encode deliberately: BLAS picks its GEMM blocking by
matrix shape, so a forward at batch size 1 and a forward at batch size 4
can differ in the last ulp (measured ~3e-15 absolute).  Identity is
therefore asserted between *matching batch compositions* — the serving
path must add exactly nothing on top of the model's own numerics.
"""

import io
import threading
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.core import TrainConfig, Trainer
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, PredictServer, ServeConfig, ServedModel, load_checkpoint,
    save_checkpoint,
)

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


@pytest.fixture(scope="module", params=["DeepCNN", "SDM-PEB"])
def checkpoint(request, tmp_path_factory):
    """A saved checkpoint plus the Trainer wrapping the original model."""
    method = request.param
    nn.init.seed(0)
    model, _ = build_method(method, GRID)
    rng = np.random.default_rng(0)
    inputs = rng.random((4,) + GRID.shape)
    targets = 2.0 * inputs + rng.normal(0.0, 0.05, size=inputs.shape)
    trainer = Trainer(model, inputs, targets, TrainConfig(epochs=1, batch_size=2))
    path = tmp_path_factory.mktemp(f"det-{method}") / "model.npz"
    save_checkpoint(model, path, method=method, grid=GRID)
    clips = rng.random((4,) + GRID.shape)
    return trainer, path, clips


def serve_model(path, workers=1, **policy_kwargs) -> ServedModel:
    # workers defaults to 1 (not the env) because several tests below
    # patch in-process batcher internals; the cross-worker matrix
    # parameterizes `workers` explicitly
    loaded, manifest = load_checkpoint(path)
    return ServedModel(loaded, manifest, BatchPolicy(**policy_kwargs),
                       workers=workers)


class TestBatchedVsSingle:
    def test_full_batch_bitwise_identical_to_trainer_predict(self, checkpoint):
        trainer, path, clips = checkpoint
        expected = trainer.predict(clips, batch_size=len(clips))
        served = serve_model(path)
        got = served.batcher._predict_fn(clips)
        assert np.array_equal(got, expected)
        served.batcher.close()

    def test_coalesced_batch_bitwise_identical(self, checkpoint):
        """Force a known batch split (1 then 3) through the real batcher and
        compare each against Trainer.predict at the matching batch size."""
        trainer, path, clips = checkpoint
        served = serve_model(path, max_batch_size=len(clips), max_wait_ms=500.0,
                             cache_entries=0)
        gate = threading.Event()
        started = threading.Event()
        inner = served.batcher._predict_fn

        def gated(batch):
            started.set()
            assert gate.wait(30.0)
            return inner(batch)

        served.batcher._predict_fn = gated
        results = [None] * len(clips)

        def run(index, payload):
            results[index] = served.batcher.submit(payload)

        threads = [threading.Thread(target=run, args=(0, clips[0]), daemon=True)]
        threads[0].start()
        assert started.wait(10.0)          # worker holds clips[0] alone
        for i in range(1, len(clips)):
            thread = threading.Thread(target=run, args=(i, clips[i]), daemon=True)
            thread.start()
            threads.append(thread)
        deadline = 500
        while served.batcher.queue_depth() < len(clips) - 1 and deadline:
            threading.Event().wait(0.01)
            deadline -= 1
        assert served.batcher.queue_depth() == len(clips) - 1
        gate.set()                          # release: batch [clip0], then [1..3]
        for thread in threads:
            thread.join(30.0)
        assert served.batcher.stats()["batches_run"] == 2
        expected_head = trainer.predict(clips[:1], batch_size=1)
        expected_tail = trainer.predict(clips[1:], batch_size=len(clips) - 1)
        assert np.array_equal(np.stack([results[0]]), expected_head)
        assert np.array_equal(np.stack(results[1:]), expected_tail)
        served.batcher.close()

    def test_single_requests_bitwise_identical_to_trainer_predict(self, checkpoint):
        trainer, path, clips = checkpoint
        expected = trainer.predict(clips, batch_size=1)
        served = serve_model(path, max_batch_size=1, max_wait_ms=0.0, cache_entries=0)
        singles = np.stack([served.batcher.submit(clip) for clip in clips])
        assert np.array_equal(singles, expected)
        served.batcher.close()


class TestObservationOnly:
    def test_monitors_and_tracing_do_not_perturb_predictions(
            self, checkpoint, tmp_path_factory):
        """Health monitors + tracing enabled must serve bitwise-identical
        predictions: everything in repro.obs only ever *reads* the batch."""
        from repro.obs import (
            HealthConfig, disable_tracing, enable_tracing, reset_metrics,
        )

        trainer, path, clips = checkpoint
        expected = trainer.predict(clips, batch_size=1)
        trace_path = tmp_path_factory.mktemp("obs-det") / "trace.jsonl"
        enable_tracing(trace_path)
        try:
            loaded, manifest = load_checkpoint(path)
            served = ServedModel(
                loaded, manifest,
                BatchPolicy(max_batch_size=1, max_wait_ms=0.0, cache_entries=0),
                health=HealthConfig(shadow_every=2, shadow_time_step_s=30.0))
            got = np.stack([served.batcher.submit(clip) for clip in clips])
            served.close()
        finally:
            disable_tracing()
            reset_metrics()
        assert np.array_equal(got, expected)
        # and the monitors actually ran: the trace shows health spans
        names = {line.split('"name":"')[1].split('"')[0]
                 for line in trace_path.read_text().splitlines() if line}
        assert "serve.health" in names


class TestCrossWorkerMatrix:
    """Bitwise identity across the full backend matrix.

    workers ∈ {1, 2, 4} × tracing on/off must all serve the same bytes:
    the process pool, the inherited weights and the batcher's lanes are
    transport, never arithmetic.  Batch-1 policy pins the composition so
    the BLAS shape caveat (module docstring) cannot blur the comparison.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("tracing", [False, True])
    def test_bitwise_identical_across_backends(self, checkpoint, workers,
                                               tracing, tmp_path_factory):
        from repro.obs import disable_tracing, enable_tracing

        trainer, path, clips = checkpoint
        expected = trainer.predict(clips, batch_size=1)
        if tracing:
            trace_path = (tmp_path_factory.mktemp("matrix-trace")
                          / f"w{workers}.jsonl")
            enable_tracing(trace_path)
        try:
            served = serve_model(path, workers=workers, max_batch_size=1,
                                 max_wait_ms=0.0, cache_entries=0)
            assert served.workers == workers
            assert (served.pool is not None) == (workers > 1)
            # twice: warmed workers must hit the same bytes again
            for _ in range(2):
                got = np.stack([served.batcher.submit(clip, timeout_s=60)
                                for clip in clips])
                assert np.array_equal(got, expected)
            served.close()
        finally:
            if tracing:
                disable_tracing()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mixed_compositions_through_lanes(self, checkpoint, workers):
        """Concurrent submits coalesce into mixed-size batches across the
        lanes; each batch must equal Trainer.predict at the matching
        size."""
        trainer, path, clips = checkpoint
        rng = np.random.default_rng(7)
        many = rng.random((8,) + clips.shape[1:])
        served = serve_model(path, workers=workers, max_batch_size=len(many),
                             max_wait_ms=500.0, cache_entries=0)
        batcher = served.batcher
        # gate the lanes' predict so each of the first `workers` batches
        # holds one head alone, and the tail queued behind them coalesces
        # into one follow-up batch — a known mixed composition
        gate = threading.Event()
        begun = threading.Semaphore(0)
        inner = batcher._predict_fn

        def gated(batch):
            begun.release()
            assert gate.wait(60.0)
            return inner(batch)

        batcher._predict_fn = gated
        results = [None] * len(many)

        def run(index):
            results[index] = batcher.submit(many[index], timeout_s=120.0)

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(many))]
        heads, tail = list(range(workers)), list(range(workers, len(many)))
        # start each head only once the previous one's lane holds it
        # behind the gate, so every lane runs exactly one head
        for index in heads:
            threads[index].start()
            assert begun.acquire(timeout=60.0)
        for index in tail:
            threads[index].start()
        deadline = 1000
        while batcher.queue_depth() < len(tail) and deadline:
            threading.Event().wait(0.01)
            deadline -= 1
        assert batcher.queue_depth() == len(tail)
        gate.set()
        for thread in threads:
            thread.join(120.0)
        assert batcher.stats()["batches_run"] == workers + 1
        for head in heads:
            want_head = trainer.predict(many[[head]], batch_size=1)
            assert np.array_equal(results[head], want_head[0])
        want_tail = trainer.predict(many[tail], batch_size=len(tail))
        got_tail = np.stack([results[i] for i in tail])
        assert np.array_equal(got_tail, want_tail)
        served.close()


class TestTelemetryObservationOnly:
    """The telemetry stack (sampler thread, SLO evaluation, flight
    recorder span tap) must serve bitwise-identical bytes when enabled:
    it reads metric snapshots and span payloads, never the batch."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_bitwise_identical_with_telemetry_on_vs_off(
            self, checkpoint, workers, tmp_path_factory):
        import json

        trainer, path, clips = checkpoint
        expected = trainer.predict(clips, batch_size=1)
        for telemetry in (False, True):
            config = ServeConfig(
                port=0, telemetry=telemetry, flight=telemetry,
                # aggressive cadence + tiny SLO windows so the sampler
                # and burn evaluation genuinely interleave with serving
                telemetry_interval_s=0.05,
                slo_fast_window_s=0.1, slo_slow_window_s=1.0,
                flight_dump_dir=str(tmp_path_factory.mktemp("fdump")))
            served = serve_model(path, workers=workers, max_batch_size=1,
                                 max_wait_ms=0.0, cache_entries=0)
            server = PredictServer(served, config).start()
            try:
                host, port = server.address
                connection = HTTPConnection(host, port, timeout=60)
                for clip, want in zip(clips, expected):
                    buffer = io.BytesIO()
                    np.savez(buffer, acid=clip)
                    connection.request(
                        "POST", "/v1/predict", body=buffer.getvalue(),
                        headers={"Content-Type":
                                 "application/octet-stream"})
                    response = connection.getresponse()
                    assert response.status == 200
                    with np.load(io.BytesIO(response.read())) as archive:
                        got = archive["prediction"]
                    assert np.array_equal(got, want)
                    if telemetry:
                        # exercise SLO evaluation concurrently with serving
                        connection.request("GET", "/healthz")
                        health = json.loads(
                            connection.getresponse().read())
                        assert health["alerts"]["state"] in (
                            "ok", "pending", "firing")
                connection.close()
                if telemetry:
                    assert server.sampler.db.samples >= 1
                    assert server.flight.stats()["requests"] >= len(clips)
            finally:
                server.shutdown()


class TestEndToEndHTTP:
    def test_http_npz_prediction_bitwise_identical(self, checkpoint):
        trainer, path, clips = checkpoint
        # a sequential client yields batches of one; compare at batch size 1
        expected = trainer.predict(clips, batch_size=1)
        served = serve_model(path, max_wait_ms=2.0)
        server = PredictServer(served, ServeConfig(port=0)).start()
        try:
            host, port = server.address
            connection = HTTPConnection(host, port, timeout=60)
            for clip, want in zip(clips, expected):
                buffer = io.BytesIO()
                np.savez(buffer, acid=clip)
                connection.request("POST", "/v1/predict", body=buffer.getvalue(),
                                   headers={"Content-Type": "application/octet-stream"})
                response = connection.getresponse()
                assert response.status == 200
                with np.load(io.BytesIO(response.read())) as archive:
                    got = archive["prediction"]
                # npz transport is lossless: bitwise equality end to end
                assert np.array_equal(got, want)
            connection.close()
        finally:
            server.shutdown()
