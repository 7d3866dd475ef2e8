"""Plan engine on the serving path: identity, fallback, stats surfaces.

The served contract: `engine="plan"` changes wall time only.  Every
response body is bitwise identical to the tape engine's, across batch
shapes and submit concurrency; models the compiler cannot capture fall
back to the tape silently and the fallback is observable.
"""

import io
import json
import threading
from dataclasses import asdict
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, ModelManifest, ModelRegistry, PredictServer, ServeConfig,
    ServedModel, clear_plan_cache, plan_cache_stats, resolve_engine,
)
from repro.tensor import Tensor, no_grad

GRID = GridConfig(size_um=1.0, nx=8, ny=8, nz=2)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    nn.init.seed(0)
    model, _ = build_method("SDM-PEB", GRID)
    model.set_output_stats(0.5, 1.0)
    registry.publish(model, "SDM-PEB", GRID, "peb")
    return registry


def make_served(registry, engine, max_batch=4, max_wait_ms=1.0,
                cache_entries=0):
    model, manifest = registry.load("peb")
    policy = BatchPolicy(max_batch_size=max_batch, max_wait_ms=max_wait_ms,
                         cache_entries=cache_entries)
    # workers=1 pinned: these tests assert THIS process's plan cache;
    # pooled workers own their plan caches in their own processes
    return ServedModel(model, manifest, policy, engine=engine, workers=1)


class TestEngineResolution:
    def test_explicit_choice_wins(self):
        assert resolve_engine("tape") == "tape"
        assert resolve_engine("plan") == "plan"
        with pytest.raises(ValueError):
            resolve_engine("jit")

    @pytest.mark.parametrize("raw,expected", [
        ("", "tape"), ("0", "tape"), ("false", "tape"),
        ("1", "plan"), ("true", "plan"),
    ])
    def test_env_var_opt_in(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_INFER_PLAN", raw)
        assert resolve_engine(None) == expected

    def test_served_model_defaults_from_env(self, monkeypatch, checkpoint):
        monkeypatch.setenv("REPRO_INFER_PLAN", "1")
        served = make_served(checkpoint, engine=None)
        try:
            assert served.engine == "plan"
        finally:
            served.close()


class TestBatchIdentity:
    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    def test_predict_batch_bitwise_identical(self, checkpoint, batch):
        tape = make_served(checkpoint, "tape")
        plan = make_served(checkpoint, "plan")
        try:
            x = np.random.default_rng(batch).random((batch, 1) + GRID.shape)
            expected = tape.batcher._predict_fn(x)
            # first call captures + replays, second replays from cache
            assert np.array_equal(plan.batcher._predict_fn(x), expected)
            assert np.array_equal(plan.batcher._predict_fn(x), expected)
        finally:
            tape.close()
            plan.close()
        stats = plan_cache_stats()
        assert stats["plans"] == 1
        assert stats["capture_failures"] == 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_concurrent_submits_match_tape(self, checkpoint, workers):
        # identity is defined per batch composition (BLAS blocking differs
        # across batch sizes), so pin every batch to size 1 and let the
        # worker threads race on the shared plan cache instead
        tape = make_served(checkpoint, "tape", max_batch=1)
        plan = make_served(checkpoint, "plan", max_batch=1)
        rng = np.random.default_rng(77)
        clips = [rng.random(GRID.shape) for _ in range(workers * 3)]
        try:
            expected = [tape.batcher.submit(clip, timeout_s=60) for clip in clips]
            results: list = [None] * len(clips)

            def submit(indices):
                for i in indices:
                    results[i] = plan.batcher.submit(clips[i], timeout_s=60)

            threads = [threading.Thread(target=submit,
                                        args=(range(w, len(clips), workers),))
                       for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            tape.close()
            plan.close()
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


class _UnplannableModel(nn.Module):
    """Forward uses an op the plan compiler has no kernel for."""

    def __init__(self):
        super().__init__()
        self.scale = nn.Parameter(np.ones((1,), dtype=np.float64))

    def forward(self, x):
        data = np.sort(x.data, axis=-1)
        return Tensor.from_op(data, [(x, lambda g: g)], op="sort") * self.scale


def _fake_manifest() -> ModelManifest:
    return ModelManifest(
        name="unplannable", version=1, model_class="DeepCNN",
        grid=asdict(GRID), dtype="float64", param_count=1,
        content_hash="sha256:unplannable", output_mean=0.0, output_std=1.0,
        created_unix_s=0.0)


class TestFallback:
    def test_capture_failure_falls_back_to_tape(self):
        # workers=1: the fake manifest cannot rebuild _UnplannableModel
        # in a pool worker (the pooled backend needs registry-faithful
        # manifests); this test is about THIS process's plan fallback
        served = ServedModel(_UnplannableModel(), _fake_manifest(),
                             BatchPolicy(max_wait_ms=0.5, cache_entries=0),
                             engine="plan", workers=1)
        try:
            x = np.random.default_rng(5).random((2, 1) + GRID.shape)
            with no_grad():
                expected = served.model(Tensor(x)).numpy()
            # every call is served correctly despite the failed capture
            assert np.array_equal(served.batcher._predict_fn(x), expected)
            assert np.array_equal(served.batcher._predict_fn(x), expected)
        finally:
            served.close()
        stats = plan_cache_stats()
        assert stats["capture_failures"] == 1
        assert stats["failed"] == 1
        assert stats["fallbacks"] >= 2
        assert stats["plans"] == 0


class TestHTTPSurfaces:
    @pytest.fixture()
    def server(self, checkpoint):
        served = make_served(checkpoint, "plan", cache_entries=4)
        instance = PredictServer(served,
                                 ServeConfig(port=0, policy=served.batcher.policy))
        instance.start()
        yield instance
        instance.shutdown()

    def _request(self, server, method, path, body=None, headers=None):
        host, port = server.address
        conn = HTTPConnection(host, port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_healthz_reports_plan_and_cache_stats(self, server):
        rng = np.random.default_rng(9)
        buffer = io.BytesIO()
        np.savez(buffer, acid=rng.random(GRID.shape))
        status, _ = self._request(
            server, "POST", "/v1/predict", body=buffer.getvalue(),
            headers={"Content-Type": "application/octet-stream"})
        assert status == 200
        status, body = self._request(server, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["engines"] == ["plan"]
        assert payload["plan_cache"]["plans"] == 1
        assert payload["plan_cache"]["replays"] >= 1
        caches = payload["caches"]
        assert "hit_rate" in caches["propagator"]
        response_stats = next(iter(caches["response"].values()))
        assert {"capacity", "entries", "hit_rate", "evictions"} <= set(response_stats)
        queue_stats = next(iter(payload["queues"].values()))
        assert "cache_evictions" in queue_stats

    def test_metrics_exposes_plan_series(self, server):
        rng = np.random.default_rng(10)
        buffer = io.BytesIO()
        np.savez(buffer, acid=rng.random(GRID.shape))
        status, _ = self._request(
            server, "POST", "/v1/predict", body=buffer.getvalue(),
            headers={"Content-Type": "application/octet-stream"})
        assert status == 200
        status, body = self._request(server, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        # refresh-on-scrape levels are real gauges now (no _total suffix);
        # cumulative families keep their counter rendering
        for needle in ("repro_serve_plan_captures_total",
                       "# TYPE repro_serve_plan_cached_plans gauge",
                       "# TYPE repro_serve_plan_arena_bytes gauge",
                       "repro_serve_plan_capture_seconds_count",
                       "repro_serve_plan_replay_seconds_count",
                       "# TYPE repro_serve_cache_entries gauge",
                       "# TYPE repro_serve_cache_evictions gauge",
                       "repro_cache_propagator_hits_total"):
            assert needle in text, f"missing {needle} in /metrics"
