"""Telemetry over HTTP: /v1/telemetry, /dashboard, /healthz alerts and
process blocks, and the flight recorder's request ring — end to end."""

import json
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.obs import current_recorder
from repro.serve import (
    BatchPolicy, ModelRegistry, PredictServer, ServeConfig, ServedModel,
)

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def make_served(registry):
    nn.init.seed(0)
    model, _ = build_method("DeepCNN", GRID)
    model.set_output_stats(0.5, 1.0)
    registry.publish(model, "DeepCNN", GRID, "peb")
    loaded, manifest = registry.load("peb")
    return ServedModel(loaded, manifest, BatchPolicy(max_wait_ms=2.0))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return ModelRegistry(tmp_path_factory.mktemp("registry"))


@pytest.fixture(scope="module")
def server(registry, tmp_path_factory):
    config = ServeConfig(port=0, telemetry_interval_s=3600.0,
                         flight_dump_dir=str(tmp_path_factory.mktemp("fl")))
    instance = PredictServer(make_served(registry), config).start()
    yield instance
    instance.shutdown()


def get(server, path, parse=True):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if parse else body)
    finally:
        connection.close()


def predict(server):
    host, port = server.address
    acid = np.random.default_rng(0).random(GRID.shape)
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/v1/predict",
                           body=json.dumps({"acid": acid.tolist()}),
                           headers={"Content-Type": "application/json"})
        assert connection.getresponse().status == 200
    finally:
        connection.close()


class TestTelemetryRoute:
    def test_payload_shape_after_sampling(self, server):
        predict(server)
        server.sampler.sample_once()     # interval is huge: tick by hand
        predict(server)
        server.sampler.sample_once()
        status, payload = get(server, "/v1/telemetry")
        assert status == 200
        assert payload["enabled"]
        assert payload["samples"] >= 2
        assert payload["interval_s"] == 3600.0
        series = payload["series"]
        assert series["serve.http.predict"]["kind"] == "counter"
        assert sum(series["serve.http.predict"]["rate_per_s"]) > 0
        latency = series["serve.request_latency_s"]
        assert set(latency["quantiles"]) == {"p50", "p99"}
        assert payload["alerts"]["state"] in ("ok", "pending", "firing")

    def test_prefix_filter(self, server):
        server.sampler.sample_once()
        _, payload = get(server, "/v1/telemetry?prefix=process.")
        assert payload["series"]
        assert all(name.startswith("process.")
                   for name in payload["series"])

    def test_window_arg_validated(self, server):
        for bad in ("bogus", "nan", "inf", "-inf"):
            status, payload = get(server, f"/v1/telemetry?window_s={bad}")
            assert status == 400, bad
            assert "window_s" in payload["error"]

    def test_process_gauges_sampled(self, server):
        server.sampler.sample_once()
        _, payload = get(server, "/v1/telemetry?prefix=process.rss_bytes")
        values = payload["series"]["process.rss_bytes"]["values"]
        assert values[-1] > 0


class TestDashboard:
    def test_selfcontained_html(self, server):
        predict(server)
        server.sampler.sample_once()
        server.sampler.sample_once()
        status, body = get(server, "/dashboard", parse=False)
        assert status == 200
        html = body.decode("utf-8")
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "<svg" in html                 # inline sparklines
        assert "availability" in html         # the SLO table
        assert "serve.http.predict" in html
        # self-contained: no external scripts, stylesheets or images
        for needle in ("src=\"http", "href=\"http", "<script src"):
            assert needle not in html


class TestHealthz:
    def test_alerts_and_process_blocks(self, server):
        server.sampler.sample_once()
        status, health = get(server, "/healthz")
        assert status == 200
        alerts = health["alerts"]
        assert alerts["state"] in ("ok", "pending", "firing")
        assert {s["name"] for s in alerts["slos"]} == {
            "availability", "served_latency", "shadow_cd_error",
            "job_success"}
        process = health["process"]
        assert process["rss_bytes"] > 0
        assert process["open_fds"] > 0
        assert process["uptime_s"] >= 0
        assert health["telemetry"]["samples"] >= 1
        assert health["flight"]["installed"]

    def test_slo_gauges_reach_metrics(self, server):
        get(server, "/healthz")          # evaluation publishes the gauges
        _, body = get(server, "/metrics", parse=False)
        text = body.decode()
        assert "# TYPE repro_slo_availability_state gauge" in text
        assert "repro_slo_availability_burn_fast" in text

    def test_process_gauges_reach_metrics(self, server):
        _, body = get(server, "/metrics", parse=False)
        text = body.decode()
        assert "# TYPE repro_process_rss_bytes gauge" in text
        assert "# TYPE repro_process_open_fds gauge" in text
        assert "# TYPE repro_process_uptime_s gauge" in text


class TestFlightIntegration:
    def test_requests_land_in_flight_ring(self, server):
        predict(server)
        get(server, "/healthz")
        paths = [r["path"] for r in server.flight._requests]
        assert "/v1/predict" in paths
        assert "/healthz" in paths
        latest = list(server.flight._requests)[-1]
        assert set(latest) >= {"t_wall_s", "method", "path", "status",
                               "dur_ms"}

    def test_server_recorder_is_process_recorder(self, server):
        assert current_recorder() is server.flight

    def test_spans_tapped_without_tracing(self, server):
        predict(server)
        names = {s["name"] for s in server.flight._spans}
        assert "serve.request" in names


class TestDisabled:
    def test_telemetry_off_still_serves(self, registry, tmp_path):
        config = ServeConfig(port=0, telemetry=False, flight=False,
                             flight_dump_dir=str(tmp_path))
        instance = PredictServer(make_served(registry), config).start()
        try:
            predict(instance)
            status, payload = get(instance, "/v1/telemetry")
            assert status == 200
            assert payload == {"enabled": False, "series": {}}
            status, body = get(instance, "/dashboard", parse=False)
            assert status == 200
            assert b"telemetry disabled" in body
            _, health = get(instance, "/healthz")
            assert health["alerts"]["state"] == "disabled"
            assert "telemetry" not in health
            assert instance.flight is None
        finally:
            instance.shutdown()
