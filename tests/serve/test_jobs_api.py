"""/v1/jobs end-to-end: submit → poll → result over a loopback port,
health/metrics surfacing, and restart-resume across server generations."""

import json
import time
from http.client import HTTPConnection

import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.jobs import JobExecutorConfig
from repro.jobs.types import CounterJob
from repro.serve import (
    BatchPolicy, JobService, ModelRegistry, PredictServer, ServeConfig,
    ServedModel,
)

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def make_served(registry):
    nn.init.seed(0)
    model, _ = build_method("DeepCNN", GRID)
    model.set_output_stats(0.5, 1.0)
    registry.publish(model, "DeepCNN", GRID, "peb")
    loaded, manifest = registry.load("peb")
    return ServedModel(loaded, manifest, BatchPolicy(max_wait_ms=2.0))


def slow_down_steps(monkeypatch, delay_s: float) -> None:
    """Every CounterJob step sleeps ``delay_s`` first; chunk workers
    forked while the patch is active inherit it."""
    step = CounterJob.step

    def slow_step(self, state):
        time.sleep(delay_s)
        return step(self, state)

    monkeypatch.setattr(CounterJob, "step", slow_step)


def make_server(registry, jobs_root, **executor_overrides):
    executor_overrides.setdefault("poll_interval_s", 0.02)
    jobs = JobService(jobs_root,
                      JobExecutorConfig(**executor_overrides))
    return PredictServer(make_served(registry), ServeConfig(port=0),
                         jobs=jobs).start()


def request_json(server, method, path, payload=None):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def wait_for_state(server, job_id, state, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, payload = request_json(server, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if payload["state"] == state:
            return payload
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r}: {payload}")


def reference_checksum(iterations: int) -> int:
    job = CounterJob({"iterations": iterations})
    state = job.init_state()
    while not job.done(state):
        state, _ = job.step(state)
    result, _ = job.finalize(state)
    return result["checksum"]


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return ModelRegistry(tmp_path_factory.mktemp("registry"))


@pytest.fixture(scope="module")
def server(registry, tmp_path_factory):
    instance = make_server(registry, tmp_path_factory.mktemp("jobs"))
    yield instance
    instance.shutdown()


class TestJobRoutes:
    def test_submit_poll_result_lifecycle(self, server):
        status, created = request_json(
            server, "POST", "/v1/jobs",
            {"type": "counter", "params": {"iterations": 6}})
        assert status == 202
        assert created["state"] == "queued"
        assert created["href"] == f"/v1/jobs/{created['id']}"
        final = wait_for_state(server, created["id"], "completed")
        assert final["result"]["checksum"] == reference_checksum(6)
        assert final["progress"]["iteration"] == 6

    def test_list_includes_submitted_job(self, server):
        _, created = request_json(server, "POST", "/v1/jobs",
                                  {"type": "counter",
                                   "params": {"iterations": 1}})
        status, listing = request_json(server, "GET", "/v1/jobs")
        assert status == 200
        assert created["id"] in [entry["id"] for entry in listing["jobs"]]

    def test_delete_cancels(self, server):
        _, created = request_json(
            server, "POST", "/v1/jobs",
            {"type": "counter", "params": {"iterations": 100000}})
        status, cancelled = request_json(
            server, "DELETE", f"/v1/jobs/{created['id']}")
        assert status == 202
        assert cancelled["cancel_requested"]
        final = wait_for_state(server, created["id"], "cancelled")
        assert final["state"] == "cancelled"

    def test_unknown_type_is_400(self, server):
        status, payload = request_json(server, "POST", "/v1/jobs",
                                       {"type": "no_such_type"})
        assert status == 400
        assert "unknown job type" in payload["error"]

    def test_missing_type_is_400(self, server):
        status, payload = request_json(server, "POST", "/v1/jobs",
                                       {"params": {}})
        assert status == 400
        assert '"type"' in payload["error"]

    def test_unknown_id_is_404(self, server):
        status, payload = request_json(server, "GET", "/v1/jobs/doesnotexist")
        assert status == 404
        assert "doesnotexist" in payload["error"]

    def test_delete_unknown_id_is_404(self, server):
        status, _ = request_json(server, "DELETE", "/v1/jobs/doesnotexist")
        assert status == 404


class TestJobsDisabled:
    def test_routes_404_without_service(self, registry):
        instance = PredictServer(make_served(registry),
                                 ServeConfig(port=0)).start()
        try:
            status, payload = request_json(instance, "GET", "/v1/jobs")
            assert status == 404
            assert "not enabled" in payload["error"]
            status, _ = request_json(instance, "POST", "/v1/jobs",
                                     {"type": "counter"})
            assert status == 404
        finally:
            instance.shutdown()


class TestObservability:
    def test_healthz_jobs_section(self, server):
        request_json(server, "POST", "/v1/jobs",
                     {"type": "counter", "params": {"iterations": 1}})
        status, health = request_json(server, "GET", "/healthz")
        assert status == 200
        jobs = health["jobs"]
        assert set(jobs["counts"]) >= {"queued", "running", "completed"}
        assert jobs["total"] >= 1
        assert "oldest_checkpoint_age_s" in jobs
        assert jobs["executor"]["alive"]
        assert "counter" in jobs["types"]

    def test_metrics_exports_jobs_gauges(self, server):
        host, port = server.address
        connection = HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        # job-state levels are refresh-on-scrape gauges (no _total suffix)
        assert "# TYPE repro_serve_jobs_completed gauge" in text
        assert "# TYPE repro_serve_jobs_total gauge" in text
        assert "# TYPE repro_serve_jobs_oldest_checkpoint_age_s gauge" in text
        assert "# TYPE repro_serve_jobs_executor_busy gauge" in text


class TestJobTracing:
    def test_job_spans_parent_to_the_submitting_request(self, registry,
                                                        tmp_path):
        """The whole async job reads back from the trace as ONE connected
        tree rooted at the submitting HTTP request: serve.request →
        jobs.execute (executor thread, via the persisted trace context) →
        jobs.chunk × N (one per disposable forked step process)."""
        from repro.obs import disable_tracing, enable_tracing
        from repro.obs.export import build_span_forest

        trace_path = tmp_path / "jobs-trace.jsonl"
        enable_tracing(trace_path)
        server = None
        try:
            server = make_server(registry, tmp_path / "jobs",
                                 checkpoint_every=2)
            host, port = server.address
            connection = HTTPConnection(host, port, timeout=30)
            try:
                connection.request(
                    "POST", "/v1/jobs",
                    body=json.dumps({"type": "counter",
                                     "params": {"iterations": 6}}),
                    headers={"Content-Type": "application/json",
                             "X-Request-Id": "job-trace-1"})
                response = connection.getresponse()
                assert response.status == 202
                created = json.loads(response.read())
            finally:
                connection.close()
            wait_for_state(server, created["id"], "completed")
            # the jobs.execute span closes momentarily after the store
            # flips to completed; wait for it to land in the file
            deadline = time.monotonic() + 10.0
            spans = []
            while time.monotonic() < deadline:
                spans = [json.loads(line)
                         for line in trace_path.read_text().splitlines()
                         if line.strip()]
                spans = [e for e in spans if e.get("type") == "span"
                         and e.get("trace") == "job-trace-1"]
                if any(e["name"] == "jobs.execute" for e in spans):
                    break
                time.sleep(0.05)
            use_fork = server.jobs.executor._use_fork
        finally:
            if server is not None:
                server.shutdown()
            disable_tracing()

        by_name = {}
        for event in spans:
            by_name.setdefault(event["name"], []).append(event)
        (request,) = by_name["serve.request"]
        (execute,) = by_name["jobs.execute"]
        chunks = by_name["jobs.chunk"]
        assert request["attrs"]["route"] == "/v1/jobs"
        assert request["parent"] is None
        assert execute["parent"] == request["id"]
        assert execute["attrs"]["job_id"] == created["id"]
        # 6 iterations at checkpoint_every=2: one chunk per checkpoint
        assert len(chunks) >= 2
        for chunk in chunks:
            assert chunk["parent"] == execute["id"]
            assert chunk["attrs"]["job_type"] == "counter"
        if use_fork:
            # each chunk ran in its own disposable forked process
            assert all(c["pid"] != execute["pid"] for c in chunks)
            assert len({c["pid"] for c in chunks}) >= 2

        roots = build_span_forest(spans)
        (root,) = [r for r in roots if r.name == "serve.request"]
        assert not root.orphaned
        (execute_node,) = [c for c in root.children
                           if c.name == "jobs.execute"]
        assert [c.name for c in execute_node.children] == \
            ["jobs.chunk"] * len(chunks)


class TestRestartResume:
    def test_shutdown_parks_job_and_restart_completes_it(
            self, registry, tmp_path, monkeypatch):
        """Drain-shutdown mid-job parks it queued at its checkpoint; a
        fresh server generation on the same jobs dir resumes and the
        checksum proves no step was lost or repeated."""
        jobs_root = tmp_path / "jobs"
        with monkeypatch.context() as patch:
            slow_down_steps(patch, 0.1)
            first = make_server(registry, jobs_root, checkpoint_every=2)
            try:
                _, created = request_json(
                    first, "POST", "/v1/jobs",
                    {"type": "counter", "params": {"iterations": 10}})
                deadline = time.monotonic() + 15.0
                while (not first.jobs.executor.busy
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert first.jobs.executor.busy, "job never started"
            finally:
                first.shutdown()   # SIGTERM analogue: drain + park
        parked = first.jobs.store.get(created["id"])
        assert parked.state == "queued", "shutdown must requeue, not lose"

        second = make_server(registry, jobs_root)
        try:
            final = wait_for_state(second, created["id"], "completed")
        finally:
            second.shutdown()
        assert final["result"]["checksum"] == reference_checksum(10)
