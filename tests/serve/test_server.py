"""HTTP front end: every route end-to-end over a loopback ephemeral port."""

import io
import json
import math
import socket
import struct
import threading
import tracemalloc
import zlib
from http.client import HTTPConnection, HTTPResponse

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    BatchPolicy, ModelRegistry, PredictServer, ServeConfig, ServedModel,
)
from repro.serve.server import _HTTPError, _parse_predict_payload
from repro.tensor import Tensor, no_grad

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def make_served(seed: int, name: str = "peb", registry=None):
    nn.init.seed(seed)
    model, _ = build_method("DeepCNN", GRID)
    model.set_output_stats(0.5, 1.0)
    manifest = registry.publish(model, "DeepCNN", GRID, name)
    loaded, manifest = registry.load(name)
    return ServedModel(loaded, manifest, BatchPolicy(max_wait_ms=2.0))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    served = make_served(0, registry=registry)
    instance = PredictServer(served, ServeConfig(port=0)).start()
    yield instance, served
    instance.shutdown()


@pytest.fixture
def conn(server):
    instance, _ = server
    host, port = instance.address
    connection = HTTPConnection(host, port, timeout=30)
    yield connection
    connection.close()


def handler_threads() -> set[threading.Thread]:
    """The live threads the HTTP server runs connections on."""
    return {thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name}


def npy_bytes(array) -> bytes:
    """A bare ``np.save`` body: an ``.npy``, not the ``.npz`` the route wants."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def npz_bytes(acid) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, acid=acid)
    return buffer.getvalue()


def flipped_npz(anchor: str, offset: int, xor: int) -> bytes:
    """A compressed npz of one clip with one byte flipped, ``offset`` past
    the central directory record or the start of the member's data."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, acid=np.random.default_rng(0).random(GRID.shape))
    body = bytearray(buffer.getvalue())
    name_len, extra_len = struct.unpack_from("<2H", body, 26)
    base = {"central": body.rindex(b"PK\x01\x02"),
            "data": 30 + name_len + extra_len}[anchor]
    body[base + offset] ^= xor
    return bytes(body)


def zeros_npz(shape, chunk_bytes=1 << 22) -> bytes:
    """The archive ``np.savez_compressed(acid=np.zeros(shape))`` writes,
    built without deflating every zero: after a full flush, deflate
    encodes each identical chunk identically, so one encoded chunk is
    repeated."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape})
    header = header.getvalue()
    chunks, rest = divmod(8 * math.prod(shape), chunk_bytes)
    assert rest == 0
    zero = bytes(chunk_bytes)
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    head = deflate.compress(header) + deflate.flush(zlib.Z_FULL_FLUSH)
    repeat = deflate.compress(zero) + deflate.flush(zlib.Z_FULL_FLUSH)
    data = head + repeat * chunks + deflate.flush()
    crc = zlib.crc32(header)
    for _ in range(chunks):
        crc = zlib.crc32(zero, crc)
    size, name = len(header) + chunks * chunk_bytes, b"acid.npy"
    local = struct.pack("<4s5H3L2H", b"PK\x03\x04", 20, 0, 8, 0, 0, crc,
                        len(data), size, len(name), 0) + name
    central = struct.pack("<4s6H3L5H2L", b"PK\x01\x02", 20, 20, 0, 8, 0, 0,
                          crc, len(data), size, len(name), 0, 0, 0, 0, 0,
                          0) + name
    end = struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 1, 1, len(central),
                      len(local) + len(data), 0)
    return local + data + central + end


def post_npz(connection, acid, query=""):
    buffer = io.BytesIO()
    np.savez(buffer, acid=acid)
    connection.request("POST", "/v1/predict" + query, body=buffer.getvalue(),
                       headers={"Content-Type": "application/octet-stream"})
    return connection.getresponse()


class TestPredict:
    def test_npz_round_trip_matches_direct_forward(self, server, conn):
        _, served = server
        acid = np.random.default_rng(0).random(GRID.shape)
        response = post_npz(conn, acid)
        assert response.status == 200
        assert response.getheader("X-Repro-Model") == "peb"
        with np.load(io.BytesIO(response.read())) as archive:
            prediction = archive["prediction"]
        with no_grad():
            direct = served.model(Tensor(acid[None])).numpy()[0]
        assert np.array_equal(prediction, direct)

    def test_json_round_trip(self, conn):
        acid = np.random.default_rng(1).random(GRID.shape)
        conn.request("POST", "/v1/predict", body=json.dumps({"acid": acid.tolist()}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["model"] == "peb" and payload["version"] == 1
        assert tuple(payload["shape"]) == GRID.shape
        assert np.isfinite(np.asarray(payload["prediction"])).all()

    def test_batched_leading_one_accepted(self, conn):
        acid = np.random.default_rng(2).random((1,) + GRID.shape)
        assert post_npz(conn, acid).status == 200

    def test_wrong_shape_400(self, conn):
        response = post_npz(conn, np.ones((3, 3)))
        assert response.status == 400
        assert "expected one clip" in json.loads(response.read())["error"]

    def test_nonfinite_input_400(self, conn):
        acid = np.full(GRID.shape, np.nan)
        response = post_npz(conn, acid)
        assert response.status == 400
        assert "NaN" in json.loads(response.read())["error"]

    def test_garbage_body_400(self, conn):
        conn.request("POST", "/v1/predict", body=b"not an npz",
                     headers={"Content-Type": "application/octet-stream"})
        assert conn.getresponse().status == 400

    def test_json_without_acid_400(self, conn):
        conn.request("POST", "/v1/predict", body=json.dumps({"x": 1}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert "acid" in json.loads(response.read())["error"]

    def test_empty_body_400(self, conn):
        conn.request("POST", "/v1/predict", body=b"",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 400

    def test_unknown_model_404(self, conn):
        response = post_npz(conn, np.ones(GRID.shape), query="?model=nope")
        assert response.status == 404

    def test_unknown_version_404(self, conn):
        response = post_npz(conn, np.ones(GRID.shape), query="?model=peb&version=9")
        assert response.status == 404

    def test_unknown_route_404(self, conn):
        conn.request("POST", "/v2/predict", body=b"{}",
                     headers={"Content-Type": "application/json"})
        assert conn.getresponse().status == 404

    @pytest.mark.parametrize("query, deadline, body, headers, needle", [
        ("", "soon", None, {}, "deadline_ms"),
        ("", [1], None, {}, "deadline_ms"),
        ("", None, None, {"Content-Length": "twelve"}, "Content-Length"),
        ("", float("nan"), None, {}, "deadline_ms"),
        ("?deadline_ms=inf", None, None, {}, "deadline_ms"),
        ("", None, npy_bytes(np.zeros(GRID.shape)),
         {"Content-Type": "application/octet-stream"}, "npz"),
        ("", None, b'{"acid": "\xff"}', {}, "invalid JSON"),
        ("", None, b"[" * 100_000, {}, "invalid JSON"),
        ("", None, npz_bytes(np.zeros(GRID.shape, dtype=np.complex128)),
         {"Content-Type": "application/octet-stream"}, "complex128"),
        ("", None, npz_bytes(np.zeros((3,) + GRID.shape)),
         {"Content-Type": "application/octet-stream"}, "(3, 2, 16, 16)"),
        *[("", None, flipped_npz(*flip),
           {"Content-Type": "application/octet-stream"}, "npz")
          for flip in (("central", 8, 0x01), ("central", 10, 0x60),
                       ("data", 0, 0xff), ("data", 91, 0xff))],
    ], ids=["deadline-string", "deadline-list", "content-length-not-int",
            "deadline-nan", "deadline-query-inf", "npy-not-npz",
            "invalid-utf8", "json-too-deep", "complex-clip",
            "npz-wrong-shape", "npz-encrypted-flag", "npz-unknown-method",
            "npz-corrupt-deflate", "npz-garbled-header"])
    def test_malformed_request_400_and_server_keeps_serving(
            self, server, conn, query, deadline, body, headers, needle):
        if body is None:
            payload = {"acid": np.zeros(GRID.shape).tolist()}
            if deadline is not None:
                payload["deadline_ms"] = deadline
            body = json.dumps(payload)
        conn.request("POST", "/v1/predict" + query, body=body,
                     headers={"Content-Type": "application/json", **headers})
        response = conn.getresponse()
        assert response.status == 400
        assert needle in json.loads(response.read())["error"]
        fresh = HTTPConnection(*server[0].address, timeout=30)
        try:
            assert post_npz(fresh, np.random.default_rng(5).random(GRID.shape)).status == 200
        finally:
            fresh.close()

    def test_npz_shape_checked_before_decompressing(self):
        """A 510 KB archive declaring 64×1024×1024 float64 (512 MiB) is
        refused from its .npy header, not after inflating it."""
        body = zeros_npz((64, 1024, 1024))
        assert len(body) < 600_000
        tracemalloc.start()
        try:
            with pytest.raises(_HTTPError) as raised:
                _parse_predict_payload(body, False, {}, GRID.shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raised.value.status == 400
        assert "(64, 1024, 1024)" in raised.value.message
        assert peak < 16 * 2**20, f"parsing peaked at {peak / 2**20:.0f} MiB"


    def test_route_exception_is_500_json_and_server_keeps_serving(
            self, server, monkeypatch, capfd):
        instance, _ = server

        def broken_listing():
            raise RuntimeError("listing exploded")

        monkeypatch.setattr(instance, "list_models", broken_listing)
        connection = HTTPConnection(*instance.address, timeout=30)
        try:
            connection.request("GET", "/v1/models")
            response = connection.getresponse()
            assert response.status == 500
            assert response.getheader("Connection") == "close"
            assert "listing exploded" in json.loads(response.read())["error"]
        finally:
            connection.close()
        # a server fault still prints its traceback before the 500 goes out
        err = capfd.readouterr().err
        assert "Traceback" in err and "RuntimeError: listing exploded" in err
        fresh = HTTPConnection(*instance.address, timeout=30)
        try:
            assert post_npz(fresh, np.random.default_rng(6).random(GRID.shape)).status == 200
        finally:
            fresh.close()

    def test_client_reset_prints_no_traceback(self, server, capfd):
        """A client that resets its connection went away; that is no
        server fault, so the handler thread prints nothing."""
        instance, _ = server
        before = handler_threads()
        raw = socket.create_connection(instance.address, timeout=30)
        raw.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        # linger on with a zero timeout: close() sends RST, not FIN
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()
        fresh = HTTPConnection(*instance.address, timeout=30)
        try:
            fresh.request("GET", "/healthz")
            response = fresh.getresponse()
            assert response.status == 200
            response.read()
        finally:
            fresh.close()
        for thread in handler_threads() - before:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert "Traceback" not in capfd.readouterr().err


class TestIntrospection:
    def test_healthz(self, conn):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["models"] == ["peb"]
        assert "peb:v1" in payload["queues"]
        assert payload["queues"]["peb:v1"]["queue_depth"] == 0
        assert "cache_evictions" in payload["queues"]["peb:v1"]
        caches = payload["caches"]
        assert "hit_rate" in caches["propagator"]
        assert ({"capacity", "entries", "hit_rate", "evictions"}
                <= set(caches["response"]["peb:v1"]))

    def test_models_listing(self, conn):
        conn.request("GET", "/v1/models")
        payload = json.loads(conn.getresponse().read())
        assert len(payload["models"]) == 1
        entry = payload["models"][0]
        assert entry["name"] == "peb" and entry["latest"] and entry["default"]
        assert entry["content_hash"].startswith("sha256:")

    def test_metrics_prometheus_text(self, conn):
        post_npz(conn, np.random.default_rng(3).random(GRID.shape)).read()
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        body = response.read().decode()
        assert "repro_serve_requests_total" in body
        assert "repro_serve_batch_size_bucket" in body
        assert "repro_serve_request_seconds_count" in body
        # refresh-on-scrape levels are gauges (no _total suffix);
        # cumulative families keep their counter rendering
        for needle in ("# TYPE repro_serve_cache_entries gauge",
                       "# TYPE repro_serve_cache_evictions gauge",
                       "repro_cache_propagator_hits_total"):
            assert needle in body, f"missing {needle} in /metrics"

    def test_get_unknown_route_404(self, conn):
        conn.request("GET", "/v1/predict")
        assert conn.getresponse().status == 404


class TestListenBacklog:
    def test_connection_burst_waits_for_accept(self, tmp_path):
        """16 clients connect before the accept loop runs. socketserver's
        backlog of 5 lets 6 in and drops the others' SYNs (each then
        stalls for the 1 s SYN retransmit); the server's backlog holds
        them all, and each gets its answer once the loop starts."""
        registry = ModelRegistry(tmp_path / "reg")
        instance = PredictServer(make_served(2, name="burst", registry=registry),
                                 ServeConfig(port=0))
        sockets = []
        for _ in range(16):
            sock = socket.socket()
            sock.settimeout(0.5)
            try:
                sock.connect(instance.address)
            except OSError:
                sock.close()
                continue
            sockets.append(sock)
        instance.start()
        try:
            assert len(sockets) == 16
            for sock in sockets:
                sock.settimeout(30)
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                             b"Connection: close\r\n\r\n")
                response = HTTPResponse(sock)
                response.begin()
                assert response.status == 200
                response.read()
        finally:
            for sock in sockets:
                sock.close()
            instance.shutdown()


class TestShutdown:
    def test_graceful_shutdown_is_clean_and_idempotent(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        served = make_served(1, name="solo", registry=registry)
        instance = PredictServer(served, ServeConfig(port=0)).start()
        host, port = instance.address
        connection = HTTPConnection(host, port, timeout=10)
        acid = np.random.default_rng(4).random(GRID.shape)
        assert post_npz(connection, acid).status == 200
        connection.close()
        instance.shutdown()
        assert served.batcher.closed
        # idempotent: a second shutdown must not hang or raise
        instance.shutdown()
        with pytest.raises(OSError):
            fresh = HTTPConnection(host, port, timeout=2)
            fresh.request("GET", "/healthz")
            fresh.getresponse()
