"""The oracle and the load generator against a stub server.

The stub answers ``/v1/predict`` with ``2 * acid`` and perturbs the
answers it is told to, so the test knows exactly which responses are
wrong.
"""

import io
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import inputs
import loadgen
import workloads


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: payload marker (acid[0, 0, 0]) -> relative perturbation of the answer
    perturb: dict = {}
    delay_s = 0.0

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib casing
        body = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay_s)
        with np.load(io.BytesIO(body)) as archive:
            acid = archive["acid"]
        prediction = 2.0 * acid
        prediction *= 1.0 + self.perturb.get(float(acid[0, 0, 0]), 0.0)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, prediction=prediction)
        payload = buffer.getvalue()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5.0)
    assert not thread.is_alive()
    _Stub.perturb, _Stub.delay_s = {}, 0.0


def _payloads(count):
    payloads = inputs.Payloads()
    for marker in range(count):
        acid = np.full((2, 4, 4), 0.5)
        acid[0, 0, 0] = marker + 1.0
        payloads.add(acid, checked=True)
    return payloads


def test_oracle_counts_a_perturbed_prediction_as_a_failure(stub):
    payloads = _payloads(4)
    expected = {i: 2.0 * payloads.acids[i] for i in range(4)}
    _Stub.perturb = {2.0: 1e-6, 3.0: 1e-13}   # payload 1 wrong, payload 2 within tolerance
    closed = loadgen.ClosedLoop([workloads.predict_request(payloads, i) for i in range(4)])
    loadgen.run(*stub.server_address, [[closed]])
    outcome = workloads.Outcome(e2e={})
    workloads.tally(outcome, closed.finished, expected)
    assert (outcome.attempted, outcome.checked, outcome.wrong, outcome.failed) == (4, 4, 1, 1)


def test_non_200_and_dropped_connections_are_failures(stub):
    outcome = workloads.Outcome(e2e={})
    missing = loadgen.Request("POST", "/v1/predict", b"x", tag=0)
    missing.status = 503
    dropped = loadgen.Request("POST", "/v1/predict", b"x", tag=1)
    workloads.tally(outcome, [missing, dropped], {})
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 2, 0)


def test_timed_closed_loop_stops_sending_after_its_time(stub):
    _Stub.delay_s = 0.05
    payloads = _payloads(40)
    loop = loadgen.ClosedLoop([workloads.predict_request(payloads, i) for i in range(40)],
                              seconds=0.3)
    loadgen.run(*stub.server_address, [[loop]])
    assert 3 <= len(loop.finished) <= 7 and len(loop.pending) == 40 - len(loop.finished)
    assert all(r.status == 200 for r in loop.finished)


def test_open_loop_times_from_the_due_time(stub):
    _Stub.delay_s = 0.1
    payloads = _payloads(2)
    loop = loadgen.OpenLoop([workloads.predict_request(payloads, i) for i in range(2)],
                            [0.0, 0.01])
    loadgen.run(*stub.server_address, [[loop]])
    first, second = sorted(loop.finished, key=lambda r: r.due)
    assert first.status == second.status == 200
    # the second request waited for the only connection: that wait is
    # latency (timed from due) but not generator lag
    assert second.latency_s >= first.latency_s + 0.08
    assert second.sent >= first.done
    assert second.lag_s < 0.05
