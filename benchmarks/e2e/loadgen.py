"""Single-threaded HTTP/1.1 load generator over at most two connections.

One process, one thread: a ``selectors`` loop multiplexes keep-alive
connections, so the client adds no threads beyond its sockets.  Three
kinds of traffic share the loop:

* :class:`OpenLoop` sends on a fixed schedule regardless of replies.  A
  request is timed from when it was *due*, so a stall also charges the
  requests queued behind it.  ``lag`` is how late the generator itself
  was: send time minus the later of the due time and the moment a
  connection was free, which is what the validity rule checks.
* :class:`ClosedLoop` sends a connection's next request as soon as the
  previous reply is in, for a fixed count or a fixed time.
* :class:`JobLoop` submits ``/v1/jobs`` one at a time and polls each
  until it is terminal.

:func:`run` drives them until every source is exhausted and nothing is
in flight; measured phases run it inside :func:`on_time`.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import selectors
import socket
import time
from dataclasses import dataclass

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    method: str
    path: str
    body: bytes = b""
    content_type: str = "application/octet-stream"
    #: caller's tag (payload id, job index, ...)
    tag: object = None
    source: object = None
    due: float = 0.0
    ready: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    #: HTTP status, 0 for a dropped connection or a timeout
    status: int = 0
    response: bytes = b""

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - max(self.due, self.ready)


class Connection:
    """A non-blocking keep-alive loopback connection with an incremental
    response parser.  A request body the server is slow to read is written
    as the socket drains, so the loop never waits on one connection."""

    def __init__(self, host: str, port: int, selector: selectors.BaseSelector):
        self.host, self.port = host, port
        self.selector = selector
        self.sock: socket.socket | None = None
        self.request: Request | None = None
        self.idle_since = time.perf_counter()
        self._buffer = bytearray()
        self._out = memoryview(b"")

    def send(self, request: Request) -> None:
        if self.sock is None:
            self.sock = socket.create_connection((self.host, self.port),
                                                 timeout=REQUEST_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.setblocking(False)
            self.selector.register(self.sock, selectors.EVENT_READ, self)
        head = (f"{request.method} {request.path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Length: {len(request.body)}\r\n")
        if request.body:
            head += f"Content-Type: {request.content_type}\r\n"
        request.ready = self.idle_since
        request.sent = time.perf_counter()
        self.request = request
        self._buffer.clear()
        self._out = memoryview(head.encode() + b"\r\n" + request.body)
        self.on_writable()

    def on_writable(self) -> None:
        """Write what the socket takes; wait for writability if any is left."""
        try:
            while self._out:
                self._out = self._out[self.sock.send(self._out):]
        except BlockingIOError:
            pass
        except OSError:
            self.fail()
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)
        if self.selector.get_key(self.sock).events != events:
            self.selector.modify(self.sock, events, self)

    def on_readable(self) -> Request | None:
        """Consume available bytes; the finished request once complete."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return None
        except OSError:
            chunk = b""
        if not chunk:
            return self.fail()
        self._buffer += chunk
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        if len(self._buffer) < end + 4 + length:
            return None
        self.request.status = int(head[0].split()[1])
        self.request.response = bytes(self._buffer[end + 4:end + 4 + length])
        return self._finish()

    def fail(self) -> Request:
        """Drop the connection (status 0); the next send reconnects."""
        self.close()
        self.request.status = 0
        return self._finish()

    def _finish(self) -> Request:
        request, self.request = self.request, None
        request.done = self.idle_since = time.perf_counter()
        request.source.done(request)
        return request

    def close(self) -> None:
        if self.sock is not None:
            self.selector.unregister(self.sock)
            self.sock.close()
            self.sock = None


class OpenLoop:
    """Requests due at fixed offsets from the loop start, on any free connection."""

    def __init__(self, requests: list[Request], offsets: list[float]):
        self.pending = list(reversed(list(zip(offsets, requests))))
        self.finished: list[Request] = []
        self.stop = False

    def next_due(self, start: float) -> float | None:
        if self.stop or not self.pending:
            return None
        return start + self.pending[-1][0]

    def take(self, start: float) -> Request:
        offset, request = self.pending.pop()
        request.due = start + offset
        return request

    def done(self, request: Request) -> None:
        self.finished.append(request)


class ClosedLoop:
    """Back-to-back requests: the next is due when the previous returns.

    With ``seconds``, no request is sent once that long has passed since
    the loop started.
    """

    def __init__(self, requests: list[Request], seconds: float | None = None):
        self.pending = list(reversed(requests))
        self.finished: list[Request] = []
        self.ready_at = 0.0
        self.seconds = seconds
        self.stop = False

    def next_due(self, start: float) -> float | None:
        if self.stop or not self.pending:
            return None
        if self.seconds is not None and time.perf_counter() >= start + self.seconds:
            return None
        return max(start, self.ready_at)

    def take(self, start: float) -> Request:
        request = self.pending.pop()
        request.due = max(start, self.ready_at)
        return request

    def done(self, request: Request) -> None:
        self.finished.append(request)
        self.ready_at = request.done


class JobLoop:
    """Submit jobs one after another, polling each until it is terminal."""

    TERMINAL = ("completed", "failed", "cancelled")

    def __init__(self, bodies: list[dict], poll_s: float):
        self.bodies = list(reversed(bodies))
        self.poll_s = poll_s
        #: final job records (``GET /v1/jobs/<id>`` payloads) in submit order
        self.records: list[dict] = []
        self.stop = False
        self._in_flight = False
        self._next: Request | None = self._submit(0.0)

    def _submit(self, due: float) -> Request | None:
        if not self.bodies:
            return None
        return Request("POST", "/v1/jobs", json.dumps(self.bodies.pop()).encode(),
                       "application/json", due=due)

    @property
    def exhausted(self) -> bool:
        return self._next is None and not self._in_flight

    def next_due(self, start: float) -> float | None:
        return None if self._next is None else max(start, self._next.due)

    def take(self, start: float) -> Request:
        request, self._next = self._next, None
        request.due = max(start, request.due)
        self._in_flight = True
        return request

    def done(self, request: Request) -> None:
        self._in_flight = False
        payload = json.loads(request.response) if request.status in (200, 202) else None
        if payload is None:
            self.records.append({"state": "failed", "error": f"HTTP {request.status}"})
            self._next = self._submit(request.done)
        elif payload["state"] in self.TERMINAL:
            self.records.append(payload)
            self._next = self._submit(request.done)
        else:
            self._next = Request("GET", f"/v1/jobs/{payload['id']}",
                                 due=request.done + self.poll_s)


def run(host: str, port: int, lanes: list[list[object]], until: object = None) -> float:
    """Drive traffic sources to completion; returns the wall time.

    ``lanes[i]`` lists the sources that send on connection ``i``; a source
    listed on two lanes (an open loop) sends on whichever is free first.
    Once ``until`` (a source) is exhausted, the other sources stop issuing
    new requests and the loop ends when in-flight requests are answered.
    """
    selector = selectors.DefaultSelector()
    conns = [Connection(host, port, selector) for _ in lanes]
    start = time.perf_counter()
    for conn in conns:
        conn.idle_since = start
    try:
        while True:
            if until is not None and until.exhausted:
                for lane in lanes:
                    for source in lane:
                        source.stop = True
            wake = None
            for conn, lane in zip(conns, lanes):
                if conn.request is not None:
                    if time.perf_counter() - conn.request.sent > REQUEST_TIMEOUT_S:
                        conn.fail()
                    continue
                due, source = _earliest(lane, start)
                if due is not None and due <= time.perf_counter():
                    request = source.take(start)
                    request.source = source
                    conn.send(request)
                    continue
                if due is not None:
                    wake = due if wake is None else min(wake, due)
            busy = any(conn.request is not None for conn in conns)
            if not busy and wake is None and all(
                    _earliest(lane, start)[0] is None for lane in lanes):
                break
            timeout = 1.0 if wake is None else max(0.0, wake - time.perf_counter())
            if busy:
                for key, events in selector.select(timeout):
                    conn = key.data
                    if events & selectors.EVENT_WRITE and conn.request is not None:
                        conn.on_writable()
                    if events & selectors.EVENT_READ and conn.request is not None:
                        conn.on_readable()
            elif timeout > 0:
                time.sleep(timeout)
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    return time.perf_counter() - start


def _earliest(lane, start: float):
    best = (None, None)
    for source in lane:
        due = source.next_due(start)
        if due is not None and (best[0] is None or due < best[0]):
            best = (due, source)
    return best


@contextlib.contextmanager
def on_time(boost: int = 10):
    """Keep the generator on schedule while measured phases run.

    A full pass of the cyclic garbage collector over the benchmark
    process, which holds the in-process model and every payload, takes
    about 14 ms on the reference box: a send that late would break the
    lag rule.  So the collector is frozen and off.  The process also runs
    ``boost`` nice levels higher where the system allows it, so that it
    wins a CPU from the server's threads as soon as a request is due.
    Start no process inside: a child would inherit the priority.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    nice = os.getpriority(os.PRIO_PROCESS, 0)
    try:
        os.setpriority(os.PRIO_PROCESS, 0, nice - boost)
    except PermissionError:
        pass
    try:
        yield
    finally:
        os.setpriority(os.PRIO_PROCESS, 0, nice)
        gc.enable()
        gc.unfreeze()
